"""Shared fixtures: golden matrices, reference settings, sample count data."""

import os

# The matrices here are tiny: extra BLAS threads only spin, and on a busy
# 2-core host they made a 0.2 s test take 17 s.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import math
from itertools import permutations

import numpy as np
import pytest

from accdm.measurement import CountTable, WaveplateSetting, _OutcomeModel
from accdm.states import AccessibleDensityMatrix, _extract_blocks
from accdm.schur import occurring_two_j, schur_basis, su2_multiplicity

# Expression file for the three-photon state whose third photon's hidden mode
# has only 50% overlap with the mode of the other two.
HALF_OVERLAP_TEXT = """\
# three-photon state, third photon 50% hidden-mode overlap
w = exp(i*2/3*pi)
w2 = exp(i*4/3*pi)
c = 0.7071067811865476*a + 0.7071067811865476*b
(aH + aV)(aH + w*aV)(cH + w2*cV)
"""

# Twelve waveplate settings spanning the full 20-dimensional accessible space.
TWELVE_SETTINGS = [
    WaveplateSetting(q, h)
    for h in (0.0, 12.25, 22.5)
    for q in (0.0, 15.0, 30.0, 45.0)
]

# Simulated counts for the 50%-overlap state at the settings above,
# roughly 10^4 shots per setting; outcome order (3,0), (2,1), (1,2), (0,3).
SAMPLE_COUNTS_TABLE = [
    (0.0, 0.0, (3645, 1459, 1385, 3586)),
    (15.0, 0.0, (2201, 3953, 1006, 2703)),
    (30.0, 0.0, (275, 7699, 160, 1932)),
    (45.0, 0.0, (905, 5260, 2904, 904)),
    (0.0, 12.25, (2078, 2042, 3834, 1975)),
    (15.0, 12.25, (2759, 2388, 2185, 2673)),
    (30.0, 12.25, (2105, 2693, 4174, 1108)),
    (45.0, 12.25, (420, 6700, 1459, 1272)),
    (0.0, 22.5, (910, 2741, 5163, 888)),
    (15.0, 22.5, (892, 4226, 3021, 1899)),
    (30.0, 22.5, (1337, 3838, 3207, 1550)),
    (45.0, 22.5, (1914, 2043, 6069, 0)),
]


def sample_counts():
    return CountTable([WaveplateSetting(qwp, hwp) for qwp, hwp, _ in SAMPLE_COUNTS_TABLE],
                      [counts for _, _, counts in SAMPLE_COUNTS_TABLE])


def half_overlap_blocks():
    """Exact blocks of the 50%-overlap state: corners 4/11 in j=3/2 and
    [[3/44, z], [conj(z), 3/44]] with z = 3/88 - i 3*sqrt(3)/88 in j=1/2."""
    b3 = np.zeros((4, 4), dtype=complex)
    b3[0, 0] = b3[0, 3] = b3[3, 0] = b3[3, 3] = 4 / 11
    z = 3 / 88 - 1j * 3 * math.sqrt(3) / 88
    b1 = np.array([[3 / 44, z], [np.conj(z), 3 / 44]])
    return {3: b3, 1: b1}


@pytest.fixture
def golden_state():
    return AccessibleDensityMatrix(3, half_overlap_blocks())


def noon_state(n):
    """Pure (|H..H> + |V..V>)/sqrt(2) as an accessible density matrix."""
    blocks = {}
    for two_j in occurring_two_j(n):
        dim = two_j + 1
        blocks[two_j] = np.zeros((dim, dim), dtype=complex)
    vec = np.zeros(n + 1, dtype=complex)
    vec[0] = vec[n] = 1 / math.sqrt(2)
    blocks[n] = np.outer(vec, vec.conj())
    return AccessibleDensityMatrix(n, blocks)


def random_settings(rng, count):
    return [WaveplateSetting(q, h) for q, h in rng.uniform(0, 180, size=(count, 2))]


def haar_unitary(rng, d):
    """Haar-random d x d unitary: the QR factor of a complex Gaussian
    matrix, with R's diagonal phases moved into Q."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def files_under(path):
    return sorted(p.relative_to(path) for p in path.rglob("*"))


def random_accessible_state(n, rng):
    """Generic full-rank accessible state with Ginibre blocks."""
    blocks = {}
    total = 0.0
    for two_j in occurring_two_j(n):
        dim = two_j + 1
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = a @ a.conj().T
        blocks[two_j] = b
        total += su2_multiplicity(n, two_j) * b.trace().real
    return AccessibleDensityMatrix(n, {tj: b / total for tj, b in blocks.items()})


def permutation_matrix(perm, n):
    """Matrix permuting tensor factors: particle slot i receives slot perm[i]."""
    dim = 2 ** n
    p = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
        new_idx = 0
        for i in range(n):
            new_idx = (new_idx << 1) | bits[perm[i]]
        p[new_idx, idx] = 1
    return p


def brute_force_twirl(rho, n):
    """(1/N!) sum over all particle permutations of P rho P^T."""
    acc = np.zeros_like(rho)
    for perm in permutations(range(n)):
        p = permutation_matrix(perm, n)
        acc += p @ rho @ p.T
    return acc / math.factorial(n)


def full_matrix(n, blocks):
    """Dense 2^n x 2^n operator of a block family, each block repeated over
    its multiplicity copies in the Schur basis."""
    basis = schur_basis(n)
    dim = 2 ** n
    assembled = np.zeros((dim, dim), dtype=complex)
    for two_j, block in blocks.items():
        for mu in range(1, su2_multiplicity(n, two_j) + 1):
            rows = basis.sector_rows(two_j, mu)
            assembled[np.ix_(rows, rows)] = block
    u = basis.matrix
    return u.conj().T @ assembled @ u


def accessible_projection(rho):
    """The S_N twirl (1/N!) sum_P P rho P^dag of a dense density matrix, in
    block form: its Schur-basis blocks averaged over their multiplicity
    copies.  Leaves rho unchanged when rho commutes with all permutations."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if rho.shape != (dim, dim) or 2 ** n != dim or n < 1:
        raise ValueError("expected a 2^n x 2^n matrix with n >= 1")
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError("input matrix is not Hermitian within tolerance")
    if abs(rho.trace().real - 1.0) > 1e-10:
        raise ValueError("input matrix does not have unit trace within tolerance")
    u = schur_basis(n).matrix
    blocks, _ = _extract_blocks(u @ rho @ u.conj().T, n)
    return AccessibleDensityMatrix(n, blocks)


def pure_string_state(n, bits):
    """|s><s| for a computational string, as an accessible density matrix."""
    dim = 2 ** n
    rho = np.zeros((dim, dim), dtype=complex)
    idx = int(bits, 2)
    rho[idx, idx] = 1.0
    return accessible_projection(rho)


def outcome_operators(setting, n):
    """Block families of the n+1 outcome operators of one setting, (n,0)
    first: the operator view that the MLE and the gap bound use."""
    model = _OutcomeModel([setting], n)
    return [model.layout.blocks(theta)
            for theta in model.operator_theta(np.eye(n + 1))]


def convolution_oracle(polarizations, unitary):
    """P(N_V = r) for photons in distinct hidden modes: independent photons,
    so the count distribution is a convolution of one-photon distributions."""
    dist = np.array([1.0])
    for vec in polarizations:
        h, v = unitary @ (vec / np.linalg.norm(vec))
        dist = np.convolve(dist, [abs(h) ** 2, abs(v) ** 2])
    return dist
