"""N-photon states with visible polarization and hidden mode labels.

Maps creation-operator products to block-diagonal accessible density
matrices: one Hermitian block per total angular momentum j, stored once,
with the convention that the full 2^N matrix repeats each block across its
multiplicity copies.  :func:`expression_to_accessible` gets the blocks from
permanents of single-photon overlap matrices, at a cost that grows as 2^N
rather than N! and linearly in the number of hidden modes.  The explicit
route, expanding into a totally symmetric first-quantized state and then
tracing out the hidden modes, is kept as the small-N reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np

from .expressions import CreationOperatorExpression
from .schur import (
    N_MAX,
    _layout,
    accessible_param_count,
    occurring_two_j,
    schur_basis,
    sector_rotation,
    su2_multiplicity,
)

NORM_TOL = 1e-10
SYMMETRY_TOL = 1e-10
HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
AMPLITUDE_CUTOFF = 1e-14
CANCEL_TOL = 1e-14
RESIDUAL_TOL = 1e-10
PROBE_SEED = 20061208

Label = tuple[str, str]          # (polarization, primitive mode)


# ---------------------------------------------------------------------------
# First-quantized symmetric states
# ---------------------------------------------------------------------------

class FirstQuantizedState:
    """Normalized, totally symmetric amplitude map over N-particle labels.

    Keys are length-N tuples of (polarization, mode) pairs; invariance under
    any permutation of the particle slots is checked on construction.
    """

    def __init__(self, n: int, amplitudes: Mapping[tuple[Label, ...], complex]):
        if not 1 <= n <= N_MAX:
            raise ValueError(f"n must be between 1 and {N_MAX}")
        amps = {k: complex(v) for k, v in amplitudes.items() if v != 0}
        for key in amps:
            if len(key) != n:
                raise ValueError(f"label tuple {key} does not have {n} slots")
            if any(pol not in ("H", "V") for pol, _ in key):
                raise ValueError(f"bad polarization in {key}")
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {NORM_TOL}")
        for i in range(n - 1):
            for key, amp in amps.items():
                swapped = key[:i] + (key[i + 1], key[i]) + key[i + 2:]
                if abs(amps.get(swapped, 0) - amp) > SYMMETRY_TOL:
                    raise ValueError(
                        f"amplitudes not symmetric under swapping slots {i},{i + 1}")
        self.n = n
        self.amplitudes = amps
        self.modes = tuple(sorted({m for key in amps for _, m in key}))

    def visible_vectors(self) -> dict[tuple[str, ...], np.ndarray]:
        """Polarization amplitude vector (length 2^n) for each hidden string."""
        out: dict[tuple[str, ...], np.ndarray] = {}
        for key, amp in self.amplitudes.items():
            hidden = tuple(m for _, m in key)
            idx = 0
            for pol, _ in key:
                idx = (idx << 1) | (0 if pol == "H" else 1)
            vec = out.setdefault(hidden, np.zeros(2 ** self.n, dtype=complex))
            vec[idx] += amp
        return out

    def visible_density_matrix(self) -> np.ndarray:
        """Reduced polarization matrix: partial trace over the hidden slots."""
        dim = 2 ** self.n
        rho = np.zeros((dim, dim), dtype=complex)
        for vec in self.visible_vectors().values():
            rho += np.outer(vec, vec.conj())
        return rho


def _distinct_permutations(items: tuple) -> Iterator[tuple]:
    """All distinct orderings of a multiset (plain recursion; N is small)."""
    if len(items) <= 1:
        yield items
        return
    seen = set()
    for i, head in enumerate(items):
        if head in seen:
            continue
        seen.add(head)
        rest = items[:i] + items[i + 1:]
        for tail in _distinct_permutations(rest):
            yield (head,) + tail


def expand_and_symmetrize(expr: CreationOperatorExpression) -> FirstQuantizedState:
    """Expand an operator product into its normalized symmetric state.

    Each monomial of the expansion contributes the equally weighted sum over
    the distinct arrangements of its labels, scaled by
    sqrt(prod occupation!) / sqrt(number of arrangements) so that relative
    weights match the bosonic norms (e.g. a repeated operator picks up the
    sqrt(2) of (a_H^dag)^2 acting on vacuum).  The total is normalized at
    the end and near-zero amplitudes from exact cancellations are dropped.
    """
    n = expr.n
    if n > N_MAX:
        raise ValueError(f"expression has {n} factors, cap is {N_MAX}")

    monomials: dict[tuple[Label, ...], complex] = {}

    def accumulate(i: int, coef: complex, labels: tuple[Label, ...]):
        if i == n:
            key = tuple(sorted(labels))
            monomials[key] = monomials.get(key, 0) + coef
            return
        for term in expr.factors[i]:
            accumulate(i + 1, coef * term.coefficient,
                       labels + ((term.polarization, term.mode),))

    accumulate(0, 1.0 + 0.0j, ())

    # exact-zero cleanup, relative so that uniformly small coefficients survive
    scale = max((abs(c) for c in monomials.values()), default=0.0)
    if scale == 0.0:
        raise ValueError("expression expands to zero: all terms cancel")

    amplitudes: dict[tuple[Label, ...], complex] = {}
    for labels, coef in monomials.items():
        if abs(coef) < AMPLITUDE_CUTOFF * scale:
            continue
        occupations: dict[Label, int] = {}
        for lab in labels:
            occupations[lab] = occupations.get(lab, 0) + 1
        count = math.factorial(n)
        for occ in occupations.values():
            count //= math.factorial(occ)
        weight = coef * math.sqrt(
            math.prod(math.factorial(occ) for occ in occupations.values()) / count)
        for arrangement in _distinct_permutations(labels):
            amplitudes[arrangement] = amplitudes.get(arrangement, 0) + weight

    if not amplitudes:
        raise ValueError("expression expands to zero: all terms cancel")
    norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values()))
    cleaned = {k: v / norm for k, v in amplitudes.items()
               if abs(v / norm) >= AMPLITUDE_CUTOFF}
    renorm = math.sqrt(sum(abs(a) ** 2 for a in cleaned.values()))
    cleaned = {k: v / renorm for k, v in cleaned.items()}
    return FirstQuantizedState(n, cleaned)


# ---------------------------------------------------------------------------
# Accessible density matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AccessibleDensityMatrix:
    """One Hermitian PSD block per j, rows/columns ordered m = j down to -j.

    The implied full matrix repeats block j across its su2_multiplicity(n, j)
    copies, so the normalization reads sum_j mult_j * trace(block_j) = 1.
    """

    n: int
    blocks: dict[int, np.ndarray]

    def __post_init__(self):
        expected = occurring_two_j(self.n)
        if sorted(self.blocks) != sorted(expected):
            raise ValueError(f"blocks must cover two_j in {expected}")
        total = 0.0
        for two_j, block in self.blocks.items():
            dim = two_j + 1
            if block.shape != (dim, dim):
                raise ValueError(f"block for two_j={two_j} must be {dim}x{dim}")
            if not np.isfinite(block).all():
                raise ValueError(f"block for two_j={two_j} has non-finite entries")
            if np.abs(block - block.conj().T).max() > HERMITICITY_TOL:
                raise ValueError(f"block for two_j={two_j} is not Hermitian")
            eigs = np.linalg.eigvalsh(block)
            if eigs.min() < -PSD_TOL:
                raise ValueError(
                    f"block for two_j={two_j} has negative eigenvalue {eigs.min()}")
            block.setflags(write=False)
            total += su2_multiplicity(self.n, two_j) * block.trace().real
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"multiplicity-weighted trace {total} is not 1")

    @classmethod
    def maximally_mixed(cls, n: int) -> "AccessibleDensityMatrix":
        dim = 2 ** n
        return cls(n, {tj: np.eye(tj + 1, dtype=complex) / dim
                       for tj in occurring_two_j(n)})

    @property
    def param_count(self) -> int:
        return sum((tj + 1) ** 2 for tj in self.blocks)

    def multiplicity(self, two_j: int) -> int:
        return su2_multiplicity(self.n, two_j)

    def symmetric_population(self) -> float:
        """Population of the totally symmetric sector j = n/2."""
        return self.blocks[self.n].trace().real

    def purity(self) -> float:
        return sum(self.multiplicity(tj) * (b @ b).trace().real
                   for tj, b in self.blocks.items())

    def allclose(self, other: "AccessibleDensityMatrix", atol: float = 1e-10) -> bool:
        return self.n == other.n and all(
            np.abs(self.blocks[tj] - other.blocks[tj]).max() <= atol
            for tj in self.blocks)


def _extract_blocks(rho_schur: np.ndarray, n: int) -> tuple[dict[int, np.ndarray], float]:
    """Average the (j, mu) diagonal blocks over mu; also return the largest
    magnitude found outside those diagonal blocks."""
    basis = schur_basis(n)
    remainder = rho_schur.copy()
    blocks: dict[int, np.ndarray] = {}
    for two_j in occurring_two_j(n):
        mult = su2_multiplicity(n, two_j)
        dim = two_j + 1
        acc = np.zeros((dim, dim), dtype=complex)
        for mu in range(1, mult + 1):
            rows = basis.sector_rows(two_j, mu)
            acc += rho_schur[np.ix_(rows, rows)]
            remainder[np.ix_(rows, rows)] = 0.0
        acc /= mult
        blocks[two_j] = (acc + acc.conj().T) / 2
    return blocks, float(np.abs(remainder).max())


def trace_hidden(state: FirstQuantizedState) -> AccessibleDensityMatrix:
    """Trace out the hidden modes of a symmetric state.

    The reduced polarization matrix of a totally symmetric state commutes
    with every permutation, so its Schur-basis coherences between different
    (j, mu) sectors must already vanish; this is asserted before the block
    form is returned.
    """
    rho = state.visible_density_matrix()
    basis = schur_basis(state.n)
    u = basis.matrix
    blocks, off_block = _extract_blocks(u @ rho @ u.conj().T, state.n)
    if off_block > SYMMETRY_TOL:
        raise ValueError(
            f"input state violates permutation symmetry: inter-sector coherence "
            f"{off_block:.3e} exceeds {SYMMETRY_TOL}")
    return AccessibleDensityMatrix(state.n, blocks)


# ---------------------------------------------------------------------------
# Hidden-mode trace from permanents
# ---------------------------------------------------------------------------

def _photon_vectors(expr: CreationOperatorExpression) -> np.ndarray:
    """Unit vector of each factor over (polarization, primitive mode), shape (N, 2, M)."""
    modes = sorted({term.mode for factor in expr.factors for term in factor})
    column = {mode: i for i, mode in enumerate(modes)}
    vectors = np.zeros((expr.n, 2, len(modes)), dtype=complex)
    for k, factor in enumerate(expr.factors):
        # divided by a power of two near its largest part, exactly, so that
        # neither the norm nor the cancellation test underflows or overflows
        largest = max(max(abs(t.coefficient.real), abs(t.coefficient.imag)) for t in factor)
        scale = math.ldexp(1.0, math.frexp(largest)[1] - 1)
        scaled = [t.coefficient / scale for t in factor]
        for term, coefficient in zip(factor, scaled):
            vectors[k, "HV".index(term.polarization), column[term.mode]] += coefficient
        norm = np.linalg.norm(vectors[k])
        if norm <= CANCEL_TOL * sum(map(abs, scaled)):
            raise ValueError(f"expression expands to zero: the terms of factor "
                             f"{k + 1} cancel")
        vectors[k] /= norm
    return vectors


@lru_cache(maxsize=None)
def _glynn_signs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign vectors delta in {+1, -1}^n with delta_1 = +1, and their products."""
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
    # complex like the matrices they multiply: a mixed real-complex matmul
    # misses BLAS and is many times slower
    deltas = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits]).astype(complex)
    parity = deltas.real.prod(axis=1).astype(complex)
    deltas.setflags(write=False)
    parity.setflags(write=False)
    return deltas, parity


def _permanents(mats: np.ndarray) -> np.ndarray:
    """Permanents of a stack of n x n matrices by Glynn's formula.

    perm(M) = 2^-(n-1) sum_delta (prod_k delta_k) prod_l (sum_k delta_k M_kl),
    accumulated one column l at a time to keep the intermediate at one
    value per (matrix, delta).
    """
    n = mats.shape[-1]
    deltas, parity = _glynn_signs(n)
    products = mats[..., 0] @ deltas.T
    for col in range(1, n):
        products *= mats[..., col] @ deltas.T
    return products @ parity / 2 ** (n - 1)


@lru_cache(maxsize=None)
def _probe_design(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe rotations A_i, the real design matrix D over the block
    parameters theta of :class:`accdm.schur._Layout`, and its pseudo-inverse.

    tr(rho A^(x)n) = sum_j mult_j tr(rho_j R_j(A)) is linear in theta:
    column i of the complex design holds each probe's expectation in the
    unit block family ``layout.stack(e_i)``, and D stacks its real parts
    over its imaginary parts.  Seeded Haar-random unitaries, twice as many
    as the C(n+3, 3) unknowns, keep D's condition number in the hundreds up
    to N_MAX, and |tr(rho A^(x)n)| <= 1 for each of them.
    """
    layout = _layout(n)
    count = accessible_param_count(n, 2)
    rng = np.random.default_rng([PROBE_SEED, n])
    q, r = np.linalg.qr(rng.normal(size=(2 * count, 2, 2))
                        + 1j * rng.normal(size=(2 * count, 2, 2)))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    probes = q * (diag / np.abs(diag))[..., None, :]
    units = np.array([layout.stack(e) for e in np.eye(count)])
    # tr(B R) = sum_ab B_ab R_ba: row-major B against row-major R^T
    expectations = sum(
        mult * sector_rotation(probes, n, two_j).transpose(0, 2, 1).reshape(2 * count, -1)
        @ units[:, s, :two_j + 1, :two_j + 1].reshape(count, -1).T
        for s, (two_j, mult) in enumerate(zip(layout.sectors, layout.mult)))
    design = np.vstack([expectations.real, expectations.imag])
    del units, expectations  # so that pinv's workspace alone sets the peak memory
    solve = np.linalg.pinv(design)
    for array in (probes, design, solve):
        array.setflags(write=False)
    return probes, design, solve


def expression_to_accessible(expr: CreationOperatorExpression) -> AccessibleDensityMatrix:
    """Accessible density matrix of an operator product, hidden modes traced out.

    With v_k the unit vector of factor k over polarization x primitive
    hidden mode, the collective operator A^(x)n has expectation
    perm[<v_k|A (x) 1|v_l>] / perm[<v_k|v_l>] in the normalized state.
    That expectation is linear in the blocks, so evaluating it at the fixed
    probe set of :func:`_probe_design` and solving the least-squares system
    recovers them.  The probe matrices <v_k|A (x) 1|v_l> =
    sum_pq A_pq <v_k|p><q|v_l> of all P probes come from one matrix
    product: the probes flattened to (P, 4) against the overlaps
    <v_k|p><q|v_l> flattened to (4, n*n).  Agrees with
    ``trace_hidden(expand_and_symmetrize(expr))`` without the n!-term
    expansion.

    Raises ValueError when a factor's terms cancel, when there are more than
    N_MAX factors, or when the fit leaves a residual above RESIDUAL_TOL.
    """
    n = expr.n
    if n > N_MAX:
        raise ValueError(f"expression has {n} factors, cap is {N_MAX}")
    vectors = _photon_vectors(expr)
    probes, design, solve = _probe_design(n)
    overlaps = np.einsum("kpm,lqm->kplq", vectors.conj(), vectors)
    gram = np.einsum("kplp->kl", overlaps)
    probed = (probes.reshape(len(probes), 4)
              @ overlaps.transpose(1, 3, 0, 2).reshape(4, n * n))
    perms = _permanents(np.concatenate([gram[None], probed.reshape(-1, n, n)]))
    values = perms[1:] / perms[0]
    target = np.concatenate([values.real, values.imag])
    theta = solve @ target
    # the misfit's real and imaginary halves, recombined per probe
    residual = float(np.hypot(*(design @ theta - target).reshape(2, -1)).max())
    if not residual <= RESIDUAL_TOL:
        raise ValueError(f"hidden-mode trace failed: least-squares residual "
                         f"{residual:.3e} exceeds {RESIDUAL_TOL}")
    return AccessibleDensityMatrix(n, _layout(n).blocks(theta))
