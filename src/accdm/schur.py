"""Schur-Weyl machinery for N two-level systems (polarization qubits).

The N-qubit space decomposes into total-angular-momentum sectors j, each
occurring with a multiplicity determined by the Clebsch-Gordan series.  This
module provides the counting side of that decomposition (multiplicities,
irrep dimensions via the Weyl character formula, parameter counts), the
explicit orthonormal change of basis from the computational {H,V}^N basis to
(j, multiplicity copy, weight) labels, built by sequential angular-momentum
coupling, and the one real-vector form of a family of sector blocks.

A collective rotation u^(x)N acts on sector j through R_j(u) = det(u)^m
Sym^(2j)(u), m = (N - 2j)/2.  The layout of N photons holds its real
monomial coefficients as its ``table``, one column per in-block entry of
the stack; it is square and invertible.  It serves the sector rotations
and the outcome rows of ``accdm.measurement``, and its exact inverse gives
``accdm.states`` the blocks from the coefficients of tr(rho u^(x)N).

Half-integer angular momenta are represented exactly as doubled integers:
``two_j = 2j`` and ``two_m = 2m``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import Iterator, Sequence

import numpy as np

#: Largest photon number.  ``_layout`` refuses every state, outcome model,
#: count set and expression beyond it; the dense oracles check it themselves.
N_MAX = 10

#: Working memory, in bytes, of one chunk of analyze's Glynn sum or of the
#: outcome model's rows; the layout's ``signs_per_chunk`` and
#: ``settings_per_chunk`` turn it into chunk lengths at each n.  640 KiB
#: keeps the Glynn sum of n <= 7 in one chunk, and every chunk at n = 8
#: smaller than the design of 48 settings.
WORK_BYTES = 640 * 2 ** 10


# ---------------------------------------------------------------------------
# Counting: multiplicities, dimensions, parameter counts
# ---------------------------------------------------------------------------

def occurring_two_j(n: int) -> list[int]:
    """Doubled j values present for n qubits, descending (n, n-2, ..., 0 or 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(range(n, -1, -2))


def su2_multiplicity(n: int, two_j: int) -> int:
    """Number of copies of spin j in the n-fold product of spin-1/2.

    Catalan-triangle form of the Clebsch-Gordan series:
    ``C(n, (n-2j)/2) - C(n, (n-2j)/2 - 1)``.  Returns 0 when (n, two_j) is
    not a valid pair (j < 0, j > n/2, or parity mismatch).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if two_j < 0 or two_j > n or (n - two_j) % 2 != 0:
        return 0
    k = (n - two_j) // 2
    return math.comb(n, k) - (math.comb(n, k - 1) if k >= 1 else 0)


def partitions(n: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into at most max_parts parts, lexicographically decreasing."""
    def rec(remaining: int, cap: int, parts_left: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first, parts_left - 1):
                yield (first,) + rest

    yield from rec(n, n, max_parts)


def _validate_partition(partition: Sequence[int], d: int) -> tuple[int, ...]:
    lam = tuple(int(x) for x in partition)
    if len(lam) == 0 or len(lam) > d:
        raise ValueError(f"partition must have between 1 and d={d} parts, got {lam}")
    if any(x < 0 for x in lam):
        raise ValueError(f"partition entries must be nonnegative, got {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition entries must be weakly decreasing, got {lam}")
    return lam


def weyl_dimension(partition: Sequence[int], d: int) -> int:
    """Dimension of the SU(d) irrep labelled by a Young diagram.

    Weyl character formula: prod over 1 <= i < j <= d of
    ``(lam_i - lam_j + j - i) / (j - i)`` with the partition padded to
    length d by zeros.  For d = 2 this is 2j + 1.  With l nonzero parts, the
    pairs (i, j > l) give C(lam_i + d - i, lam_i) / C(lam_i + l - i, lam_i).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    lam = [x for x in _validate_partition(partition, d) if x]
    parts = len(lam)
    numerator = denominator = 1
    for i, a in enumerate(lam):
        numerator *= math.comb(a + d - 1 - i, a)
        denominator *= math.comb(a + parts - 1 - i, a)
        for j in range(i + 1, parts):
            numerator *= a - lam[j] + j - i
            denominator *= j - i
    return numerator // denominator


def symmetric_dimension(n: int, d: int) -> int:
    """Dimension C(n+d-1, n) of the totally symmetric subspace of n qudits."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return math.comb(n + d - 1, n)


def accessible_param_count(n: int, d: int) -> int:
    """Number of independent real parameters in an accessible density matrix.

    Equals C(n + d^2 - 1, n), which is also the sum of squared irrep
    dimensions over all partitions of n into at most d parts.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return math.comb(n + d * d - 1, n)


# ---------------------------------------------------------------------------
# Explicit Schur basis by sequential coupling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchurBasisVector:
    """One basis vector |j, mu, m> with its computational-basis amplitudes.

    ``amplitudes[idx]`` is the coefficient of the computational string whose
    bits (most significant = particle 1) encode H as 0 and V as 1.
    """
    two_j: int
    mu: int
    two_m: int
    amplitudes: np.ndarray


class SchurBasis:
    """Orthonormal (j, mu, m) basis of (C^2)^(x)n, ordered j desc, mu asc, m desc.

    Multiplicity copies are sequential-coupling paths: particle 1 is coupled
    with particle 2, the result with particle 3, and so on.  mu enumerates
    the intermediate-j paths in ascending lexicographic order of the doubled
    intermediate momenta.
    """

    def __init__(self, n: int, vectors: Sequence[SchurBasisVector]):
        self.n = n
        self.vectors = tuple(vectors)
        self._row = {(v.two_j, v.mu, v.two_m): i for i, v in enumerate(self.vectors)}
        self._cached_matrix: np.ndarray | None = None

    def row_index(self, two_j: int, mu: int, two_m: int) -> int:
        return self._row[(two_j, mu, two_m)]

    def sector_rows(self, two_j: int, mu: int) -> list[int]:
        """Row indices of the (j, mu) copy, weight m descending."""
        return [self.row_index(two_j, mu, two_m)
                for two_m in range(two_j, -two_j - 1, -2)]

    @property
    def matrix(self) -> np.ndarray:
        """Unitary U with U[row] = conj(amplitudes); U rho U^dag lands in Schur labels."""
        if self._cached_matrix is None:
            u = np.array([v.amplitudes.conj() for v in self.vectors])
            u.setflags(write=False)
            self._cached_matrix = u
        return self._cached_matrix


def _couple_spin_half(vecs: dict[int, np.ndarray], two_jp: int, up: bool) -> dict[int, np.ndarray]:
    """Couple one more spin-1/2 onto a spin-j' standard multiplet.

    ``vecs`` maps two_m' to amplitude vectors over 2^k strings; the new
    particle is appended as the least significant bit (0 = H).  Standard
    Condon-Shortley coefficients, so each returned multiplet is again a
    ladder-consistent standard basis.
    """
    two_j = two_jp + 1 if up else two_jp - 1
    dim = len(next(iter(vecs.values())))
    out: dict[int, np.ndarray] = {}
    for two_m in range(two_j, -two_j - 1, -2):
        v = np.zeros(2 * dim)
        # fractions (j' +/- m + 1/2) / (2j' + 1) in doubled-integer form
        c_h = Fraction(two_jp + two_m + 1, 2 * (two_jp + 1))
        c_v = Fraction(two_jp - two_m + 1, 2 * (two_jp + 1))
        if not up:
            c_h, c_v = -c_v, c_h
        if abs(two_m - 1) <= two_jp:
            coef = math.sqrt(abs(c_h)) * (1 if c_h >= 0 else -1)
            v[0::2] += coef * vecs[two_m - 1]
        if abs(two_m + 1) <= two_jp:
            coef = math.sqrt(abs(c_v)) * (1 if c_v >= 0 else -1)
            v[1::2] += coef * vecs[two_m + 1]
        out[two_m] = v
    return out


@lru_cache(maxsize=None)
def schur_basis(n: int) -> SchurBasis:
    """Build the Schur basis for n qubits by sequential coupling.

    Raises ValueError outside 1 <= n <= N_MAX, the photon-number cap of the
    whole package.
    """
    if not 1 <= n <= N_MAX:
        raise ValueError(f"n must be between 1 and {N_MAX}, got {n}")

    paths: dict[tuple[int, ...], dict[int, np.ndarray]] = {
        (1,): {1: np.array([1.0, 0.0]), -1: np.array([0.0, 1.0])}
    }
    for _ in range(n - 1):
        grown: dict[tuple[int, ...], dict[int, np.ndarray]] = {}
        for path, vecs in paths.items():
            two_jp = path[-1]
            grown[path + (two_jp + 1,)] = _couple_spin_half(vecs, two_jp, up=True)
            if two_jp > 0:
                grown[path + (two_jp - 1,)] = _couple_spin_half(vecs, two_jp, up=False)
        paths = grown

    by_sector: dict[int, list[tuple[int, ...]]] = {}
    for path in sorted(paths):
        by_sector.setdefault(path[-1], []).append(path)

    vectors: list[SchurBasisVector] = []
    for two_j in occurring_two_j(n):
        for mu, path in enumerate(by_sector[two_j], start=1):
            for two_m in range(two_j, -two_j - 1, -2):
                amp = paths[path][two_m].astype(complex)
                amp.setflags(write=False)
                vectors.append(SchurBasisVector(two_j, mu, two_m, amp))
    return SchurBasis(n, vectors)


# ---------------------------------------------------------------------------
# Collective rotations restricted to a sector
# ---------------------------------------------------------------------------

def _real_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a complex a and a real b, as two real products: a
    complex-by-real matmul misses BLAS."""
    return a.real @ b + 1j * (a.imag @ b)


def sector_rotation(u: np.ndarray, n: int, two_j: int) -> np.ndarray:
    """Block of the collective rotation u^(x)n within one spin-j sector.

    Identical for every multiplicity copy of the sequential-coupling basis:
    det(u)^((n-2j)/2) Sym^(2j)(u) for any 2x2 u, or for each of a stack of
    them, read from ``_layout(n).rotations``; ``sector_rotation(u, k, k)``
    is Sym^k(u).  Rows and columns are ordered by weight m descending, the
    number of V's.  Raises ValueError unless n is an integer in 1..N_MAX
    and j occurs.
    """
    layout = _layout(n)
    if not isinstance(two_j, numbers.Integral) or su2_multiplicity(n, two_j) == 0:
        raise ValueError(f"two_j={two_j!r} does not occur for n={n}")
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (2, 2):
        raise ValueError("u must be 2x2 or a stack of 2x2 matrices")
    return layout.rotations(u)[..., (n - two_j) // 2, :two_j + 1, :two_j + 1]


# ---------------------------------------------------------------------------
# One real vector per block family
# ---------------------------------------------------------------------------

class _Layout:
    """The real-vector form of accessible block families of n photons, the
    only code that knows its order; ``_layout(n)`` builds it once per n.

    The parameter vector ``theta`` holds the real parts of every block's
    upper triangle, row by row and sectors in ``occurring_two_j`` order,
    then the imaginary parts of the off-diagonal ones in the same order:
    C(n+3, 3) entries.  The blocks are also held stacked: one zero-padded
    complex array of shape (sectors, n+1, n+1), block two_j in the
    top-left corner of its slice, and ``in_block`` masks its C(n+3, 3)
    in-block entries.  ``gather`` and ``scatter`` map between
    theta and the float view of that array, raveled.  Hermitian families
    have the inner product sum_j mult_j tr(A_j B_j) = scale @ (theta_A *
    theta_B), and ``trace_weights`` is scale times the identity's theta.
    ``monomials`` holds the exponents of (u00, u01, u10, u11) in each
    degree-n monomial of a 2x2 matrix's entries, degree 1 in that order,
    and ``transposed`` the position of each with u01's and u10's swapped.
    The tables of analyze's permanent, ``glynn_signs`` and
    ``predecessors``, are built on first use like ``table`` and ``inverse``.
    """

    def __init__(self, n: int):
        self.n = n
        self.monomials = np.array([[c.count(e) for e in range(4)]
                                   for c in combinations_with_replacement(range(4), n)])
        self._index = {tuple(e): i for i, e in enumerate(self.monomials.tolist())}
        self.transposed = np.array([self._index[a, c, b, d]
                                    for a, b, c, d in self.monomials.tolist()])
        self.sectors = occurring_two_j(n)
        self.shape = (len(self.sectors), n + 1, n + 1)
        self.mult = np.array([su2_multiplicity(n, tj) for tj in self.sectors])
        index = np.arange(n + 1)
        self.in_block = (np.maximum(index[:, None], index)
                         <= np.array(self.sectors)[:, None, None])
        # sector and position of each upper-triangle entry, in theta order
        self._sector, self._row, self._col = np.nonzero(self.in_block
                                                        & (index[:, None] <= index))
        self._off = self._row != self._col
        # an off-diagonal entry appears twice in the inner product
        entry_scale = self.mult[self._sector] * np.where(self._off, 2, 1)
        self.scale = np.concatenate([entry_scale, entry_scale[self._off]])
        # float positions: 2 * complex position for the real part, + 1 for
        # the imaginary part; the lower triangle holds the conjugate
        upper = 2 * ((self._sector * (n + 1) + self._row) * (n + 1) + self._col)
        lower = 2 * ((self._sector * (n + 1) + self._col) * (n + 1) + self._row)
        self.gather = np.concatenate([upper, upper[self._off] + 1])
        count, imag = upper.size, np.arange(upper.size, self.scale.size)
        self.scatter = np.concatenate([upper, lower, upper[self._off] + 1,
                                       lower[self._off] + 1])
        self.source = np.concatenate([np.arange(count), np.arange(count), imag, imag])
        self.sign = np.concatenate([np.ones(2 * count + imag.size), -np.ones(imag.size)])
        # theta @ trace_weights is sum_j mult_j tr B_j
        self.trace_weights = self.scale * self.theta(
            {tj: np.eye(tj + 1) for tj in self.sectors})
        for array in (self.monomials, self.transposed, self.mult, self.in_block,
                      self._sector, self._row, self._col, self._off, self.scale,
                      self.trace_weights, self.gather, self.scatter, self.source, self.sign):
            array.setflags(write=False)

    def stack(self, theta: np.ndarray) -> np.ndarray:
        """Stacked Hermitian blocks of a real parameter vector."""
        flat = np.zeros(2 * math.prod(self.shape))
        flat[self.scatter] = theta[self.source] * self.sign
        return flat.view(complex).reshape(self.shape)

    def stack_theta(self, stack: np.ndarray) -> np.ndarray:
        """Real parameter vectors of stacked Hermitian blocks (upper
        triangles), shape (..., sectors, n+1, n+1) in."""
        return stack.reshape(stack.shape[:-3] + (-1,)).view(float)[..., self.gather]

    def pad(self, blocks: dict[int, np.ndarray]) -> np.ndarray:
        """Stacked form of a block family."""
        stack = np.zeros(self.shape, dtype=complex)
        for s, two_j in enumerate(self.sectors):
            stack[s, :two_j + 1, :two_j + 1] = blocks[two_j]
        return stack

    def unpad(self, stack: np.ndarray) -> dict[int, np.ndarray]:
        """Block family of a stacked form, as views into it."""
        return {tj: stack[s, :tj + 1, :tj + 1] for s, tj in enumerate(self.sectors)}

    def theta(self, blocks: dict[int, np.ndarray]) -> np.ndarray:
        """Real parameter vector of a Hermitian block family."""
        return self.stack_theta(self.pad(blocks))

    def outer_theta(self, rows: np.ndarray) -> np.ndarray:
        """Real parameter vectors of the families conj(m) m^T of rows m,
        shape (..., sectors, n+1) in, (..., C(n+3, 3)) out."""
        outer = (rows[..., self._sector, self._row].conj()
                 * rows[..., self._sector, self._col])
        return np.concatenate([outer.real, outer[..., self._off].imag], axis=-1)

    def blocks(self, theta: np.ndarray) -> dict[int, np.ndarray]:
        """Hermitian block family of a real parameter vector."""
        return self.unpad(self.stack(theta))

    @cached_property
    def table(self) -> np.ndarray:
        """Real coefficient of each monomial of ``monomials`` (rows) in entry
        (r', r) of sector s's R_j(u), for each in-block entry (s, r', r) of
        the stack in stack order (columns), built on first use.  The table
        is square, C(n+3, 3) on each side, and invertible.

        R_j(u) = det(u)^m Sym^k(u), k = 2j, m = (n - k)/2.  Entry (r', r) of
        Sym^k, r the number of V's in, is sqrt(C(k, r) / C(k, r')) times the
        H^(k-r') V^r' part of (u00 H + u10 V)^(k-r) (u01 H + u11 V)^r, and
        det(u)^m = sum_i C(m, i) (-1)^i (u00 u11)^(m-i) (u01 u10)^i.
        """
        table = np.zeros((len(self._index),) * 2)
        for column, (s, rp, r) in enumerate(np.argwhere(self.in_block).tolist()):
            k = self.sectors[s]
            m = (self.n - k) // 2
            scale = math.sqrt(math.comb(k, r) / math.comb(k, rp))
            for p in range(max(0, k - rp - r), min(k - r, k - rp) + 1):
                q = k - rp - p
                weight = math.comb(k - r, p) * math.comb(r, q) * scale
                for i in range(m + 1):
                    table[self._index[p + m - i, q + i, k - r - p + i, r - q + m - i],
                          column] += (-1) ** i * math.comb(m, i) * weight
        table.setflags(write=False)
        return table

    @cached_property
    def inverse(self) -> np.ndarray:
        """Inverse of ``table``, built on first use: from the coefficients of
        sum_j mult_j tr(rho_j R_j(u)) over ``monomials`` to the stack's
        in-block entries mult_j rho_j[r, r'], at (s, r', r)."""
        inverse = np.linalg.inv(self.table)
        inverse.setflags(write=False)
        return inverse

    @cached_property
    def glynn_signs(self) -> tuple[np.ndarray, np.ndarray]:
        """Sign vectors delta in {+1, -1}^n with delta_1 = +1, and their
        products, for Glynn's permanent formula."""
        bits = (np.arange(2 ** (self.n - 1))[:, None] >> np.arange(self.n - 1)) & 1
        # complex like the matrices they multiply: a mixed real-complex matmul
        # misses BLAS and is many times slower
        deltas = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits]).astype(complex)
        parity = deltas.real.prod(axis=1).astype(complex)
        deltas.setflags(write=False)
        parity.setflags(write=False)
        return deltas, parity

    @cached_property
    def predecessors(self) -> tuple[np.ndarray, ...]:
        """For each degree d = 2..n, the position among the monomials of
        degree d - 1 of each one of degree d divided by each entry u_e,
        shape (C(d+3, 3), 4), or -1 where u_e does not divide it; the
        tables below degree n are those of the lower layouts."""
        if self.n == 1:
            return ()
        below = _layouts(self.n - 1)
        table = np.array([[below._index.get(tuple(e[:k] + [e[k] - 1] + e[k + 1:]), -1)
                           for k in range(4)] for e in self.monomials.tolist()])
        table.setflags(write=False)
        return below.predecessors + (table,)

    @property
    def signs_per_chunk(self) -> int:
        """Sign vectors per chunk of analyze's Glynn sum, at least one.  Each
        takes 80 C(n+3, 3) bytes: a complex coefficient per monomial and a
        gather of four predecessors for each.  Read from WORK_BYTES at every
        call, like ``settings_per_chunk``."""
        return max(1, WORK_BYTES // (80 * len(self.monomials)))

    @property
    def settings_per_chunk(self) -> int:
        """Settings per chunk of the outcome model's rows, at least one.  Each
        takes about 32 (n+1) C(n+3, 3) bytes, as measured at n = 8 and 10:
        its n+1 outcome rows' outer products, complex and then real, with
        its monomial values and every sector's R_j(u)."""
        return max(1, WORK_BYTES // (32 * (self.n + 1) * len(self.monomials)))

    def monomial_values(self, u: np.ndarray) -> np.ndarray:
        """Values of ``monomials`` at a stack of 2x2 matrices, shape
        (..., 2, 2) in, (..., C(n+3, 3)) out."""
        powers = u.reshape(u.shape[:-2] + (4, 1)) ** np.arange(self.n + 1)
        return np.prod(powers[..., np.arange(4), self.monomials], axis=-1)

    def rotations(self, u: np.ndarray) -> np.ndarray:
        """Every sector's R_j(u) at a stack of 2x2 matrices, shape
        (..., 2, 2) in, (..., sectors, n+1, n+1) out, zero-padded like the
        stack."""
        rotations = np.zeros(u.shape[:-2] + self.shape, dtype=complex)
        rotations[..., self.in_block] = _real_matmul(self.monomial_values(u), self.table)
        return rotations


_layouts = lru_cache(maxsize=None)(_Layout)


def _layout(n: int) -> _Layout:
    """Cached ``_Layout`` of n photons; the one gate on n, ValueError unless n
    is an integer in 1..N_MAX, checked on every call, before the cache.  It
    hands on one int, ``operator.index(n)``, so 3, np.int64(3) and True's 1
    share one layout, whose ``n`` is that int."""
    if not (isinstance(n, numbers.Integral) and 1 <= n <= N_MAX):
        raise ValueError(f"photon number must be an integer between 1 and {N_MAX}, got {n!r}")
    return _layouts(operator.index(n))

