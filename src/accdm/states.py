"""N-photon states with visible polarization and hidden mode labels.

Maps creation-operator products to block-diagonal accessible density
matrices: one Hermitian block per total angular momentum j, stored once,
with the convention that the full 2^N matrix repeats each block across its
multiplicity copies.  :func:`expression_to_accessible` gets the blocks
exactly from the coefficients of a permanent of single-photon overlaps,
a polynomial in the entries of a collective rotation, at a cost that grows
as 2^N rather than N!: the map from the blocks to those coefficients is
square, and one cached inverse of it gives the blocks.  The explicit route,
expanding into a totally symmetric first-quantized state and then tracing
out the hidden modes, is kept as the small-N reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .expressions import CreationOperatorExpression, Term
from .schur import (
    N_MAX,
    _layout,
    _real_matmul,
    accessible_param_count,
    occurring_two_j,
    schur_basis,
    su2_multiplicity,
)

NORM_TOL = 1e-10
SYMMETRY_TOL = 1e-10
HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
AMPLITUDE_CUTOFF = 1e-14
CANCEL_TOL = 1e-14
RESIDUAL_TOL = 1e-10

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
    # a factor's overall scale does not change the state; removing it keeps
    # the products of coefficients from underflowing or overflowing
    scales = [_factor_scale(factor) for factor in expr.factors]

    def accumulate(i: int, coef: complex, labels: tuple[Label, ...]):
        if i == n:
            key = tuple(sorted(labels))
            monomials[key] = monomials.get(key, 0) + coef
            return
        for term in expr.factors[i]:
            accumulate(i + 1, coef * (term.coefficient / scales[i]),
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

    norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values()))
    cleaned = {k: v / norm for k, v in amplitudes.items()
               if abs(v / norm) >= AMPLITUDE_CUTOFF}
    renorm = math.sqrt(sum(abs(a) ** 2 for a in cleaned.values()))
    cleaned = {k: v / renorm for k, v in cleaned.items()}
    return FirstQuantizedState(n, cleaned)


# ---------------------------------------------------------------------------
# Accessible density matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AccessibleDensityMatrix:
    """One Hermitian PSD block per j, rows/columns ordered m = j down to -j.

    The implied full matrix repeats block j across its su2_multiplicity(n, j)
    copies, so the normalization reads sum_j mult_j * trace(block_j) = 1.
    The blocks are copied once into ``stack``, the read-only zero-padded
    stack of :class:`accdm.schur._Layout`, which is validated as a whole;
    ``blocks`` is a read-only view of it in ``occurring_two_j`` order, ``n``
    the layout's int.  A state equals only itself: compare with ``allclose``.
    """

    n: int
    blocks: Mapping[int, np.ndarray]
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        layout = _layout(self.n)
        if sorted(self.blocks) != sorted(layout.sectors):
            raise ValueError(f"blocks must cover two_j in {layout.sectors}")
        for two_j in layout.sectors:
            if np.shape(self.blocks[two_j]) != (two_j + 1, two_j + 1):
                raise ValueError(f"block for two_j={two_j} must be {two_j + 1}x{two_j + 1}")
        stack = layout.pad(self.blocks)

        def refuse(failed: np.ndarray, problem: str) -> None:
            if failed.any():
                raise ValueError(f"block for two_j={layout.sectors[failed.argmax()]} {problem}")

        refuse(~np.isfinite(stack).all(axis=(1, 2)), "has non-finite entries")
        refuse(np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(1, 2))
               > HERMITICITY_TOL, "is not Hermitian")
        # the zero padding adds only zero eigenvalues
        low = np.linalg.eigvalsh(stack)[:, 0]
        negative = low < -PSD_TOL
        refuse(negative, f"has negative eigenvalue {low[negative.argmax()]}")
        total = layout.mult @ np.trace(stack, axis1=1, axis2=2).real
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"multiplicity-weighted trace {total} is not 1")
        stack.setflags(write=False)
        object.__setattr__(self, "n", layout.n)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "blocks", MappingProxyType(layout.unpad(stack)))

    def __reduce__(self):
        # a mapping proxy does not pickle; the blocks rebuild the state
        return type(self), (self.n, dict(self.blocks))

    @classmethod
    def maximally_mixed(cls, n: int) -> "AccessibleDensityMatrix":
        return cls(n, {tj: np.eye(tj + 1) / 2 ** n for tj in _layout(n).sectors})

    @property
    def param_count(self) -> int:
        return accessible_param_count(self.n, 2)

    def multiplicity(self, two_j: int) -> int:
        return su2_multiplicity(self.n, two_j)

    def symmetric_population(self) -> float:
        """Population of the totally symmetric sector j = n/2."""
        return float(self.stack[0].trace().real)

    def purity(self) -> float:
        """sum_j mult_j tr(B_j^2), each block Hermitian."""
        return float(_layout(self.n).mult @ (np.abs(self.stack) ** 2).sum(axis=(1, 2)))

    def allclose(self, other: "AccessibleDensityMatrix", atol: float = 1e-10) -> bool:
        return self.n == other.n and bool(np.abs(self.stack - other.stack).max() <= atol)


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

def _factor_scale(factor: tuple[Term, ...]) -> float:
    """A power of two near the largest part of a factor's coefficients:
    dividing by it is exact and brings that part into [1, 2)."""
    largest = max(max(abs(t.coefficient.real), abs(t.coefficient.imag)) for t in factor)
    return math.ldexp(1.0, math.frexp(largest)[1] - 1)


def _photon_vectors(expr: CreationOperatorExpression) -> np.ndarray:
    """Unit vector of each factor over (polarization, primitive mode), shape (N, 2, M)."""
    modes = sorted({term.mode for factor in expr.factors for term in factor})
    column = {mode: i for i, mode in enumerate(modes)}
    vectors = np.zeros((expr.n, 2, len(modes)), dtype=complex)
    for k, factor in enumerate(expr.factors):
        # neither the norm nor the cancellation test underflows or overflows
        scale = _factor_scale(factor)
        scaled = [t.coefficient / scale for t in factor]
        for term, coefficient in zip(factor, scaled):
            vectors[k, "HV".index(term.polarization), column[term.mode]] += coefficient
        norm = np.linalg.norm(vectors[k])
        if norm <= CANCEL_TOL * sum(map(abs, scaled)):
            raise ValueError(f"expression expands to zero: the terms of factor "
                             f"{k + 1} cancel")
        vectors[k] /= norm
    return vectors


def _permanent_coefficients(vectors: np.ndarray) -> np.ndarray:
    """Coefficients over ``_layout(n).monomials`` of perm M(u), for unit
    vectors v_k of shape (n, 2, modes) and M_kl(u) = <v_k|u (x) 1|v_l>, by
    Glynn's formula: perm M = 2^-(n-1) sum_delta (prod_k delta_k) prod_l
    L_l with L_l = sum_k delta_k M_kl.  The product of the linear forms L_l
    is multiplied out one column l at a time: a monomial's new coefficient
    is the dot product of its predecessors' (``_Layout.predecessors``) with
    the coefficients of L_l, one batched matmul over the sign vectors.  The
    sum runs over ``_Layout.signs_per_chunk`` sign vectors at a time, so its
    working memory stays near ``schur.WORK_BYTES`` at every n.
    """
    n = len(vectors)
    layout = _layout(n)
    deltas, parity = layout.glynn_signs
    size = min(layout.signs_per_chunk, len(deltas))
    conj = vectors.conj().reshape(n, -1)
    flat = vectors.reshape(2 * n, -1).T
    # one row per sign vector; the last entry stays zero, for the
    # predecessors at -1, and each chunk overwrites the rest before reading
    products = np.zeros((size, math.comb(n + 3, 3) + 1, 1), dtype=complex)
    coefficients = np.zeros(math.comb(n + 3, 3), dtype=complex)
    for start in range(0, len(deltas), size):
        chunk = deltas[start:start + size]
        rows = products[:len(chunk)]
        # the linear forms sum_k delta_k <v_k|p><q|v_l>, shape (chunk, n, 4, 1)
        mixed = (chunk @ conj).reshape(2 * len(chunk), -1)
        columns = (mixed @ flat).reshape(len(chunk), 2, n, 2)
        columns = columns.transpose(0, 2, 1, 3).reshape(len(chunk), n, 4, 1)
        rows[:, :4] = columns[:, 0]
        for col, table in enumerate(layout.predecessors, start=1):
            np.matmul(rows[:, table, 0], columns[:, col], out=rows[:, :len(table)])
        coefficients += parity[start:start + size] @ rows[:, :-1, 0]
    return coefficients / 2 ** (n - 1)


def expression_to_accessible(expr: CreationOperatorExpression) -> AccessibleDensityMatrix:
    """Accessible density matrix of an operator product, hidden modes traced out.

    With v_k the unit vector of factor k over polarization x primitive
    hidden mode, tr(rho u^(x)n) = perm[<v_k|u (x) 1|v_l>] / perm[<v_k|v_l>]
    is a homogeneous polynomial of degree n in u's entries.  Its C(n+3, 3)
    coefficients c, exact from :func:`_permanent_coefficients`, give the
    blocks through ``_layout(n).inverse``, the exact inverse of the square
    map ``table`` from the blocks to those coefficients.  As a Hermitian
    rho has tr(rho (u^H)^(x)n) = conj tr(rho u^(x)n), c - conj c[transposed]
    is twice the anti-Hermitian part's image; the Hermitian part is kept.
    Agrees with ``trace_hidden(expand_and_symmetrize(expr))`` without the
    n!-term expansion, and draws no random number.

    Raises ValueError when a factor's terms cancel, when there are more than
    N_MAX factors, or when the anti-Hermitian part's coefficients exceed
    RESIDUAL_TOL, as non-finite ones do.
    """
    n = expr.n
    layout = _layout(n)
    coefficients = _permanent_coefficients(_photon_vectors(expr))
    # at u = 1 only the monomials in u00 and u11 remain, and they sum to
    # perm[<v_k|v_l>], which is real; unlike a complex division, a product
    # with 1 / norm does not warn when norm is nan
    scale = 1 / coefficients[~layout.monomials[:, 1:3].any(axis=1)].sum().real
    anti = coefficients - coefficients[layout.transposed].conj()
    residual = float(np.abs(anti).max() * abs(scale) / 2)
    if not residual <= RESIDUAL_TOL:
        raise ValueError(f"hidden-mode trace failed: anti-Hermitian residual "
                         f"{residual:.3e} exceeds {RESIDUAL_TOL}")
    # entry (s, r', r) is mult_j rho_j[r, r']
    stack = np.zeros(layout.shape, dtype=complex)
    stack[layout.in_block] = _real_matmul(coefficients, layout.inverse.T) * scale
    hermitian = (stack + stack.conj().swapaxes(-1, -2)) / 2
    rho = hermitian.swapaxes(-1, -2) / layout.mult[:, None, None]
    return AccessibleDensityMatrix(n, layout.unpad(rho))
