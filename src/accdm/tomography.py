"""Reconstruction of accessible density matrices from count data.

Linear inversion seeds a maximum-likelihood loop of R.rho.R steps that
stays on the block manifold: every operator involved (state, outcome
operators, the R update) is block-form with the repeated-copy structure, so
the loop never leaves the accessible space.  The loop holds the factor A of
rho = A A^H and extrapolates it by SQUAREM, so every point it visits is a
state; an extrapolated point or step is kept only if the log-likelihood
does not drop, and a step that would drop it is diluted with backtracking.
Blocks and factors are stacked in zero-padded arrays of shape (sectors,
N+1, N+1), so that each step is a few whole-array operations whatever the
number of sectors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .measurement import (
    CountTable,
    NumericalError,
    _OutcomeModel,
    _column_rank,
)
from .schur import _Layout, _layout, accessible_param_count
from .states import PSD_TOL, AccessibleDensityMatrix

LOG_FLOOR = 1e-12
START_MIX = 1e-9
# Largest |a| of the SQUAREM step length a, where a = -1 gives the second
# plain step itself.  From a = -2.5 on, the extrapolation amplifies
# round-off on three-photon data until two summation orders of the same
# loop end 1e-9 apart.
EXTRAPOLATION_CAP = 2.375


class RankDeficiencyError(ValueError):
    """The measurement settings do not span the accessible operator space."""

    def __init__(self, rank: int, required: int):
        super().__init__(
            f"measurement span has rank {rank}, but {required} independent "
            f"dimensions are required for reconstruction")
        self.rank = rank
        self.required = required


def _log_likelihood(counts: np.ndarray, p: np.ndarray) -> float:
    """counts @ log(max(p, LOG_FLOOR)), for log_likelihood and the MLE alike."""
    return float(counts @ np.log(np.maximum(p, LOG_FLOOR)))


def log_likelihood(rho: AccessibleDensityMatrix, data: CountTable) -> float:
    """Sum of count * log(probability), with probabilities floored at 1e-12."""
    if data.n != rho.n:
        raise ValueError(f"data is for {data.n} photons, state for {rho.n}")
    p = data.model.probabilities(data.model.layout.stack_theta(rho.stack))
    return _log_likelihood(data.counts.ravel(), p)


# ---------------------------------------------------------------------------
# Linear inversion
# ---------------------------------------------------------------------------

def _clip_and_normalize(stack: np.ndarray, layout: _Layout) -> np.ndarray:
    """Hermitian stacked blocks, as ``_Layout.stack`` writes them, with
    negative eigenvalues set to zero, normalized to a multiplicity-weighted
    trace of 1.  The zero padding adds only zero eigenvalues.  A least-squares
    fit has weighted trace 1, since the symmetric projector gives every
    outcome probability 1, and the clip only raises it."""
    vals, vecs = np.linalg.eigh(stack)
    kept = np.clip(vals, 0.0, None)
    total = layout.mult @ kept.sum(axis=1)
    clipped = (vecs * kept[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    return clipped / total


def linear_inversion(data: CountTable) -> AccessibleDensityMatrix:
    """Least-squares frequency fit, eigenvalue-clipped to a valid state.

    One QR factorization of the observed design D (the rows of the settings
    with counts) with the frequencies f appended gives R and Q^T f, and the
    fit solves R theta = Q^T f.  When the ``_column_rank`` of R, which has
    the singular values of D, is below the parameter count (0 with no
    counts at all), RankDeficiencyError reports it.
    """
    rows = np.repeat(data.counts.sum(axis=1) > 0, data.n + 1)
    required = accessible_param_count(data.n, 2)
    r = np.linalg.qr(np.column_stack([data.model.design[rows],
                                      data.frequencies.ravel()[rows]]), mode="r")
    rank = _column_rank(r[:, :required])
    if rank < required:
        raise RankDeficiencyError(rank, required)
    # R is upper triangular, so the LU factorization of solve pivots nowhere
    theta = np.linalg.solve(r[:required, :required], r[:required, required])
    layout = data.model.layout
    clipped = _clip_and_normalize(layout.stack(theta), layout)
    return AccessibleDensityMatrix(data.n, layout.unpad(clipped))


# ---------------------------------------------------------------------------
# Maximum likelihood
# ---------------------------------------------------------------------------

@dataclass
class ReconstructionResult:
    """The estimate and its diagnostics.

    ``gap_bound`` certifies the estimate: no state has a log-likelihood
    more than this many nats above it (Glancy, Knill, Girard, New J. Phys.
    14, 095017 (2012)).  It is inf when a cell is ``_floored``, as
    ``floored_cells`` counts them.  The bound is first-order: at a maximum
    on the boundary of the state space (rank-deficient) it stays large,
    often hundreds of nats at N = 8, even when the log-likelihood has
    converged.
    """

    estimate: AccessibleDensityMatrix
    log_likelihood: float
    iterations: int
    converged: bool
    predicted_frequencies: np.ndarray
    ll_trace: np.ndarray = field(repr=False)
    floored_cells: int = 0
    gap_bound: float = math.inf


def _floored(counts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Mask of the cells with counts but probability at most LOG_FLOOR,
    which the log-likelihood reads as LOG_FLOOR."""
    return (counts > 0) & (p <= LOG_FLOOR)


def _r_operator(model: _OutcomeModel, fractions: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Stacked R = sum_k (f_k / max(p_k, LOG_FLOOR)) Pi_k, f the fractions
    of the counts, for the R.rho.R step and the gap bound alike."""
    return model.layout.stack(model.operator_theta(fractions / np.maximum(p, LOG_FLOOR)))


def _gap_bound(model: _OutcomeModel, counts: np.ndarray, p: np.ndarray) -> float:
    """sum_k n_k (lambda_max(R) - 1) at probabilities p, R of ``_r_operator``.

    The log-likelihood is concave in the state, so for every state sigma,
    LL(sigma) - LL(rho) <= sum_k n_k (tr(sigma R) - 1), and tr(sigma R) <=
    lambda_max(R).  R holds the fractions, not the counts, so that no
    weight overflows.
    """
    if _floored(counts, p).any():
        return math.inf
    total = counts.sum()
    # the zero padding of the stacked blocks adds only zero eigenvalues,
    # and R is positive semidefinite
    r_max = np.linalg.eigvalsh(_r_operator(model, counts / total, p)).max()
    # tr(rho R) = 1, so only round-off can put the difference below zero
    return max(float(total * (r_max - 1)), 0.0)


def _factor(stack: np.ndarray, layout: _Layout) -> np.ndarray:
    """Stacked factor A with A A^H = stack, from one batched ``eigh``.

    Eigenvalues down to -PSD_TOL count as round-off and are clipped to
    zero; a lower one raises NumericalError naming its sector.  The zero
    padding adds only zero eigenvalues, whose columns of A are zero.
    """
    vals, vecs = np.linalg.eigh(stack)
    for two_j, low in zip(layout.sectors, vals[:, 0]):
        if not low >= -PSD_TOL:
            raise NumericalError(
                f"iterate is outside the positive cone: block two_j={two_j} has "
                f"eigenvalue {low:.3e}")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]


def _gram(a: np.ndarray) -> np.ndarray:
    return a @ a.conj().swapaxes(-1, -2)


def mle_reconstruct(data: CountTable, *, max_iters: int = 100_000,
                    tol: float = 1e-10) -> ReconstructionResult:
    """Maximize the log-likelihood over accessible states by R.rho.R steps
    on the factor of rho, extrapolated by SQUAREM.

    The iterate is a stacked factor A with rho = A A^H, so every point the
    loop visits is a state.  One R.rho.R step forms R = sum_k (n_k / p_k)
    Pi_k in block form and maps A to R A / sqrt(t), t the trace of R rho R
    (Rehacek et al., PRA 75, 042108 (2007)).  The steps run in cycles
    (Varadhan and Roland, Scand. J. Stat. 35, 335 (2008)):

    - two plain steps A0 -> A1 -> A2;
    - the extrapolated point A0 - 2 a r + a^2 v, with r = A1 - A0,
      v = A2 - 2 A1 + A0 and a = max(-|r| / |v|, -EXTRAPOLATION_CAP) in
      the Frobenius norm of the stacked factor, kept only if its
      log-likelihood is at least that of A2 (not tried when a >= -1 - 1/16:
      at a = -1 the point is A2);
    - after an extrapolated point, one stabilizing plain step, kept only
      if it does not lower the log-likelihood.

    A plain step that lowers the log-likelihood is diluted instead: the
    convex combination (1 - d) rho + d R rho R / t with d halved from 1/2
    until the log-likelihood does not decrease, factored again, and the
    cycle ends there without extrapolation.  The loop stops when the first
    plain step of a cycle gains less than ``tol`` (finite, >= 0), or when no
    dilution ascends.  ``iterations`` and ``max_iters`` (an integer >= 1)
    count R.rho.R steps, stabilizing ones included; ``ll_trace`` holds one
    log-likelihood per accepted iterate (start, plain steps, extrapolated
    points, kept stabilizing steps), so its length need not be
    ``iterations + 1``.

    Initialized from clipped linear inversion, mixed with START_MIX of the
    maximally mixed state.  The table's outcome model serves both the loop
    and the linear-inversion start, which also checks the span.

    Raises RankDeficiencyError when the settings do not span the accessible
    space.  The start's block eigenvalues are checked against -PSD_TOL as
    the loop's invariant; a start from ``linear_inversion`` always passes.
    """
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be nonnegative and finite")
    if not (isinstance(max_iters, numbers.Integral) and max_iters >= 1):
        raise ValueError("max_iters must be an integer >= 1")
    model = data.model
    layout = model.layout

    # Clipping leaves exact zero eigenvalues, which R.rho.R can never lift;
    # a trace of the maximally mixed state keeps every eigenvalue positive.
    a = _factor((1 - START_MIX) * linear_inversion(data).stack
                + START_MIX * (np.eye(data.n + 1) * layout.in_block) / 2 ** data.n, layout)

    counts = data.counts.ravel()
    # linear inversion has found counts, so their total is positive
    fractions = counts / counts.sum()
    design, trace_weights = model.design, layout.trace_weights

    def state(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """a rescaled to a state a a^H of unit trace, its probabilities and
        log-likelihood"""
        theta = layout.stack_theta(_gram(a))
        t = trace_weights @ theta
        p = design @ theta / t
        return a / math.sqrt(t), p, _log_likelihood(counts, p)

    def r_step(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        return state(_r_operator(model, fractions, p) @ a)

    def plain(a: np.ndarray, p: np.ndarray, ll: float):
        """(a, p, ll, diluted) of one ascending step, None if none ascends."""
        a1, p1, ll1 = r_step(a, p)
        if ll1 >= ll:
            return a1, p1, ll1, False
        d = 0.5
        while d > 1e-12:
            # probabilities are linear in rho, so those of a convex step
            # follow from those of its two ends
            p_d = (1 - d) * p + d * p1
            ll_d = _log_likelihood(counts, p_d)
            if ll_d >= ll:
                return _factor((1 - d) * _gram(a) + d * _gram(a1), layout), p_d, ll_d, True
            d /= 2
        return None

    def extrapolated(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray, ll2: float):
        r = a1 - a0
        v = a2 - a1 - r
        norm_r, norm_v = math.sqrt(np.vdot(r, r).real), math.sqrt(np.vdot(v, v).real)
        alpha = (-EXTRAPOLATION_CAP if norm_r >= EXTRAPOLATION_CAP * norm_v
                 else -norm_r / norm_v)
        if not alpha < -1 - 1 / 16:
            return None
        point = state(a0 - 2 * alpha * r + alpha * alpha * v)
        return point if point[2] >= ll2 else None

    a, p, ll = state(a)
    trace = [ll]
    converged = False
    iterations = 0
    cycle = []      # the factors that this cycle's plain steps started from
    while iterations < max_iters:
        iterations += 1
        step = plain(a, p, ll)
        if step is None:
            converged = True
            break
        cycle.append(a)
        gain = step[2] - ll
        a, p, ll, diluted = step
        trace.append(ll)
        if len(cycle) == 1 and gain < tol:
            converged = True
            break
        if diluted:
            cycle = []
        if len(cycle) < 2 or iterations == max_iters:
            continue
        point = extrapolated(*cycle, a, ll)
        cycle = []
        if point is None:
            continue
        a, p, ll = point
        trace.append(ll)
        iterations += 1
        stable = r_step(a, p)
        if stable[2] >= ll:
            a, p, ll = stable
            trace.append(ll)

    theta = layout.stack_theta(_gram(a))
    theta /= trace_weights @ theta
    estimate = AccessibleDensityMatrix(data.n, layout.blocks(theta))
    p_final = model.probabilities(theta)
    return ReconstructionResult(
        estimate=estimate,
        log_likelihood=ll,
        iterations=iterations,
        converged=converged,
        predicted_frequencies=p_final.reshape(data.counts.shape),
        ll_trace=np.array(trace),
        floored_cells=int(_floored(counts, p_final).sum()),
        gap_bound=_gap_bound(model, counts, p_final),
    )


# ---------------------------------------------------------------------------
# Figures of merit
# ---------------------------------------------------------------------------

def fidelity(rho: AccessibleDensityMatrix, sigma: AccessibleDensityMatrix) -> float:
    """Uhlmann fidelity of two accessible states, on their stacks.

    F = [sum_j mult_j trace sqrt(sqrt(B_j^rho) B_j^sigma sqrt(B_j^rho))]^2,
    which reduces to <psi|rho|psi> when sigma is pure within one block.
    rho's eigenvalues are clipped at zero: a state's are at least -PSD_TOL.
    """
    if rho.n != sigma.n:
        raise ValueError(f"photon numbers differ: {rho.n} vs {sigma.n}")
    vals, vecs = np.linalg.eigh(rho.stack)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    inner = root @ sigma.stack @ root
    vals = np.linalg.eigvalsh((inner + inner.conj().swapaxes(-1, -2)) / 2)
    acc = _layout(rho.n).mult @ np.sqrt(np.clip(vals, 0.0, None)).sum(axis=1)
    return float(min(acc ** 2, 1.0))


@dataclass(frozen=True)
class IndistinguishabilityReport:
    symmetric_population: float
    purity: float
    verdict: str
    tolerance: float


def indistinguishability_report(rho: AccessibleDensityMatrix,
                                tol: float = 1e-3) -> IndistinguishabilityReport:
    """Classify the state by symmetric population s and purity P.

    ``indistinguishable`` requires both s and P within tol of 1: all
    population symmetric and no entanglement with hidden modes.  A symmetric
    deficit proves hidden differences; a symmetric but impure state is
    ``inconclusive`` (polarization mixing and symmetric hidden correlations
    are indistinguishable by these two numbers alone).
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    s = rho.symmetric_population()
    purity = rho.purity()
    if s >= 1 - tol and purity >= 1 - tol:
        verdict = "indistinguishable"
    elif s <= 1 - tol:
        verdict = "hidden-differences-detected"
    else:
        verdict = "inconclusive"
    return IndistinguishabilityReport(s, purity, verdict, tol)
