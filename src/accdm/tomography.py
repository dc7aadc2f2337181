"""Reconstruction of accessible density matrices from count data.

Linear inversion seeds a diluted R.rho.R maximum-likelihood iteration that
stays on the block manifold: every operator involved (state, outcome
operators, the R update) is block-form with the repeated-copy structure, so
the iteration never leaves the accessible space.  Convex dilution with
backtracking makes every accepted step monotone in the log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measurement import CountRecord, WaveplateSetting, _outcome_rows
from .schur import accessible_param_count, occurring_two_j, su2_multiplicity
from .states import AccessibleDensityMatrix

LOG_FLOOR = 1e-12
RANK_TOL = 1e-9
START_MIX = 1e-9


class NumericalError(ArithmeticError):
    """The iteration broke an invariant it must keep, so its result is not a
    valid estimate."""


class RankDeficiencyError(ValueError):
    """The measurement settings do not span the accessible operator space."""

    def __init__(self, rank: int, required: int):
        super().__init__(
            f"measurement span has rank {rank}, but {required} independent "
            f"dimensions are required for reconstruction")
        self.rank = rank
        self.required = required


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

class _Dataset:
    """Counts and per-sector outcome row vectors, one row per (setting, outcome)."""

    def __init__(self, records: list[CountRecord]):
        if not records:
            raise ValueError("no count records given")
        n_values = {r.n_h + r.n_v for r in records}
        if len(n_values) != 1:
            raise ValueError(f"records mix photon numbers: {sorted(n_values)}")
        self.n = n_values.pop()
        if self.n < 1:
            raise ValueError("photon number must be at least 1")

        settings: list[WaveplateSetting] = []
        index: dict[tuple[float, float], int] = {}
        for r in records:
            key = (r.qwp_deg, r.hwp_deg)
            if key not in index:
                index[key] = len(settings)
                settings.append(r.setting)
        self.settings = settings
        self.counts = np.zeros((len(settings), self.n + 1))
        for r in records:
            self.counts[index[(r.qwp_deg, r.hwp_deg)], r.n_v] += r.count

        self.rows: dict[int, np.ndarray] = {}
        per_setting = [_outcome_rows(s, self.n) for s in settings]
        for two_j in occurring_two_j(self.n):
            self.rows[two_j] = np.vstack([m[two_j] for m in per_setting])
        self.mult = {tj: su2_multiplicity(self.n, tj)
                     for tj in occurring_two_j(self.n)}

    def probabilities(self, blocks: dict[int, np.ndarray]) -> np.ndarray:
        """Flat outcome probabilities, row-major over (setting, outcome)."""
        p = np.zeros(self.counts.size)
        for two_j, m in self.rows.items():
            quad = np.einsum("ka,ab,kb->k", m, blocks[two_j], m.conj()).real
            p += self.mult[two_j] * quad
        return p

    def design_matrix(self) -> np.ndarray:
        """Probabilities of every Hermitian basis element, one column each."""
        columns = []
        for two_j in occurring_two_j(self.n):
            dim = two_j + 1
            for i in range(dim):
                for j2 in range(i, dim):
                    for unit in ([1.0] if i == j2 else [1.0, 1.0j]):
                        h = np.zeros((dim, dim), dtype=complex)
                        h[i, j2] = unit
                        h[j2, i] = np.conj(unit)
                        blocks = {tj: np.zeros((tj + 1, tj + 1), dtype=complex)
                                  for tj in occurring_two_j(self.n)}
                        blocks[two_j] = h
                        columns.append(self.probabilities(blocks))
        return np.array(columns).T

    def blocks_from_parameters(self, theta: np.ndarray) -> dict[int, np.ndarray]:
        blocks = {}
        pos = 0
        for two_j in occurring_two_j(self.n):
            dim = two_j + 1
            b = np.zeros((dim, dim), dtype=complex)
            for i in range(dim):
                for j2 in range(i, dim):
                    if i == j2:
                        b[i, i] = theta[pos]
                        pos += 1
                    else:
                        b[i, j2] = theta[pos] + 1j * theta[pos + 1]
                        b[j2, i] = theta[pos] - 1j * theta[pos + 1]
                        pos += 2
            blocks[two_j] = b
        return blocks

    def check_span(self, design: np.ndarray) -> None:
        required = accessible_param_count(self.n, 2)
        sv = np.linalg.svd(design, compute_uv=False)
        rank = int((sv > RANK_TOL * sv[0]).sum())
        if rank < required:
            raise RankDeficiencyError(rank, required)


def log_likelihood(rho: AccessibleDensityMatrix, data: list[CountRecord]) -> float:
    """Sum of count * log(probability), with probabilities floored at 1e-12."""
    dataset = _Dataset(data)
    if dataset.n != rho.n:
        raise ValueError(f"data is for {dataset.n} photons, state for {rho.n}")
    p = np.maximum(dataset.probabilities(rho.blocks), LOG_FLOOR)
    return float((dataset.counts.ravel() * np.log(p)).sum())


# ---------------------------------------------------------------------------
# Linear inversion
# ---------------------------------------------------------------------------

def _clip_and_normalize(blocks: dict[int, np.ndarray], n: int) -> dict[int, np.ndarray]:
    clipped = {}
    total = 0.0
    for two_j, b in blocks.items():
        vals, vecs = np.linalg.eigh((b + b.conj().T) / 2)
        vals = np.clip(vals, 0.0, None)
        clipped[two_j] = (vecs * vals) @ vecs.conj().T
        total += su2_multiplicity(n, two_j) * vals.sum()
    if total <= 1e-12:
        raise ValueError("estimate degenerated to zero after positivity clipping")
    return {tj: b / total for tj, b in clipped.items()}


def linear_inversion(data: list[CountRecord]) -> AccessibleDensityMatrix:
    """Least-squares frequency fit, eigenvalue-clipped to a valid state.

    Requires the settings to span the full accessible operator space;
    otherwise a RankDeficiencyError reporting the achieved rank is raised.
    """
    dataset = _Dataset(data)
    design = dataset.design_matrix()
    totals = dataset.counts.sum(axis=1)
    if not (totals > 0).any():
        raise ValueError("all settings have zero total counts")
    # only settings with observed counts constrain the fit
    mask = np.repeat(totals > 0, dataset.n + 1)
    dataset.check_span(design[mask])

    freq = np.zeros_like(dataset.counts)
    freq[totals > 0] = dataset.counts[totals > 0] / totals[totals > 0, None]
    theta, *_ = np.linalg.lstsq(design[mask], freq.ravel()[mask], rcond=None)
    blocks = dataset.blocks_from_parameters(theta)
    return AccessibleDensityMatrix(dataset.n, _clip_and_normalize(blocks, dataset.n))


# ---------------------------------------------------------------------------
# Maximum likelihood
# ---------------------------------------------------------------------------

@dataclass
class ReconstructionResult:
    estimate: AccessibleDensityMatrix
    log_likelihood: float
    iterations: int
    converged: bool
    settings: list[WaveplateSetting]
    observed_frequencies: np.ndarray
    predicted_frequencies: np.ndarray
    ll_trace: np.ndarray = field(repr=False)
    floored_cells: int = 0


def mle_reconstruct(data: list[CountRecord], *, max_iters: int = 100_000,
                    tol: float = 1e-10, dilution: float = 1.0) -> ReconstructionResult:
    """Maximize the log-likelihood over accessible states by diluted R.rho.R.

    Each iteration forms R = sum_k (n_k / p_k) Pi_k in block form, takes the
    convex combination (1 - d) rho + d * normalize(R rho R) with d backtracked
    from ``dilution`` until the log-likelihood does not decrease, and stops
    when the gain drops below ``tol``.  Initialized from clipped linear
    inversion (falling back to the maximally mixed state), mixed with
    START_MIX of the maximally mixed state.

    Raises RankDeficiencyError when the settings do not span the accessible
    space, and NumericalError when the iterate breaks monotonicity or leaves
    the positive cone.
    """
    if not 0 < dilution <= 1.0:
        raise ValueError("dilution must be in (0, 1]")
    dataset = _Dataset(data)
    totals = dataset.counts.sum(axis=1)
    mask = np.repeat(totals > 0, dataset.n + 1)
    dataset.check_span(dataset.design_matrix()[mask])

    try:
        start = linear_inversion(data)
    except ValueError:
        start = AccessibleDensityMatrix.maximally_mixed(dataset.n)
    # Clipping leaves exact zero eigenvalues, and R.rho.R scales each
    # eigenvalue by a positive factor, so round-off of either sign there can
    # grow until the iterate leaves the positive cone.  A trace of the
    # maximally mixed state keeps every eigenvalue far above round-off.
    blocks = {tj: (1 - START_MIX) * b + START_MIX * np.eye(tj + 1) / 2 ** dataset.n
              for tj, b in start.blocks.items()}

    counts = dataset.counts.ravel()
    total_counts = counts.sum()

    def ll_of(b: dict[int, np.ndarray]) -> float:
        p = np.maximum(dataset.probabilities(b), LOG_FLOOR)
        return float((counts * np.log(p)).sum())

    ll = ll_of(blocks)
    trace = [ll]
    converged = False
    iterations = 0
    d_start = dilution
    for iterations in range(1, max_iters + 1):
        p = np.maximum(dataset.probabilities(blocks), 1e-15)
        weights = counts / p / max(total_counts, 1.0)
        direction = {}
        total = 0.0
        for two_j, m in dataset.rows.items():
            r_op = (m.conj().T * weights) @ m
            d_b = r_op @ blocks[two_j] @ r_op
            direction[two_j] = d_b
            total += dataset.mult[two_j] * d_b.trace().real
        if total <= 1e-300:
            converged = True
            break
        for d_b in direction.values():
            d_b /= total

        # backtrack d from the last successful step size (cheaper near the
        # optimum, where the full step keeps getting rejected)
        d = d_start
        candidate = None
        ll_candidate = ll
        while d > 1e-12:
            cand = {tj: (1 - d) * blocks[tj] + d * direction[tj]
                    for tj in blocks}
            ll_cand = ll_of(cand)
            if ll_cand >= ll:
                candidate, ll_candidate = cand, ll_cand
                break
            d /= 2
        if candidate is None:
            converged = True
            break
        d_start = min(dilution, 2 * d)
        gain = ll_candidate - ll
        if not gain >= 0:
            raise NumericalError("accepted step decreased the log-likelihood")
        blocks, ll = candidate, ll_candidate
        trace.append(ll)
        if gain < tol:
            converged = True
            break

    # rounding guard: tens of thousands of convex steps can leave block
    # eigenvalues a hair below zero
    cleaned = {}
    total = 0.0
    for two_j, b in blocks.items():
        vals, vecs = np.linalg.eigh((b + b.conj().T) / 2)
        if not vals.min() > -1e-8:
            raise NumericalError(
                f"iteration left the positive cone: block two_j={two_j} has "
                f"eigenvalue {vals.min():.3e}")
        vals = np.clip(vals, 0.0, None)
        cleaned[two_j] = (vecs * vals) @ vecs.conj().T
        total += dataset.mult[two_j] * vals.sum()
    estimate = AccessibleDensityMatrix(
        dataset.n, {tj: b / total for tj, b in cleaned.items()})
    p_final = dataset.probabilities(estimate.blocks)
    floored = int(((p_final < LOG_FLOOR) & (counts > 0)).sum())
    observed = np.zeros_like(dataset.counts)
    observed[totals > 0] = dataset.counts[totals > 0] / totals[totals > 0, None]
    return ReconstructionResult(
        estimate=estimate,
        log_likelihood=ll,
        iterations=iterations,
        converged=converged,
        settings=dataset.settings,
        observed_frequencies=observed,
        predicted_frequencies=p_final.reshape(dataset.counts.shape),
        ll_trace=np.array(trace),
        floored_cells=floored,
    )


# ---------------------------------------------------------------------------
# Figures of merit
# ---------------------------------------------------------------------------

def _psd_sqrt(block: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(block)
    if vals.min() < -1e-12:
        raise ValueError(f"matrix has negative eigenvalue {vals.min()}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: AccessibleDensityMatrix, sigma: AccessibleDensityMatrix) -> float:
    """Uhlmann fidelity computed blockwise with multiplicity weights.

    F = [sum_j mult_j trace sqrt(sqrt(B_j^rho) B_j^sigma sqrt(B_j^rho))]^2,
    which reduces to <psi|rho|psi> when sigma is pure within one block.
    """
    if rho.n != sigma.n:
        raise ValueError(f"photon numbers differ: {rho.n} vs {sigma.n}")
    acc = 0.0
    for two_j, b_rho in rho.blocks.items():
        root = _psd_sqrt(b_rho)
        inner = root @ sigma.blocks[two_j] @ root
        vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
        acc += rho.multiplicity(two_j) * np.sqrt(np.clip(vals, 0.0, None)).sum()
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
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = rho.symmetric_population()
    purity = rho.purity()
    if s >= 1 - tol and purity >= 1 - tol:
        verdict = "indistinguishable"
    elif s <= 1 - tol:
        verdict = "hidden-differences-detected"
    else:
        verdict = "inconclusive"
    return IndistinguishabilityReport(s, purity, verdict, tol)
