"""Waveplate / polarizing-beamsplitter / photon-counting measurement model.

A quarter waveplate and a half waveplate rotate the collective polarization
state; a polarizing beamsplitter with number-resolving counters then yields
one of N+1 outcomes (N_H, N_V).  Every outcome operator commutes with
particle permutations, so each is represented exactly in accessible block
form: one Hermitian block per total angular momentum j.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .schur import _layout
from .states import NORM_TOL, PSD_TOL, AccessibleDensityMatrix

RANK_TOL = 1e-9
# a design certified by _full_rank has sigma_min / sigma_max above the square
# root of this, a thousand times RANK_TOL
FULL_RANK_MARGIN = (1e3 * RANK_TOL) ** 2
# mean shots per setting: Generator.poisson rejects means above about 9.2e18
MAX_SHOTS = 1e18
# the step of numpy's PCG64.jumped, about 2**128 * (sqrt(5) - 1) / 2
PCG64_JUMP = 0x9e3779b97f4a7c15f39cc0605cedc835


@dataclass(frozen=True)
class WaveplateSetting:
    """Fast-axis angles of the two plates, in degrees (period 180)."""

    qwp_deg: float
    hwp_deg: float

    def __post_init__(self):
        if not (math.isfinite(self.qwp_deg) and math.isfinite(self.hwp_deg)):
            raise ValueError("waveplate angles must be finite")


def _rotations(angle: np.ndarray) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    r = np.empty(np.shape(angle) + (2, 2))
    r[..., 0, 0], r[..., 0, 1], r[..., 1, 0], r[..., 1, 1] = c, -s, s, c
    return r


def _waveplate_unitaries(qwp_deg: np.ndarray, hwp_deg: np.ndarray) -> np.ndarray:
    """Jones matrices of plate pairs for arrays of angles, shape (..., 2, 2)."""
    q = np.radians(qwp_deg)
    h = np.radians(hwp_deg)
    qwp = _rotations(q) @ np.diag([1.0, 1.0j]) @ _rotations(-q)
    hwp = _rotations(h) @ np.diag([1.0, -1.0]) @ _rotations(-h)
    return hwp @ qwp


def waveplate_unitary(setting: WaveplateSetting) -> np.ndarray:
    """Jones matrix of the plate pair, QWP traversed first.

    Retarder conventions: quarter waveplate R(q) diag(1, i) R(-q), half
    waveplate R(h) diag(1, -1) R(-h), with R a real rotation and angles
    measured in degrees.
    """
    return _waveplate_unitaries(setting.qwp_deg, setting.hwp_deg)


def outcome_two_m(n: int, n_v: int) -> int:
    """Doubled weight n_h - n_v of the outcome with n_v vertical photons."""
    return n - 2 * n_v


class NumericalError(ArithmeticError):
    """A computation broke an invariant it must keep; its result is invalid."""


def _rank(singular_values: np.ndarray) -> int:
    """Numerical rank: the singular values above RANK_TOL times the largest."""
    return int((singular_values > RANK_TOL * singular_values.max(initial=0.0)).sum())


def _full_rank(matrix: np.ndarray) -> bool:
    """True only when the m x p matrix M surely has full column rank by _rank.

    A floating-point Cholesky factorization of G - delta I, with G = M^T M
    and delta = (FULL_RANK_MARGIN + (m + p + 2) eps) tr(G), completes only
    if lambda_min(G) > FULL_RANK_MARGIN tr(G) (Rump, BIT 46, 433 (2006); the
    m eps tr(G) share covers the rounding of G).  Since tr(G) >= sigma_max^2,
    M then has sigma_min > 1e3 RANK_TOL sigma_max, and _rank gives p.  M may
    be the R factor of a Householder QR of a design D: the computed R is
    that of D + E with |E|_F <= gamma |D|_F, gamma of order m p eps (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 19.4), so
    by Weyl's inequality D has sigma_min > (1e3 RANK_TOL - 2 gamma) |D|_F,
    above RANK_TOL sigma_max while gamma is far below 1e-6.  False says
    nothing: the caller falls back to the singular values.
    """
    m, p = matrix.shape
    if m < p:
        return False
    gram = matrix.T @ matrix
    shift = (FULL_RANK_MARGIN + (m + p + 2) * np.finfo(float).eps) * np.trace(gram)
    try:
        np.linalg.cholesky(gram - shift * np.eye(p))
    except np.linalg.LinAlgError:
        return False
    return True


def _column_rank(matrix: np.ndarray) -> int:
    """Numerical column rank by _rank: p when _full_rank certifies the m x p
    matrix, and otherwise read from its singular values."""
    if _full_rank(matrix):
        return matrix.shape[1]
    return _rank(np.linalg.svd(matrix, compute_uv=False))


class _OutcomeModel:
    """Linear map from accessible blocks to every outcome probability of a
    fixed list of settings.

    Probabilities are linear in the blocks, p = sum_j mult_j tr(B_j Pi_kj),
    so one real design matrix over the block parameters theta of
    :class:`accdm.schur._Layout` serves span rank, simulation, linear
    inversion and maximum likelihood.  By the layout's inner product, row k
    of ``design`` is the theta of outcome operator Pi_k times ``scale``.
    The rows are formed ``_Layout.settings_per_chunk`` settings at a time
    and written into the one design, Fortran-ordered and aligned to 64
    bytes, so the working memory beyond it stays near ``schur.WORK_BYTES``
    for any number of settings.
    """

    def __init__(self, settings: list[WaveplateSetting], n: int):
        if not settings:
            raise ValueError("settings must be nonempty")
        layout = self.layout = _layout(n)
        n = self.n = layout.n
        unitaries = _waveplate_unitaries(
            np.array([s.qwp_deg for s in settings], dtype=float),
            np.array([s.hwp_deg for s in settings], dtype=float))
        # one row m per (setting, outcome) and sector, zero-padded to n+1
        # entries; the outcome's block is conj(m) m^T.  Outcome N_V reads
        # the row (two_j - two_m) / 2 of its weight, if inside.
        two_j = np.array(layout.sectors)
        two_m = outcome_two_m(n, np.arange(n + 1))[:, None]
        inside = np.abs(two_m) <= two_j
        # aligned to 64 bytes: a large array lands 16 bytes past a page, and
        # there a matvec with the design at N = 8 takes 10.4 us, not 6.4 us
        shape = (len(settings) * (n + 1), layout.scale.size)
        buffer = np.empty(math.prod(shape) + 7)
        offset = -buffer.ctypes.data % 64 // 8
        self.design = buffer[offset:offset + math.prod(shape)].reshape(shape, order="F")
        size = layout.settings_per_chunk
        for start in range(0, len(settings), size):
            rows = layout.rotations(unitaries[start:start + size])[
                :, np.arange(len(two_j)), (two_j - two_m) // 2] * inside[..., None]
            np.multiply(layout.outer_theta(rows.reshape((-1,) + layout.shape[:2])),
                        layout.scale, out=self.design[start * (n + 1):(start + size) * (n + 1)])
        self.design.flags.writeable = False

    def probabilities(self, theta: np.ndarray) -> np.ndarray:
        """Flat outcome probabilities, row-major over (setting, outcome)."""
        return self.design @ theta

    def operator_theta(self, weights: np.ndarray) -> np.ndarray:
        """Parameter vector of sum_k w_k Pi_k, one weight per (setting,
        outcome) row: the transpose of ``probabilities`` over the layout's
        inner product."""
        return weights @ self.design / self.layout.scale

    def distributions(self, rho: AccessibleDensityMatrix) -> np.ndarray:
        """Outcome distributions of a state, one row per setting.

        Outcome n_v's operator has trace C(N, n_v) and a state's eigenvalues are
        at least -PSD_TOL, so p(n_v) >= -PSD_TOL C(N, n_v), clipped to zero, and
        rows sum to 1 within NORM_TOL, up to C(N+3, 3) ulps; else NumericalError.
        """
        p = self.probabilities(self.layout.stack_theta(rho.stack)).reshape(-1, self.n + 1)
        low = p < -PSD_TOL * np.array([math.comb(self.n, k) for k in range(self.n + 1)])
        if low.any():
            raise NumericalError(f"probability {p[low][0]} below tolerance")
        totals = p.sum(axis=1)
        bad = ~(np.abs(totals - 1.0) <= NORM_TOL + self.design.shape[1] * np.finfo(float).eps)
        if bad.any():
            raise NumericalError(f"probabilities sum to {totals[bad][0]}, expected 1")
        return np.clip(p, 0.0, None)

    def rank(self) -> int:
        """Numerical rank of the design, by ``_column_rank``."""
        return _column_rank(self.design)


# the one shared model (read-only design) of the settings list in use, for
# the callers that take a whole list; outcome_probabilities builds its
# one-setting model itself, so that it does not evict the list's.  Typed, so
# that a float n never meets a cached int one and always reaches the gate
_outcome_model = functools.lru_cache(maxsize=1, typed=True)(_OutcomeModel)


def outcome_probabilities(rho: AccessibleDensityMatrix,
                          setting: WaveplateSetting) -> np.ndarray:
    """Probabilities of the N+1 outcomes, ordered (N,0) first.

    p_k = sum_j mult_j trace(B_j Pi_{k,j}); a negative p_k within a state's
    tolerances is clipped to zero, and NumericalError is raised beyond them
    (see ``_OutcomeModel.distributions``).
    """
    return _OutcomeModel([setting], rho.n).distributions(rho)[0]


# ---------------------------------------------------------------------------
# Count tables and Poisson count simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CountTable:
    """Photon counts: ``counts[si, k]`` of k vertical photons at
    ``settings[si]``, held as a read-only float copy with N+1 columns.

    Measured counts are integers; fractional counts are accepted so that
    exact expected-count data can be fed to the estimators.
    """

    settings: tuple[WaveplateSetting, ...]
    counts: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        settings = tuple(self.settings)
        counts = np.array(self.counts, dtype=float)
        if not settings or counts.ndim != 2 or len(counts) != len(settings):
            raise ValueError(f"need one row of counts for each of one or more settings, "
                             f"got {len(settings)} settings and shape {counts.shape}")
        n = _layout(counts.shape[1] - 1).n
        if len(set(settings)) != len(settings):
            raise ValueError("settings must not repeat")
        # with no entry negative, a finite total makes every entry finite
        with np.errstate(over="ignore"):
            total = counts.sum()
        if not math.isfinite(total):
            raise ValueError(f"the total of the counts is {total}, not finite")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        counts.flags.writeable = False
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", n)

    @functools.cached_property
    def model(self) -> _OutcomeModel:
        """The settings' ``_outcome_model``, held by the table from first use."""
        return _outcome_model(self.settings, self.n)

    @functools.cached_property
    def frequencies(self) -> np.ndarray:
        """Each row over its total, zero where that is; read-only."""
        totals = self.counts.sum(axis=1, keepdims=True)
        frequencies = np.divide(self.counts, totals, out=np.zeros_like(self.counts),
                                where=totals > 0)
        frequencies.flags.writeable = False
        return frequencies


def simulate_counts(rho: AccessibleDensityMatrix,
                    settings: list[WaveplateSetting],
                    mean_shots: float,
                    seed: int) -> CountTable:
    """Poisson count data for every (setting, outcome) pair.

    Each pair owns a substream of one PCG64 stream seeded by ``seed``: cell
    c = si * (rho.n + 1) + k (setting index si, outcome index k) draws from
    ``PCG64(seed).jumped(c)``, that stream advanced by c * PCG64_JUMP steps.
    So a pair's count depends only on the seed, its indices and its own
    mean, not on the other pairs or the evaluation order.  (Offsets that
    are multiples of 2**64 would leave the low half of the 128-bit state
    equal across substreams, and their draws correlated.)  Results are
    reproducible for a given numpy version.  ``mean_shots`` must lie in
    [0, MAX_SHOTS], ``seed`` must be a nonnegative integer, and no setting
    may repeat.  The outcome model is ``_outcome_model``'s, as the table's.
    """
    if not 0 <= mean_shots <= MAX_SHOTS:
        raise ValueError(f"mean_shots must be in [0, {MAX_SHOTS:g}]")
    try:
        operator.index(seed)
    except TypeError:
        raise ValueError("seed must be an integer") from None
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    counts = mean_shots * _outcome_model(tuple(settings), rho.n).distributions(rho)
    bits = np.random.PCG64(seed)
    seeded = bits.state
    rng = np.random.Generator(bits)
    for c, mean in enumerate(counts.ravel().tolist()):
        bits.state = seeded
        bits.advance(c * PCG64_JUMP)
        # Generator.poisson floors a double to its integer draw, so the
        # mean's float cell holds the draw exactly
        counts.flat[c] = rng.poisson(mean)
    return CountTable(settings, counts)


# ---------------------------------------------------------------------------
# Linear span of the measurement set
# ---------------------------------------------------------------------------

def measurement_span_rank(settings: list[WaveplateSetting], n: int) -> int:
    """Dimension of the real-linear span of all outcome operators.

    The rank of the design of ``_outcome_model``, whose rows are the block
    coordinates of the outcome operators scaled by nonzero constants; at
    most accessible_param_count(n, 2) dimensions are reachable.  A full-rank
    design is certified by a shifted Cholesky factorization of its Gram
    matrix; an SVD runs only when that certificate fails (see
    ``_column_rank``).
    """
    return _outcome_model(tuple(settings), n).rank()
