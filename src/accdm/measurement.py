"""Waveplate / polarizing-beamsplitter / photon-counting measurement model.

A quarter waveplate and a half waveplate rotate the collective polarization
state; a polarizing beamsplitter with number-resolving counters then yields
one of N+1 outcomes (N_H, N_V).  Every outcome operator commutes with
particle permutations, so each is represented exactly in accessible block
form: one Hermitian block per total angular momentum j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schur import N_MAX, _layout, sector_rotation
from .states import AccessibleDensityMatrix

RANK_TOL = 1e-9
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


@dataclass(frozen=True)
class CountRecord:
    """One (setting, outcome, count) row.

    Measured counts are integers; fractional counts are accepted so that
    exact expected-count data can be fed to the estimators.
    """

    qwp_deg: float
    hwp_deg: float
    n_h: int
    n_v: int
    count: float

    def __post_init__(self):
        if not (math.isfinite(self.qwp_deg) and math.isfinite(self.hwp_deg)):
            raise ValueError("waveplate angles must be finite")
        if not math.isfinite(self.count):
            raise ValueError("counts must be finite")
        if self.n_h < 0 or self.n_v < 0 or self.count < 0:
            raise ValueError("photon numbers and counts must be nonnegative")

    @property
    def setting(self) -> WaveplateSetting:
        return WaveplateSetting(self.qwp_deg, self.hwp_deg)


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


class _OutcomeModel:
    """Linear map from accessible blocks to every outcome probability of a
    fixed list of settings.

    Probabilities are linear in the blocks, p = sum_j mult_j tr(B_j Pi_kj),
    so one real design matrix over the block parameters theta of
    :class:`accdm.schur._Layout` serves span rank, simulation, linear
    inversion and maximum likelihood.  Row k of ``_operator_design`` is the
    theta of outcome operator Pi_k, from the layout; by the layout's inner
    product, the design is ``_operator_design * scale``.
    """

    def __init__(self, settings: list[WaveplateSetting], n: int):
        if not 1 <= n <= N_MAX:
            raise ValueError(f"n must be between 1 and {N_MAX}")
        self.n = n
        layout = self.layout = _layout(n)
        unitaries = _waveplate_unitaries(
            np.array([s.qwp_deg for s in settings], dtype=float),
            np.array([s.hwp_deg for s in settings], dtype=float))
        # one row m per (setting, outcome) and sector, zero-padded to n+1
        # entries; the outcome's block is conj(m) m^T.  Outcome N_V reads
        # the row of its weight, if inside.
        two_m = outcome_two_m(n, np.arange(n + 1))
        rows = np.zeros((len(settings), n + 1) + layout.shape[:2], dtype=complex)
        for s, two_j in enumerate(layout.sectors):
            inside = np.abs(two_m) <= two_j
            w = sector_rotation(unitaries, n, two_j)
            rows[:, inside, s, :two_j + 1] = w[:, (two_j - two_m[inside]) // 2]
        self._operator_design = layout.outer_theta(rows.reshape((-1,) + layout.shape[:2]))
        self.design = self._operator_design * layout.scale

    def probabilities(self, theta: np.ndarray) -> np.ndarray:
        """Flat outcome probabilities, row-major over (setting, outcome)."""
        return self.design @ theta

    def operator_theta(self, weights: np.ndarray) -> np.ndarray:
        """Parameter vector of sum_k w_k Pi_k, one weight per (setting,
        outcome) row: the transpose of ``probabilities``."""
        return weights @ self._operator_design

    def distributions(self, rho: AccessibleDensityMatrix) -> np.ndarray:
        """Outcome distributions of a state, one row per setting.

        Tiny negative round-off is clipped to zero.  Raises NumericalError
        when a probability is below -1e-12 or a row does not sum to 1
        within 1e-10.
        """
        p = self.probabilities(self.layout.theta(rho.blocks)).reshape(-1, self.n + 1)
        if (p < -1e-12).any():
            raise NumericalError(f"probability {p.min()} below tolerance")
        p = np.clip(p, 0.0, None)
        totals = p.sum(axis=1)
        bad = ~(np.abs(totals - 1.0) <= 1e-10)
        if bad.any():
            raise NumericalError(f"probabilities sum to {totals[bad][0]}, expected 1")
        return p

    def rank(self) -> int:
        """Numerical rank of the design."""
        return _rank(np.linalg.svd(self.design, compute_uv=False))


def outcome_probabilities(rho: AccessibleDensityMatrix,
                          setting: WaveplateSetting) -> np.ndarray:
    """Probabilities of the N+1 outcomes, ordered (N,0) first.

    p_k = sum_j mult_j trace(B_j Pi_{k,j}); tiny negative round-off is
    clipped to zero, and NumericalError is raised when the probabilities
    are not a distribution within round-off.
    """
    return _OutcomeModel([setting], rho.n).distributions(rho)[0]


# ---------------------------------------------------------------------------
# Poisson count simulation
# ---------------------------------------------------------------------------

def simulate_counts(rho: AccessibleDensityMatrix,
                    settings: list[WaveplateSetting],
                    mean_shots: float,
                    seed: int, *,
                    model: _OutcomeModel | None = None) -> list[CountRecord]:
    """Poisson count data for every (setting, outcome) pair.

    Each pair owns a substream of one PCG64 stream seeded by ``seed``: cell
    c = si * (rho.n + 1) + k (setting index si, outcome index k) draws from
    ``PCG64(seed).jumped(c)``, that stream advanced by c * PCG64_JUMP steps.
    So a pair's count depends only on the seed, its indices and its own
    mean, not on the other pairs or the evaluation order.  (Offsets that
    are multiples of 2**64 would leave the low half of the 128-bit state
    equal across substreams, and their draws correlated.)  Results are
    reproducible for a given numpy version.  ``mean_shots`` must lie in
    [0, MAX_SHOTS].  A caller that has built the outcome model of these
    settings for ``rho.n`` photons passes it as ``model``, to pay for it
    once.
    """
    if not 0 <= mean_shots <= MAX_SHOTS:
        raise ValueError(f"mean_shots must be in [0, {MAX_SHOTS:g}]")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    records = []
    if model is None:
        model = _OutcomeModel(settings, rho.n)
    p = model.distributions(rho)
    bits = np.random.PCG64(seed)
    seeded = bits.state
    rng = np.random.Generator(bits)
    for si, setting in enumerate(settings):
        for k in range(rho.n + 1):
            bits.state = seeded
            bits.advance((si * (rho.n + 1) + k) * PCG64_JUMP)
            count = int(rng.poisson(mean_shots * p[si, k]))
            records.append(CountRecord(setting.qwp_deg, setting.hwp_deg,
                                       rho.n - k, k, count))
    return records


# ---------------------------------------------------------------------------
# Linear span of the measurement set
# ---------------------------------------------------------------------------

def measurement_span_rank(settings: list[WaveplateSetting], n: int, *,
                          model: _OutcomeModel | None = None) -> int:
    """Dimension of the real-linear span of all outcome operators.

    The rank of the design matrix, whose columns are the block coordinates
    of the outcome operators scaled by nonzero constants; at most
    accessible_param_count(n, 2) dimensions are reachable.  A caller that
    has built the outcome model of these settings passes it as ``model``.
    """
    if not settings:
        raise ValueError("settings must be nonempty")
    if model is None:
        model = _OutcomeModel(settings, n)
    return model.rank()
