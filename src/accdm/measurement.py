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
from functools import cached_property, lru_cache

import numpy as np

from .schur import N_MAX, occurring_two_j, sector_rotation, su2_multiplicity
from .states import AccessibleDensityMatrix

POVM_TOL = 1e-10
RANK_TOL = 1e-9
# mean shots per setting: Generator.poisson rejects means above about 9.2e18
MAX_SHOTS = 1e18


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


class _Layout:
    """Everything about the block parameters of n photons that depends only
    on n; built once per n by :func:`_layout`.

    The parameter vector ``theta`` holds the real parts of every block's
    upper triangle, row by row and sectors in ``occurring_two_j`` order,
    then the imaginary parts of the off-diagonal ones in the same order.
    The blocks are also held stacked: one zero-padded complex array of
    shape (sectors, n+1, n+1), block two_j in the top-left corner of its
    slice.  ``gather`` and ``scatter`` map between theta and the float
    view of that array, raveled.
    """

    def __init__(self, n: int):
        self.sectors = occurring_two_j(n)
        self.shape = (len(self.sectors), n + 1, n + 1)
        self.mult = np.array([su2_multiplicity(n, tj) for tj in self.sectors])
        sector, row, col = [], [], []
        for s, two_j in enumerate(self.sectors):
            index = np.arange(two_j + 1)
            a, b = np.nonzero(index[:, None] <= index)
            sector.append(np.full(a.size, s))
            row.append(a)
            col.append(b)
        # sector and position of each upper-triangle entry, in theta order
        self.sector, self.row, self.col = (np.concatenate(x) for x in (sector, row, col))
        self.off = self.row != self.col
        # upper-triangle entry (a, b) adds mult * 2 Re(B_ab m_a conj(m_b))
        # to each probability, half that on the diagonal
        self.entry_scale = self.mult[self.sector] * np.where(self.off, 2, 1)
        # each row of design / scale is one outcome operator's theta
        self.scale = np.concatenate([self.entry_scale, self.entry_scale[self.off]])
        # theta @ trace_weights is sum_j mult_j tr B_j
        self.trace_weights = np.concatenate([np.where(self.off, 0, self.entry_scale),
                                             np.zeros(self.off.sum())])
        # float positions: 2 * complex position for the real part, + 1 for
        # the imaginary part; the lower triangle holds the conjugate
        upper = 2 * ((self.sector * (n + 1) + self.row) * (n + 1) + self.col)
        lower = 2 * ((self.sector * (n + 1) + self.col) * (n + 1) + self.row)
        self.gather = np.concatenate([upper, upper[self.off] + 1])
        count, imag = upper.size, np.arange(upper.size, self.scale.size)
        self.scatter = np.concatenate([upper, lower, upper[self.off] + 1,
                                       lower[self.off] + 1])
        self.source = np.concatenate([np.arange(count), np.arange(count), imag, imag])
        self.sign = np.concatenate([np.ones(2 * count + imag.size), -np.ones(imag.size)])
        # outcome k = N_V reads the row of weight n - 2k, if inside the sector
        two_m = outcome_two_m(n, np.arange(n + 1))
        self.inside = [np.abs(two_m) <= tj for tj in self.sectors]
        self.weight_row = [(tj - two_m[inside]) // 2
                           for tj, inside in zip(self.sectors, self.inside)]
        for array in (self.mult, self.sector, self.row, self.col, self.off,
                      self.entry_scale, self.scale, self.trace_weights,
                      self.gather, self.scatter,
                      self.source, self.sign, *self.inside, *self.weight_row):
            array.setflags(write=False)


@lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    return _Layout(n)


def _rank(singular_values: np.ndarray) -> int:
    """Numerical rank: the singular values above RANK_TOL times the largest."""
    return int((singular_values > RANK_TOL * singular_values.max(initial=0.0)).sum())


class _OutcomeModel:
    """Linear map from accessible blocks to every outcome probability of a
    fixed list of settings.

    Probabilities are linear in the blocks, p = sum_j mult_j tr(B_j Pi_kj),
    so one real design matrix over the C(N+3,3) block parameters serves
    span rank, simulation, linear inversion and maximum likelihood.  The
    parameter order and the stacked form of the blocks are fixed by
    :class:`_Layout`, and only this class reads its index arrays.
    """

    def __init__(self, settings: list[WaveplateSetting], n: int):
        if not 1 <= n <= N_MAX:
            raise ValueError(f"n must be between 1 and {N_MAX}")
        self.n = n
        layout = self._layout = _layout(n)
        self.mult = layout.mult
        unitaries = _waveplate_unitaries(
            np.array([s.qwp_deg for s in settings], dtype=float),
            np.array([s.hwp_deg for s in settings], dtype=float))
        # one row per (setting, outcome) and sector, zero-padded to n+1
        # entries; the outcome's block is conj(row) row^T
        rows = np.zeros((len(settings), n + 1) + layout.shape[:2], dtype=complex)
        for s, two_j in enumerate(layout.sectors):
            w = sector_rotation(unitaries, n, two_j)
            rows[:, layout.inside[s], s, :two_j + 1] = w[:, layout.weight_row[s]]
        rows = rows.reshape((-1,) + layout.shape[:2])
        self.rows = {tj: rows[:, s, :tj + 1] for s, tj in enumerate(layout.sectors)}
        terms = (layout.entry_scale * rows[:, layout.sector, layout.row]
                 * rows[:, layout.sector, layout.col].conj())
        self.design = np.hstack([terms.real, -terms[:, layout.off].imag])

    def stack(self, theta: np.ndarray) -> np.ndarray:
        """Stacked Hermitian blocks of a real parameter vector."""
        layout = self._layout
        flat = np.zeros(2 * math.prod(layout.shape))
        flat[layout.scatter] = theta[layout.source] * layout.sign
        return flat.view(complex).reshape(layout.shape)

    def stack_theta(self, stack: np.ndarray) -> np.ndarray:
        """Real parameter vector of stacked Hermitian blocks (upper triangles)."""
        return stack.reshape(-1).view(float)[self._layout.gather]

    def pad(self, blocks: dict[int, np.ndarray]) -> np.ndarray:
        """Stacked form of a block family."""
        sectors = self._layout.sectors
        stack = np.zeros(self._layout.shape, dtype=complex)
        for s, two_j in enumerate(sectors):
            stack[s, :two_j + 1, :two_j + 1] = blocks[two_j]
        return stack

    def unpad(self, stack: np.ndarray) -> dict[int, np.ndarray]:
        """Block family of a stacked form."""
        return {tj: stack[s, :tj + 1, :tj + 1].copy()
                for s, tj in enumerate(self._layout.sectors)}

    def theta(self, blocks: dict[int, np.ndarray]) -> np.ndarray:
        """Real parameter vector of a Hermitian block family."""
        return self.stack_theta(self.pad(blocks))

    def blocks(self, theta: np.ndarray) -> dict[int, np.ndarray]:
        """Hermitian block family of a real parameter vector."""
        return self.unpad(self.stack(theta))

    def probabilities(self, theta: np.ndarray) -> np.ndarray:
        """Flat outcome probabilities, row-major over (setting, outcome)."""
        return self.design @ theta

    @cached_property
    def _operator_design(self) -> np.ndarray:
        # row k is the parameter vector of outcome operator Pi_k
        return self.design / self._layout.scale

    def operator_theta(self, weights: np.ndarray) -> np.ndarray:
        """Parameter vector of sum_k w_k Pi_k, one weight per (setting,
        outcome) row: the transpose of ``probabilities``."""
        return weights @ self._operator_design

    def trace(self, theta: np.ndarray) -> float:
        """Multiplicity-weighted trace sum_j mult_j tr B_j of a parameter vector."""
        return float(self._layout.trace_weights @ theta)

    def operator(self, weights: np.ndarray) -> dict[int, np.ndarray]:
        """Blocks of sum_k w_k Pi_k."""
        return self.blocks(self.operator_theta(weights))

    def distributions(self, rho: AccessibleDensityMatrix) -> np.ndarray:
        """Outcome distributions of a state, one row per setting.

        Tiny negative round-off is clipped to zero.  Raises NumericalError
        when a probability is below -1e-12 or a row does not sum to 1
        within 1e-10.
        """
        p = self.probabilities(self.theta(rho.blocks)).reshape(-1, self.n + 1)
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


@dataclass(frozen=True)
class PovmElement:
    """Accessible block form of one outcome operator (N_H, N_V)."""

    n: int
    n_h: int
    n_v: int
    blocks: dict[int, np.ndarray]

    def __post_init__(self):
        if self.n_h + self.n_v != self.n:
            raise ValueError("outcome must satisfy n_h + n_v = n")
        for two_j, block in self.blocks.items():
            eigs = np.linalg.eigvalsh(block)
            if eigs.min() < -POVM_TOL or eigs.max() > 1 + POVM_TOL:
                raise ValueError(
                    f"block for two_j={two_j} violates 0 <= E <= 1: "
                    f"eigenvalues in [{eigs.min()}, {eigs.max()}]")
            block.setflags(write=False)


def povm_elements(setting: WaveplateSetting, n: int) -> list[PovmElement]:
    """The N+1 outcome operators of one setting, ordered (N,0), (N-1,1), ..., (0,N)."""
    rows = _OutcomeModel([setting], n).rows
    return [PovmElement(n, n - k, k, {two_j: np.outer(m[k].conj(), m[k])
                                      for two_j, m in rows.items()})
            for k in range(n + 1)]


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

def poisson_draw(rng: np.random.Generator, mean: float) -> int:
    """One Poisson variate from ``rng``.

    ``Generator.poisson`` raises ValueError for a negative or NaN mean and
    for one above about 9.2e18.
    """
    return int(rng.poisson(mean))


def simulate_counts(rho: AccessibleDensityMatrix,
                    settings: list[WaveplateSetting],
                    mean_shots: float,
                    seed: int, *,
                    model: _OutcomeModel | None = None) -> list[CountRecord]:
    """Poisson count data for every (setting, outcome) pair.

    Each pair owns a substream of one PCG64 stream seeded by ``seed``: the
    pair (setting index si, outcome index k) draws from that stream jumped
    ahead by ((si << 32) + k) * 2**64 steps, so substreams lie 2**64 draws
    apart and a pair's count depends only on the seed, its indices and its
    own mean, not on the other pairs or the evaluation order.  Results are
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
            bits.advance(((si << 32) + k) << 64)
            count = poisson_draw(rng, mean_shots * p[si, k])
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
