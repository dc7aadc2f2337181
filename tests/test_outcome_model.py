"""The shared outcome model against the per-setting code it replaced.

The oracles below are the earlier implementations: a Jones matrix built one
setting at a time, outcome rows from one scalar sector rotation per
setting, probabilities by a three-operand einsum, a design matrix probed
one Hermitian basis element at a time, and a span rank over flattened
outcome-operator blocks.
"""

import math

import numpy as np
import pytest

import accdm
from accdm import measurement, tomography
from accdm.expressions import CreationOperatorExpression, Term
from accdm.measurement import (
    CountTable,
    NumericalError,
    WaveplateSetting,
    _OutcomeModel,
    _rank,
    _waveplate_unitaries,
    measurement_span_rank,
    outcome_probabilities,
    outcome_two_m,
    simulate_counts,
    waveplate_unitary,
)
from accdm.schur import (
    N_MAX,
    _layout,
    accessible_param_count,
    occurring_two_j,
    sector_rotation,
    su2_multiplicity,
)
from accdm.states import PSD_TOL, AccessibleDensityMatrix, expression_to_accessible
from accdm.tomography import (
    RankDeficiencyError,
    linear_inversion,
    log_likelihood,
    mle_reconstruct,
)

from conftest import (
    TWELVE_SETTINGS,
    outcome_operators,
    random_accessible_state,
    random_settings,
    sample_counts,
)


def oracle_rows(settings, n):
    """Per-sector outcome rows stacked over settings, one setting at a time."""
    stacked = {}
    for two_j in occurring_two_j(n):
        parts = []
        for setting in settings:
            w = sector_rotation(waveplate_unitary(setting), n, two_j)
            m = np.zeros((n + 1, two_j + 1), dtype=complex)
            for k in range(n + 1):
                two_m = outcome_two_m(n, k)
                if abs(two_m) <= two_j:
                    m[k] = w[(two_j - two_m) // 2]
            parts.append(m)
        stacked[two_j] = np.vstack(parts)
    return stacked


def oracle_probabilities(rows, blocks, n):
    p = 0.0
    for two_j, m in rows.items():
        quad = np.einsum("ka,ab,kb->k", m, blocks[two_j], m.conj()).real
        p = p + su2_multiplicity(n, two_j) * quad
    return p


def hermitian_basis(n):
    """Block families with a single Hermitian unit entry, in the order the
    earlier design matrix used."""
    basis = []
    for two_j in occurring_two_j(n):
        dim = two_j + 1
        for i in range(dim):
            for j2 in range(i, dim):
                for unit in ([1.0] if i == j2 else [1.0, 1.0j]):
                    h = np.zeros((dim, dim), dtype=complex)
                    h[i, j2] = unit
                    h[j2, i] = np.conj(unit)
                    blocks = {tj: np.zeros((tj + 1, tj + 1), dtype=complex)
                              for tj in occurring_two_j(n)}
                    blocks[two_j] = h
                    basis.append(blocks)
    return basis


def oracle_design(settings, n):
    """Probabilities of every Hermitian basis element, one column each."""
    rows = oracle_rows(settings, n)
    return np.array([oracle_probabilities(rows, blocks, n)
                     for blocks in hermitian_basis(n)]).T


def flatten_blocks(blocks, n):
    parts = []
    for two_j in occurring_two_j(n):
        block = blocks[two_j]
        dim = two_j + 1
        for i in range(dim):
            parts.append(block[i, i].real)
            for j2 in range(i + 1, dim):
                parts.append(block[i, j2].real)
                parts.append(block[i, j2].imag)
    return np.array(parts)


def oracle_span_rank(settings, n):
    rows = [flatten_blocks(element, n)
            for setting in settings
            for element in outcome_operators(setting, n)]
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return int((sv > 1e-9 * sv[0]).sum())


def random_hermitian_blocks(n, rng):
    blocks = {}
    for two_j in occurring_two_j(n):
        a = rng.normal(size=(two_j + 1,) * 2) + 1j * rng.normal(size=(two_j + 1,) * 2)
        blocks[two_j] = a + a.conj().T
    return blocks


def oracle_waveplate_unitary(qwp_deg, hwp_deg):
    """The earlier scalar Jones matrix, one pair of plates per call."""
    def rotation(angle):
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])

    q, h = math.radians(qwp_deg), math.radians(hwp_deg)
    qwp = rotation(q) @ np.diag([1.0, 1.0j]) @ rotation(-q)
    hwp = rotation(h) @ np.diag([1.0, -1.0]) @ rotation(-h)
    return hwp @ qwp


# ---------------------------------------------------------------------------
# Waveplate unitaries
# ---------------------------------------------------------------------------

def test_batched_waveplate_unitaries_match_scalar():
    special = [0.0, 45.0, 90.0, 180.0]
    angles = np.concatenate([
        np.array([(q, h) for q in special for h in special]),
        np.random.default_rng(1200).uniform(-360, 360, size=(200, 2)),
    ])
    stack = _waveplate_unitaries(angles[:, 0], angles[:, 1])
    assert stack.shape == (len(angles), 2, 2)
    grid = _waveplate_unitaries(angles[:, 0].reshape(8, -1), angles[:, 1].reshape(8, -1))
    np.testing.assert_array_equal(grid.reshape(stack.shape), stack)
    for (q, h), u in zip(angles, stack):
        scalar = waveplate_unitary(WaveplateSetting(q, h))
        assert scalar.shape == (2, 2)
        np.testing.assert_allclose(u, scalar, rtol=0, atol=1e-15)
        np.testing.assert_allclose(u, oracle_waveplate_unitary(q, h), rtol=0, atol=1e-15)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# Design matrix and block layout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_analytic_design_matches_probe_design(n):
    settings = random_settings(np.random.default_rng(600 + n), 7)
    model = _OutcomeModel(settings, n)
    count = accessible_param_count(n, 2)
    assert model.design.shape == (7 * (n + 1), count)
    # each basis element's parameter vector is a distinct unit vector, so
    # the design's columns are the probe columns in the layout's order
    units = np.array([model.layout.theta(blocks) for blocks in hermitian_basis(n)]).T
    np.testing.assert_array_equal(units @ units.T, np.eye(count))
    np.testing.assert_array_equal(np.abs(units).sum(axis=0), np.ones(count))
    np.testing.assert_allclose(model.design @ units, oracle_design(settings, n),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_layout_round_trip(n):
    rng = np.random.default_rng(700 + n)
    model = _OutcomeModel(random_settings(rng, 2), n)
    for _ in range(3):
        blocks = random_hermitian_blocks(n, rng)
        theta = model.layout.theta(blocks)
        assert theta.shape == (accessible_param_count(n, 2),)
        back = model.layout.blocks(theta)
        assert sorted(back) == sorted(blocks)
        for two_j, block in blocks.items():
            np.testing.assert_array_equal(back[two_j], block)
        np.testing.assert_array_equal(model.layout.theta(back), theta)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_outer_theta_is_theta_of_formed_blocks(n):
    layout = _layout(n)
    rng = np.random.default_rng(1100 + n)
    size = (5,) + layout.shape[:2]
    rows = rng.normal(size=size) + 1j * rng.normal(size=size)
    expected = [layout.theta({tj: np.outer(m[s, :tj + 1].conj(), m[s, :tj + 1])
                              for s, tj in enumerate(layout.sectors)})
                for m in rows]
    np.testing.assert_array_equal(layout.outer_theta(rows), expected)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_trace_weights_are_the_weighted_diagonal(n):
    # the real upper triangles row by row, then the off-diagonal imaginary
    # parts: each diagonal entry weighs its sector's multiplicity
    layout = _layout(n)
    real, imag = [], []
    for two_j in layout.sectors:
        for a in range(two_j + 1):
            real.append(su2_multiplicity(n, two_j))
            real += [0] * (two_j - a)
            imag += [0] * (two_j - a)
    assert np.array_equal(layout.trace_weights, real + imag)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_symmetric_projector_gives_every_outcome_probability_one(n):
    # the symmetric subspace holds exactly one state of each outcome, so the
    # symmetric projector gives every (setting, outcome) probability 1: the
    # all-ones vector is in the design's column space, and a least-squares
    # fit has weighted trace 1
    layout = _layout(n)
    projector = {tj: np.eye(tj + 1) if tj == n else np.zeros((tj + 1, tj + 1))
                 for tj in layout.sectors}
    model = _OutcomeModel(random_settings(np.random.default_rng(1400 + n), 20), n)
    np.testing.assert_allclose(model.probabilities(layout.theta(projector)), 1.0,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_outcome_model_holds_one_matrix(n):
    model = _OutcomeModel(random_settings(np.random.default_rng(1500 + n), 6), n)
    assert [name for name, value in vars(model).items()
            if isinstance(value, np.ndarray)] == ["design"]


@pytest.mark.parametrize("n", [1, 3, 5, 8])
def test_model_probabilities_match_einsum_oracle(n):
    rng = np.random.default_rng(800 + n)
    settings = random_settings(rng, 5)
    model = _OutcomeModel(settings, n)
    rows = oracle_rows(settings, n)
    for _ in range(3):
        rho = random_accessible_state(n, rng)
        expected = oracle_probabilities(rows, rho.blocks, n)
        np.testing.assert_allclose(model.probabilities(model.layout.theta(rho.blocks)),
                                   expected, rtol=0, atol=1e-13)
        np.testing.assert_allclose(model.distributions(rho).ravel(), expected,
                                   rtol=0, atol=1e-13)
        for si, setting in enumerate(settings):
            np.testing.assert_allclose(outcome_probabilities(rho, setting),
                                       expected[si * (n + 1):(si + 1) * (n + 1)],
                                       rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_photons_in_orthogonal_hidden_modes_click_independently(n):
    # a dense-free anchor at every N: photons in mutually orthogonal hidden
    # modes click one by one, so the number of V clicks is distributed as
    # the convolution of the single-photon distributions (|<H|U p_k>|^2,
    # |<V|U p_k>|^2)
    rng = np.random.default_rng(1300 + n)
    p = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    rho = expression_to_accessible(CreationOperatorExpression(tuple(
        (Term(complex(h), "H", f"m{k}"), Term(complex(v), "V", f"m{k}"))
        for k, (h, v) in enumerate(p))))
    for setting in random_settings(rng, 3):
        expected = np.ones(1)
        for single in np.abs(p @ waveplate_unitary(setting).T) ** 2:
            expected = np.convolve(expected, single)
        np.testing.assert_allclose(outcome_probabilities(rho, setting), expected,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_a_setting_is_the_straight_setting_on_the_rotated_state(n):
    # a dense-free equivariance at every N: setting u on rho gives the
    # probabilities of the identity on R(u) rho R(u)^dagger, R_j(u) from
    # sector_rotation; the setting (0, 0), diag(1, -i), only puts phases on
    # H and V, so it counts as the identity
    rng = np.random.default_rng(1350 + n)
    straight = _OutcomeModel([WaveplateSetting(0.0, 0.0)], n)
    for setting in random_settings(rng, 3):
        rho = random_accessible_state(n, rng)
        u = waveplate_unitary(setting)
        rotated = AccessibleDensityMatrix(n, {
            tj: sector_rotation(u, n, tj) @ b @ sector_rotation(u, n, tj).conj().T
            for tj, b in rho.blocks.items()})
        np.testing.assert_allclose(_OutcomeModel([setting], n).distributions(rho),
                                   straight.distributions(rotated), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_operator_is_weighted_sum_of_outcome_operators(n):
    rng = np.random.default_rng(850 + n)
    settings = random_settings(rng, 4)
    weights = rng.uniform(0, 3, size=len(settings) * (n + 1))
    model = _OutcomeModel(settings, n)
    operator = model.layout.blocks(model.operator_theta(weights))
    for two_j, m in oracle_rows(settings, n).items():
        expected = np.einsum("k,ka,kb->ab", weights, m.conj(), m)
        np.testing.assert_allclose(operator[two_j], expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Span rank
# ---------------------------------------------------------------------------

def span_rank_cases(n):
    rng = np.random.default_rng(900 + n)
    return [
        random_settings(rng, 1),
        random_settings(rng, 3),
        # full rank up to N = 7; at N = 8 forty settings span only 160 of
        # the 165 dimensions
        random_settings(rng, 40),
        # linear polarization analysis only: no circular information
        [WaveplateSetting(0.0, h) for h in np.linspace(0, 45, 12)],
        # one setting repeated
        random_settings(rng, 1) * 6,
        TWELVE_SETTINGS,
        # the number of settings of the benchmark's N = 8 pipeline
        random_settings(rng, 48),
    ]


def svd_rank(design):
    return _rank(np.linalg.svd(design, compute_uv=False))


# up to N = 8, the benchmark pipeline's size, where cond(D) of random
# settings reaches 1e4 to 1e6
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_span_rank_matches_flatten_oracle(n):
    full = accessible_param_count(n, 2)
    ranks = []
    for settings in span_rank_cases(n):
        rank = measurement_span_rank(settings, n)
        assert rank == oracle_span_rank(settings, n)
        assert rank == svd_rank(_OutcomeModel(settings, n).design)
        ranks.append(rank)
    assert ranks[2] == (full if n < 8 else 160)
    assert ranks[-1] == full
    assert min(ranks) < full


def exact_counts(settings, rho):
    model = _OutcomeModel(settings, rho.n)
    p = model.probabilities(model.layout.theta(rho.blocks))
    return CountTable(settings, 1e4 * p.reshape(len(settings), rho.n + 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_linear_inversion_rank_matches_model_rank(n):
    # linear inversion certifies full rank or reads the rank from the
    # singular values of its QR factor; either way it is the design's
    full = accessible_param_count(n, 2)
    rho = random_accessible_state(n, np.random.default_rng(950 + n))
    for settings in span_rank_cases(n):
        model = _OutcomeModel(settings, n)
        assert model.rank() == svd_rank(model.design)
        # a table holds a repeated setting once, and its copies add no rank
        data = exact_counts(list(dict.fromkeys(settings)), rho)
        if model.rank() < full:
            with pytest.raises(RankDeficiencyError) as err:
                linear_inversion(data)
            assert (err.value.rank, err.value.required) == (model.rank(), full)
        else:
            assert linear_inversion(data).allclose(rho, atol=1e-8)


@pytest.mark.parametrize("n", [3, 8])
def test_linear_inversion_without_the_certificate(monkeypatch, n):
    # a design the Cholesky certificate cannot prove full rank takes the
    # rank from the singular values of R and solves the same system
    rho = random_accessible_state(n, np.random.default_rng(960 + n))
    settings = span_rank_cases(n)[-1]
    data = exact_counts(settings, rho)
    certified = linear_inversion(data)
    calls = []
    monkeypatch.setattr(measurement, "_full_rank", lambda design: calls.append(1) or False)
    assert linear_inversion(data).allclose(certified, atol=1e-12)
    with pytest.raises(RankDeficiencyError) as err:
        linear_inversion(CountTable(settings[:2], data.counts[:2]))
    assert err.value.rank == svd_rank(_OutcomeModel(settings[:2], n).design)
    assert calls == [1, 1]


def constructed_design(rng, m, p, singular_values):
    """U diag(s) V^T with random orthonormal U (m x p) and V (p x p)."""
    u = np.linalg.qr(rng.normal(size=(m, p)))[0]
    v = np.linalg.qr(rng.normal(size=(p, p)))[0]
    return (u * singular_values) @ v.T


@pytest.mark.parametrize("p", [20, 165])
@pytest.mark.parametrize("m_over_p", [1, 3])
def test_full_rank_certificate_is_sound(p, m_over_p):
    rng = np.random.default_rng(970 + p + m_over_p)
    for exponent in range(3, 13):
        ratio = 10.0 ** -exponent
        spectra = [np.geomspace(1.0, ratio, p),             # spread evenly
                   np.r_[np.ones(p - 1), ratio],            # one small value
                   np.r_[np.geomspace(1.0, ratio, p - 2), 0.0, 0.0]]  # exact zeros
        for s in spectra:
            # rotated, and axis-aligned: there a Cholesky factorization of
            # the unshifted Gram matrix would succeed whatever s_min is
            for design in (constructed_design(rng, m_over_p * p, p, rng.permutation(s)),
                           np.eye(m_over_p * p, p) * s):
                certified = measurement._full_rank(design)
                # never a false certificate
                assert not (certified and svd_rank(design) < p)
                if exponent <= 5 and s is spectra[0]:
                    assert certified
                # nor one read from the R factor, as linear inversion reads it
                r = np.linalg.qr(design, mode="r")
                assert measurement._column_rank(r) <= svd_rank(design)
    # too few rows can never have full column rank
    assert not measurement._full_rank(rng.normal(size=(p - 1, p)))


# ---------------------------------------------------------------------------
# Linear inversion on exact data
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [5, 8])
def test_linear_inversion_recovers_truth_from_exact_counts(n):
    # a parameter-order mismatch between design and layout fails this by
    # far more than the tolerance
    rng = np.random.default_rng(1000 + n)
    settings = random_settings(rng, 48)
    rho = random_accessible_state(n, rng)
    p = oracle_probabilities(oracle_rows(settings, n), rho.blocks, n)
    data = CountTable(settings, 1e4 * p.reshape(len(settings), n + 1))
    assert linear_inversion(data).allclose(rho, atol=1e-9)


def test_mle_log_likelihood_matches_its_estimate():
    # the MLE carries probabilities along its convex steps instead of
    # recomputing them; they must agree with the returned estimate
    data = sample_counts()
    result = mle_reconstruct(data, max_iters=300)
    assert abs(result.log_likelihood - log_likelihood(result.estimate, data)) < 1e-6


# ---------------------------------------------------------------------------
# Typed probability invariants
# ---------------------------------------------------------------------------

def test_numerical_error_is_one_class():
    assert accdm.NumericalError is tomography.NumericalError is NumericalError
    assert issubclass(NumericalError, ArithmeticError)


@pytest.mark.parametrize("shift, message", [(-1e-9, "below tolerance"),
                                             (1e-9, "sum to")])
def test_broken_probabilities_raise_numerical_error(monkeypatch, golden_state,
                                                    shift, message):
    original = _OutcomeModel.probabilities

    def shifted(self, theta):
        p = original(self, theta)
        if shift < 0:
            p[0] = shift
        else:
            p[0] += shift
        return p

    monkeypatch.setattr(measurement._OutcomeModel, "probabilities", shifted)
    with pytest.raises(NumericalError, match=message):
        outcome_probabilities(golden_state, TWELVE_SETTINGS[0])
    with pytest.raises(NumericalError, match=message):
        simulate_counts(golden_state, TWELVE_SETTINGS, 1e4, seed=0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_outcome_probability_bound_is_psd_tol_times_the_outcome_trace(
        monkeypatch, golden_state, k):
    # outcome k's operator has trace C(3, k); the row keeps its sum
    original = _OutcomeModel.probabilities
    value = None

    def shifted(self, theta):
        p = original(self, theta)
        p[0] += p[k] - value
        p[k] = value
        return p

    monkeypatch.setattr(measurement._OutcomeModel, "probabilities", shifted)
    value = -0.99 * PSD_TOL * math.comb(3, k)
    assert outcome_probabilities(golden_state, TWELVE_SETTINGS[0])[k] == 0
    value = -1.01 * PSD_TOL * math.comb(3, k)
    with pytest.raises(NumericalError, match="below tolerance"):
        outcome_probabilities(golden_state, TWELVE_SETTINGS[0])


def test_states_within_psd_tol_have_outcome_distributions():
    # eigenvalue -5e-11 on the n_v = 1 row of both sectors: p(n_v = 1) is
    # -1.5e-10 at the (0, 0) setting, below -PSD_TOL but above -3 PSD_TOL
    rho = AccessibleDensityMatrix(3, {3: np.diag([1 + 1.5e-10, -5e-11, 0, 0]),
                                      1: np.diag([-5e-11, 0])})
    p = outcome_probabilities(rho, WaveplateSetting(0.0, 0.0))
    np.testing.assert_allclose(p, [1 + 1.5e-10, 0, 0, 0], rtol=0, atol=1e-15)
    assert (p[1:] == 0).all()
    data = simulate_counts(rho, [WaveplateSetting(0.0, 0.0)] + TWELVE_SETTINGS[1:], 1e4, seed=0)
    assert (data.counts[0, 1:] == 0).all()


def test_non_finite_probabilities_raise_numerical_error(monkeypatch, golden_state):
    monkeypatch.setattr(measurement._OutcomeModel, "probabilities",
                        lambda self, theta: np.full(self.design.shape[0], np.nan))
    with pytest.raises(NumericalError):
        outcome_probabilities(golden_state, TWELVE_SETTINGS[0])
