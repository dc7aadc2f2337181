import math

import numpy as np
import pytest

from accdm.measurement import (
    CountTable,
    WaveplateSetting,
    outcome_probabilities,
    simulate_counts,
)
from accdm.states import AccessibleDensityMatrix
from accdm.schur import _layout, occurring_two_j, sector_rotation
from accdm.tomography import (
    RankDeficiencyError,
    fidelity,
    indistinguishability_report,
    linear_inversion,
    log_likelihood,
    mle_reconstruct,
)
from accdm.measurement import waveplate_unitary

from conftest import (
    TWELVE_SETTINGS,
    full_matrix,
    half_overlap_blocks,
    noon_state,
    pure_string_state,
    random_accessible_state,
    random_settings,
    sample_counts,
)


def expected_counts(rho, settings, shots):
    """Noise-free counts: count = shots * probability (fractional)."""
    return CountTable(settings, [shots * outcome_probabilities(rho, s) for s in settings])


# ---------------------------------------------------------------------------
# Log-likelihood
# ---------------------------------------------------------------------------

def test_zero_count_record_contributes_nothing(golden_state):
    data = CountTable([WaveplateSetting(0.0, 0.0)], [[0, 0, 0, 0]])
    assert log_likelihood(golden_state, data) == 0.0


def test_truth_beats_random_states_on_expected_data(golden_state):
    data = expected_counts(golden_state, TWELVE_SETTINGS, 1e4)
    ll_truth = log_likelihood(golden_state, data)
    rng = np.random.default_rng(23)
    for _ in range(100):
        sigma = random_accessible_state(3, rng)
        assert log_likelihood(sigma, data) <= ll_truth + 1e-9


def test_zero_probability_with_counts_stays_finite():
    rho = pure_string_state(3, "000")
    data = CountTable([WaveplateSetting(0.0, 0.0)], [[0, 0, 0, 5]])
    ll = log_likelihood(rho, data)
    assert math.isfinite(ll)
    assert abs(ll - 5 * math.log(1e-12)) < 1e-6


def test_log_likelihood_rejects_mismatched_photon_number(golden_state):
    data = CountTable([WaveplateSetting(0.0, 0.0)], [[10, 0, 0]])
    with pytest.raises(ValueError, match="photon"):
        log_likelihood(golden_state, data)


# ---------------------------------------------------------------------------
# Linear inversion
# ---------------------------------------------------------------------------

def test_linear_inversion_noiseless_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(5):
        rho = random_accessible_state(3, rng)
        data = expected_counts(rho, TWELVE_SETTINGS, 1e4)
        estimate = linear_inversion(data)
        assert estimate.allclose(rho, atol=1e-8)


def test_linear_inversion_round_trip_two_photons():
    from accdm.measurement import measurement_span_rank
    assert measurement_span_rank(TWELVE_SETTINGS, 2) == 10
    rng = np.random.default_rng(33)
    for _ in range(5):
        rho = random_accessible_state(2, rng)
        data = expected_counts(rho, TWELVE_SETTINGS, 1e4)
        assert linear_inversion(data).allclose(rho, atol=1e-8)


def test_linear_inversion_reports_deficient_rank(golden_state):
    data = expected_counts(golden_state, [WaveplateSetting(0, 0)], 1e4)
    with pytest.raises(RankDeficiencyError) as err:
        linear_inversion(data)
    assert err.value.rank == 4
    assert err.value.required == 20
    assert "rank 4" in str(err.value)


def test_linear_inversion_scale_invariance(golden_state):
    data = expected_counts(golden_state, TWELVE_SETTINGS, 1e4)
    scaled = CountTable(data.settings, 7 * data.counts)
    a = linear_inversion(data)
    b = linear_inversion(scaled)
    assert a.allclose(b, atol=1e-12)


def test_linear_inversion_clips_shot_noise_to_valid_state(golden_state):
    data = simulate_counts(golden_state, TWELVE_SETTINGS, 1e4, seed=3)
    estimate = linear_inversion(data)
    for block in estimate.blocks.values():
        assert np.linalg.eigvalsh(block).min() >= -1e-10


@pytest.mark.parametrize("n", range(1, 9))
def test_linear_inversion_fit_has_unit_trace(n):
    # random nonnegative tables, a fifth of the settings unobserved: the fit
    # is a state or RankDeficiencyError (the first table has fewer settings
    # than the C(n + 2, 2) that random settings need to span), and the
    # least-squares fit before the clip has weighted trace 1, so the clip
    # never finds a zero total
    rng = np.random.default_rng(1600 + n)
    layout = _layout(n)
    fitted, deficient = 0, 0
    for count in [math.comb(n + 2, 2) - 1] + [math.comb(n + 2, 2) * 5 // 4 + 2] * 5:
        settings = random_settings(rng, count)
        counts = rng.integers(0, 1000, size=(len(settings), n + 1)).astype(float)
        counts[rng.permutation(len(settings))[:len(settings) // 5]] = 0
        data = CountTable(settings, counts)
        try:
            rho = linear_inversion(data)
        except RankDeficiencyError:
            deficient += 1
            continue
        rows = np.repeat(counts.sum(axis=1) > 0, n + 1)
        theta = np.linalg.lstsq(data.model.design[rows], data.frequencies.ravel()[rows],
                                rcond=None)[0]
        assert abs(layout.trace_weights @ theta - 1) <= 1e-12
        assert abs(layout.trace_weights @ layout.stack_theta(rho.stack) - 1) <= 1e-12
        fitted += 1
    assert deficient >= 1 and fitted >= 3


# ---------------------------------------------------------------------------
# Maximum likelihood
# ---------------------------------------------------------------------------

def test_mle_noiseless_recovers_golden_blocks(golden_state):
    data = expected_counts(golden_state, TWELVE_SETTINGS, 1e4)
    result = mle_reconstruct(data)
    assert result.converged
    assert result.iterations <= 100_000
    for two_j in occurring_two_j(3):
        np.testing.assert_allclose(result.estimate.blocks[two_j],
                                   golden_state.blocks[two_j], atol=1e-6)
    assert np.all(np.diff(result.ll_trace) >= 0)


def test_mle_on_bundled_sample_counts(golden_state):
    result = mle_reconstruct(sample_counts())
    assert result.converged
    assert fidelity(result.estimate, golden_state) >= 0.99


def test_mle_pure_state_boundary_counts():
    rho = noon_state(3)
    data = simulate_counts(rho, TWELVE_SETTINGS, 1e4, seed=11)
    assert (data.counts == 0).any()
    result = mle_reconstruct(data)
    for block in result.estimate.blocks.values():
        assert np.linalg.eigvalsh(block).min() >= -1e-10
    assert fidelity(result.estimate, rho) > 0.99


def test_mle_two_photon_round_trip():
    rng = np.random.default_rng(55)
    rho = random_accessible_state(2, rng)
    data = simulate_counts(rho, TWELVE_SETTINGS, 1e4, seed=2)
    result = mle_reconstruct(data)
    assert result.converged
    assert fidelity(result.estimate, rho) >= 0.99


def test_mle_requires_span(golden_state):
    data = expected_counts(golden_state, [WaveplateSetting(0, 0)], 1e4)
    with pytest.raises(RankDeficiencyError):
        mle_reconstruct(data)


def test_all_zero_counts_are_rejected():
    # no observed row: the observed span has rank 0 for both estimators
    data = CountTable(TWELVE_SETTINGS, np.zeros((12, 4)))
    for estimator in (linear_inversion, mle_reconstruct):
        with pytest.raises(RankDeficiencyError) as err:
            estimator(data)
        assert err.value.rank == 0


def test_mle_flags_floored_cells():
    rho = pure_string_state(3, "000")
    counts = expected_counts(rho, TWELVE_SETTINGS, 1e4).counts.copy()
    # corrupt one impossible outcome, (0, 3) at setting (0, 0), with a positive count
    assert TWELVE_SETTINGS[0] == WaveplateSetting(0.0, 0.0)
    counts[0, 3] += 3
    result = mle_reconstruct(CountTable(TWELVE_SETTINGS, counts), max_iters=200)
    assert result.floored_cells >= 0  # diagnostic present and consistent
    assert result.predicted_frequencies.shape == (12, 4)


def blended_random_state(n, rng, floor=0.2):
    """Random full-rank state kept away from the boundary of the positive cone.

    At 1e4 shots the fidelity of any estimator to a generating state with
    near-zero block eigenvalues is limited by shot noise alone (the Bures
    metric diverges at the boundary), so the consistency check uses states
    with a mixedness floor.
    """
    rho = random_accessible_state(n, rng)
    mixed = AccessibleDensityMatrix.maximally_mixed(n)
    return AccessibleDensityMatrix(n, {
        tj: (1 - floor) * rho.blocks[tj] + floor * mixed.blocks[tj]
        for tj in rho.blocks})


def test_mle_estimator_consistency():
    # median fidelity over repeated simulations stays above 0.995
    rng = np.random.default_rng(77)
    n_states, n_seeds = 20, 50
    for state_idx in range(n_states):
        rho = blended_random_state(3, rng)
        fids = []
        for seed in range(n_seeds):
            data = simulate_counts(rho, TWELVE_SETTINGS, 1e4,
                                   seed=1000 * state_idx + seed)
            result = mle_reconstruct(data, tol=1e-5, max_iters=10_000)
            fids.append(fidelity(result.estimate, rho))
        assert np.median(fids) >= 0.995, f"state {state_idx}: median {np.median(fids)}"


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------

def test_fidelity_of_state_with_itself():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = random_accessible_state(3, rng)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10


def test_fidelity_accepts_every_state():
    # a block eigenvalue of -5e-11 is round-off within PSD_TOL: the
    # constructor accepts it, and so must the fidelity
    q, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(3, 3)) + 0j)
    rho = AccessibleDensityMatrix(2, {2: (q * [0.5 + 5e-11, 0.3, -5e-11]) @ q.conj().T,
                                      0: np.array([[0.2]])})
    assert np.linalg.eigvalsh(rho.blocks[2])[0] < -1e-11
    assert abs(fidelity(rho, rho) - 1.0) < 1e-9


def test_fidelity_half_overlap_to_noon(golden_state):
    f = fidelity(golden_state, noon_state(3))
    assert abs(f - 8 / 11) < 1e-10
    assert abs(f - 0.7273) <= 1e-4


def test_fidelity_orthogonal_pure_states():
    all_h = pure_string_state(3, "000")
    all_v = pure_string_state(3, "111")
    assert fidelity(all_h, all_v) < 1e-12


def test_fidelity_symmetric_and_rotation_covariant():
    rng = np.random.default_rng(6)
    for _ in range(5):
        rho = random_accessible_state(3, rng)
        sigma = random_accessible_state(3, rng)
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-9
        u = waveplate_unitary(WaveplateSetting(rng.uniform(0, 180),
                                               rng.uniform(0, 180)))
        rotated = {}
        for state in (rho, sigma):
            rotated[id(state)] = AccessibleDensityMatrix(3, {
                tj: sector_rotation(u, 3, tj) @ b @ sector_rotation(u, 3, tj).conj().T
                for tj, b in state.blocks.items()})
        f_rot = fidelity(rotated[id(rho)], rotated[id(sigma)])
        assert abs(f_rot - fidelity(rho, sigma)) < 1e-9


def test_fidelity_matches_full_space_oracle():
    def sqrtm(a):
        vals, vecs = np.linalg.eigh(a)
        return (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T

    rng = np.random.default_rng(12)
    for n in (2, 3):
        rho = random_accessible_state(n, rng)
        sigma = random_accessible_state(n, rng)
        root = sqrtm(full_matrix(n, rho.blocks))
        inner = root @ full_matrix(n, sigma.blocks) @ root
        vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
        full = np.sqrt(np.clip(vals, 0, None)).sum() ** 2
        assert abs(fidelity(rho, sigma) - full) < 1e-10


def test_fidelity_rejects_mismatched_photon_number(golden_state):
    with pytest.raises(ValueError):
        fidelity(golden_state, AccessibleDensityMatrix.maximally_mixed(2))


def test_purity_bounds():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        for _ in range(10):
            rho = random_accessible_state(n, rng)
            assert 1 / 2 ** n - 1e-12 <= rho.purity() <= 1 + 1e-10
        assert abs(AccessibleDensityMatrix.maximally_mixed(n).purity()
                   - 1 / 2 ** n) < 1e-12


# ---------------------------------------------------------------------------
# Indistinguishability reports
# ---------------------------------------------------------------------------

def test_report_pure_noon_is_indistinguishable():
    report = indistinguishability_report(noon_state(3))
    assert report.symmetric_population > 1 - 1e-10
    assert report.purity > 1 - 1e-10
    assert report.verdict == "indistinguishable"


def test_report_half_overlap_detects_hidden_differences(golden_state):
    report = indistinguishability_report(golden_state)
    assert abs(report.symmetric_population - 0.7273) < 5e-4
    assert report.verdict == "hidden-differences-detected"


def test_report_maximally_mixed():
    report = indistinguishability_report(AccessibleDensityMatrix.maximally_mixed(3))
    assert abs(report.symmetric_population - 0.5) < 1e-12
    assert report.verdict == "hidden-differences-detected"


def test_report_symmetric_but_impure_is_inconclusive():
    blocks = {tj: np.zeros((tj + 1, tj + 1), dtype=complex)
              for tj in occurring_two_j(3)}
    blocks[3] = np.eye(4, dtype=complex) / 4
    rho = AccessibleDensityMatrix(3, blocks)
    report = indistinguishability_report(rho)
    assert report.verdict == "inconclusive"


def test_report_tolerance_must_be_positive(golden_state):
    with pytest.raises(ValueError):
        indistinguishability_report(golden_state, tol=0.0)


def test_report_refuses_nan_tolerance(golden_state):
    # every comparison with nan is false, so nan would read as "inconclusive"
    with pytest.raises(ValueError, match="tol must be positive"):
        indistinguishability_report(golden_state, tol=math.nan)


def test_report_refuses_infinite_tolerance():
    # every s and P would be within an infinite tol of 1, so the maximally
    # mixed state (s = 0.5, P = 0.125) would read as "indistinguishable"
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        indistinguishability_report(AccessibleDensityMatrix.maximally_mixed(3), tol=math.inf)


def test_mle_refuses_nan_or_negative_tolerance():
    # no gain is below a nan tol, so it would run all max_iters steps
    for tol in (math.nan, -1e-10):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            mle_reconstruct(sample_counts(), tol=tol)


def test_mle_refuses_infinite_tolerance():
    # every gain is below an infinite tol, so the first cycle would stop
    # and report convergence far from the maximum
    with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
        mle_reconstruct(sample_counts(), tol=math.inf)


@pytest.mark.parametrize("max_iters", [0, -3, math.nan, 2.5])
def test_mle_refuses_a_step_cap_that_is_not_a_positive_integer(max_iters):
    # 0, -3 and nan would return the start unconverged, and 2.5 run 3 steps
    with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
        mle_reconstruct(sample_counts(), max_iters=max_iters)


def gap_bound_datasets():
    rng = np.random.default_rng(12)
    random_settings = [WaveplateSetting(q, h) for q, h in rng.uniform(0, 180, (20, 2))]
    golden = AccessibleDensityMatrix(3, half_overlap_blocks())
    yield golden, simulate_counts(golden, TWELVE_SETTINGS, 1e4, seed=21)
    yield noon_state(3), simulate_counts(noon_state(3), TWELVE_SETTINGS, 1e3, seed=22)
    two = random_accessible_state(2, rng)
    yield two, simulate_counts(two, TWELVE_SETTINGS, 1e3, seed=23)
    four = random_accessible_state(4, rng)
    yield four, simulate_counts(four, random_settings, 1e4, seed=24)


@pytest.mark.parametrize("max_iters, tol", [(5, 1e-10), (100_000, 1e-3)],
                         ids=["stopped-early", "converged"])
def test_gap_bound_certifies_the_estimate(max_iters, tol):
    # LL(sigma) - LL(estimate) <= gap_bound for every state sigma; here the
    # truth, the maximally mixed state and random states
    rng = np.random.default_rng(5)
    for truth, data in gap_bound_datasets():
        result = mle_reconstruct(data, max_iters=max_iters, tol=tol)
        assert 0 <= result.gap_bound < math.inf
        ll_estimate = log_likelihood(result.estimate, data)
        slack = 1e-9 * abs(ll_estimate)
        others = [truth, AccessibleDensityMatrix.maximally_mixed(truth.n)]
        others += [random_accessible_state(truth.n, rng) for _ in range(5)]
        for sigma in others:
            assert log_likelihood(sigma, data) - ll_estimate <= result.gap_bound + slack


def test_gap_bound_is_small_at_an_interior_maximum():
    # noiseless counts of a full-rank state: the maximum is the state itself,
    # where sum_k n_k Pi_k / p_k is sum_k n_k times the identity; what is
    # left is round-off relative to the 1.2e5 counts
    rho = random_accessible_state(3, np.random.default_rng(8))
    result = mle_reconstruct(expected_counts(rho, TWELVE_SETTINGS, 1e4),
                             tol=1e-12)
    assert result.gap_bound < 1e-3


def test_gap_bound_is_infinite_when_a_counted_cell_has_no_probability():
    from accdm.tomography import LOG_FLOOR, _gap_bound
    data = sample_counts()
    counts = data.counts.ravel()
    p = np.full(counts.size, 0.25)
    p[np.argmax(counts)] = LOG_FLOOR
    assert _gap_bound(data.model, counts, p) == math.inf


def test_a_counted_cell_at_the_log_floor_is_floored():
    # floored_cells and the gap bound read one mask: a cell with counts and
    # probability at most LOG_FLOOR, the floor itself included
    from accdm.tomography import LOG_FLOOR, _floored, _gap_bound
    data = sample_counts()
    counts = data.counts.ravel()
    p = np.full(counts.size, 0.25)
    cell = np.argmax(counts)
    p[cell] = LOG_FLOOR
    assert np.flatnonzero(_floored(counts, p)).tolist() == [cell]
    assert _gap_bound(data.model, counts, p) == math.inf
    p[cell] = np.nextafter(LOG_FLOOR, 1.0)
    assert not _floored(counts, p).any()
    assert _gap_bound(data.model, counts, p) < math.inf
    # a cell without counts is never floored
    assert not _floored(np.zeros_like(counts), np.zeros_like(p)).any()
