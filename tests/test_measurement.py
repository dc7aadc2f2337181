import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from accdm import io
from accdm.measurement import (
    CountTable,
    WaveplateSetting,
    measurement_span_rank,
    outcome_probabilities,
    outcome_two_m,
    simulate_counts,
    waveplate_unitary,
)
from accdm.schur import occurring_two_j, sector_rotation
from accdm.states import AccessibleDensityMatrix

from conftest import (
    TWELVE_SETTINGS,
    accessible_projection,
    brute_force_twirl,
    full_matrix,
    noon_state,
    outcome_operators,
    random_accessible_state,
)


def pure_string_state(n, bits):
    """|s><s| for a computational string, as an accessible density matrix."""
    dim = 2 ** n
    rho = np.zeros((dim, dim), dtype=complex)
    idx = int(bits, 2)
    rho[idx, idx] = 1.0
    return accessible_projection(rho)


# ---------------------------------------------------------------------------
# Waveplate unitaries
# ---------------------------------------------------------------------------

def test_zero_angles_leave_measurement_basis_diagonal():
    u = waveplate_unitary(WaveplateSetting(0.0, 0.0))
    assert abs(u[0, 1]) < 1e-14 and abs(u[1, 0]) < 1e-14
    assert abs(u[0, 0] - 1.0) < 1e-14
    assert abs(abs(u[1, 1]) - 1.0) < 1e-14


def test_hwp_at_22_5_rotates_h_to_diagonal():
    u = waveplate_unitary(WaveplateSetting(0.0, 22.5))
    out = u @ np.array([1.0, 0.0])
    target = np.array([1.0, 1.0]) / math.sqrt(2)
    assert abs(abs(np.vdot(target, out)) - 1.0) < 1e-12


def test_qwp_at_45_maps_circular_to_measurement_basis():
    u = waveplate_unitary(WaveplateSetting(45.0, 0.0))
    left = np.array([1.0, 1.0j]) / math.sqrt(2)
    right = np.array([1.0, -1.0j]) / math.sqrt(2)
    outs = [np.abs(u @ v) for v in (left, right)]
    # each circular state lands on one counter, no mixing
    assert sorted(np.round(out, 10).tolist() for out in outs) == [[0, 1], [1, 0]]


def test_waveplate_unitarity_and_period():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q, h = rng.uniform(-360, 360, size=2)
        u = waveplate_unitary(WaveplateSetting(q, h))
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-14
        u_shift = waveplate_unitary(WaveplateSetting(q + 180.0, h - 180.0))
        assert np.abs(u - u_shift).max() < 1e-12


# ---------------------------------------------------------------------------
# Outcome operators
# ---------------------------------------------------------------------------

def test_straight_through_all_h_outcome_is_top_weight_projector():
    top = outcome_operators(WaveplateSetting(0.0, 0.0), 3)[0]
    np.testing.assert_allclose(top[3], np.diag([1, 0, 0, 0]), atol=1e-12)
    np.testing.assert_allclose(top[1], np.zeros((2, 2)), atol=1e-12)


def test_straight_through_two_one_outcome_blocks():
    element = outcome_operators(WaveplateSetting(0.0, 0.0), 3)[1]
    np.testing.assert_allclose(element[3], np.diag([0, 1, 0, 0]), atol=1e-12)
    np.testing.assert_allclose(element[1], np.diag([1, 0]), atol=1e-12)


def test_two_one_outcome_equals_projector_onto_single_v_strings():
    # |HHV><HHV| + |HVH><HVH| + |VHH><VHH| commutes with permutations, so its
    # accessible form is exact: compare full matrices entrywise.
    element = outcome_operators(WaveplateSetting(0.0, 0.0), 3)[1]
    proj = np.zeros((8, 8), dtype=complex)
    for idx in (0b001, 0b010, 0b100):
        proj[idx, idx] = 1.0
    np.testing.assert_allclose(full_matrix(3, element), proj, atol=1e-12)
    np.testing.assert_allclose(brute_force_twirl(proj, 3), proj, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_povm_completeness_and_positivity_random_settings(n):
    rng = np.random.default_rng(n)
    for _ in range(40):
        setting = WaveplateSetting(rng.uniform(0, 180), rng.uniform(0, 180))
        elements = outcome_operators(setting, n)
        for two_j in occurring_two_j(n):
            total = sum(e[two_j] for e in elements)
            np.testing.assert_allclose(total, np.eye(two_j + 1), atol=1e-10)
            for e in elements:
                eigs = np.linalg.eigvalsh(e[two_j])
                assert eigs.min() > -1e-10 and eigs.max() < 1 + 1e-10


def test_povm_blocks_invariant_under_global_phase():
    u = waveplate_unitary(WaveplateSetting(33.0, 71.0))
    for phase in (1j, np.exp(0.7j)):
        for two_j in occurring_two_j(3):
            w = sector_rotation(u, 3, two_j)
            w_phased = sector_rotation(phase * u, 3, two_j)
            for k in range(two_j + 1):
                pi_plain = np.outer(w[k].conj(), w[k])
                pi_phased = np.outer(w_phased[k].conj(), w_phased[k])
                np.testing.assert_allclose(pi_plain, pi_phased, atol=1e-12)


# ---------------------------------------------------------------------------
# Outcome probabilities
# ---------------------------------------------------------------------------

def test_all_h_input_counts_all_h(golden_state):
    rho = pure_string_state(3, "000")
    p = outcome_probabilities(rho, WaveplateSetting(0.0, 0.0))
    np.testing.assert_allclose(p, [1, 0, 0, 0], atol=1e-12)


def test_half_overlap_probabilities_straight_through(golden_state):
    p = outcome_probabilities(golden_state, WaveplateSetting(0.0, 0.0))
    np.testing.assert_allclose(p, [0.3636, 0.1364, 0.1364, 0.3636], atol=5e-5)
    np.testing.assert_allclose(p, [4 / 11, 3 / 22, 3 / 22, 4 / 11], atol=1e-12)


def test_maximally_mixed_probabilities_count_strings():
    rho = AccessibleDensityMatrix.maximally_mixed(3)
    rng = np.random.default_rng(9)
    for _ in range(5):
        setting = WaveplateSetting(rng.uniform(0, 180), rng.uniform(0, 180))
        p = outcome_probabilities(rho, setting)
        np.testing.assert_allclose(p, [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_pairing_matches_full_space_brute_force(n):
    rng = np.random.default_rng(n + 40)
    for _ in range(4):
        rho = random_accessible_state(n, rng)
        setting = WaveplateSetting(rng.uniform(0, 180), rng.uniform(0, 180))
        p = outcome_probabilities(rho, setting)

        u = waveplate_unitary(setting)
        u_full = np.array([[1.0]])
        for _ in range(n):
            u_full = np.kron(u_full, u)
        rho_full = full_matrix(n, rho.blocks)
        for k in range(n + 1):
            proj = np.zeros((2 ** n, 2 ** n), dtype=complex)
            for idx in range(2 ** n):
                if bin(idx).count("1") == k:
                    proj[idx, idx] = 1.0
            expected = np.trace(
                rho_full @ u_full.conj().T @ proj @ u_full).real
            assert abs(p[k] - expected) < 1e-10


def test_top_outcome_reads_top_block_entry():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        rho = random_accessible_state(n, rng)
        p = outcome_probabilities(rho, WaveplateSetting(0.0, 0.0))
        assert abs(p[0] - rho.blocks[n][0, 0].real) < 1e-12


def test_collective_rotation_covariance():
    # twirl(u rho u^dag) has blocks W_j B_j W_j^dag for waveplate rotations u
    rng = np.random.default_rng(14)
    for n in (2, 3, 4):
        rho = random_accessible_state(n, rng)
        setting = WaveplateSetting(rng.uniform(0, 180), rng.uniform(0, 180))
        u = waveplate_unitary(setting)
        u_full = np.array([[1.0]])
        for _ in range(n):
            u_full = np.kron(u_full, u)
        rotated = accessible_projection(u_full @ full_matrix(n, rho.blocks) @ u_full.conj().T)
        for two_j, block in rho.blocks.items():
            w = sector_rotation(u, n, two_j)
            np.testing.assert_allclose(rotated.blocks[two_j], w @ block @ w.conj().T,
                                       atol=1e-9)


def test_outcome_count_follows_photon_number():
    for n in (1, 2, 4):
        rho = AccessibleDensityMatrix.maximally_mixed(n)
        p = outcome_probabilities(rho, WaveplateSetting(0, 0))
        assert p.shape == (n + 1,)


# ---------------------------------------------------------------------------
# Poisson sampling and count simulation
# ---------------------------------------------------------------------------

def test_simulate_counts_substreams_are_poisson(golden_state):
    # copies of one setting, its quarter-wave angle turned by whole periods
    # of 180 degrees so that no setting repeats, draw from 2000 substreams of
    # one seed: each outcome's sample mean and variance lie within 5
    # standard errors of shots * p, as for independent Poisson draws
    copies, shots = 2000, 40.0
    setting = TWELVE_SETTINGS[1]
    turned = [WaveplateSetting(setting.qwp_deg + 180 * i, setting.hwp_deg)
              for i in range(copies)]
    counts = simulate_counts(golden_state, turned, shots, seed=100).counts
    for k, mean in enumerate(shots * outcome_probabilities(golden_state, setting)):
        column = counts[:, k]
        assert abs(column.mean() - mean) < 5 * math.sqrt(mean / copies)
        # Var(sample variance) = (mean + 2 mean^2) / copies for Poisson draws
        assert abs(column.var(ddof=1) - mean) < 5 * math.sqrt(
            (mean + 2 * mean ** 2) / copies)


def test_poisson_zero_mean():
    # |HHH> straight through: the outcomes with a V photon have mean zero
    # and draw no counts at any shot number or seed
    rho = pure_string_state(3, "000")
    for seed in range(20):
        counts = simulate_counts(rho, [WaveplateSetting(0.0, 0.0)], 1e4, seed).counts
        assert counts[0, 1:].tolist() == [0, 0, 0]
        assert counts[0, 0] > 0


def test_simulate_counts_deterministic(golden_state):
    a = simulate_counts(golden_state, TWELVE_SETTINGS, 1e4, seed=42)
    b = simulate_counts(golden_state, TWELVE_SETTINGS, 1e4, seed=42)
    assert a.settings == b.settings
    np.testing.assert_array_equal(a.counts, b.counts)
    c = simulate_counts(golden_state, TWELVE_SETTINGS, 1e4, seed=43)
    assert a.settings == c.settings
    assert (a.counts != c.counts).any()


ANGLE_PAIRS = st.lists(st.tuples(st.floats(0, 180), st.floats(0, 180)),
                       min_size=2, max_size=6)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 80), other=st.integers(0, 2 ** 80),
       angles=ANGLE_PAIRS, appended=ANGLE_PAIRS, moved=st.integers(0, 5))
def test_simulate_counts_cells_are_substreams(n, seed, other, angles, appended, moved):
    # a cell's count depends on the seed, its indices and its own mean only
    rho = random_accessible_state(n, np.random.default_rng(n))
    chosen = [WaveplateSetting(q, h) for q, h in angles]
    extended = chosen + [WaveplateSetting(q, h) for q, h in appended]
    j = moved % len(chosen)
    changed = list(chosen)
    changed[j] = WaveplateSetting(chosen[j].qwp_deg + 30.0, chosen[j].hwp_deg + 7.0)
    # a count table holds each setting once
    assume(len(set(extended)) == len(extended) and len(set(changed)) == len(changed))
    base = simulate_counts(rho, chosen, 1e4, seed).counts

    longer = simulate_counts(rho, extended, 1e4, seed).counts
    np.testing.assert_array_equal(longer[:len(chosen)], base)

    other_cells = simulate_counts(rho, changed, 1e4, seed).counts
    keep = np.arange(len(chosen)) != j
    np.testing.assert_array_equal(other_cells[keep], base[keep])

    # the documented stream: PCG64(seed).jumped(si * (n + 1) + k)
    si, k = len(chosen) - 1, n
    bits = np.random.PCG64(seed).jumped(si * (n + 1) + k)
    mean = 1e4 * outcome_probabilities(rho, chosen[si])[k]
    assert base[si, k] == np.random.Generator(bits).poisson(mean)

    if other != seed:
        assert (simulate_counts(rho, chosen, 1e4, other).counts != base).any()


def test_simulate_counts_zero_shots(golden_state):
    counts = simulate_counts(golden_state, TWELVE_SETTINGS, 0.0, seed=1).counts
    assert not counts.any()
    assert counts.size == 48


def test_simulate_counts_sample_means(golden_state):
    # per-outcome mean over many seeds within 3 standard errors of shots * p
    n_seeds = 1000
    shots = 1e4
    totals = np.zeros((len(TWELVE_SETTINGS), 4))
    for seed in range(n_seeds):
        totals += simulate_counts(golden_state, TWELVE_SETTINGS, shots, seed=seed).counts
    means = totals / n_seeds
    for si, setting in enumerate(TWELVE_SETTINGS):
        p = outcome_probabilities(golden_state, setting)
        for k in range(4):
            expected = shots * p[k]
            se = math.sqrt(max(expected, 1e-9) / n_seeds)
            assert abs(means[si, k] - expected) <= 3 * se + 1e-9, (
                f"setting {setting}, outcome {k}: mean {means[si, k]}, "
                f"expected {expected} +- {se}")


def test_simulate_counts_requires_settings(golden_state):
    # the outcome model refuses an empty list before the probabilities are
    # reshaped to one row per setting
    with pytest.raises(ValueError, match="settings must be nonempty"):
        simulate_counts(golden_state, [], 1e4, 0)


def test_simulate_rejects_negative_shots_and_seed(golden_state):
    with pytest.raises(ValueError):
        simulate_counts(golden_state, TWELVE_SETTINGS, -1.0, seed=0)
    with pytest.raises(ValueError):
        simulate_counts(golden_state, TWELVE_SETTINGS, 1.0, seed=-3)


@pytest.mark.parametrize("seed", [1.5, 7.0, math.nan])
def test_simulate_refuses_a_seed_that_is_not_an_integer(golden_state, seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        simulate_counts(golden_state, TWELVE_SETTINGS, 1.0, seed=seed)


def test_simulate_counts_shots_bound(golden_state):
    # Generator.poisson rejects means above about 9.2e18
    data = simulate_counts(golden_state, TWELVE_SETTINGS, 1e18, seed=0)
    assert data.counts.sum() > 0.99e18 * len(TWELVE_SETTINGS)
    for shots in (1e19, math.nan):
        with pytest.raises(ValueError, match="mean_shots"):
            simulate_counts(golden_state, TWELVE_SETTINGS, shots, seed=0)


# ---------------------------------------------------------------------------
# Measurement span
# ---------------------------------------------------------------------------

def test_twelve_settings_span_twenty_dimensions():
    assert measurement_span_rank(TWELVE_SETTINGS, 3) == 20


def test_single_setting_spans_four_dimensions():
    assert measurement_span_rank([WaveplateSetting(0.0, 0.0)], 3) == 4


def test_duplicate_settings_do_not_change_rank():
    doubled = TWELVE_SETTINGS + TWELVE_SETTINGS
    assert measurement_span_rank(doubled, 3) == 20
    assert measurement_span_rank([TWELVE_SETTINGS[0]] * 5, 3) == 4


def test_span_rank_requires_settings():
    with pytest.raises(ValueError):
        measurement_span_rank([], 3)


def test_count_record_requires_integer_photon_numbers():
    # a fractional photon number would be an index of the counts table
    for n_h, n_v in (("1.5", "1.5"), ("2.0", "1"), ("2", "1e0")):
        with pytest.raises(io.FormatError, match="bad counts row"):
            io.parse_counts(f"{io.COUNTS_HEADER}\n0,0,{n_h},{n_v},1\n")
    assert io.parse_counts(f"{io.COUNTS_HEADER}\n0,0,2,1,1\n").n == 3


@pytest.mark.parametrize("qwp, hwp", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_count_record_refuses_non_finite_angles(qwp, hwp):
    with pytest.raises(io.FormatError, match="bad counts row") as err:
        io.parse_counts(f"{io.COUNTS_HEADER}\n{qwp},{hwp},2,1,1\n")
    assert str(err.value.__cause__) == "waveplate angles must be finite"


def test_count_table_refuses_what_no_counts_file_holds():
    one = [WaveplateSetting(0.0, 0.0)]
    for settings, counts, message in [
            ([], np.zeros((0, 4)), "one row of counts for each"),
            (one, np.zeros((2, 4)), "one row of counts for each"),
            (one, np.zeros(4), "one row of counts for each"),
            (one, np.zeros((1, 1)), "between 1 and 10"),
            (one, np.zeros((1, 12)), "between 1 and 10"),
            (one * 2, np.zeros((2, 4)), "settings must not repeat"),
            (one, [[1.0, -1.0, 0.0, 0.0]], "nonnegative"),
            (one, [[1.0, math.nan, 0.0, 0.0]], "total of the counts is nan"),
            (one, [[1e308, 1e308, 0.0, 0.0]], "total of the counts is inf")]:
        with pytest.raises(ValueError, match=message):
            CountTable(settings, counts)
    with pytest.raises(ValueError, match="settings must not repeat"):
        simulate_counts(AccessibleDensityMatrix.maximally_mixed(3), one * 2, 1e4, 0)


def test_count_table_holds_a_read_only_copy():
    counts = np.array([[1.0, 2.0], [3.0, 0.0]])
    data = CountTable([WaveplateSetting(0.0, 0.0), WaveplateSetting(45.0, 0.0)], counts)
    counts[0, 0] = 9.0
    assert data.counts[0, 0] == 1.0 and data.n == 1 and type(data.n) is int
    assert isinstance(data.settings, tuple)
    for array in (data.counts, data.frequencies):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.5
    np.testing.assert_array_equal(data.frequencies, [[1 / 3, 2 / 3], [1.0, 0.0]])
    assert data.model is data.model


def test_outcome_two_m_ordering():
    assert [outcome_two_m(3, k) for k in range(4)] == [3, 1, -1, -3]
