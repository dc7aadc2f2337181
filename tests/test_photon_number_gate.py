"""One gate on the photon number: every entry point that takes an n, a
state, an expression or count data refuses an n that is not an integer in
1..N_MAX with the gate's ValueError, before any N-sized work."""

from types import SimpleNamespace

import numpy as np
import pytest

from accdm import io
from accdm.measurement import (
    CountTable,
    WaveplateSetting,
    measurement_span_rank,
    outcome_probabilities,
    simulate_counts,
)
from accdm.expressions import parse_operator_expression
from accdm.schur import N_MAX, _layout, _layouts, sector_rotation, symmetric_power
from accdm.states import AccessibleDensityMatrix, expression_to_accessible
from accdm.tomography import linear_inversion, log_likelihood, mle_reconstruct

from conftest import TWELVE_SETTINGS

GATE = f"between 1 and {N_MAX}"
SETTING = WaveplateSetting(0.0, 0.0)

# A state or an expression cannot hold such an n itself, so a stand-in with
# only ``n`` carries it: an entry point that read anything else first would
# fail with AttributeError.
ENTRY_POINTS = {
    "state": lambda n: AccessibleDensityMatrix(n, {}),
    "maximally_mixed": AccessibleDensityMatrix.maximally_mixed,
    "outcome_probabilities": lambda n: outcome_probabilities(SimpleNamespace(n=n), SETTING),
    "measurement_span_rank": lambda n: measurement_span_rank([SETTING], n),
    "simulate_counts": lambda n: simulate_counts(SimpleNamespace(n=n), [SETTING], 1e4, 7),
    "expression_to_accessible": lambda n: expression_to_accessible(SimpleNamespace(n=n)),
    "sector_rotation": lambda n: sector_rotation(np.eye(2), n, 1),
    "symmetric_power": lambda n: symmetric_power(np.eye(2), n),
}


def table(n):
    # a table's n + 1 columns make n an integer
    return CountTable([SETTING], np.full((1, n + 1), 5.0))


# count data and the .dm parser reach the gate only with an integer n
INTEGER_ENTRY_POINTS = {
    "linear_inversion": lambda n: linear_inversion(table(n)),
    "log_likelihood": lambda n: log_likelihood(
        AccessibleDensityMatrix.maximally_mixed(3), table(n)),
    "mle_reconstruct": lambda n: mle_reconstruct(table(n)),
    "parse_density_matrix": lambda n: io.parse_density_matrix(
        f"n_photons {n}\nblock two_j {n} multiplicity 1\n"),
}

BAD_N = {"zero": 0, "above-cap": N_MAX + 1, "fractional": 2.5, "cached-float": 3.0}
CASES = ([pytest.param(call, n, id=f"{name}-{label}")
          for name, call in ENTRY_POINTS.items() for label, n in BAD_N.items()]
         + [pytest.param(call, n, id=f"{name}-{label}")
            for name, call in INTEGER_ENTRY_POINTS.items()
            for label, n in BAD_N.items() if isinstance(n, int)])


@pytest.mark.parametrize("call, n", CASES)
def test_every_entry_point_refuses_a_bad_photon_number(call, n):
    # with this layout cached, 3.0 must still be refused: the check runs on
    # every call, not only on a cache miss
    _layout(np.int64(3))
    parser = call is INTEGER_ENTRY_POINTS["parse_density_matrix"]
    with pytest.raises(io.FormatError if parser else ValueError, match=GATE):
        call(n)


def test_numpy_integer_photon_numbers_are_accepted():
    three = np.int64(3)
    assert AccessibleDensityMatrix.maximally_mixed(three).allclose(
        AccessibleDensityMatrix.maximally_mixed(3))
    assert measurement_span_rank([SETTING], three) == measurement_span_rank([SETTING], 3)
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    np.testing.assert_array_equal(sector_rotation(u, three, 1), sector_rotation(u, 3, 1))
    np.testing.assert_array_equal(symmetric_power(u, three), symmetric_power(u, 3))


def test_the_gate_hands_on_one_int():
    assert _layout(np.int64(8)) is _layout(8)
    assert type(_layout(np.int64(8)).n) is int
    assert type(AccessibleDensityMatrix.maximally_mixed(np.int64(3)).n) is int


def test_numpy_integer_state_simulates_like_an_int_one():
    settings = [SETTING, WaveplateSetting(22.5, 45.0)]
    np.testing.assert_array_equal(
        simulate_counts(AccessibleDensityMatrix.maximally_mixed(np.int64(3)),
                        settings, 1e4, 7).counts,
        simulate_counts(AccessibleDensityMatrix.maximally_mixed(3), settings, 1e4, 7).counts)


def test_a_pipeline_at_a_numpy_integer_reuses_the_int_layout():
    def pipeline(n):
        rho = expression_to_accessible(parse_operator_expression("(aH)(aV)(bH + bV)"))
        AccessibleDensityMatrix.maximally_mixed(n)
        measurement_span_rank(TWELVE_SETTINGS, n)
        outcome_probabilities(rho, SETTING)
        mle_reconstruct(simulate_counts(rho, TWELVE_SETTINGS, 1e4, 7))

    # from an empty cache, so that no earlier np.int64(3) entry hides one
    _layouts.cache_clear()
    pipeline(3)
    table, entries = _layout(3).table, _layouts.cache_info().currsize
    pipeline(np.int64(3))
    assert _layouts.cache_info().currsize == entries
    assert _layout(3).table is table
