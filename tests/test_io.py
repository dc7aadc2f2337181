from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from accdm import io
from accdm.measurement import CountTable, WaveplateSetting, simulate_counts
from accdm.schur import su2_multiplicity
from accdm.states import AccessibleDensityMatrix
from accdm.tomography import IndistinguishabilityReport, indistinguishability_report

from conftest import TWELVE_SETTINGS, random_accessible_state


def with_signed_zeros_and_subnormals(rho, rng):
    """``rho`` with each block's diagonal imaginary parts set to -0.0 and,
    in blocks of dimension 2 and up, the coherences of row and column 0 set
    to -0.0 except entry (0, 1), a subnormal imaginary part, and its
    conjugate: a direct sum of principal submatrices, so still PSD."""
    blocks = {}
    for two_j, block in rho.blocks.items():
        block = block.copy()
        block.imag[np.diag_indices(two_j + 1)] = -0.0
        if two_j:
            block[0, 1:] = block[1:, 0] = -0.0
            block[0, 1] = complex(-0.0, float(rng.uniform(1.0, 9.0)) * 1e-310)
            block[1, 0] = block[0, 1].conjugate()
        blocks[two_j] = block
    return AccessibleDensityMatrix(rho.n, blocks)


def states_of_every_size(seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 11):
        rho = random_accessible_state(n, rng)
        yield rho
        yield with_signed_zeros_and_subnormals(rho, rng)


def test_density_matrix_round_trip(golden_state):
    # 17 significant digits read back as the same double
    for rho in [golden_state, *states_of_every_size(2)]:
        back = io.parse_density_matrix(io.format_density_matrix(rho))
        assert back.n == rho.n
        assert sorted(back.blocks) == sorted(rho.blocks)
        for two_j, block in rho.blocks.items():
            assert np.array_equal(back.blocks[two_j], block)


def numpy_scalar_text(rho):
    """The matrix text formatted one numpy scalar at a time."""
    lines = [f"n_photons {rho.n}"]
    for two_j in sorted(rho.blocks, reverse=True):
        mult = su2_multiplicity(rho.n, two_j)
        lines.append(f"block two_j {two_j} multiplicity {mult}")
        for row in rho.blocks[two_j]:
            lines.append(" ".join(f"{z.real:.17e} {z.imag:.17e}" for z in row))
    return "\n".join(lines) + "\n"


def test_density_matrix_text_matches_numpy_scalar_oracle(golden_state):
    for rho in [golden_state, *states_of_every_size(3)]:
        assert io.format_density_matrix(rho) == numpy_scalar_text(rho)
    assert "-0.00000000000000000e+00" in io.format_density_matrix(rho)


@pytest.mark.parametrize("header", ["photons 3", "n_photons 1 junk", "n_photonsX 1"],
                         ids=["photons", "extra-field", "longer-keyword"])
def test_density_matrix_bad_header(header):
    with pytest.raises(io.FormatError, match="n_photons"):
        io.parse_density_matrix(header + "\nblock two_j 1 multiplicity 1\n1 0 0 0\n0 0 0 0\n")


def test_density_matrix_wrong_multiplicity(golden_state):
    text = io.format_density_matrix(golden_state)
    corrupted = text.replace("block two_j 1 multiplicity 2",
                             "block two_j 1 multiplicity 3")
    with pytest.raises(io.FormatError, match="multiplicity"):
        io.parse_density_matrix(corrupted)


def test_density_matrix_wrong_row_length(golden_state):
    text = io.format_density_matrix(golden_state)
    lines = text.splitlines()
    lines[2] = lines[2] + " 0.0"
    with pytest.raises(io.FormatError, match="expected"):
        io.parse_density_matrix("\n".join(lines))


def test_density_matrix_invalid_state_rejected(golden_state):
    text = io.format_density_matrix(golden_state)
    # double one diagonal entry: trace breaks
    bad = text.replace("3.63636363636363", "7.27272727272727", 1)
    with pytest.raises(io.FormatError, match="not a valid state"):
        io.parse_density_matrix(bad)


@pytest.mark.parametrize("header", ["block two_j 1.5 multiplicity 2",
                                    "block two_j 1 multiplicity x",
                                    "block two_j 1 foo 2"])
def test_density_matrix_bad_block_header(golden_state, header):
    text = io.format_density_matrix(golden_state)
    bad = text.replace("block two_j 1 multiplicity 2", header)
    with pytest.raises(io.FormatError, match="bad block header"):
        io.parse_density_matrix(bad)


def test_density_matrix_repeated_block(golden_state):
    text = io.format_density_matrix(golden_state)
    lines = text.splitlines()
    # the two_j = 1 block (header and two rows) once more
    with pytest.raises(io.FormatError, match="appears twice"):
        io.parse_density_matrix("\n".join(lines + lines[-3:]))


@pytest.mark.parametrize("text", [
    "n_photons 0\nblock two_j 0 multiplicity 1\n1 0\n",
    "n_photons 11\nblock two_j 11 multiplicity 1\n",
], ids=["zero", "eleven"])
def test_density_matrix_photon_number_out_of_range(text):
    with pytest.raises(io.FormatError, match="between 1 and 10"):
        io.parse_density_matrix(text)


@pytest.mark.parametrize("rows", ["nan 0 0 0\n0 0 nan 0\n", "inf 0 0 0\n0 0 -inf 0\n"],
                         ids=["nan", "inf"])
def test_density_matrix_non_finite_entries(rows):
    with pytest.raises(io.FormatError, match="non-finite"):
        io.parse_density_matrix("n_photons 1\nblock two_j 1 multiplicity 1\n" + rows)


def test_settings_round_trip():
    text = io.format_settings(TWELVE_SETTINGS)
    assert text.splitlines()[0] == "qwp_deg,hwp_deg"
    assert io.parse_settings(text) == TWELVE_SETTINGS


ANGLES = st.floats(allow_nan=False, allow_infinity=False)
ROUND_TRIP = settings(derandomize=True, max_examples=300, deadline=None)


@ROUND_TRIP
@given(st.lists(st.builds(WaveplateSetting, ANGLES, ANGLES), min_size=1,
                unique_by=lambda s: (s.qwp_deg, s.hwp_deg)))
def test_settings_round_trip_any_finite_angle(settings_list):
    assert io.parse_settings(io.format_settings(settings_list)) == settings_list


def assert_same_table(a, b):
    assert a.settings == b.settings
    np.testing.assert_array_equal(a.counts, b.counts)


@st.composite
def count_tables(draw):
    n = draw(st.integers(1, 10))
    settings = draw(st.lists(st.builds(WaveplateSetting, ANGLES, ANGLES), min_size=1,
                             unique_by=lambda s: (s.qwp_deg, s.hwp_deg)))
    size = len(settings) * (n + 1)
    counts = draw(st.lists(st.floats(0, 1e12), min_size=size, max_size=size))
    return CountTable(settings, np.reshape(counts, (len(settings), n + 1)))


@ROUND_TRIP
@given(count_tables())
def test_counts_round_trip_any_finite_angle(data):
    assert_same_table(io.parse_counts(io.format_counts(data)), data)


@pytest.mark.parametrize("angle, text", [(15.0, "15"), (12.25, "12.25"), (-0.0, "-0"),
                                         (1e-5, "1e-05"), (33.3333333, "33.3333333"),
                                         (10.0000001, "10.0000001"),
                                         (123456789.0, "123456789.0"),
                                         # np.float32(1.1) == 1.1 compares in float32
                                         (np.float32(1.1), "1.100000023841858")])
def test_angle_text_is_g_where_that_reads_back(angle, text):
    assert io.format_settings([WaveplateSetting(angle, 0.0)]).splitlines()[1] == f"{text},0"


def test_settings_reject_repeated_row():
    # -0 and 0 are the same angle
    with pytest.raises(io.FormatError, match="repeated settings row '-0,15'"):
        io.parse_settings("qwp_deg,hwp_deg\n0,15\n30,0\n-0,15\n")


def test_settings_reject_garbage():
    with pytest.raises(io.FormatError):
        io.parse_settings("qwp_deg,hwp_deg\n1,2,3\n")
    with pytest.raises(io.FormatError):
        io.parse_settings("angle\n10\n")
    with pytest.raises(io.FormatError, match="no rows"):
        io.parse_settings("qwp_deg,hwp_deg\n")


def test_counts_round_trip(golden_state):
    data = simulate_counts(golden_state, TWELVE_SETTINGS, 1e3, seed=0)
    text = io.format_counts(data)
    assert text.splitlines()[0] == "qwp_deg,hwp_deg,n_h,n_v,count"
    assert_same_table(io.parse_counts(text), data)


def test_counts_fractional_round_trip():
    data = CountTable([WaveplateSetting(0.0, 12.25)], [[0, 1234.5, 0, 0]])
    text = io.format_counts(data)
    assert text.splitlines()[2] == "0,12.25,2,1,1234.5"
    assert_same_table(io.parse_counts(text), data)


def test_bool_photon_numbers_are_written_as_ints():
    rho = AccessibleDensityMatrix.maximally_mixed(True)
    text = io.format_density_matrix(rho)
    assert text.startswith("n_photons 1\n")
    assert io.parse_density_matrix(text).allclose(rho)


def test_counts_reject_bad_rows():
    with pytest.raises(io.FormatError):
        io.parse_counts("qwp_deg,hwp_deg,n_h,n_v,count\n0,0,3\n")
    with pytest.raises(io.FormatError):
        io.parse_counts("qwp,hwp\n")


def test_counts_reject_repeated_row():
    text = "qwp_deg,hwp_deg,n_h,n_v,count\n0,0,3,0,12\n0,0,2,1,5\n0,0,3,0,7\n"
    with pytest.raises(io.FormatError, match="repeated counts row"):
        io.parse_counts(text)


def test_counts_cells_without_a_row_count_zero():
    data = io.parse_counts("qwp_deg,hwp_deg,n_h,n_v,count\n0,0,1,2,5\n15,0,3,0,7\n0,0,3,0,2\n")
    assert data.settings == (WaveplateSetting(0, 0), WaveplateSetting(15, 0))
    np.testing.assert_array_equal(data.counts, [[2, 0, 5, 0], [7, 0, 0, 0]])


def test_counts_reject_mixed_photon_numbers():
    # refused by the parser, before any table is built
    with pytest.raises(io.FormatError, match=r"counts rows mix photon numbers: \[2, 3\]"):
        io.parse_counts("qwp_deg,hwp_deg,n_h,n_v,count\n0,0,3,0,12\n0,0,1,1,5\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_counts_reject_non_finite_count(value):
    with pytest.raises(ValueError, match="finite"):
        CountTable([WaveplateSetting(0.0, 0.0)], [[12, float(value), 0, 0]])
    with pytest.raises(io.FormatError, match="bad counts row"):
        io.parse_counts(f"qwp_deg,hwp_deg,n_h,n_v,count\n0,0,3,0,12\n0,0,2,1,{value}\n")


def test_report_format_round_trip(golden_state):
    report = indistinguishability_report(golden_state)
    text = io.format_report(report)
    assert "verdict hidden-differences-detected" in text
    assert "symmetric_population 0.727273" in text
    back = io.parse_report(text)
    assert back.verdict == report.verdict
    assert abs(back.symmetric_population - report.symmetric_population) < 1e-6
    assert abs(back.purity - report.purity) < 1e-6


VERDICTS = ["indistinguishable", "hidden-differences-detected", "inconclusive"]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(FINITE, FINITE, st.sampled_from(VERDICTS), FINITE)
def test_report_round_trip_any_finite_values(population, purity, verdict, tolerance):
    report = IndistinguishabilityReport(population, purity, verdict, tolerance)
    text = io.format_report(report)
    assert io.parse_report(text) == IndistinguishabilityReport(
        float(f"{population:.6f}"), float(f"{purity:.6f}"), verdict,
        float(f"{tolerance:g}"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(FINITE, max_size=20))
def test_ll_trace_round_trip_any_finite_values(values):
    text = io.format_ll_trace(SimpleNamespace(ll_trace=values))
    np.testing.assert_array_equal(io.parse_ll_trace(text),
                                  [float(f"{v:.12f}") for v in values])


def test_ll_trace_round_trip(golden_state):
    from accdm.measurement import simulate_counts
    from accdm.tomography import mle_reconstruct
    data = simulate_counts(golden_state, TWELVE_SETTINGS, 1e3, seed=1)
    result = mle_reconstruct(data, tol=1e-6)
    text = io.format_ll_trace(result)
    back = io.parse_ll_trace(text)
    np.testing.assert_allclose(back, result.ll_trace, atol=1e-9)


def test_write_atomic(tmp_path):
    target = tmp_path / "out.txt"
    io.write_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    io.write_atomic(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
    assert leftovers == []


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_write_atomic_removes_its_temporary_file_when_the_rename_fails(
        tmp_path, monkeypatch, existing):
    target = tmp_path / "out.txt"
    if existing:
        target.write_text("kept\n")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(io.os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        io.write_atomic(str(target), "hello\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.txt"] if existing else [])
    if existing:
        assert target.read_text() == "kept\n"
