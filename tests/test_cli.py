import argparse
import math
import os
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from accdm import cli, io, measurement, tomography
from accdm.cli import main
from accdm.measurement import (
    WaveplateSetting,
    outcome_probabilities,
    simulate_counts,
    waveplate_unitary,
)
from accdm.states import AccessibleDensityMatrix
from accdm.tomography import fidelity

from conftest import (
    HALF_OVERLAP_TEXT,
    TWELVE_SETTINGS,
    convolution_oracle,
    files_under,
    half_overlap_blocks,
    sample_counts,
)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "state.expr").write_text(HALF_OVERLAP_TEXT)
    (tmp_path / "settings.csv").write_text(io.format_settings(TWELVE_SETTINGS))
    return tmp_path


def run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# dims
# ---------------------------------------------------------------------------

def test_dims_three_photons(capsys):
    assert run(["dims", "--n", "3", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "accessible parameters: 20" in out
    assert "full-space parameters: 64" in out
    assert "symmetric dimension: 4 (squared: 16)" in out


def test_dims_single_photon(capsys):
    assert run(["dims", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "accessible parameters: 4" in out
    assert "full-space parameters: 4" in out


def test_dims_four_photons(capsys):
    assert run(["dims", "--n", "4"]) == 0
    assert "accessible parameters: 35" in capsys.readouterr().out


def test_dims_qutrits(capsys):
    assert run(["dims", "--n", "2", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert "accessible parameters: 45" in out


def test_dims_rejects_bad_arguments(capsys):
    assert run(["dims", "--n", "0"]) == 2


def test_commands_raise_and_return_nothing(workdir, capsys):
    # main alone turns a refusal into an exit code, and success into 0
    with pytest.raises(cli.UsageError, match="--n must be between 1 and"):
        cli.cmd_dims(argparse.Namespace(n=0, d=2))
    (workdir / "empty.expr").write_text("")
    with pytest.raises(cli.UsageError, match="is empty$"):
        cli.cmd_analyze(argparse.Namespace(expression=str(workdir / "empty.expr"),
                                           out=str(workdir / "x.dm"), verdict_tol=1e-3))
    assert cli.cmd_dims(argparse.Namespace(n=3, d=2)) is None


@pytest.mark.parametrize("d", [cli.DIMS_D_MAX + 1, 3000])
def test_dims_rejects_d_above_cap(capsys, d):
    assert run(["dims", "--n", "2", "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--d between 1 and {cli.DIMS_D_MAX}" in captured.err


def test_dims_at_caps_prints_every_number(capsys):
    # d ** (2 n) at both caps stays within the digits str() of an int allows
    start = time.perf_counter()
    assert run(["dims", "--n", "2", "--d", cli.DIMS_D_MAX]) == 0
    assert run(["dims", "--n", cli.DIMS_N_MAX, "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert f"full-space parameters: {cli.DIMS_D_MAX ** 4}" in out
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("n, d", [(400, 4), (1000, 3), (1000, 100)])
def test_dims_rejects_long_table(capsys, n, d):
    start = time.perf_counter()
    assert run(["dims", "--n", n, "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"more than {cli.DIMS_ROWS_MAX} rows" in captured.err
    assert time.perf_counter() - start < 5


def test_dims_table_up_to_row_cap(capsys):
    # n into at most 3 parts: round((n + 3)^2 / 12) rows, 9976 for n = 343
    # and 10034 for n = 344
    assert run(["dims", "--n", "343", "--d", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 9976 + 3
    assert lines[1].split() == ["(343,)", str(math.comb(345, 2))]
    assert run(["dims", "--n", "344", "--d", "3"]) == 2
    assert capsys.readouterr().out == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run(["analyze"])  # missing required arguments
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_half_overlap(workdir, capsys):
    out_path = workdir / "rho.dm"
    assert run(["analyze", workdir / "state.expr", "--out", out_path]) == 0
    stdout = capsys.readouterr().out
    assert "hidden-differences-detected" in stdout
    assert "symmetric_population 0.727273" in stdout

    rho = io.parse_density_matrix(out_path.read_text())
    golden = half_overlap_blocks()
    np.testing.assert_allclose(rho.blocks[3], golden[3], atol=1e-4)
    np.testing.assert_allclose(rho.blocks[1], golden[1], atol=1e-4)
    report_text = (workdir / "rho.dm.report.txt").read_text()
    assert "verdict hidden-differences-detected" in report_text


def test_analyze_single_mode_state(workdir, capsys):
    expr = workdir / "noon.expr"
    expr.write_text("(aH + aV)(aH + exp(i*2/3*pi)*aV)(aH + exp(i*4/3*pi)*aV)\n")
    out_path = workdir / "noon.dm"
    assert run(["analyze", expr, "--out", out_path]) == 0
    assert "symmetric_population 1.000000" in capsys.readouterr().out


def test_analyze_empty_file_is_usage_error(workdir, capsys):
    empty = workdir / "empty.expr"
    empty.write_text("")
    assert run(["analyze", empty, "--out", workdir / "x.dm"]) == 2
    assert not (workdir / "x.dm").exists()


def test_analyze_syntax_error_is_format_error(workdir, capsys):
    bad = workdir / "bad.expr"
    bad.write_text("(aH + aV\n")
    assert run(["analyze", bad, "--out", workdir / "x.dm"]) == 3
    assert "position" in capsys.readouterr().err
    assert not (workdir / "x.dm").exists()


@pytest.mark.parametrize("text, message", [
    ("c = 0.6*a + 0.8*b\nc = 1.0*b\n(cH)(aV)\n", "redefinition of 'c'"),
    ("d = 1.0*e\ne = 1.0*d\n(dH)(eV)\n", "'e' defined in terms of itself through 'd'"),
    ("d = 0.6*e + 0.8*f\ne = 1.0*g\n(dH)(eV)\n", "'e' is already a primitive mode of 'd'"),
], ids=["redefinition", "cycle", "primitive-redefined"])
def test_analyze_refuses_inconsistent_definitions(workdir, capsys, text, message):
    expr = workdir / "bad.expr"
    expr.write_text(text)
    assert run(["analyze", expr, "--out", workdir / "x.dm"]) == 3
    err = capsys.readouterr().err
    assert f"{message} (at position " in err and ", line 2, column 1)" in err
    assert not (workdir / "x.dm").exists()
    assert not (workdir / "x.dm.report.txt").exists()


@pytest.mark.parametrize("text", ["(aH + aV - aH - aV)(aH)\n", "(aH + bV)" * 11 + "\n"],
                         ids=["cancelling-factor", "eleven-factors"])
def test_analyze_unrepresentable_state_is_format_error(workdir, capsys, text):
    expr = workdir / "bad.expr"
    expr.write_text(text)
    assert run(["analyze", expr, "--out", workdir / "x.dm"]) == 3
    assert "error:" in capsys.readouterr().err
    assert not (workdir / "x.dm").exists()
    assert not (workdir / "x.dm.report.txt").exists()


@pytest.mark.parametrize("text", ["(1e400*aH)(aV)\n", "(exp(i*1e400*pi)*aH)(aV)\n",
                                  "x = 1e400\n(x*aH)(aV)\n"],
                         ids=["infinite", "nan-phase", "infinite-constant"])
def test_analyze_non_finite_coefficient_is_format_error(workdir, capsys, text):
    expr = workdir / "bad.expr"
    expr.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["analyze", expr, "--out", workdir / "x.dm"]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert "is not finite (at position" in err
    assert not (workdir / "x.dm").exists()


@pytest.mark.parametrize("scale", ["1e200", "1e-200", "1e-310"])
def test_analyze_factor_scale_does_not_change_the_state(workdir, capsys, scale):
    blocks = []
    for text in ["(aH + aV)(aV)\n", f"({scale}*aH + {scale}*aV)(aV)\n"]:
        (workdir / "state.expr").write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["analyze", workdir / "state.expr", "--out", workdir / "x.dm"]) == 0
        assert caught == []
        blocks.append(io.parse_density_matrix((workdir / "x.dm").read_text()))
    assert blocks[1].allclose(blocks[0], atol=1e-15)


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_analyze_rejects_bad_verdict_tolerance(workdir, capsys, value):
    out = workdir / "x.dm"
    expect_usage_error(["analyze", workdir / "state.expr", "--out", out,
                        "--tol", value], capsys, "--tol")
    assert not out.exists()
    assert not (workdir / "x.dm.report.txt").exists()


def test_analyze_ten_photons_in_distinct_modes(workdir, capsys):
    x = [0.25 * 1.3 ** k for k in range(10)]
    phi = [0.1 * k - 0.45 for k in range(10)]
    expr = workdir / "ten.expr"
    expr.write_text("".join(f"({x[k]!r}*m{k}H + exp(i*{phi[k]!r}*pi)*m{k}V)"
                            for k in range(10)) + "\n")
    start = time.perf_counter()
    assert run(["analyze", expr, "--out", workdir / "ten.dm"]) == 0
    # generous gate for slow hosts; the first-quantized expansion of this
    # input (10! arrangements per monomial) does not finish in minutes
    assert time.perf_counter() - start < 10.0
    rho = io.parse_density_matrix((workdir / "ten.dm").read_text())
    assert rho.n == 10
    polarizations = [np.array([x[k], np.exp(1j * np.pi * phi[k])]) for k in range(10)]
    for q, h in [(0.0, 0.0), (17.0, 33.0), (45.0, 22.5), (101.0, 7.5)]:
        setting = WaveplateSetting(q, h)
        np.testing.assert_allclose(
            outcome_probabilities(rho, setting),
            convolution_oracle(polarizations, waveplate_unitary(setting)), atol=1e-10)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def analyzed_matrix(workdir):
    out_path = workdir / "rho.dm"
    assert run(["analyze", workdir / "state.expr", "--out", out_path]) == 0
    return out_path


def test_simulate_writes_deterministic_counts(workdir, capsys):
    matrix = analyzed_matrix(workdir)
    a, b = workdir / "a.csv", workdir / "b.csv"
    for out in (a, b):
        assert run(["simulate", matrix, "--settings", workdir / "settings.csv",
                    "--shots", "10000", "--seed", "7", "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()
    data = io.parse_counts(a.read_text())
    assert data.counts.size == 48
    total = data.counts.sum()
    assert abs(total - 12e4) < 5 * math.sqrt(12e4)


def test_simulate_broken_probabilities_exit_4(workdir, capsys, monkeypatch):
    matrix = analyzed_matrix(workdir)
    monkeypatch.setattr(measurement._OutcomeModel, "probabilities",
                        lambda self, theta: np.full(self.design.shape[0], -0.5))
    out = workdir / "counts.csv"
    assert run(["simulate", matrix, "--settings", workdir / "settings.csv",
                "--out", out]) == 4
    assert "below tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_builds_one_outcome_model(workdir, monkeypatch):
    # the span rank and the draw share one model; the counts are those of
    # simulate_counts building its own
    matrix = analyzed_matrix(workdir)
    built = []
    original_init = measurement._OutcomeModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(measurement._OutcomeModel, "__init__", counting_init)
    out = workdir / "counts.csv"
    assert run(["simulate", matrix, "--settings", workdir / "settings.csv",
                "--shots", "10000", "--seed", "7", "--out", out]) == 0
    assert len(built) == 1
    rho = io.parse_density_matrix(matrix.read_text())
    assert out.read_text() == io.format_counts(
        simulate_counts(rho, TWELVE_SETTINGS, 1e4, 7))


def test_simulate_zero_shots(workdir):
    matrix = analyzed_matrix(workdir)
    out = workdir / "zero.csv"
    assert run(["simulate", matrix, "--settings", workdir / "settings.csv",
                "--shots", "0", "--seed", "1", "--out", out]) == 0
    assert not io.parse_counts(out.read_text()).counts.any()


def expect_usage_error(argv, capsys, flag):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "must be finite" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["-5", "nan", "inf", "1e19"])
def test_simulate_rejects_bad_shots(workdir, capsys, value):
    matrix = analyzed_matrix(workdir)
    capsys.readouterr()
    out = workdir / "counts.csv"
    expect_usage_error(["simulate", matrix, "--settings", workdir / "settings.csv",
                        "--shots", value, "--out", out], capsys, "--shots")
    assert not out.exists()


def test_simulate_rejects_negative_seed(workdir, capsys):
    matrix = analyzed_matrix(workdir)
    capsys.readouterr()
    out = workdir / "counts.csv"
    expect_usage_error(["simulate", matrix, "--settings", workdir / "settings.csv",
                        "--seed", "-1", "--out", out], capsys, "--seed")
    assert not out.exists()


# U+0663 and U+0661 are Arabic-Indic three and one: int() and float() read
# them and 1_0, the file formats do not
@pytest.mark.parametrize("argv", [
    ["dims", "--n", "\u0663"], ["dims", "--n", "1_0"], ["dims", "--n", "3", "--d", "1_0"],
    ["simulate", "rho.dm", "--settings", "s.csv", "--out", "c.csv", "--seed", "\u0661"],
    ["simulate", "rho.dm", "--settings", "s.csv", "--out", "c.csv", "--shots", "1_0"],
    ["reconstruct", "c.csv", "--out", "e.dm", "--tol", "1_0"],
    ["reconstruct", "c.csv", "--out", "e.dm", "--max-iters", "\u0663"],
    ["analyze", "s.expr", "--out", "x.dm", "--tol", "1_0"],
], ids=["dims-n-arabic-digit", "dims-n-underscore", "dims-d-underscore",
        "seed-arabic-digit", "shots-underscore", "reconstruct-tol-underscore",
        "max-iters-arabic-digit", "analyze-tol-underscore"])
def test_command_line_numbers_follow_the_file_number_rule(capsys, argv):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {argv[-2]}: invalid number" in captured.err
    assert "Traceback" not in captured.err


def test_huge_integer_seed_and_iteration_cap_are_accepted(workdir, capsys):
    # integers beyond float range are finite: no OverflowError traceback
    huge = "1" + "0" * 400
    matrix = analyzed_matrix(workdir)
    counts = workdir / "counts.csv"
    assert run(["simulate", matrix, "--settings", workdir / "settings.csv",
                "--seed", huge, "--out", counts]) == 0
    assert run(["reconstruct", counts, "--out", workdir / "est.dm",
                "--max-iters", huge, "--tol", "1e-2"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_close_settings_survive_simulate_and_reconstruct(workdir, capsys):
    # 10.0000001 and 10.0000002 both read as 10 from a file that rounds to
    # six significant digits, and reconstruct then refuses a repeated row
    matrix = analyzed_matrix(workdir)
    close = workdir / "close.csv"
    close.write_text(io.format_settings(TWELVE_SETTINGS) + "10.0000001,0\n10.0000002,0\n")
    counts = workdir / "counts.csv"
    assert run(["simulate", matrix, "--settings", close, "--out", counts]) == 0
    angles = {s.qwp_deg for s in io.parse_counts(counts.read_text()).settings}
    assert {10.0000001, 10.0000002} <= angles
    assert run(["reconstruct", counts, "--out", workdir / "est.dm", "--tol", "1e-2"]) == 0


def test_simulate_rejects_repeated_settings_row(workdir, capsys):
    matrix = analyzed_matrix(workdir)
    capsys.readouterr()
    repeated = workdir / "repeated.csv"
    repeated.write_text(io.format_settings(TWELVE_SETTINGS) + "15,12.25\n")
    out = workdir / "counts.csv"
    assert run(["simulate", matrix, "--settings", repeated, "--out", out]) == 3
    assert "error: repeated settings row '15,12.25'" in capsys.readouterr().err
    assert not out.exists()


def test_library_value_error_exits_3_and_writes_nothing(workdir, capsys, monkeypatch):
    def simulate_counts(*args, **kwargs):
        raise ValueError("mean_shots out of range")

    matrix = analyzed_matrix(workdir)
    capsys.readouterr()
    monkeypatch.setattr(cli, "simulate_counts", simulate_counts)
    out = workdir / "counts.csv"
    assert run(["simulate", matrix, "--settings", workdir / "settings.csv",
                "--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: mean_shots out of range\n"
    assert "wrote" not in captured.out
    assert not out.exists()


def test_simulate_warns_on_rank_deficient_settings(workdir, capsys):
    matrix = analyzed_matrix(workdir)
    single = workdir / "one.csv"
    single.write_text("qwp_deg,hwp_deg\n0,0\n")
    out = workdir / "counts1.csv"
    assert run(["simulate", matrix, "--settings", single, "--out", out]) == 0
    err = capsys.readouterr().err
    assert "span only 4 of 20" in err


def test_simulate_rejects_corrupt_matrix(workdir):
    bad = workdir / "bad.dm"
    bad.write_text("not a matrix\n")
    assert run(["simulate", bad, "--settings", workdir / "settings.csv",
                "--out", workdir / "c.csv"]) == 3


@pytest.mark.parametrize("corrupt", [
    lambda text: text.replace("two_j 1 multiplicity 2", "two_j 1.5 multiplicity 2"),
    lambda text: text.replace("two_j 1 multiplicity 2", "two_j 1 multiplicity x"),
    # the last block (two_j = 1: header and two rows) once more
    lambda text: text + "\n".join(text.splitlines()[-3:]) + "\n",
    lambda text: "n_photons 11\nblock two_j 11 multiplicity 1\n",
    lambda text: text.replace("two_j 1 multiplicity 2", "two_j 1 foo 2"),
], ids=["fractional-two_j", "non-integer-multiplicity", "repeated-block",
        "eleven-photons", "misnamed-multiplicity"])
def test_simulate_rejects_malformed_matrix_header(workdir, capsys, corrupt):
    matrix = analyzed_matrix(workdir)
    matrix.write_text(corrupt(matrix.read_text()))
    capsys.readouterr()
    out = workdir / "counts.csv"
    assert run(["simulate", matrix, "--settings", workdir / "settings.csv",
                "--out", out]) == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_round_trip(workdir, capsys):
    matrix = analyzed_matrix(workdir)
    counts = workdir / "counts.csv"
    assert run(["simulate", matrix, "--settings", workdir / "settings.csv",
                "--shots", "10000", "--seed", "5", "--out", counts]) == 0
    estimate_path = workdir / "estimate.dm"
    assert run(["reconstruct", counts, "--out", estimate_path,
                "--reference", matrix, "--trace", workdir / "ll.txt"]) == 0
    stdout = capsys.readouterr().out
    line = [ln for ln in stdout.splitlines() if "fidelity to reference" in ln][0]
    assert float(line.split()[-1]) >= 0.99

    estimate = io.parse_density_matrix(estimate_path.read_text())
    reference = io.parse_density_matrix(matrix.read_text())
    assert fidelity(estimate, reference) >= 0.99
    trace_lines = (workdir / "ll.txt").read_text().splitlines()
    values = [float(ln.split()[1]) for ln in trace_lines]
    assert values == sorted(values)
    assert (workdir / "estimate.dm.report.txt").exists()


def test_reconstruct_noiseless_counts(workdir, capsys):
    from accdm.measurement import outcome_probabilities, CountTable
    matrix = analyzed_matrix(workdir)
    rho = io.parse_density_matrix(matrix.read_text())
    data = CountTable(TWELVE_SETTINGS, [1e4 * outcome_probabilities(rho, s)
                                        for s in TWELVE_SETTINGS])
    counts = workdir / "exact.csv"
    counts.write_text(io.format_counts(data))
    estimate_path = workdir / "noiseless.dm"
    assert run(["reconstruct", counts, "--out", estimate_path,
                "--reference", matrix]) == 0
    stdout = capsys.readouterr().out
    line = [ln for ln in stdout.splitlines() if "fidelity to reference" in ln][0]
    assert float(line.split()[-1]) >= 1 - 1e-6


def test_reconstruct_reference_photon_number_mismatch(workdir, capsys):
    counts = workdir / "counts.csv"
    counts.write_text(io.format_counts(sample_counts()))
    reference = workdir / "two.dm"
    reference.write_text(io.format_density_matrix(
        AccessibleDensityMatrix.maximally_mixed(2)))
    out = workdir / "est.dm"
    assert run(["reconstruct", counts, "--out", out, "--reference", reference,
                "--trace", workdir / "ll.txt"]) == 3
    captured = capsys.readouterr()
    assert "reference has 2 photons, counts have 3" in captured.err
    assert "verdict" not in captured.out
    for name in ("est.dm", "est.dm.report.txt", "ll.txt"):
        assert not (workdir / name).exists()


def test_reconstruct_corrupt_counts_no_output(workdir):
    bad = workdir / "bad.csv"
    bad.write_text("qwp_deg,hwp_deg,n_h,n_v,count\n0,0,oops,1,5\n")
    out = workdir / "nope.dm"
    assert run(["reconstruct", bad, "--out", out]) == 3
    assert not out.exists()
    assert not (workdir / "nope.dm.report.txt").exists()


@pytest.mark.parametrize("flag, value", [("--tol", "-1"), ("--tol", "0"),
                                         ("--tol", "nan"), ("--tol", "inf"),
                                         ("--max-iters", "0"), ("--max-iters", "-3"),
                                         ("--verdict-tol", "-1"), ("--verdict-tol", "0"),
                                         ("--verdict-tol", "nan"),
                                         ("--verdict-tol", "inf")])
def test_reconstruct_rejects_bad_numbers(workdir, capsys, flag, value):
    counts = workdir / "counts.csv"
    counts.write_text(io.format_counts(sample_counts()))
    out = workdir / "est.dm"
    expect_usage_error(["reconstruct", counts, "--out", out, flag, value],
                       capsys, flag)
    assert not out.exists()
    assert not (workdir / "est.dm.report.txt").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_reconstruct_rejects_non_finite_count(workdir, capsys, value):
    rows = io.format_counts(sample_counts()).splitlines()
    rows[5] = rows[5].rsplit(",", 1)[0] + "," + value
    counts = workdir / "counts.csv"
    counts.write_text("\n".join(rows) + "\n")
    out = workdir / "est.dm"
    assert run(["reconstruct", counts, "--out", out]) == 3
    captured = capsys.readouterr()
    assert "bad counts row" in captured.err
    assert "verdict" not in captured.out
    assert not out.exists()
    assert not (workdir / "est.dm.report.txt").exists()


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_reconstruct_rejects_non_finite_angle(workdir, capsys, angle):
    # two such rows are not equal to each other when the angle is nan, so the
    # repeated-row check alone would let them through
    row = f"{angle},0,3,0,5"
    counts = workdir / "counts.csv"
    counts.write_text(io.format_counts(sample_counts()) + f"{row}\n{row}\n")
    out = workdir / "est.dm"
    assert run(["reconstruct", counts, "--out", out]) == 3
    captured = capsys.readouterr()
    assert f"bad counts row {row!r}" in captured.err
    assert "verdict" not in captured.out
    assert not out.exists()
    assert not (workdir / "est.dm.report.txt").exists()


def test_console_script_subprocess(workdir):
    import subprocess
    result = subprocess.run(
        [sys.executable, "-m", "accdm.cli", "dims", "--n", "3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "accessible parameters: 20" in result.stdout


def test_reconstruct_rank_deficient_exits_4(workdir, capsys):
    matrix = analyzed_matrix(workdir)
    single = workdir / "one.csv"
    single.write_text("qwp_deg,hwp_deg\n0,0\n")
    counts = workdir / "counts1.csv"
    assert run(["simulate", matrix, "--settings", single, "--out", counts]) == 0
    capsys.readouterr()
    assert run(["reconstruct", counts, "--out", workdir / "est.dm"]) == 4
    err = capsys.readouterr().err
    assert "rank 4" in err
    assert not (workdir / "est.dm").exists()


def test_reconstruct_leaving_positive_cone_exits_4(workdir, capsys, monkeypatch):
    # A start outside the positive cone in the j = 1/2 sector, which the data
    # populate: R.rho.R amplifies the negative eigenvalue until the iterate
    # is no state.  Exit 4, and nothing is written.
    start = SimpleNamespace(blocks={3: np.eye(4, dtype=complex) * (1 + 4e-8) / 4,
                                    1: -1e-8 * np.eye(2, dtype=complex)})
    monkeypatch.setattr(tomography, "linear_inversion", lambda data: start)
    counts = workdir / "counts.csv"
    counts.write_text(io.format_counts(sample_counts()))
    assert run(["reconstruct", counts, "--out", workdir / "est.dm",
                "--trace", workdir / "ll.txt"]) == 4
    err = capsys.readouterr().err
    assert "positive cone" in err and "two_j=1 " in err
    for name in ("est.dm", "est.dm.report.txt", "ll.txt"):
        assert not (workdir / name).exists()


def test_reconstruct_not_converged_exits_4_and_writes_nothing(workdir, capsys):
    counts = workdir / "counts.csv"
    counts.write_text(io.format_counts(sample_counts()))
    before = files_under(workdir)
    assert run(["reconstruct", counts, "--out", workdir / "est.dm",
                "--max-iters", "2", "--trace", workdir / "ll.txt"]) == 4
    captured = capsys.readouterr()
    assert "not converged within 2 iterations" in captured.err
    assert "iterations: 2 (converged: False)" in captured.out
    assert "verdict" not in captured.out and "wrote" not in captured.out
    assert files_under(workdir) == before


def test_reconstruct_prints_likelihood_gap_bound(workdir, capsys):
    counts = workdir / "counts.csv"
    counts.write_text(io.format_counts(sample_counts()))
    assert run(["reconstruct", counts, "--out", workdir / "est.dm", "--tol", "1e-2"]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("likelihood gap bound: ")]
    assert len(line) == 1 and float(line[0].split()[-1]) >= 0


@pytest.mark.parametrize("trace, target", [("est.dm", "est.dm"),
                                           ("est.dm.report.txt", "est.dm.report.txt"),
                                           ("sub/../est.dm", "est.dm"),
                                           ("link.dm", "est.dm")],
                         ids=["out", "report", "through-a-directory", "symlink"])
def test_reconstruct_refuses_two_outputs_at_one_path(workdir, capsys, monkeypatch,
                                                     trace, target):
    # the log-likelihood trace would overwrite the estimate or its report
    (workdir / "sub").mkdir()
    (workdir / "link.dm").symlink_to(workdir / "est.dm")
    counts = workdir / "counts.csv"
    counts.write_text(io.format_counts(sample_counts()))
    monkeypatch.setattr(cli, "mle_reconstruct", lambda *args, **kwargs: pytest.fail(
        "reconstructed before refusing the outputs"))
    before = files_under(workdir)
    assert run(["reconstruct", counts, "--out", workdir / "est.dm",
                "--trace", workdir / trace]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: two outputs would be written to "
                            f"{os.path.realpath(workdir / target)}\n")
    assert captured.out == ""
    assert files_under(workdir) == before


def refuses_to_overwrite(argv, path, capsys, workdir):
    """``argv`` exits 2, names ``path`` as an input that an output would
    overwrite, and leaves every file under ``workdir`` as it was."""
    before = {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()}
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: an output would overwrite the input "
                            f"{os.path.realpath(path)}\n")
    assert captured.out == ""
    assert {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()} == before


def test_analyze_refuses_to_overwrite_its_expression(workdir, capsys):
    expr = workdir / "state.expr"
    refuses_to_overwrite(["analyze", expr, "--out", expr], expr, capsys, workdir)


@pytest.mark.parametrize("input_name", ["rho.dm", "settings.csv"])
def test_simulate_refuses_to_overwrite_its_inputs(workdir, capsys, input_name):
    (workdir / "rho.dm").write_text(io.format_density_matrix(
        AccessibleDensityMatrix.maximally_mixed(3)))
    refuses_to_overwrite(["simulate", workdir / "rho.dm", "--settings",
                          workdir / "settings.csv", "--out", workdir / input_name],
                         workdir / input_name, capsys, workdir)


@pytest.mark.parametrize("option", ["--out", "--trace"])
def test_reconstruct_refuses_to_overwrite_its_inputs(workdir, capsys, monkeypatch, option):
    # the counts through --trace or --out, the reference through the other
    counts, reference = workdir / "counts.csv", workdir / "rho.dm"
    counts.write_text(io.format_counts(sample_counts()))
    reference.write_text(io.format_density_matrix(AccessibleDensityMatrix.maximally_mixed(3)))
    monkeypatch.setattr(cli, "mle_reconstruct", lambda *args, **kwargs: pytest.fail(
        "reconstructed before refusing the outputs"))
    other = {"--out": "--trace", "--trace": "--out"}[option]
    refuses_to_overwrite(["reconstruct", counts, "--reference", reference,
                          option, counts, other, workdir / "est.dm"],
                         counts, capsys, workdir)
    refuses_to_overwrite(["reconstruct", counts, "--reference", reference,
                          option, reference, other, workdir / "est.dm"],
                         reference, capsys, workdir)


def test_simulate_accepts_a_state_within_psd_tol(workdir, capsys):
    # the symmetric block has eigenvalue -5e-11, so outcome VV of the (0, 0)
    # setting has probability -5e-11, clipped to zero
    rho = AccessibleDensityMatrix(2, {2: np.diag([1 + 5e-11, 0, -5e-11]),
                                      0: np.zeros((1, 1))})
    matrix = workdir / "rho.dm"
    matrix.write_text(io.format_density_matrix(rho))
    out = workdir / "counts.csv"
    assert run(["simulate", matrix, "--settings", workdir / "settings.csv",
                "--seed", "7", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    data = io.parse_counts(out.read_text())
    assert data.settings[0] == WaveplateSetting(0.0, 0.0)
    assert data.counts[0, 2] == 0


# ---------------------------------------------------------------------------
# files that cannot be read or written
# ---------------------------------------------------------------------------

def expect_write_error(argv, workdir, capsys, target):
    before = files_under(workdir)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert f"error: cannot write {target}" in captured.err
    assert "Traceback" not in captured.err
    assert "verdict" not in captured.out and "wrote" not in captured.out
    assert files_under(workdir) == before


@pytest.mark.parametrize("target", ["missing/x.dm", "sub"],
                         ids=["missing-directory", "directory"])
def test_analyze_unwritable_output_exits_3(workdir, capsys, target):
    (workdir / "sub").mkdir()
    out = workdir / target
    expect_write_error(["analyze", workdir / "state.expr", "--out", out],
                       workdir, capsys, out)


@pytest.mark.parametrize("target", ["missing/c.csv", "sub"],
                         ids=["missing-directory", "directory"])
def test_simulate_unwritable_output_exits_3(workdir, capsys, target):
    matrix = analyzed_matrix(workdir)
    capsys.readouterr()
    (workdir / "sub").mkdir()
    out = workdir / target
    expect_write_error(["simulate", matrix, "--settings", workdir / "settings.csv",
                        "--out", out], workdir, capsys, out)


@pytest.mark.parametrize("flag, target", [("--out", "missing/est.dm"), ("--out", "sub"),
                                          ("--trace", "missing/ll.txt"),
                                          ("--trace", "sub")],
                         ids=["out-missing", "out-directory", "trace-missing",
                              "trace-directory"])
def test_reconstruct_unwritable_output_exits_3(workdir, capsys, flag, target):
    counts = workdir / "counts.csv"
    counts.write_text(io.format_counts(sample_counts()))
    (workdir / "sub").mkdir()
    paths = {"--out": workdir / "est.dm", "--trace": workdir / "ll.txt"}
    paths[flag] = workdir / target
    expect_write_error(["reconstruct", counts, "--tol", "1e-2",
                        "--out", paths["--out"], "--trace", paths["--trace"]],
                       workdir, capsys, paths[flag])


def test_failed_write_removes_the_outputs_already_written(workdir, capsys, monkeypatch):
    # a failure the checks before writing cannot see (a full disk, say)
    original = io.write_atomic

    def write_atomic(path, text):
        if path.endswith("ll.txt"):
            raise OSError(28, "No space left on device")
        original(path, text)

    monkeypatch.setattr(io, "write_atomic", write_atomic)
    counts = workdir / "counts.csv"
    counts.write_text(io.format_counts(sample_counts()))
    expect_write_error(["reconstruct", counts, "--tol", "1e-2", "--out",
                        workdir / "est.dm", "--trace", workdir / "ll.txt"],
                       workdir, capsys, workdir / "ll.txt")


@pytest.mark.parametrize("command", ["analyze", "simulate", "reconstruct"])
def test_input_that_is_not_utf8_exits_3(workdir, capsys, command):
    bad = workdir / "bad.txt"
    bad.write_bytes(b"qwp_deg,hwp_deg\n\xff\xfe,0\n")
    out = workdir / "out.txt"
    argv = {"analyze": ["analyze", bad, "--out", out],
            "simulate": ["simulate", analyzed_matrix(workdir), "--settings", bad,
                         "--out", out],
            "reconstruct": ["reconstruct", bad, "--out", out]}[command]
    capsys.readouterr()
    assert run(argv) == 3
    assert "is not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "simulate", "reconstruct"])
def test_missing_input_exits_3(workdir, capsys, command):
    missing = workdir / "missing.txt"
    out = workdir / "out.txt"
    argv = {"analyze": ["analyze", missing, "--out", out],
            "simulate": ["simulate", analyzed_matrix(workdir), "--settings", missing,
                         "--out", out],
            "reconstruct": ["reconstruct", missing, "--out", out]}[command]
    capsys.readouterr()
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing}: ") and "Traceback" not in err
    assert not out.exists()


def test_counts_with_a_huge_photon_number_exit_3(workdir, capsys):
    # refused before a counts array with one column per outcome is allocated
    counts = workdir / "counts.csv"
    counts.write_text("qwp_deg,hwp_deg,n_h,n_v,count\n0,0,1000000000000000,0,5\n")
    assert run(["reconstruct", counts, "--out", workdir / "est.dm"]) == 3
    assert "between 1 and 10" in capsys.readouterr().err
    assert not (workdir / "est.dm").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_counts_whose_total_overflows_exit_3(workdir, capsys):
    # each of the 48 counts is finite, but their total is not: refused by
    # name before any arithmetic overflows
    rows = io.format_counts(sample_counts()).splitlines()
    counts = workdir / "counts.csv"
    counts.write_text("\n".join(rows[:1] + [row.rsplit(",", 1)[0] + ",1e308"
                                              for row in rows[1:]]) + "\n")
    out = workdir / "est.dm"
    assert run(["reconstruct", counts, "--out", out]) == 3
    assert "error: counts file is not a valid table: the total of the counts is inf" in (
        capsys.readouterr().err)
    assert not out.exists() and not (workdir / "est.dm.report.txt").exists()
    # a finite total near the largest double reconstructs
    data = sample_counts()
    counts.write_text(io.format_counts(
        measurement.CountTable(data.settings, data.counts * (1.5e308 / data.counts.sum()))))
    assert run(["reconstruct", counts, "--out", out, "--tol", "1e300"]) == 0
    assert out.exists()


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_main_builds_its_parser_once(workdir, capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(["dims", "--n", "3"]) == 0
        matrix = analyzed_matrix(workdir)
        assert run(["simulate", matrix, "--settings", workdir / "settings.csv",
                    "--out", workdir / "counts.csv"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    # a caller who extends the parser gets one of their own
    assert cli.build_parser() is not cli.build_parser()


def test_reused_parser_forgets_the_previous_options(workdir, capsys):
    counts = workdir / "counts.csv"
    counts.write_text(io.format_counts(sample_counts()))
    matrix = analyzed_matrix(workdir)
    argv = ["reconstruct", counts, "--out", workdir / "est.dm", "--tol", "1e-2"]
    assert run(argv + ["--reference", matrix, "--trace", workdir / "ll.txt"]) == 0
    assert "fidelity to reference" in capsys.readouterr().out
    (workdir / "ll.txt").unlink()
    assert run(argv) == 0
    assert "fidelity to reference" not in capsys.readouterr().out
    assert not (workdir / "ll.txt").exists()


def test_usage_error_between_calls_changes_nothing(workdir, capsys):
    argv = ["analyze", workdir / "state.expr", "--out", workdir / "rho.dm"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as err:
        run(argv + ["--tol", "0.5", "--tol", "nan"])
    assert err.value.code == 2
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == first
