import math
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from accdm import io, tomography
from accdm.cli import main
from accdm.measurement import WaveplateSetting, outcome_probabilities, waveplate_unitary
from accdm.tomography import fidelity

from conftest import (
    HALF_OVERLAP_TEXT,
    TWELVE_SETTINGS,
    convolution_oracle,
    half_overlap_blocks,
    sample_count_records,
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


@pytest.mark.parametrize("text", ["(aH + aV - aH - aV)(aH)\n", "(aH + bV)" * 11 + "\n"],
                         ids=["cancelling-factor", "eleven-factors"])
def test_analyze_unrepresentable_state_is_format_error(workdir, capsys, text):
    expr = workdir / "bad.expr"
    expr.write_text(text)
    assert run(["analyze", expr, "--out", workdir / "x.dm"]) == 3
    assert "error:" in capsys.readouterr().err
    assert not (workdir / "x.dm").exists()
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
    records = io.parse_counts(a.read_text())
    assert len(records) == 48
    total = sum(r.count for r in records)
    assert abs(total - 12e4) < 5 * math.sqrt(12e4)


def test_simulate_zero_shots(workdir):
    matrix = analyzed_matrix(workdir)
    out = workdir / "zero.csv"
    assert run(["simulate", matrix, "--settings", workdir / "settings.csv",
                "--shots", "0", "--seed", "1", "--out", out]) == 0
    assert all(r.count == 0 for r in io.parse_counts(out.read_text()))


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
    from accdm.measurement import outcome_probabilities, CountRecord
    matrix = analyzed_matrix(workdir)
    rho = io.parse_density_matrix(matrix.read_text())
    records = []
    for s in TWELVE_SETTINGS:
        p = outcome_probabilities(rho, s)
        for k in range(4):
            records.append(CountRecord(s.qwp_deg, s.hwp_deg, 3 - k, k, 1e4 * p[k]))
    counts = workdir / "exact.csv"
    counts.write_text(io.format_counts(records))
    estimate_path = workdir / "noiseless.dm"
    assert run(["reconstruct", counts, "--out", estimate_path,
                "--reference", matrix]) == 0
    stdout = capsys.readouterr().out
    line = [ln for ln in stdout.splitlines() if "fidelity to reference" in ln][0]
    assert float(line.split()[-1]) >= 1 - 1e-6


def test_reconstruct_corrupt_counts_no_output(workdir):
    bad = workdir / "bad.csv"
    bad.write_text("qwp_deg,hwp_deg,n_h,n_v,count\n0,0,oops,1,5\n")
    out = workdir / "nope.dm"
    assert run(["reconstruct", bad, "--out", out]) == 3
    assert not out.exists()
    assert not (workdir / "nope.dm.report.txt").exists()


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
    monkeypatch.setattr(tomography, "linear_inversion", lambda records: start)
    counts = workdir / "counts.csv"
    counts.write_text(io.format_counts(sample_count_records()))
    assert run(["reconstruct", counts, "--out", workdir / "est.dm",
                "--trace", workdir / "ll.txt"]) == 4
    assert "positive cone" in capsys.readouterr().err
    for name in ("est.dm", "est.dm.report.txt", "ll.txt"):
        assert not (workdir / name).exists()
