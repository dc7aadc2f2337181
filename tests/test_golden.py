"""The golden-output corpus: every command of ``CASES`` replayed against the
outputs recorded under ``tests/golden/expected``.

Each case runs ``accdm.cli.main`` in a directory of its own that holds only
the case's inputs, and compares its exit code, stdout, stderr and every file
it leaves there.  The working directory's real path, which the refusal of a
colliding output prints, is written as ``<workdir>``.

By default the comparison is tolerant: text must match exactly, and each
number within ``RTOL`` relative or ``ATOL`` absolute, so that another BLAS
or numpy may move the last digits of what R.rho.R computes.  The cases
marked ``host`` reproduce only where they were recorded, and tolerant mode
compares only their exit code and the names of their files: simulate's
counts follow numpy's Poisson stream, which is reproducible only within one
numpy version, and the fit at the default tolerance stops where a 1e-15
change of its start moves the stop by up to 15 steps.  The reconstruct
cases read recorded counts, not simulate's.  With ``ACCDM_GOLDEN_STRICT=1``
every output must match byte for byte, as on the host that recorded them,
whose numpy version ``expected/numpy_version`` names.

A change that moves an output records the corpus again with
``PYTHONPATH=src python tests/golden/record.py`` and names each changed file
and the reason.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from accdm.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"
RTOL = 1e-6
ATOL = 1e-9
STRICT = os.environ.get("ACCDM_GOLDEN_STRICT") == "1"
# a decimal number, or inf or nan, as the outputs print them
NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    # file name in the working directory -> its source under tests/golden
    inputs: dict[str, str]
    host: bool = False


RHO = {"rho.dm": "expected/analyze-demo/rho.dm"}
COUNTS = {"counts.csv": "expected/simulate-demo/counts.csv"}
RECONSTRUCT = ("reconstruct", "counts.csv", "--out", "estimate.dm")

CASES = (
    Case("dims-n3", ("dims", "--n", "3"), {}),
    Case("dims-n4-d3", ("dims", "--n", "4", "--d", "3"), {}),
    Case("analyze-demo", ("analyze", "state.expr", "--out", "rho.dm"),
         {"state.expr": "inputs/half_overlap.expr"}),
    Case("analyze-eight", ("analyze", "eight.expr", "--out", "eight.dm"),
         {"eight.expr": "inputs/eight.expr"}),
    Case("analyze-ten", ("analyze", "ten.expr", "--out", "ten.dm"),
         {"ten.expr": "inputs/ten.expr"}),
    Case("analyze-seven-distinct", ("analyze", "seven.expr", "--out", "seven.dm"),
         {"seven.expr": "inputs/seven_distinct.expr"}),
    # exit 2: an empty expression file
    Case("analyze-empty", ("analyze", "empty.expr", "--out", "empty.dm"),
         {"empty.expr": "inputs/empty.expr"}),
    Case("simulate-demo", ("simulate", "rho.dm", "--settings", "settings.csv",
                           "--shots", "10000", "--seed", "7", "--out", "counts.csv"),
         {**RHO, "settings.csv": "inputs/settings12.csv"}, host=True),
    Case("reconstruct-demo", RECONSTRUCT + ("--reference", "rho.dm", "--trace", "ll.txt"),
         {**COUNTS, **RHO}, host=True),
    Case("reconstruct-demo-tol", RECONSTRUCT + ("--reference", "rho.dm", "--trace",
                                                "ll.txt", "--tol", "1e-2"),
         {**COUNTS, **RHO}),
    # the rank-deficient pair: eight photons on the 12 demo settings span
    # 75 of 165 dimensions; simulate warns and reconstruct exits 4
    Case("simulate-eight", ("simulate", "eight.dm", "--settings", "settings.csv",
                            "--seed", "7", "--out", "eight.csv"),
         {"eight.dm": "expected/analyze-eight/eight.dm",
          "settings.csv": "inputs/settings12.csv"}, host=True),
    Case("reconstruct-eight", ("reconstruct", "eight.csv", "--out", "estimate.dm"),
         {"eight.csv": "expected/simulate-eight/eight.csv"}),
    # exit 2: two outputs at one path
    Case("reconstruct-same-outputs", RECONSTRUCT + ("--trace", "estimate.dm"), COUNTS),
    # exit 3: a matrix file that ends inside a block
    Case("simulate-truncated", ("simulate", "truncated.dm", "--settings", "settings.csv",
                                "--out", "counts.csv"),
         {"truncated.dm": "inputs/truncated.dm", "settings.csv": "inputs/settings12.csv"}),
    # exit 4: two R.rho.R steps do not converge
    Case("reconstruct-not-converged", RECONSTRUCT + ("--max-iters", "2"), COUNTS),
)


def run_case(case: Case, workdir: Path) -> dict[str, bytes]:
    """Run one case in the empty directory ``workdir``: its outputs by name,
    ``exit_code``, ``stdout`` and ``stderr`` among them."""
    for name, source in case.inputs.items():
        shutil.copyfile(GOLDEN / source, workdir / name)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(case.argv))
    finally:
        os.chdir(cwd)
    real = os.path.realpath(workdir)
    outputs = {name: path.read_bytes() for name, path in sorted(
        (p.name, p) for p in workdir.iterdir()) if name not in case.inputs}
    outputs.update({"exit_code": f"{code}\n".encode(),
                    "stdout": out.getvalue().replace(real, "<workdir>").encode(),
                    "stderr": err.getvalue().replace(real, "<workdir>").encode()})
    return outputs


def _same_text(got: str, expected: str) -> bool:
    """Equal text between the numbers, and each number within tolerance."""
    if NUMBER.split(got) != NUMBER.split(expected):
        return False
    a, b = NUMBER.findall(got), NUMBER.findall(expected)
    return len(a) == len(b) and np.allclose(np.array(a, dtype=float), np.array(b, dtype=float),
                                            rtol=RTOL, atol=ATOL, equal_nan=True)


def _mismatches(case: Case, got: dict[str, bytes]) -> list[str]:
    expected = {p.name: p.read_bytes() for p in (EXPECTED / case.name).iterdir()}
    if sorted(got) != sorted(expected):
        return [f"{case.name}: files {sorted(got)}, recorded {sorted(expected)}"]
    bad = []
    for name in sorted(expected) if STRICT or not case.host else ["exit_code"]:
        if STRICT or name == "exit_code":
            same = got[name] == expected[name]
        else:
            same = _same_text(got[name].decode(), expected[name].decode())
        if not same:
            lines = itertools.zip_longest(got[name].decode().splitlines(),
                                          expected[name].decode().splitlines())
            k, (new, old) = next((k, pair) for k, pair in enumerate(lines, 1)
                                 if pair[0] != pair[1])
            bad.append(f"{case.name}/{name}, line {k}: {new!r}, recorded {old!r}")
    return bad


def test_golden_corpus_replays(tmp_path):
    assert sorted(p.name for p in EXPECTED.iterdir() if p.is_dir()) == sorted(
        case.name for case in CASES)
    if STRICT:
        assert (EXPECTED / "numpy_version").read_text() == np.__version__ + "\n"
    bad = []
    for case in CASES:
        workdir = tmp_path / case.name
        workdir.mkdir()
        bad += _mismatches(case, run_case(case, workdir))
    assert not bad, "\n".join(bad)
