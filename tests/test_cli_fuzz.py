"""Generated command lines and input files fed to ``accdm.cli.main``.

Every run must end in exit 0, 2 (usage; argparse's SystemExit(2) counts),
3 (input or output file) or 4 (numerical), never in another exception, and
a run that does not exit 0 must leave no new file behind.
"""

import contextlib
import io as textio
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from accdm import io
from accdm.cli import main
from accdm.states import AccessibleDensityMatrix

from conftest import (
    HALF_OVERLAP_TEXT,
    TWELVE_SETTINGS,
    files_under,
    half_overlap_blocks,
    noon_state,
    sample_counts,
)

FUZZ = settings(derandomize=True, max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

COUNTS = io.format_counts(sample_counts())
# input files: a valid one first, then ones the commands must refuse or
# that pass the parsers and fail later (a rank-deficient design, a derived
# mode whose norm overflows, a photon number far beyond the cap)
INPUTS = {
    "state.expr": [HALF_OVERLAP_TEXT, "(aH + aV)(aH)\n", "(aH + bV)(bH)(cV + 0.5*aH)\n",
                   "(aH + aV\n", "(aH - aH)(aV)\n", "c = 1e200*a + b\n(cH)(aV)\n",
                   "(exp(i*1/0*pi)*aH)(aV)\n", "c = 1e400*a\n(cH)\n",
                   "(aH)" * 11 + "\n", ""],
    "rho.dm": [io.format_density_matrix(AccessibleDensityMatrix(3, half_overlap_blocks())),
               io.format_density_matrix(AccessibleDensityMatrix.maximally_mixed(2)),
               io.format_density_matrix(noon_state(4)),
               "n_photons 11\nblock two_j 11 multiplicity 1\n",
               "not a matrix\n"],
    "settings.csv": [io.format_settings(TWELVE_SETTINGS), "qwp_deg,hwp_deg\n0,0\n",
                     "qwp_deg,hwp_deg\n", "qwp_deg,hwp_deg\nnan,0\n"],
    "counts.csv": [COUNTS, "\n".join(COUNTS.splitlines()[:5]) + "\n",
                   "qwp_deg,hwp_deg,n_h,n_v,count\n0,0,1000000000000000,0,5\n",
                   "qwp_deg,hwp_deg,n_h,n_v,count\n0,0,0,0,1\n",
                   COUNTS.replace(",0,3,", ",0,3,-")],
}
# values no option accepts, or only some do
TOKENS = ["0", "-1", "nan", "inf", "-inf", "1e400", "x", "", "1" + "0" * 30,
          "1e19", ",", "two_j"]


@st.composite
def mostly(draw, good, bad=TOKENS):
    """A value from ``good`` in about four of five examples, else from ``bad``."""
    return draw(st.sampled_from(draw(st.sampled_from([good] * 4 + [bad]))))


# a name in the working directory, marked by a leading "@": an input, a new
# file, a file in a missing directory, a directory, or a new file in that
# directory
PATHS = ["@" + name for name in
         [*INPUTS, "new.out", "missing/new.out", "sub", "sub/new.out"]]


def path(usual):
    return mostly([usual], PATHS)


# an output: a new file, or one that cannot be written or replaces an input
OUTPUT = st.sampled_from(["@new.out"] * 3 + ["@missing/new.out", "@sub", "@sub/new.out",
                                            "@rho.dm"])


@st.composite
def contents(draw, name):
    """One of the file's variants, the valid one about half the time,
    perhaps with a line dropped or one token replaced, perhaps not UTF-8."""
    variants = INPUTS[name]
    text = draw(st.just(variants[0]) | st.sampled_from(variants))
    lines = text.splitlines()
    action = draw(st.sampled_from(["keep"] * 4 + ["drop", "replace", "bytes"]))
    if action == "drop" and lines:
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif action == "replace" and lines:
        k = draw(st.integers(0, len(lines) - 1))
        sep = "," if "," in lines[k] else " "
        parts = lines[k].split(sep)
        parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(TOKENS))
        lines[k] = sep.join(parts)
    data = "".join(line + "\n" for line in lines).encode()
    if action == "bytes":
        data = b"\xff\xfe" + data
    return data


@st.composite
def option(draw, flag, values, present=5):
    """[flag, value] in ``present`` of ten examples, else nothing."""
    return [flag, draw(values)] if draw(st.sampled_from(range(10))) < present else []


@st.composite
def command_lines(draw):
    """An argv with each option present or not, in any order."""
    command = draw(st.sampled_from(["dims", "analyze", "simulate", "reconstruct"]))
    out = option("--out", OUTPUT, present=9)
    verdict_tol = mostly(["1e-3", "0.5"])
    if command == "dims":
        positional = []
        options = [option("--n", mostly(["1", "3", "10", "12"]), present=9),
                   option("--d", mostly(["1", "2", "3"]))]
    elif command == "analyze":
        positional = [path("@state.expr")]
        options = [out, option("--tol", verdict_tol)]
    elif command == "simulate":
        positional = [path("@rho.dm")]
        options = [option("--settings", path("@settings.csv"), present=9), out,
                   option("--shots", mostly(["1e4", "100", "1e18"])),
                   option("--seed", mostly(["7", "1" + "0" * 30]))]
    else:
        positional = [path("@counts.csv")]
        # always capped: the default cap of 100000 iterations takes seconds
        options = [option("--max-iters", mostly(["1", "5", "50"]), present=10), out,
                   option("--tol", mostly(["1e-2", "0.5", "10"])),
                   option("--reference", path("@rho.dm")),
                   option("--verdict-tol", verdict_tol),
                   option("--trace", OUTPUT)]
    argv = [draw(strategy) for strategy in positional]
    for pair in draw(st.permutations([draw(strategy) for strategy in options])):
        argv += pair
    if draw(st.sampled_from(range(20))) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "-h"])))
    return [command] + argv


def analyze_example(text):
    """An example: analyze of a given expression file, the other files valid."""
    files = {name: variants[0].encode() for name, variants in INPUTS.items()}
    return example(argv=["analyze", "@state.expr", "--out", "@new.out"],
                   files={**files, "state.expr": text.encode()})


@FUZZ
@given(argv=command_lines(),
       files=st.fixed_dictionaries({name: contents(name) for name in INPUTS}))
@analyze_example("(1e400*aH)(aV)\n")
@analyze_example("(exp(i*1e400*pi)*aH)(aV)\n")
@analyze_example("(1e-200*aH + 1e-200*aV)(aV)\n")
@analyze_example("(1e200*aH + 1e200*aV)(aV)\n")
@example(argv=["dims", "--n", "\u0663"], files={})
@example(argv=["simulate", "@rho.dm", "--settings", "@settings.csv", "--out", "@new.out",
               "--shots", "1_0"], files={})
def test_cli_exits_cleanly_and_leaves_nothing_on_failure(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "sub").mkdir()
        for name, data in files.items():
            (root / name).write_bytes(data)
        before = files_under(root)
        sink = textio.StringIO()
        resolved = [str(root / a[1:]) if a.startswith("@") else a for a in argv]
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(resolved)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, sink.getvalue())
        if code != 0:
            assert files_under(root) == before, (argv, code, sink.getvalue())
