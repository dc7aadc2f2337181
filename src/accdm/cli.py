"""Command-line front end: dims, analyze, simulate, reconstruct.

Exit codes: 0 success, 2 usage, 3 input format or a file that cannot be
read or written, 4 numerical (rank deficiency or non-convergence).  The
commands raise; ``main`` alone turns an exception into exit 3 or 4.  A
command that does not exit 0 leaves no output file behind.

``main`` may be called any number of times in one process; it builds its
parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys

from . import io
from .expressions import parse_expression_file
from .measurement import (
    MAX_SHOTS,
    _OutcomeModel,
    measurement_span_rank,
    simulate_counts,
)
from .schur import (
    accessible_param_count,
    occurring_two_j,
    partitions,
    su2_multiplicity,
    symmetric_dimension,
    weyl_dimension,
)
from .states import expression_to_accessible
# imported only so that perfbench/tracing.py can patch them here by name
from .states import expand_and_symmetrize, trace_hidden  # noqa: F401
from .tomography import (
    NumericalError,
    RankDeficiencyError,
    fidelity,
    indistinguishability_report,
    mle_reconstruct,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_NUMERICAL = 4
DIMS_N_MAX = 1000
DIMS_D_MAX = 100  # d ** (2 n) then has at most 4001 of the 4300 digits str() allows
DIMS_ROWS_MAX = 10_000


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read(path: str) -> str:
    """Text of an input file; FormatError when it cannot be read or is not
    UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise io.FormatError(f"{path} is not UTF-8 text: {err.reason} at byte "
                             f"{err.start}") from None
    except OSError as err:
        raise io.FormatError(f"cannot read {path}: {err}") from None


def _write(outputs: dict[str, str]) -> None:
    """Write every output file, or none of them and raise FormatError.

    A path that names a directory or lies outside an existing directory is
    refused before anything is written; when a write fails anyway, the
    files this call has already written are removed again.
    """
    for path in outputs:
        parent = os.path.dirname(path) or os.curdir
        if os.path.isdir(path):
            raise io.FormatError(f"cannot write {path}: is a directory")
        if not os.path.isdir(parent):
            raise io.FormatError(f"cannot write {path}: {parent} is not a directory")
    written = []
    for path, text in outputs.items():
        try:
            io.write_atomic(path, text)
        except OSError as err:
            for done in written:
                with contextlib.suppress(OSError):
                    os.unlink(done)
            raise io.FormatError(f"cannot write {path}: {err}") from None
        written.append(path)


# ---------------------------------------------------------------------------
# Subcommands: each raises on failure and writes its files only once all
# that it prints is computed; main maps the exception to an exit code
# ---------------------------------------------------------------------------

def cmd_dims(args) -> int:
    n, d = args.n, args.d
    # the d = 2 table has n/2 rows, and range() overflows beyond sys.maxsize
    if not (1 <= n <= DIMS_N_MAX and 1 <= d <= DIMS_D_MAX):
        return _fail(EXIT_USAGE, f"--n must be between 1 and {DIMS_N_MAX}, "
                                 f"--d between 1 and {DIMS_D_MAX}")
    if d == 2:
        print(f"{'two_j':>6} {'multiplicity':>13} {'dimension':>10}")
        for two_j in occurring_two_j(n):
            print(f"{two_j:>6} {su2_multiplicity(n, two_j):>13} {two_j + 1:>10}")
    else:
        # about n^(d-1) / ((d-1)! d!) rows
        rows = list(itertools.islice(partitions(n, d), DIMS_ROWS_MAX + 1))
        if len(rows) > DIMS_ROWS_MAX:
            return _fail(EXIT_USAGE, f"the table for --n {n} --d {d} has more "
                                     f"than {DIMS_ROWS_MAX} rows")
        print(f"{'partition':>20} {'dimension':>10}")
        for lam in rows:
            print(f"{str(lam):>20} {weyl_dimension(lam, d):>10}")
    sym = symmetric_dimension(n, d)
    print(f"symmetric dimension: {sym} (squared: {sym ** 2})")
    print(f"accessible parameters: {accessible_param_count(n, d)}")
    print(f"full-space parameters: {d ** (2 * n)}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    text = _read(args.expression)
    if not text.strip():
        return _fail(EXIT_USAGE, f"expression file {args.expression} is empty")
    rho = expression_to_accessible(parse_expression_file(text))
    report = io.format_report(indistinguishability_report(rho, tol=args.verdict_tol))
    _write({args.out: io.format_density_matrix(rho), args.out + ".report.txt": report})
    print(f"photons: {rho.n}")
    print(report, end="")
    print(f"wrote {args.out} and {args.out}.report.txt")
    return EXIT_OK


def cmd_simulate(args) -> int:
    rho = io.parse_density_matrix(_read(args.matrix))
    settings = io.parse_settings(_read(args.settings))
    # one outcome model serves the span rank and the simulation
    model = _OutcomeModel(settings, rho.n)
    rank = measurement_span_rank(settings, rho.n, model=model)
    needed = accessible_param_count(rho.n, 2)
    if rank < needed:
        print(f"warning: settings span only {rank} of {needed} dimensions; "
              f"reconstruction from this data will be rank-deficient",
              file=sys.stderr)
    data = simulate_counts(rho, settings, args.shots, args.seed, model=model)
    _write({args.out: io.format_counts(data)})
    # fsum rounds the exact total once, as formatting an int total did
    total = math.fsum(data.counts.flat)
    print(f"wrote {data.counts.size} rows ({total:.0f} counts) to {args.out}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    data = io.parse_counts(_read(args.counts))
    reference = (io.parse_density_matrix(_read(args.reference))
                 if args.reference else None)
    if reference is not None and reference.n != data.n:
        raise io.FormatError(f"reference has {reference.n} photons, counts "
                             f"have {data.n}")
    result = mle_reconstruct(data, max_iters=args.max_iters, tol=args.tol)
    print(f"iterations: {result.iterations} (converged: {result.converged})")
    print(f"log-likelihood: {result.log_likelihood:.6f}")
    print(f"likelihood gap bound: {result.gap_bound:.6g}")
    if not result.converged:
        raise NumericalError(f"not converged within {args.max_iters} iterations")

    report = io.format_report(
        indistinguishability_report(result.estimate, tol=args.verdict_tol))
    fid = fidelity(result.estimate, reference) if reference is not None else None
    outputs = {args.out: io.format_density_matrix(result.estimate),
               args.out + ".report.txt": report}
    if args.trace:
        outputs[args.trace] = io.format_ll_trace(result)
    _write(outputs)
    if result.floored_cells:
        print(f"warning: {result.floored_cells} outcome(s) had counts but "
              f"near-zero predicted probability", file=sys.stderr)
    if fid is not None:
        print(f"fidelity to reference: {fid:.6f}")
    print(report, end="")
    print(f"wrote {args.out} and {args.out}.report.txt")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _number(kind, low: float = -math.inf, *, strict: bool = False,
            high: float = math.inf):
    """argparse type: a number as the input files write it (``io._number``),
    finite, at least ``low`` (above it if strict) and at most ``high``."""
    def parse(text: str):
        try:
            value = io._number(text, kind)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
        # an int is finite, and math.isfinite overflows beyond float range
        finite = isinstance(value, int) or math.isfinite(value)
        if not (finite and (value > low if strict else value >= low)
                and value <= high):
            relation = f"greater than {low:g}" if strict else f"at least {low:g}"
            if high < math.inf:
                relation += f" and at most {high:g}"
            raise argparse.ArgumentTypeError(
                f"must be finite and {relation}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call, free for the caller to extend; ``main``
    builds one per process."""
    parser = argparse.ArgumentParser(
        prog="accdm",
        description="Accessible density matrices: dimension tables, state "
                    "analysis, measurement simulation, reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dims = sub.add_parser("dims", help="multiplicity and dimension tables")
    p_dims.add_argument("--n", type=_number(int), required=True, help="photon number")
    p_dims.add_argument("--d", type=_number(int), default=2, help="levels per particle")
    p_dims.set_defaults(func=cmd_dims)

    p_analyze = sub.add_parser(
        "analyze", help="expression file -> accessible density matrix + report")
    p_analyze.add_argument("expression", help="expression file "
                           "(definitions block, then operator factors)")
    p_analyze.add_argument("--out", required=True, help="output matrix file")
    p_analyze.add_argument("--tol", dest="verdict_tol",
                           type=_number(float, 0, strict=True), default=1e-3,
                           help="indistinguishability verdict tolerance")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="matrix + settings -> Poisson counts")
    p_sim.add_argument("matrix", help="density matrix file")
    p_sim.add_argument("--settings", required=True, help="settings file")
    p_sim.add_argument("--shots", type=_number(float, 0, high=MAX_SHOTS),
                       default=1e4,
                       help=f"mean shots per setting, at most {MAX_SHOTS:g}")
    p_sim.add_argument("--seed", type=_number(int, 0), default=0, help="stream seed")
    p_sim.add_argument("--out", required=True, help="output counts file")
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("reconstruct",
                           help="counts -> maximum-likelihood estimate")
    p_rec.add_argument("counts", help="counts file")
    p_rec.add_argument("--out", required=True, help="output matrix file")
    p_rec.add_argument("--reference", help="matrix file to compare against")
    p_rec.add_argument("--tol", type=_number(float, 0, strict=True), default=1e-10,
                       help="stop when the first R.rho.R step of an "
                            "extrapolation cycle gains less log-likelihood "
                            "than this (a measure of slow progress, not a "
                            "certified distance to the maximum)")
    p_rec.add_argument("--max-iters", type=_number(int, 1), default=100_000,
                       help="cap on R.rho.R steps, stabilizing ones included")
    p_rec.add_argument("--verdict-tol", type=_number(float, 0, strict=True),
                       default=1e-3,
                       help="indistinguishability verdict tolerance")
    p_rec.add_argument("--trace", help="write the log-likelihood of each accepted "
                       "iterate here, one line each; extrapolated points and "
                       "rejected stabilizing steps make the last index differ "
                       "from the printed iteration count, below or above it")
    p_rec.set_defaults(func=cmd_reconstruct)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args reads and writes only the namespace it returns, so one
    # parser serves every call of main in a process
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (RankDeficiencyError, NumericalError) as err:
        return _fail(EXIT_NUMERICAL, str(err))
    except ValueError as err:  # FormatError and ParseError among them
        return _fail(EXIT_FORMAT, str(err))


if __name__ == "__main__":
    sys.exit(main())
