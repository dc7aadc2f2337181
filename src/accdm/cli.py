"""Command-line front end: dims, analyze, simulate, reconstruct.

Exit codes: 0 success, 2 usage, 3 input format, 4 numerical
(rank deficiency or non-convergence).
"""

from __future__ import annotations

import argparse
import sys

from . import io
from .expressions import ParseError, parse_expression_file
from .measurement import measurement_span_rank, simulate_counts
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


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_dims(args) -> int:
    n, d = args.n, args.d
    if n < 1 or d < 1:
        return _fail(EXIT_USAGE, "--n and --d must be at least 1")
    if d == 2:
        print(f"{'two_j':>6} {'multiplicity':>13} {'dimension':>10}")
        for two_j in occurring_two_j(n):
            print(f"{two_j:>6} {su2_multiplicity(n, two_j):>13} {two_j + 1:>10}")
    else:
        print(f"{'partition':>20} {'dimension':>10}")
        for lam in partitions(n, d):
            print(f"{str(lam):>20} {weyl_dimension(lam, d):>10}")
    sym = symmetric_dimension(n, d)
    print(f"symmetric dimension: {sym} (squared: {sym ** 2})")
    print(f"accessible parameters: {accessible_param_count(n, d)}")
    print(f"full-space parameters: {d ** (2 * n)}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        text = _read(args.expression)
    except OSError as err:
        return _fail(EXIT_FORMAT, f"cannot read {args.expression}: {err}")
    if not text.strip():
        return _fail(EXIT_USAGE, f"expression file {args.expression} is empty")
    try:
        rho = expression_to_accessible(parse_expression_file(text))
    except (ParseError, ValueError) as err:
        return _fail(EXIT_FORMAT, str(err))
    report = indistinguishability_report(rho, tol=args.verdict_tol)
    io.write_atomic(args.out, io.format_density_matrix(rho))
    io.write_atomic(args.out + ".report.txt", io.format_report(report))
    print(f"photons: {rho.n}")
    print(io.format_report(report), end="")
    print(f"wrote {args.out} and {args.out}.report.txt")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        rho = io.parse_density_matrix(_read(args.matrix))
        settings = io.parse_settings(_read(args.settings))
    except OSError as err:
        return _fail(EXIT_FORMAT, str(err))
    except io.FormatError as err:
        return _fail(EXIT_FORMAT, str(err))
    rank = measurement_span_rank(settings, rho.n)
    needed = accessible_param_count(rho.n, 2)
    if rank < needed:
        print(f"warning: settings span only {rank} of {needed} dimensions; "
              f"reconstruction from this data will be rank-deficient",
              file=sys.stderr)
    records = simulate_counts(rho, settings, args.shots, args.seed)
    io.write_atomic(args.out, io.format_counts(records))
    total = sum(r.count for r in records)
    print(f"wrote {len(records)} rows ({total:.0f} counts) to {args.out}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    try:
        records = io.parse_counts(_read(args.counts))
        reference = (io.parse_density_matrix(_read(args.reference))
                     if args.reference else None)
    except OSError as err:
        return _fail(EXIT_FORMAT, str(err))
    except io.FormatError as err:
        return _fail(EXIT_FORMAT, str(err))
    try:
        result = mle_reconstruct(records, max_iters=args.max_iters, tol=args.tol)
    except (RankDeficiencyError, NumericalError) as err:
        return _fail(EXIT_NUMERICAL, str(err))
    except ValueError as err:
        return _fail(EXIT_FORMAT, str(err))

    report = indistinguishability_report(result.estimate, tol=args.verdict_tol)
    io.write_atomic(args.out, io.format_density_matrix(result.estimate))
    io.write_atomic(args.out + ".report.txt", io.format_report(report))
    if args.trace:
        io.write_atomic(args.trace, io.format_ll_trace(result))

    print(f"iterations: {result.iterations} (converged: {result.converged})")
    print(f"log-likelihood: {result.log_likelihood:.6f}")
    if result.floored_cells:
        print(f"warning: {result.floored_cells} outcome(s) had counts but "
              f"near-zero predicted probability", file=sys.stderr)
    if reference is not None:
        print(f"fidelity to reference: {fidelity(result.estimate, reference):.6f}")
    print(io.format_report(report), end="")
    print(f"wrote {args.out} and {args.out}.report.txt")
    if not result.converged:
        return _fail(EXIT_NUMERICAL,
                     f"not converged within {args.max_iters} iterations")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accdm",
        description="Accessible density matrices: dimension tables, state "
                    "analysis, measurement simulation, reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dims = sub.add_parser("dims", help="multiplicity and dimension tables")
    p_dims.add_argument("--n", type=int, required=True, help="photon number")
    p_dims.add_argument("--d", type=int, default=2, help="levels per particle")
    p_dims.set_defaults(func=cmd_dims)

    p_analyze = sub.add_parser(
        "analyze", help="expression file -> accessible density matrix + report")
    p_analyze.add_argument("expression", help="expression file "
                           "(definitions block, then operator factors)")
    p_analyze.add_argument("--out", required=True, help="output matrix file")
    p_analyze.add_argument("--tol", dest="verdict_tol", type=float, default=1e-3,
                           help="indistinguishability verdict tolerance")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="matrix + settings -> Poisson counts")
    p_sim.add_argument("matrix", help="density matrix file")
    p_sim.add_argument("--settings", required=True, help="settings file")
    p_sim.add_argument("--shots", type=float, default=1e4,
                       help="mean shots per setting")
    p_sim.add_argument("--seed", type=int, default=0, help="stream seed")
    p_sim.add_argument("--out", required=True, help="output counts file")
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("reconstruct",
                           help="counts -> maximum-likelihood estimate")
    p_rec.add_argument("counts", help="counts file")
    p_rec.add_argument("--out", required=True, help="output matrix file")
    p_rec.add_argument("--reference", help="matrix file to compare against")
    p_rec.add_argument("--tol", type=float, default=1e-10,
                       help="log-likelihood convergence tolerance")
    p_rec.add_argument("--max-iters", type=int, default=100_000,
                       help="iteration cap")
    p_rec.add_argument("--verdict-tol", type=float, default=1e-3,
                       help="indistinguishability verdict tolerance")
    p_rec.add_argument("--trace", help="write the log-likelihood trace here")
    p_rec.set_defaults(func=cmd_reconstruct)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
