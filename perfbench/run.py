#!/usr/bin/env python3
"""Benchmark of the accdm command line: seeded user journeys, timed and traced.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload pipeline-n3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each workload is a closed loop with one client in one process: it calls
``accdm.cli.main`` in-process with the argv a user would type, one item
after another, keeping its files in a temporary directory inside the
checkout.  Every output is checked.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` replays each item once
untraced and once with every layer function wrapped in a span recorder,
and prints the per-layer metrics and the tracing overhead.  The last line
of standard output is the JSON result; the line before it holds the run
metadata.  Workload parameters live in ``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 7

# Runs in a fresh interpreter: the cold start every command-line user pays.
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import accdm.cli
t1 = time.perf_counter()
from accdm.schur import schur_basis
for n in sys.argv[1:]:
    schur_basis(int(n)).matrix
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def pin_blas_threads() -> None:
    """Run BLAS on one thread; call before numpy loads.

    The matrices are small (at most a few hundred rows): a second OpenBLAS
    thread made N = 8 items no faster, and it spins on the second core of a
    2-core host between calls, which made the timings noisier.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure_setup(ns: list[int], repeats: int) -> dict:
    """Median wall time of fresh interpreters importing accdm and building bases."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    walls, imports, bases = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, *map(str, ns)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        walls.append(time.perf_counter() - start)
        import_s, basis_s = json.loads(done.stdout.splitlines()[-1])
        imports.append(import_s)
        bases.append(basis_s)
    return {"setup_s": statistics.median(walls),
            "cli.import_s": statistics.median(imports),
            "schur.basis_cold_s": statistics.median(bases)}


def run(workload: str, seed: int, seconds: float, trace: bool,
        design: dict, declared: dict, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    import harness
    import numpy

    params = design["workloads"][workload]
    setup = measure_setup(params["schur_n"], setup_repeats)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bench = harness.Bench(params, seed, Path(tmp))
        bench.warm_up()
        started = time.perf_counter()
        if trace:
            metrics, extra = harness.per_layer(bench, seconds, setup)
        else:
            metrics, extra = harness.end_to_end(bench, seconds, setup)
        wall = time.perf_counter() - started
    meta = {"workload": workload, "seed": seed, "trace": int(trace),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "git_sha": git_sha(),
            "wall_s": wall, **extra}
    for error in bench.errors[:20]:
        print(f"failed item: {error}")
    for name, value in metrics.items():
        unit, better = declared[name]
        print(f"{name:32s} {value:<14.6g} {unit:9s} {better} is better")
    print("meta " + json.dumps(meta))
    # a command that crashes or exits non-zero fails its item; a wrong output
    # also makes the run incorrect
    return {"correct": bench.wrong == 0, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": declared[name][0]}
                        for name, value in metrics.items()}}


def smoke(design: dict, declared: dict, wanted: dict) -> int:
    """Tiny sizes of every workload: all checks pass and every metric prints."""
    import harness

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        ok = harness.oracle_rejects_perturbation(design["smoke"]["analyze-distinct"], Path(tmp))
    print(f"oracle rejects a perturbed matrix: {ok}")
    for workload, params in design["smoke"].items():
        small = {"workloads": {workload: params}}
        for trace in (False, True):
            result = run(workload, 1, 0.5, trace, small, declared, setup_repeats=1)
            names = set(wanted["per_layer" if trace else "end_to_end"])
            good = result["correct"] and set(result["metrics"]) == names
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if good else 'FAILED'} ({result['attempted']} items)")
            ok = ok and good
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check the harness")
    args = parser.parse_args(argv)
    pin_blas_threads()

    if not (ROOT / "src" / "accdm" / "__init__.py").is_file():
        print(f"error: run from the root of an accdm checkout "
              f"(no src/accdm under {ROOT})", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"])
                for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    wanted = {key: [m["name"] for m in benchmark[key]] for key in ("end_to_end", "per_layer")}
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke(design, declared, wanted)
    names = sorted(design["workloads"])
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names} or all")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    import harness

    # "all" runs every workload in turn and prints one result line for each
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            result = run(workload, args.seed, args.seconds, bool(args.trace),
                         design, declared)
        except harness.NoResult as exc:
            print(f"error: {workload}: no item completed; first failures:",
                  *exc.args[0][:5], sep="\n  ", file=sys.stderr)
            return 1
        if args.workload == "all":
            result = {"workload": workload, **result}
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
