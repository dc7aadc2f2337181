"""Runs and checks workload items, and turns their timings and spans into metrics.

Import this only after BLAS is pinned to one thread and ``src`` is on the
module path: it loads numpy and accdm.
"""

from __future__ import annotations

import contextlib
import gc
import io as textio
import math
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import accdm
import accdm.cli
import accdm.io
import oracle
import tracing
import workloads

ORACLE_TOL = 1e-9


class NoResult(Exception):
    """No item completed, so there is nothing to measure."""


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank value at ``percentile`` and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Bench:
    """One workload run: generates items, runs and checks them, keeps results."""

    def __init__(self, params: dict, seed: int, workdir: Path):
        self.params, self.seed, self.workdir = params, seed, workdir
        self.attempted = 0
        self.failed = 0
        self.wrong = 0              # outputs that failed their check
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.kinds: list[str] = []      # the class of each latency's item
        self.fidelities: list[float] = []
        self.ll_excess: list[float] = []

    def warm_up(self) -> None:
        for n in self.params["schur_n"]:
            accdm.schur_basis(n).matrix

    def rounds(self, seconds: float):
        """Yield (id, item) for whole rounds until ``seconds`` have passed."""
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < seconds:
            for j, item in enumerate(workloads.make_round(self.params, self.seed, r)):
                yield f"{r}-{j}", item
            r += 1

    def _call(self, argv: list[str]) -> int:
        sink = textio.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                # looked up on every call so that the recorder's wrapper is used
                return accdm.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    def execute(self, item, directory: Path, recorder=None, item_id: int = 0):
        """Run the item's commands; return (latency, error or None)."""
        directory.mkdir()
        for name, text in item.files.items():
            (directory / name).write_text(text)
        # start every item from the same collector state: in one long-lived
        # process, small items otherwise vary up to 3x with what ran before
        gc.collect()

        def body():
            start = time.perf_counter()
            error = None
            try:
                for argv in item.commands:
                    argv = [a.replace("{d}", str(directory)) for a in argv]
                    code = self._call(argv)
                    if code != 0:
                        error = f"{argv[0]} exited with {code}"
                        break
            except Exception as exc:          # a crash fails the item, not the run
                error = f"{type(exc).__name__}: {exc}"
            return time.perf_counter() - start, error

        if recorder is None:
            return body()
        return recorder.run_item(item_id, body)

    def check(self, item, directory: Path):
        """Check the outputs; return (error or None, (fidelity, ll_excess) or None)."""
        io = accdm.io
        truth_text = (directory / "truth.dm").read_text()
        rho = io.parse_density_matrix(truth_text)
        if rho.n != item.n:
            return f"truth.dm has {rho.n} photons, expected {item.n}", None
        if item.primitive:
            for q, h in item.check_settings:
                setting = accdm.WaveplateSetting(q, h)
                got = accdm.outcome_probabilities(rho, setting)
                want = oracle.outcome_distribution(
                    item.photons, accdm.waveplate_unitary(setting))
                gap = float(np.abs(got - want).max())
                if not gap <= ORACLE_TOL:
                    return f"oracle mismatch {gap:.3e} at setting ({q}, {h})", None
        else:
            text = io.format_density_matrix(rho)
            again = io.parse_density_matrix(text)
            same = all(np.array_equal(rho.blocks[tj], again.blocks[tj]) for tj in rho.blocks)
            if text != truth_text or not same:
                return "truth.dm does not parse back to the same blocks", None
        if not item.pipeline:
            return None, None
        estimate = io.parse_density_matrix((directory / "estimate.dm").read_text())
        records = io.parse_counts((directory / "counts.csv").read_text())
        excess = (accdm.log_likelihood(estimate, records)
                  - accdm.log_likelihood(rho, records))
        return None, (accdm.fidelity(estimate, rho), excess)

    def run_and_check(self, item, directory: Path, recorder=None, item_id: int = 0):
        """Execute and check one item, recording the outcome; return its latency."""
        self.attempted += 1
        latency, error = self.execute(item, directory, recorder, item_id)
        quality = None
        if error is None:
            try:
                error, quality = self.check(item, directory)
            except Exception as exc:          # unreadable output is a wrong output
                error = f"output check failed: {type(exc).__name__}: {exc}"
            self.wrong += error is not None
        shutil.rmtree(directory)
        if error is not None:
            self.failed += 1
            self.errors.append(f"{item.kind}: {error}")
            return latency
        self.latencies.append(latency)
        self.kinds.append(item.kind)
        if quality is not None:
            self.fidelities.append(quality[0])
            self.ll_excess.append(quality[1])
        return latency


def end_to_end(bench: Bench, seconds: float, setup: dict) -> tuple[dict, dict]:
    for item_id, item in bench.rounds(seconds):
        bench.run_and_check(item, bench.workdir / item_id)
    if not bench.latencies:
        raise NoResult(bench.errors)
    lat = bench.latencies
    percentile = bench.params["tail_percentile"]
    value, beyond = tail(lat, percentile)
    pipeline = bench.params["kind"] == "pipeline"
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(bench.kinds, lat):
        by_kind.setdefault(kind, []).append(latency)
    metrics = {
        "setup_s": setup["setup_s"],
        # busy throughput of the run's item mix at each class's median
        # latency: one stalled item does not move it the way a sum would
        "items_per_s": len(lat) / sum(len(v) * statistics.median(v)
                                      for v in by_kind.values()),
        "item_p50_s": statistics.median(lat),
        "item_tail_s": value,
        "ok_frac": (bench.attempted - bench.failed) / bench.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # no estimate is made on analyze workloads: both read 1 there
        "fidelity_p50": statistics.median(bench.fidelities) if pipeline else 1.0,
        # a mean, not a median: it is steadier from seed to seed for this
        # skewed, chi-square-like quantity
        "ll_excess": statistics.mean(bench.ll_excess) if pipeline else 1.0,
    }
    return metrics, {"tail_percentile": percentile, "tail_samples": len(lat),
                     "tail_beyond": beyond}


def per_layer(bench: Bench, seconds: float, setup: dict) -> tuple[dict, dict]:
    recorder = tracing.Recorder()
    totals = {False: 0.0, True: 0.0}
    for k, (item_id, item) in enumerate(bench.rounds(seconds)):
        # alternate which pass runs first so that warm caches favour neither
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            directory = bench.workdir / f"{item_id}-{'t' if traced else 'u'}"
            totals[traced] += bench.run_and_check(
                item, directory, recorder if traced else None, k)
    if not bench.latencies:
        raise NoResult(bench.errors)
    spans = recorder.spans
    items = [s for s in spans if s.name == "item"]
    n = len(items)

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def count(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    mle_calls = sum(1 for s in spans if s.name == "tomography.mle")
    iterations = count("tomography.mle", "iterations")
    mle_own = total("tomography.mle") - total("tomography.linear_inversion")
    item_time = total("item")
    metrics = {
        "schur.basis_cold_s": setup["schur.basis_cold_s"],
        "cli.import_s": setup["cli.import_s"],
        "cli.self_s": sum(s.self_time for s in spans if s.name == "cli.main") / n,
        "expressions.parse_s": total("expressions.parse") / n,
        "expressions.terms": count("expressions.parse", "terms") / n,
        "states.expand_s": total("states.expand") / n,
        "states.amplitudes": count("states.expand", "amplitudes") / n,
        "states.trace_s": total("states.trace") / n,
        "measurement.span_rank_s": total("measurement.span_rank") / n,
        "measurement.simulate_s": total("measurement.simulate") / n,
        "measurement.outcome_rows": count("measurement.simulate", "outcome_rows") / n,
        "tomography.linear_inversion_s": total("tomography.linear_inversion") / n,
        "tomography.mle_s": total("tomography.mle") / n,
        "tomography.mle_iterations": iterations / n,
        "tomography.mle_iter_ms": 1000.0 * mle_own / iterations if iterations else 0.0,
        "tomography.converged_frac": (count("tomography.mle", "converged") / mle_calls
                                      if mle_calls else 0.0),
        "io.read_s": total("io.read") / n,
        "io.write_s": total("io.write") / n,
        "io.bytes": (count("io.read", "bytes") + count("io.write", "bytes")) / n,
        "trace.item_s": item_time / n,
        "trace.self_sum_ratio": (sum(s.self_time for s in spans if s.name != "item")
                                 / item_time if item_time else 0.0),
        "trace.overhead_ratio": totals[True] / totals[False] if totals[False] else 0.0,
        "trace.items": float(len(items)),
    }
    return metrics, {"traced_items": len(items)}


def oracle_rejects_perturbation(params: dict, workdir: Path) -> bool:
    """Check that the output check fails once the analyzed matrix is perturbed."""
    bench = Bench(params, 0, workdir)
    item = next(it for it in workloads.make_round(params, 0, 0) if it.primitive)
    directory = workdir / "item"
    latency, error = bench.execute(item, directory)
    if error is not None or bench.check(item, directory)[0] is not None:
        return False
    rho = accdm.io.parse_density_matrix((directory / "truth.dm").read_text())
    mixed = accdm.AccessibleDensityMatrix.maximally_mixed(rho.n)
    blocks = {tj: 0.99 * b + 0.01 * mixed.blocks[tj] for tj, b in rho.blocks.items()}
    perturbed = accdm.AccessibleDensityMatrix(rho.n, blocks)
    (directory / "truth.dm").write_text(accdm.io.format_density_matrix(perturbed))
    error, _ = bench.check(item, directory)
    return error is not None and math.isfinite(latency)
