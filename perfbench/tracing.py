"""Span recorder wrapped around the public functions of each accdm layer.

The recorder patches each function where ``accdm.cli`` or a layer module
looks it up (for example ``accdm.tomography.linear_inversion``, which
``mle_reconstruct`` calls), records one span per call with its parent and
item, and restores the original functions when the traced item ends, so
untraced items run the unmodified program.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


def _terms(args, result):
    return {"terms": sum(len(factor) for factor in result.factors)}


def _amplitudes(args, result):
    return {"amplitudes": len(result.amplitudes)}


def _outcome_rows(args, result):
    rho, settings = args[0], args[1]
    return {"outcome_rows": len(settings) * (rho.n + 1)}


def _mle(args, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _bytes_in(args, result):
    return {"bytes": len(args[0].encode())}


def _bytes_out(args, result):
    return {"bytes": len(args[1].encode())}


# (module, attribute, span name, counter).  The span name's prefix is the layer.
WRAPPED = [
    ("accdm.cli", "main", "cli.main", None),
    ("accdm.cli", "parse_expression_file", "expressions.parse", _terms),
    ("accdm.cli", "expand_and_symmetrize", "states.expand", _amplitudes),
    ("accdm.cli", "trace_hidden", "states.trace", None),
    ("accdm.cli", "measurement_span_rank", "measurement.span_rank", None),
    ("accdm.cli", "simulate_counts", "measurement.simulate", _outcome_rows),
    ("accdm.cli", "mle_reconstruct", "tomography.mle", _mle),
    ("accdm.tomography", "linear_inversion", "tomography.linear_inversion", None),
    ("accdm.cli", "fidelity", "tomography.fidelity", None),
    ("accdm.cli", "indistinguishability_report", "tomography.report", None),
    ("accdm.io", "parse_density_matrix", "io.read", _bytes_in),
    ("accdm.io", "parse_settings", "io.read", _bytes_in),
    ("accdm.io", "parse_counts", "io.read", _bytes_in),
    ("accdm.io", "format_density_matrix", "io.write", None),
    ("accdm.io", "format_counts", "io.write", None),
    ("accdm.io", "format_report", "io.write", None),
    ("accdm.io", "format_ll_trace", "io.write", None),
    ("accdm.io", "write_atomic", "io.write", _bytes_out),
]


@dataclass
class Span:
    name: str
    item: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Recorder:
    """Keeps every span in memory; ``item`` opens the root span of one item."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str, item: int) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, item, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            span = self._open(name, self.spans[self._stack[0]].item)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result
        return traced

    def run_item(self, item_id: int, body):
        """Run ``body()`` with every layer function wrapped; return its result."""
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        root = self._open("item", item_id)
        try:
            return body()
        finally:
            self._close(root)
            for module, attr, original in reversed(self._originals):
                setattr(module, attr, original)
            self._originals.clear()
