"""The exported names, and the names that the benchmark in perfbench/ reads
or wraps: a change to either must be made on purpose."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import numpy as np

import accdm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

EXPORTED = [
    "AccessibleDensityMatrix", "CountTable", "CreationOperatorExpression",
    "Definitions", "IndistinguishabilityReport", "N_MAX", "NumericalError",
    "ParseError", "RankDeficiencyError", "ReconstructionResult", "Term",
    "WaveplateSetting", "accessible_param_count", "expression_to_accessible",
    "fidelity", "indistinguishability_report", "linear_inversion",
    "log_likelihood", "measurement_span_rank", "mle_reconstruct",
    "occurring_two_j", "outcome_probabilities", "parse_definition_line",
    "parse_expression_file", "parse_operator_expression", "partitions",
    "schur_basis", "sector_rotation", "simulate_counts", "su2_multiplicity",
    "symmetric_dimension", "waveplate_unitary", "weyl_dimension",
]


def test_exported_names_are_pinned():
    assert sorted(accdm.__all__) == EXPORTED
    assert all(hasattr(accdm, name) for name in accdm.__all__)


def test_expression_fields_are_pinned():
    fields = dataclasses.fields(accdm.CreationOperatorExpression)
    assert [field.name for field in fields] == ["factors"]


def test_reconstruction_result_fields_are_pinned():
    # what the reconstruction computed; its input stays on the CountTable
    fields = dataclasses.fields(accdm.ReconstructionResult)
    assert [field.name for field in fields] == [
        "estimate", "log_likelihood", "iterations", "converged",
        "predicted_frequencies", "ll_trace", "floored_cells", "gap_bound"]


def test_benchmark_hooks_resolve():
    # WRAPPED is read from the source, so that nothing is imported or patched
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    wrapped = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["WRAPPED"])
    hooks = [(entry.elts[0].value, entry.elts[1].value) for entry in wrapped.elts]
    assert ("accdm.cli", "trace_hidden") in hooks
    for module, attr in hooks:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    harness = (PERFBENCH / "harness.py").read_text()
    for name in set(re.findall(r"\baccdm\.(\w+)", harness)):
        assert hasattr(accdm, name), name

    u = accdm.schur_basis(3).matrix
    assert u.shape == (8, 8)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
