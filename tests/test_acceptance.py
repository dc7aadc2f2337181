"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

from accdm.expressions import parse_expression_file, parse_operator_expression
from accdm.measurement import (
    WaveplateSetting,
    measurement_span_rank,
    outcome_probabilities,
    simulate_counts,
    waveplate_unitary,
)
from accdm.schur import (
    accessible_param_count,
    occurring_two_j,
    partitions,
    schur_basis,
    su2_multiplicity,
    weyl_dimension,
)
from accdm.states import AccessibleDensityMatrix, expand_and_symmetrize, trace_hidden
from accdm.tomography import fidelity, indistinguishability_report, mle_reconstruct

from conftest import (
    HALF_OVERLAP_TEXT,
    TWELVE_SETTINGS,
    accessible_projection,
    brute_force_twirl,
    full_matrix,
    half_overlap_blocks,
    noon_state,
    outcome_operators,
    permutation_matrix,
    random_accessible_state,
    sample_counts,
)


def half_overlap_traced():
    return trace_hidden(expand_and_symmetrize(parse_expression_file(HALF_OVERLAP_TEXT)))


def test_criterion_1_parameter_counts():
    start = time.perf_counter()
    assert accessible_param_count(3, 2) == 20
    for n in range(1, 9):
        explicit = sum((tj + 1) ** 2 for tj in occurring_two_j(n))
        assert explicit == math.comb(n + 3, 3)
        assert explicit == accessible_param_count(n, 2)
    for d in range(1, 5):
        for n in range(1, 7):
            by_weyl = sum(weyl_dimension(lam, d) ** 2 for lam in partitions(n, d))
            assert by_weyl == accessible_param_count(n, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\ncriterion 1 PASS: parameter-count identities exact ({elapsed:.3f}s)")


def test_criterion_2_worked_term_golden():
    acc = trace_hidden(expand_and_symmetrize(parse_operator_expression("(aH)(aV)(bV)")))
    expected_top = np.diag([0, 0, 2 / 3, 0]).astype(complex)
    expected_doublet = np.diag([0, 1 / 6]).astype(complex)
    assert np.abs(acc.blocks[3] - expected_top).max() <= 1e-10
    assert np.abs(acc.blocks[1] - expected_doublet).max() <= 1e-10
    print("criterion 2 PASS: mixed-term blocks 2/3 and 1/6 at m=-1/2 to 1e-10")


def test_criterion_3_full_state_golden():
    start = time.perf_counter()
    acc = half_overlap_traced()
    b3, b1 = acc.blocks[3], acc.blocks[1]
    assert abs(b3[0, 0] - 0.3636) <= 5e-5
    assert abs(b3[3, 3] - 0.3636) <= 5e-5
    assert abs(b3[0, 3] - 0.3636) <= 5e-5
    assert abs(b1[0, 0] - 0.0682) <= 5e-5
    assert abs(b1[1, 1] - 0.0682) <= 5e-5
    # reference values list the doublet rows in ascending weight order; in the
    # descending-order ladder basis used here that flips the off-diagonal to
    # -conj, so compare after applying the same relabeling
    assert abs(-np.conj(b1[0, 1]) - (-0.0341 - 0.0590j)) <= 5e-5
    assert abs(acc.symmetric_population() - 0.7273) <= 5e-4
    assert abs(fidelity(acc, noon_state(3)) - 0.7273) <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 3 PASS: 50%-overlap blocks, population and fidelity "
          f"({elapsed:.3f}s)")


def test_criterion_4_span_rank():
    start = time.perf_counter()
    n_elements = sum(len(outcome_operators(s, 3)) for s in TWELVE_SETTINGS)
    assert n_elements == 48
    rank = measurement_span_rank(TWELVE_SETTINGS, 3)
    assert rank == 20
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 4 PASS: 48 outcome operators span exactly rank 20 "
          f"({elapsed:.3f}s)")


def test_criterion_5_probability_consistency():
    acc = half_overlap_traced()
    p = outcome_probabilities(acc, WaveplateSetting(0.0, 0.0))
    assert np.abs(p - np.array([0.3636, 0.1364, 0.1364, 0.3636])).max() <= 5e-5
    counts = np.array([3645, 1459, 1385, 3586], dtype=float)
    total = counts.sum()
    for k in range(4):
        expected = total * p[k]
        assert abs(counts[k] - expected) <= 4 * math.sqrt(expected), (
            f"outcome {k}: {counts[k]} vs {expected:.1f}")
    print("criterion 5 PASS: straight-through probabilities match and sample "
          "counts lie within 4 sigma")


def test_criterion_6_noiseless_mle():
    acc = half_overlap_traced()
    from accdm.measurement import CountTable
    data = CountTable(TWELVE_SETTINGS, [1e4 * outcome_probabilities(acc, s)
                                        for s in TWELVE_SETTINGS])
    result = mle_reconstruct(data)
    assert result.iterations <= 100_000
    for two_j in (3, 1):
        assert np.abs(result.estimate.blocks[two_j] - acc.blocks[two_j]).max() <= 1e-6
    assert np.all(np.diff(result.ll_trace) >= 0), "log-likelihood not monotone"
    print(f"criterion 6 PASS: noiseless reconstruction exact to 1e-6 in "
          f"{result.iterations} iterations, monotone")


def test_criterion_7_round_trip_fidelity():
    start = time.perf_counter()
    acc = half_overlap_traced()
    fids = []
    for seed in range(50):
        data = simulate_counts(acc, TWELVE_SETTINGS, 1e4, seed=seed)
        result = mle_reconstruct(data)
        fids.append(fidelity(result.estimate, acc))
    elapsed = time.perf_counter() - start
    assert min(fids) >= 0.99, f"worst fidelity {min(fids)}"
    assert float(np.median(fids)) >= 0.995, f"median fidelity {np.median(fids)}"
    assert elapsed < 60.0
    print(f"criterion 7 PASS: 50-seed round trip, min {min(fids):.4f}, "
          f"median {np.median(fids):.4f} ({elapsed:.1f}s)")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(2024)

    # S_N-twirl idempotence, trace preservation, positivity: 200 random inputs
    for trial in range(200):
        n = int(rng.integers(2, 5))
        dim = 2 ** n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        rho /= rho.trace().real
        acc = accessible_projection(rho)
        twice = accessible_projection(full_matrix(n, acc.blocks))
        assert acc.allclose(twice, atol=1e-10)
        total = sum(su2_multiplicity(n, tj) * b.trace().real
                    for tj, b in acc.blocks.items())
        assert abs(total - 1.0) <= 1e-10
        for block in acc.blocks.values():
            assert np.linalg.eigvalsh(block).min() >= -1e-10

    # symmetrization invariance under all transpositions
    for text in ["(aH)(aV)(bV)", "(aH + bV)(aV)(cH + 0.5*aV)",
                 "(aH + aV)(bH - bV)"]:
        state = expand_and_symmetrize(parse_operator_expression(text))
        n = state.n
        for i in range(n):
            for j in range(i + 1, n):
                for key, amp in state.amplitudes.items():
                    swapped = list(key)
                    swapped[i], swapped[j] = swapped[j], swapped[i]
                    assert abs(state.amplitudes.get(tuple(swapped), 0) - amp) <= 1e-10

    # block pairing equals full-space brute force
    for n in (2, 3, 4):
        rho = random_accessible_state(n, rng)
        setting = WaveplateSetting(rng.uniform(0, 180), rng.uniform(0, 180))
        p = outcome_probabilities(rho, setting)
        u = waveplate_unitary(setting)
        u_full = np.array([[1.0]])
        for _ in range(n):
            u_full = np.kron(u_full, u)
        rho_full = full_matrix(n, rho.blocks)
        for k in range(n + 1):
            proj = np.diag([1.0 if bin(i).count("1") == k else 0.0
                            for i in range(2 ** n)]).astype(complex)
            brute = np.trace(rho_full @ u_full.conj().T @ proj @ u_full).real
            assert abs(p[k] - brute) <= 1e-10

    # Schur basis unitarity and sector invariance
    for n in range(1, 6):
        basis = schur_basis(n)
        u = basis.matrix
        assert np.abs(u @ u.conj().T - np.eye(2 ** n)).max() <= 1e-12
        for two_j in occurring_two_j(n):
            rows = [r for mu in range(1, su2_multiplicity(n, two_j) + 1)
                    for r in basis.sector_rows(two_j, mu)]
            q = u[rows].conj().T @ u[rows]
            for i in range(n - 1):
                perm = list(range(n))
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                pm = permutation_matrix(perm, n)
                assert np.abs(pm @ q @ pm.T - q).max() <= 1e-12

    # outcome (2,1) at zero angles is the projector onto the single-V strings
    element = outcome_operators(WaveplateSetting(0.0, 0.0), 3)[1]
    proj = np.zeros((8, 8), dtype=complex)
    for idx in (0b001, 0b010, 0b100):
        proj[idx, idx] = 1.0
    assert np.abs(full_matrix(3, element) - proj).max() <= 1e-12

    print("criterion 8 PASS: twirl, symmetrization, block pairing, basis, "
          "and outcome-operator identities")


def test_criterion_9_indistinguishability_reports():
    for text in ["(aH + aV)(aH + exp(i*2/3*pi)*aV)(aH + exp(i*4/3*pi)*aV)",
                 "(aH)(aH)(aV)", "(aH + 0.5*aV)(aH + 0.5*aV)"]:
        acc = trace_hidden(expand_and_symmetrize(parse_operator_expression(text)))
        report = indistinguishability_report(acc)
        assert report.verdict == "indistinguishable", text
    report = indistinguishability_report(half_overlap_traced())
    assert report.verdict == "hidden-differences-detected"
    assert abs(report.symmetric_population - 0.7273) <= 5e-4
    print("criterion 9 PASS: verdicts for pure single-mode states and the "
          "50%-overlap state")
