import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from accdm import schur, states
from accdm.expressions import (
    CreationOperatorExpression,
    Definitions,
    Term,
    parse_definition_line,
    parse_expression_file,
    parse_operator_expression,
)
from accdm.measurement import WaveplateSetting, outcome_probabilities, waveplate_unitary
from accdm.schur import (
    N_MAX,
    _layout,
    occurring_two_j,
    schur_basis,
    sector_rotation,
    su2_multiplicity,
)
from accdm.states import (
    AccessibleDensityMatrix,
    FirstQuantizedState,
    expand_and_symmetrize,
    expression_to_accessible,
    trace_hidden,
)

from conftest import (
    HALF_OVERLAP_TEXT,
    accessible_projection,
    brute_force_twirl,
    convolution_oracle,
    full_matrix,
    haar_unitary,
    half_overlap_blocks,
    random_accessible_state,
)


def expand_text(text, defs=None):
    return expand_and_symmetrize(parse_operator_expression(text, defs))


# ---------------------------------------------------------------------------
# Expansion and symmetrization
# ---------------------------------------------------------------------------

def test_mixed_mode_monomial_has_six_equal_arrangements():
    state = expand_text("(aH)(aV)(bV)")
    expected = {
        (("H", "a"), ("V", "a"), ("V", "b")),
        (("H", "a"), ("V", "b"), ("V", "a")),
        (("V", "a"), ("H", "a"), ("V", "b")),
        (("V", "a"), ("V", "b"), ("H", "a")),
        (("V", "b"), ("H", "a"), ("V", "a")),
        (("V", "b"), ("V", "a"), ("H", "a")),
    }
    assert set(state.amplitudes) == expected
    for amp in state.amplitudes.values():
        assert abs(amp - 1 / math.sqrt(6)) < 1e-12


def test_repeated_operator_single_arrangement():
    state = expand_text("(aH)(aH)")
    assert set(state.amplitudes) == {(("H", "a"), ("H", "a"))}
    assert abs(state.amplitudes[(("H", "a"), ("H", "a"))] - 1.0) < 1e-12


def test_noon_product_collapses_to_two_kets():
    state = expand_text("(aH + aV)(aH + exp(i*2/3*pi)*aV)(aH + exp(i*4/3*pi)*aV)")
    hhh = (("H", "a"),) * 3
    vvv = (("V", "a"),) * 3
    assert set(state.amplitudes) == {hhh, vvv}
    assert abs(state.amplitudes[hhh] - 1 / math.sqrt(2)) < 1e-12
    assert abs(state.amplitudes[vvv] - 1 / math.sqrt(2)) < 1e-12


def test_bosonic_weighting_favors_doubly_occupied_labels():
    # aH (aH + bH) -> sqrt(2)|2_aH> + |1_aH 1_bH>: the doubly occupied ket
    # carries sqrt(2) of the weight, i.e. twice the per-arrangement amplitude
    state = expand_text("(aH)(aH + bH)")
    a2 = state.amplitudes[(("H", "a"), ("H", "a"))]
    ab = state.amplitudes[(("H", "a"), ("H", "b"))]
    assert abs(a2 / ab - 2.0) < 1e-12
    family_a2 = abs(a2)
    family_ab = math.sqrt(2) * abs(ab)
    assert abs(family_a2 / family_ab - math.sqrt(2)) < 1e-12


def test_cancelling_factor_raises():
    with pytest.raises(ValueError, match="cancel"):
        expand_text("(aH + aV - aH - aV)")
    for text in ["(aH + aV - aH - aV)(aH)", "(1e-200*aH - 1e-200*aH)(aV)",
                 "(1e200*aH + 1e200*aV - 1e200*aH - 1e200*aV)(aV)", "(0*aH)(aV)"]:
        with pytest.raises(ValueError, match="the terms of factor 1 cancel"):
            expression_to_accessible(parse_operator_expression(text))


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310], ids=["1e200", "1e-200", "subnormal"])
def test_factor_scale_does_not_change_the_state(scale):
    # coefficients 1, -1 and i, so that the scaled ones are exact
    plain = parse_operator_expression("(aH + aV)(bH - i*aV)(aH + i*bV - bH)")
    expected = expression_to_accessible(plain)
    for k in range(plain.n):
        factors = list(plain.factors)
        factors[k] = tuple(Term(t.coefficient * scale, t.polarization, t.mode)
                           for t in factors[k])
        rho = expression_to_accessible(CreationOperatorExpression(tuple(factors)))
        assert rho.allclose(expected, atol=1e-15)


@pytest.mark.parametrize("text", ["(1e-200*aH)(1e-200*aV)", "(1e200*aH)(1e200*aV)",
                                  "(aH)(aV)"], ids=["tiny", "huge", "plain"])
def test_dense_expansion_matches_accessible_path_on_scaled_factors(text):
    expr = parse_operator_expression(text)
    dense = trace_hidden(expand_and_symmetrize(expr))
    assert dense.allclose(expression_to_accessible(expr), atol=1e-15)
    assert dense.allclose(expression_to_accessible(parse_operator_expression("(aH)(aV)")),
                          atol=1e-15)


def random_factor_text(rng, modes, n_terms):
    addends = []
    for _ in range(n_terms):
        coef = complex(rng.normal(), rng.normal())
        atom = f"{rng.choice(modes)}{'H' if rng.random() < 0.5 else 'V'}"
        addends.append((coef.real, f"{abs(coef.real):.6f}*{atom}"))
        addends.append((coef.imag, f"{abs(coef.imag):.6f}i*{atom}"))
    text = ("-" if addends[0][0] < 0 else "") + addends[0][1]
    for sign_val, body in addends[1:]:
        text += (" - " if sign_val < 0 else " + ") + body
    return "(" + text + ")"


def test_symmetry_invariance_random_expressions():
    rng = np.random.default_rng(5)
    modes = ["a", "b", "c"]
    for _ in range(25):
        n = int(rng.integers(2, 5))
        text = "".join(random_factor_text(rng, modes, int(rng.integers(1, 4)))
                       for _ in range(n))
        state = expand_text(text)
        # construction already validates symmetry; double-check full permutations
        for key, amp in state.amplitudes.items():
            rev = tuple(reversed(key))
            assert abs(state.amplitudes.get(rev, 0) - amp) < 1e-10


def test_state_validation_rejects_asymmetric_amplitudes():
    with pytest.raises(ValueError, match="symmetric"):
        FirstQuantizedState(2, {(("H", "a"), ("V", "a")): 1.0})


def test_state_validation_rejects_bad_norm():
    key = (("H", "a"), ("H", "a"))
    with pytest.raises(ValueError, match="norm"):
        FirstQuantizedState(2, {key: 0.5})


# ---------------------------------------------------------------------------
# Hidden-mode trace
# ---------------------------------------------------------------------------

def test_two_photon_distinct_modes_gives_mixed_polarization(golden_state):
    # (|HV>|ab> + |VH>|ba>)/sqrt(2): visible matrix (|HV><HV| + |VH><VH|)/2
    state = expand_text("(aH)(bV)")
    rho_vis = state.visible_density_matrix()
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    np.testing.assert_allclose(rho_vis, expected, atol=1e-12)

    acc = trace_hidden(state)
    np.testing.assert_allclose(acc.blocks[2], np.diag([0, 0.5, 0]), atol=1e-12)
    np.testing.assert_allclose(acc.blocks[0], [[0.5]], atol=1e-12)
    # independent oracle: twirl the visible matrix over both permutations
    twirled = brute_force_twirl(rho_vis, 2)
    oracle = accessible_projection(twirled)
    assert acc.allclose(oracle, atol=1e-10)


def test_two_photon_same_mode_stays_pure():
    state = expand_text("(aH)(aV)")
    acc = trace_hidden(state)
    assert abs(acc.blocks[0][0, 0]) < 1e-12
    np.testing.assert_allclose(acc.blocks[2], np.diag([0, 1.0, 0]), atol=1e-12)
    assert abs(acc.purity() - 1.0) < 1e-10


def test_single_mixed_monomial_block_values():
    # a_H+ a_V+ b_V+ alone: 2/3 at (j=3/2, m=-1/2), 1/6 at m=-1/2 in each doublet
    acc = trace_hidden(expand_text("(aH)(aV)(bV)"))
    np.testing.assert_allclose(acc.blocks[3], np.diag([0, 0, 2 / 3, 0]), atol=1e-10)
    np.testing.assert_allclose(acc.blocks[1], np.diag([0, 1 / 6]), atol=1e-10)


def test_half_overlap_golden_blocks():
    state = expand_and_symmetrize(parse_expression_file(HALF_OVERLAP_TEXT))
    acc = trace_hidden(state)
    golden = half_overlap_blocks()
    np.testing.assert_allclose(acc.blocks[3], golden[3], atol=1e-10)
    np.testing.assert_allclose(acc.blocks[1], golden[1], atol=1e-10)
    assert abs(acc.symmetric_population() - 8 / 11) < 1e-10


def test_half_overlap_expansion_monomial_families():
    # expanding the product leaves the two single-mode cubics plus the six
    # families with one photon in the weakly occupied hidden mode
    state = expand_and_symmetrize(parse_expression_file(HALF_OVERLAP_TEXT))
    families = {}
    for key, amp in state.amplitudes.items():
        families.setdefault(tuple(sorted(key)), {})[key] = amp
    # ratios to the all-H cubic; the 1/sqrt(2) from the half-overlap mode
    # expansion is common to every family and cancels
    w = np.exp(2j * np.pi / 3)
    expected = {
        (("H", "a"),) * 3: 1.0,
        (("V", "a"),) * 3: 1.0,
        (("H", "a"), ("H", "a"), ("H", "b")): 1.0,
        (("H", "a"), ("H", "b"), ("V", "a")): 1 + w,
        (("H", "b"), ("V", "a"), ("V", "a")): w,
        (("H", "a"), ("H", "a"), ("V", "b")): w ** 2,
        (("H", "a"), ("V", "a"), ("V", "b")): 1 + w ** 2,
        (("V", "a"), ("V", "a"), ("V", "b")): 1.0,
    }
    assert set(families) == set(expected)
    # invert the symmetrization weight to recover each monomial coefficient
    recovered = {}
    for fam, amps in families.items():
        occ = {}
        for lab in fam:
            occ[lab] = occ.get(lab, 0) + 1
        weight = math.sqrt(math.prod(math.factorial(o) for o in occ.values())
                           / len(amps))
        recovered[fam] = amps[fam] / weight
    scale = recovered[(("H", "a"),) * 3]
    for fam, coef in expected.items():
        assert abs(recovered[fam] / scale - coef) < 1e-12


def test_half_overlap_against_printed_values():
    state = expand_and_symmetrize(parse_expression_file(HALF_OVERLAP_TEXT))
    acc = trace_hidden(state)
    b3, b1 = acc.blocks[3], acc.blocks[1]
    assert abs(b3[0, 0] - 0.3636) < 5e-5
    assert abs(b3[0, 3] - 0.3636) < 5e-5
    assert abs(b1[0, 0] - 0.0682) < 5e-5
    # published display lists the doublet rows in ascending weight order, so
    # its off-diagonal is -conj of the descending-order ladder-basis entry
    assert abs(-np.conj(b1[0, 1]) - (-0.0341 - 0.0590j)) < 5e-5


def test_identical_hidden_modes_fill_symmetric_sector():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        factors = "".join(
            f"({rng.normal():.6f}*aH {'+' if (c := rng.normal()) >= 0 else '-'} "
            f"{abs(c):.6f}*aV)"
            for _ in range(n))
        acc = trace_hidden(expand_text(factors))
        assert acc.symmetric_population() >= 1 - 1e-10


def test_trace_hidden_matches_twirl_oracle_random_expressions():
    rng = np.random.default_rng(11)
    modes = ["a", "b", "c"]
    for trial in range(200):
        n = 2 + trial % 3
        text = "".join(random_factor_text(rng, modes, int(rng.integers(1, 3)))
                       for _ in range(n))
        state = expand_text(text)
        acc = trace_hidden(state)
        oracle = accessible_projection(brute_force_twirl(
            state.visible_density_matrix(), n))
        assert acc.allclose(oracle, atol=1e-9)
        assert expression_to_accessible(parse_operator_expression(text)).allclose(
            acc, atol=1e-10)


# ---------------------------------------------------------------------------
# Hidden-mode trace from permanents
# ---------------------------------------------------------------------------

def test_expression_to_accessible_matches_expansion_with_derived_modes():
    rng = np.random.default_rng(29)
    for trial in range(36):
        n = 1 + trial % 6
        defs = Definitions()
        x = float(rng.uniform(0.1, 0.95))
        parse_definition_line(f"c = {x!r}*a + {math.sqrt(1 - x * x)!r}*b", defs)
        parse_definition_line("d = 0.6*b - 0.8i*e", defs)
        text = "".join(random_factor_text(rng, ["a", "b", "c", "d"],
                                          int(rng.integers(1, 4 if n <= 4 else 3)))
                       for _ in range(n))
        expr = parse_operator_expression(text, defs)
        expected = trace_hidden(expand_and_symmetrize(expr))
        assert expression_to_accessible(expr).allclose(expected, atol=1e-10)


def benchmark_expression_file(rng, modes, overlap=None):
    """Expression file with photon k in hidden mode ``modes[k]``, drawn as
    the benchmark draws them: (x_k*mH + exp(i*pi*phi_k)*mV) with x_k
    log-uniform in [1/4, 4] and phi_k uniform in [-1, 1], and
    c = o*a + sqrt(1 - o^2)*b with o uniform in ``overlap``."""
    lines = []
    if overlap is not None:
        o = float(rng.uniform(*overlap))
        lines.append(f"c = {o!r}*a + {math.sqrt(1 - o * o)!r}*b")
    factors = []
    for k, mode in enumerate(modes):
        x = float(np.exp(rng.uniform(-math.log(4), math.log(4))))
        lines.append(f"w{k} = exp(i*{float(rng.uniform(-1.0, 1.0))!r}*pi)")
        factors.append(f"({x!r}*{mode}H + w{k}*{mode}V)")
    return "\n".join(lines + ["".join(factors)]) + "\n"


@pytest.mark.parametrize("modes, overlap", [
    ("aaaabbb", None),
    ("abcabca", None),
    ("aaaccc", (0.2, 0.95)),
    ("aaaaaaac", (0.7, 1.0)),
], ids=["n7-two-groups", "n7-three-groups", "n6-derived", "n8-seven-in-a-one-in-c"])
def test_expression_to_accessible_matches_expansion_at_benchmark_sizes(modes, overlap):
    rng = np.random.default_rng([41, len(modes)])
    expr = parse_expression_file(benchmark_expression_file(rng, modes, overlap))
    expected = trace_hidden(expand_and_symmetrize(expr))
    assert expression_to_accessible(expr).allclose(expected, atol=1e-12)


@pytest.mark.parametrize("n", [9, 10])
def test_expression_to_accessible_distinct_modes_beyond_expansion(n):
    rng = np.random.default_rng(n)
    vecs = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    # complex coefficients are not in the grammar: one term per real and imaginary part
    text = "".join(
        f"({h.real!r}*m{k}H + {h.imag!r}i*m{k}H + {v.real!r}*m{k}V + {v.imag!r}i*m{k}V)"
        for k, (h, v) in enumerate(vecs.tolist())).replace("+ -", "- ")
    rho = expression_to_accessible(parse_operator_expression(text))
    for q, h in rng.uniform(0.0, 180.0, size=(6, 2)):
        setting = WaveplateSetting(float(q), float(h))
        np.testing.assert_allclose(
            outcome_probabilities(rho, setting),
            convolution_oracle(vecs, waveplate_unitary(setting)), atol=1e-10)


def test_expression_to_accessible_rejects_too_many_factors():
    with pytest.raises(ValueError, match=f"between 1 and {N_MAX}"):
        expression_to_accessible(parse_operator_expression("(aH)" * (N_MAX + 1)))


def test_expression_to_accessible_rejects_inconsistent_fit(monkeypatch):
    # coefficients that no accessible state produces leave a residual
    rng = np.random.default_rng(0)
    monkeypatch.setattr(states, "_permanent_coefficients",
                        lambda vectors: rng.normal(size=math.comb(len(vectors) + 3, 3)) + 2.0)
    with pytest.raises(ValueError, match="residual"):
        expression_to_accessible(parse_operator_expression("(aH)(bV)(aV + bH)"))


def test_expression_to_accessible_rejects_nan_fit(monkeypatch):
    # a NaN residual is not below the tolerance
    monkeypatch.setattr(states, "_permanent_coefficients",
                        lambda vectors: np.r_[1.0, np.full(math.comb(len(vectors) + 3, 3) - 1,
                                                           np.nan)] + 0j)
    with pytest.raises(ValueError, match="residual nan exceeds"):
        expression_to_accessible(parse_operator_expression("(aH)(bV)(aV + bH)"))


def vectors_expression(vectors):
    """Operator product whose factor k has coefficient vectors[k, p, i] on
    polarization "HV"[p] of hidden mode m<i>."""
    return CreationOperatorExpression(tuple(
        tuple(Term(complex(c), "HV"[p], f"m{i}") for (p, i), c in np.ndenumerate(v))
        for v in vectors))


def ryser_permanent(a):
    """perm A = (-1)^n sum over column subsets S of (-1)^|S| prod_i sum_{j in S} A_ij."""
    n = len(a)
    subsets = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    signs = (-1.0) ** (n - subsets.sum(axis=1))
    return signs @ (subsets @ a.T).prod(axis=1)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_expression_to_accessible_is_polarization_equivariant(n):
    # rotating every photon's polarization by w rotates block j by R_j(w)
    rng = np.random.default_rng(1300 + n)
    vectors = rng.normal(size=(n, 2, 3)) + 1j * rng.normal(size=(n, 2, 3))
    w = haar_unitary(rng, 2)
    rho = expression_to_accessible(vectors_expression(vectors))
    rotated = expression_to_accessible(vectors_expression(w @ vectors))
    for two_j in occurring_two_j(n):
        r = sector_rotation(w, n, two_j)
        np.testing.assert_allclose(rotated.blocks[two_j], r @ rho.blocks[two_j] @ r.conj().T,
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_expression_to_accessible_is_hidden_unitary_invariant(n):
    # a unitary on the hidden modes alone leaves the accessible blocks alone
    rng = np.random.default_rng(1400 + n)
    vectors = rng.normal(size=(n, 2, 3)) + 1j * rng.normal(size=(n, 2, 3))
    mixed = vectors @ haar_unitary(rng, 3).T
    assert expression_to_accessible(vectors_expression(mixed)).allclose(
        expression_to_accessible(vectors_expression(vectors)), atol=1e-13)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_symmetric_population_of_distinct_modes_is_a_permanent(n):
    # photon k with unit polarization p_k alone in hidden mode k: the
    # symmetric population is perm(G) / n! with G_kl = <p_k|p_l>
    rng = np.random.default_rng(1500 + n)
    p = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    vectors = np.zeros((n, 2, n), dtype=complex)
    vectors[np.arange(n), :, np.arange(n)] = p
    expected = ryser_permanent(p.conj() @ p.T).real / math.factorial(n)
    s = expression_to_accessible(vectors_expression(vectors)).symmetric_population()
    assert s == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_photons_in_one_hidden_mode_are_a_symmetric_basis_state(n):
    # (aH)^k (aV)^(n-k), every photon in hidden mode a: the j = n/2 block is
    # e_r e_r^T with r = n - k, the number of V photons, every other block
    # is zero, and s = P = 1
    for k in range(n + 1):
        rho = expression_to_accessible(parse_operator_expression("(aH)" * k + "(aV)" * (n - k)))
        for two_j, block in rho.blocks.items():
            expected = np.zeros((two_j + 1, two_j + 1))
            if two_j == n:
                expected[n - k, n - k] = 1.0
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-12)
        assert rho.symmetric_population() == pytest.approx(1.0, rel=0, abs=1e-12)
        assert rho.purity() == pytest.approx(1.0, rel=0, abs=1e-12)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_photons_in_distinct_hidden_modes_fill_every_block(n):
    # k V photons and n - k H photons, each in a hidden mode of its own: the
    # polarization is the uniform mixture of the C(n, k) strings with k V's,
    # so every block with 2j >= |n - 2k| is 1/C(n, k) at row r = k - (n -
    # 2j)/2, the number of V's in the block, and every other entry is zero
    for k in range(n + 1):
        rho = expression_to_accessible(parse_operator_expression(
            "".join(f"(m{i}{'V' if i < k else 'H'})" for i in range(n))))
        for two_j, block in rho.blocks.items():
            expected = np.zeros((two_j + 1, two_j + 1))
            if two_j >= abs(n - 2 * k):
                r = k - (n - two_j) // 2
                expected[r, r] = 1 / math.comb(n, k)
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-13)


def test_analyze_keeps_its_per_n_tables_on_the_layout():
    # the layout is the one per-N cache besides the dense oracle's, and the
    # permanent's tables live on it
    assert [name for name, value in vars(states).items()
            if hasattr(value, "cache_info")] == ["schur_basis"]
    layout = _layout(3)
    assert layout.glynn_signs is layout.glynn_signs
    assert layout.predecessors[0] is _layout(2).predecessors[0]
    assert [table.shape for table in layout.predecessors] == [(10, 4), (20, 4)]


def test_analyze_peak_is_a_bounded_chunk():
    # Glynn's sum runs a chunk of sign vectors at a time: the golden
    # corpus's ten photons, each in its own hidden mode, need at most 3 MB
    # once the layout is built
    expr = parse_expression_file(
        (Path(__file__).parent / "golden" / "inputs" / "ten.expr").read_text())
    expression_to_accessible(expr)
    tracemalloc.start()
    try:
        expression_to_accessible(expr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


@pytest.mark.parametrize("n", [8, 9, 10])
def test_analyze_does_not_depend_on_the_chunk_length(monkeypatch, n):
    # one sign vector per chunk, then chunks that leave a partial last one
    rng = np.random.default_rng(1700 + n)
    expr = vectors_expression(rng.normal(size=(n, 2, n)) + 1j * rng.normal(size=(n, 2, n)))
    layout = _layout(n)
    default = expression_to_accessible(expr).stack
    assert layout.signs_per_chunk < 2 ** (n - 1)
    budget, sizes = schur.WORK_BYTES, []
    for patched in (1, budget // 5):
        monkeypatch.setattr(schur, "WORK_BYTES", patched)
        sizes.append(layout.signs_per_chunk)
        stack = expression_to_accessible(expr).stack
        assert np.abs(stack - default).max() <= 1e-13 * np.abs(default).max()
    assert sizes[0] == 1 and 2 ** (n - 1) % sizes[1]


def table_free_rotation(u, n, two_j):
    """R_j(u) = det(u)^m Sym^k(u), k = 2j, m = (n - k)/2, without the
    layout's table: column r of Sym^k multiplies in one linear form per
    degree, u00 + u10 x for each of the k - r H's of |r> and u01 + u11 x for
    each of its r V's, and row r' reads the coefficient of x^r', scaled by
    sqrt(C(k, r) / C(k, r')).  Rows and columns count V's."""
    sym = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    for r in range(two_j + 1):
        poly = np.ones(1, dtype=complex)
        for form in [u[:, 0]] * (two_j - r) + [u[:, 1]] * r:
            poly = np.convolve(poly, form)
        sym[:, r] = poly
    binom = np.array([math.comb(two_j, r) for r in range(two_j + 1)])
    return np.linalg.det(u) ** ((n - two_j) // 2) * sym * np.sqrt(binom / binom[:, None])


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_blocks_give_the_permanent_without_the_table(n):
    # sum_j mult_j tr(rho_j R_j(u)) = perm M(u) / perm G at a non-unitary
    # u, M_kl(u) = <v_k|u (x) 1|v_l> and G = M(1), with R_j(u) built
    # independently of the table that analyze inverts
    rng = np.random.default_rng(1600 + n)
    vectors = rng.normal(size=(n, 2, 3)) + 1j * rng.normal(size=(n, 2, 3))
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = expression_to_accessible(vectors_expression(vectors))
    value = sum(su2_multiplicity(n, tj) * np.trace(block @ table_free_rotation(u, n, tj))
                for tj, block in rho.blocks.items())
    overlap = np.einsum("kpi,pq,lqi->kl", vectors.conj(), u, vectors)
    gram = np.einsum("kpi,lpi->kl", vectors.conj(), vectors)
    expected = ryser_permanent(overlap) / ryser_permanent(gram)
    assert abs(value - expected) <= 1e-10 * abs(expected)


def kron_power(a, n):
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.kron(out, a)
    return out


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_coefficient_map_matches_dense_expectation(n):
    # the polynomial with the table's coefficients of a random Hermitian
    # family, evaluated at a non-unitary A, is tr(rho A^(x)n) of the dense
    # operator
    rng = np.random.default_rng(900 + n)
    layout = _layout(n)
    blocks = layout.blocks(rng.normal(size=math.comb(n + 3, 3)))
    # entry (s, r', r) of the stack is mult_j rho_j[r, r']
    stack = layout.pad(blocks).swapaxes(-1, -2) * layout.mult[:, None, None]
    coefficients = layout.table @ stack[layout.in_block]
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    monomials = np.prod(a.reshape(4) ** layout.monomials, axis=1)
    np.testing.assert_allclose(layout.monomial_values(a), monomials, rtol=1e-14, atol=0)
    value = coefficients @ monomials
    # tr(X Y) = sum_ab X_ab Y_ba
    expected = (full_matrix(n, blocks) * kron_power(a, n).T).sum()
    np.testing.assert_allclose(value, expected, rtol=1e-10, atol=0)


def test_coefficient_map_is_well_conditioned():
    for n in range(1, N_MAX + 1):
        table, inverse = _layout(n).table, _layout(n).inverse
        assert table.shape == (math.comb(n + 3, 3),) * 2
        np.testing.assert_allclose(inverse @ table, np.eye(len(table)), rtol=0, atol=1e-12)
        # each row scaled to unit maximum
        assert np.linalg.cond(table / np.abs(table).max(axis=1, keepdims=True)) <= 50


# ---------------------------------------------------------------------------
# Twirl / accessible projection
# ---------------------------------------------------------------------------

def test_projection_idempotent_on_accessible_input():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        rho = random_accessible_state(n, rng)
        again = accessible_projection(full_matrix(n, rho.blocks))
        assert rho.allclose(again, atol=1e-10)


def test_projection_of_hv_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0  # |HV><HV|
    acc = accessible_projection(rho)
    np.testing.assert_allclose(acc.blocks[2], np.diag([0, 0.5, 0]), atol=1e-12)
    np.testing.assert_allclose(acc.blocks[0], [[0.5]], atol=1e-12)
    oracle = brute_force_twirl(rho, 2)
    np.testing.assert_allclose(full_matrix(2, acc.blocks), oracle, atol=1e-12)


def test_projection_fixes_maximally_mixed():
    for n in (2, 3, 4):
        dim = 2 ** n
        acc = accessible_projection(np.eye(dim, dtype=complex) / dim)
        for two_j, block in acc.blocks.items():
            np.testing.assert_allclose(block, np.eye(two_j + 1) / dim, atol=1e-12)


def test_projection_methods_agree_on_random_states():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        for _ in range(5):
            a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
            rho = a @ a.conj().T
            rho /= rho.trace().real
            via_schur = accessible_projection(rho)
            via_average = accessible_projection(brute_force_twirl(rho, n))
            assert via_schur.allclose(via_average, atol=1e-10)


def test_projection_rejects_non_hermitian_and_bad_trace():
    bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    bad = np.kron(bad, np.eye(2) / 2)
    with pytest.raises(ValueError, match="Hermitian"):
        accessible_projection(bad)
    with pytest.raises(ValueError, match="trace"):
        accessible_projection(np.eye(4, dtype=complex))


def test_projection_preserves_trace_and_positivity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        dim = 2 ** n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        rho /= rho.trace().real
        acc = accessible_projection(rho)
        total = sum(su2_multiplicity(n, tj) * b.trace().real
                    for tj, b in acc.blocks.items())
        assert abs(total - 1.0) < 1e-10
        for block in acc.blocks.values():
            assert np.linalg.eigvalsh(block).min() >= -1e-10


# ---------------------------------------------------------------------------
# Coupled coefficients: C^j[m, m'] couples visible weight m of sector j to
# hidden partner m', with the squared amplitudes summing to 1
# ---------------------------------------------------------------------------

def coupled_reference_state(n, tables):
    """Explicit totally symmetric state realizing the coupled amplitudes.

    Hidden modes are a pair of labels u, v forming a second qubit per
    particle; the hidden partner index selects among the hidden copies of
    sector j, realized here by hidden weight sectors (valid when the
    multiplicity does not exceed 2j+1, which holds for n = 3).
    """
    basis = schur_basis(n)
    amps = {}
    for two_j, table in tables.items():
        mult = su2_multiplicity(n, two_j)
        assert table.shape[1] <= two_j + 1, "hidden qubit realization too small"
        for mi in range(two_j + 1):
            for col in range(table.shape[1]):
                c = table[mi, col]
                if abs(c) < 1e-15:
                    continue
                for mu in range(1, mult + 1):
                    vis = basis.vectors[basis.row_index(two_j, mu, two_j - 2 * mi)]
                    hid = basis.vectors[basis.row_index(two_j, mu, two_j - 2 * col)]
                    for vi in np.nonzero(np.abs(vis.amplitudes) > 1e-15)[0]:
                        for hi in np.nonzero(np.abs(hid.amplitudes) > 1e-15)[0]:
                            key = tuple(
                                ("H" if (vi >> (n - 1 - slot)) & 1 == 0 else "V",
                                 "u" if (hi >> (n - 1 - slot)) & 1 == 0 else "v")
                                for slot in range(n))
                            amps[key] = amps.get(key, 0) + (
                                c / math.sqrt(mult)
                                * vis.amplitudes[vi] * hid.amplitudes[hi])
    return FirstQuantizedState(n, amps)


def test_coupled_pure_hh_block():
    tables = {2: np.array([[1.0], [0.0], [0.0]], dtype=complex),
              0: np.zeros((1, 1), dtype=complex)}
    acc = trace_hidden(coupled_reference_state(2, tables))
    np.testing.assert_allclose(acc.blocks[2], np.diag([1.0, 0, 0]), atol=1e-12)
    np.testing.assert_allclose(acc.blocks[0], [[0.0]], atol=1e-12)


def test_coupled_pure_singlet():
    tables = {2: np.zeros((3, 1), dtype=complex),
              0: np.array([[1.0]], dtype=complex)}
    acc = trace_hidden(coupled_reference_state(2, tables))
    np.testing.assert_allclose(acc.blocks[0], [[1.0]], atol=1e-12)


def test_coupled_matches_explicit_construction():
    # tracing out the hidden partners leaves block j = C^j C^j^dag / mult_j
    rng = np.random.default_rng(17)
    for _ in range(5):
        tables = {}
        total = 0.0
        for two_j in occurring_two_j(3):
            shape = (two_j + 1, su2_multiplicity(3, two_j))
            t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            tables[two_j] = t
            total += float(np.sum(np.abs(t) ** 2))
        tables = {tj: t / math.sqrt(total) for tj, t in tables.items()}
        closed_form = AccessibleDensityMatrix(3, {
            tj: t @ t.conj().T / su2_multiplicity(3, tj) for tj, t in tables.items()})
        via_trace = trace_hidden(coupled_reference_state(3, tables))
        assert closed_form.allclose(via_trace, atol=1e-10)


# ---------------------------------------------------------------------------
# Accessible density matrix container
# ---------------------------------------------------------------------------

def test_adm_validation_catches_bad_norm():
    blocks = {2: np.eye(3, dtype=complex), 0: np.eye(1, dtype=complex)}
    with pytest.raises(ValueError, match="trace"):
        AccessibleDensityMatrix(2, blocks)


def test_adm_validation_catches_negative_block():
    blocks = {2: np.diag([1.5, 0, -0.5]).astype(complex),
              0: np.zeros((1, 1), dtype=complex)}
    with pytest.raises(ValueError, match="negative eigenvalue"):
        AccessibleDensityMatrix(2, blocks)


@pytest.mark.parametrize("n, two_j", [(3, 1), (4, 0)])
@pytest.mark.parametrize("fault, message", [
    pytest.param("non-finite", "has non-finite entries", id="non-finite"),
    pytest.param("non-Hermitian", "is not Hermitian", id="non-Hermitian"),
    pytest.param("negative", "has negative eigenvalue", id="negative"),
    pytest.param("shape", "must be", id="shape"),
])
def test_adm_validation_names_the_failing_sector(n, two_j, fault, message):
    # the faulty block is not the first sector, so a check that always
    # named sector 0 would fail here
    blocks = {tj: b.copy() for tj, b in AccessibleDensityMatrix.maximally_mixed(n).blocks.items()}
    bad = blocks[two_j]
    if fault == "non-finite":
        bad[0, 0] = np.nan
    elif fault == "non-Hermitian":
        bad[-1, 0] += 1e-3j
    elif fault == "negative":
        blocks[two_j] = -bad
    else:
        blocks[two_j] = np.zeros((two_j + 2, two_j + 2), dtype=complex)
    with pytest.raises(ValueError, match=f"block for two_j={two_j} {message}"):
        AccessibleDensityMatrix(n, blocks)


def test_adm_accepts_nested_lists():
    # a block is read as an array, as the layout's padding reads it
    rho = AccessibleDensityMatrix(1, {1: [[1, 0], [0, 0]]})
    assert rho.allclose(AccessibleDensityMatrix(1, {1: np.diag([1.0, 0.0])}), atol=0)
    with pytest.raises(ValueError, match="block for two_j=0 must be 1x1"):
        AccessibleDensityMatrix(2, {2: np.eye(3).tolist(), 0: [[0.0, 0.0]]})


def test_adm_owns_its_data():
    block = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    blocks = {1: block}
    rho = AccessibleDensityMatrix(1, blocks)
    blocks[1] = np.zeros((2, 2), dtype=complex)
    np.testing.assert_array_equal(rho.blocks[1], block)
    np.testing.assert_array_equal(rho.stack, block[None])
    assert rho.symmetric_population() == 1.0
    # the caller's array stays writeable; the state's arrays and view do not
    assert block.flags.writeable
    assert not rho.stack.flags.writeable
    assert not rho.blocks[1].flags.writeable
    with pytest.raises(TypeError):
        rho.blocks[1] = block
    # a state equals only itself; allclose compares values
    twin = AccessibleDensityMatrix(1, {1: block})
    assert rho == rho and rho != twin and rho.allclose(twin, atol=0)
    assert len({rho, twin}) == 2


def test_scalar_summaries_are_python_floats():
    # the report's fields hold them; an np.float64 there reprs as
    # np.float64(0.5)
    rho = AccessibleDensityMatrix.maximally_mixed(3)
    assert type(rho.symmetric_population()) is float
    assert type(rho.purity()) is float


def test_adm_pickle_round_trip():
    rho = random_accessible_state(4, np.random.default_rng(2))
    back = pickle.loads(pickle.dumps(rho))
    np.testing.assert_array_equal(back.stack, rho.stack)
    assert not back.blocks[2].flags.writeable


def test_adm_param_count():
    rng = np.random.default_rng(1)
    assert random_accessible_state(3, rng).param_count == 20


def test_full_matrix_round_trip():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        rho = random_accessible_state(n, rng)
        back = accessible_projection(full_matrix(n, rho.blocks))
        assert rho.allclose(back, atol=1e-10)
