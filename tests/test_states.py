import math

import numpy as np
import pytest

from accdm import states
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
    with pytest.raises(ValueError, match=f"cap is {N_MAX}"):
        expression_to_accessible(parse_operator_expression("(aH)" * (N_MAX + 1)))


def test_expression_to_accessible_rejects_inconsistent_fit(monkeypatch):
    # permanents that no accessible state produces leave a residual
    rng = np.random.default_rng(0)
    monkeypatch.setattr(states, "_permanents",
                        lambda mats: rng.normal(size=len(mats)) + 2.0)
    with pytest.raises(ValueError, match="residual"):
        expression_to_accessible(parse_operator_expression("(aH)(bV)(aV + bH)"))


def test_expression_to_accessible_rejects_nan_fit(monkeypatch):
    # a NaN residual is not below the tolerance
    monkeypatch.setattr(states, "_permanents",
                        lambda mats: np.r_[1.0, np.full(len(mats) - 1, np.nan)] + 0j)
    with pytest.raises(ValueError, match="residual nan exceeds"):
        expression_to_accessible(parse_operator_expression("(aH)(bV)(aV + bH)"))


def row_major_probe_design(n, probes):
    """The earlier complex design over the blocks flattened row-major:
    column (j, a, b) holds mult_j R_j(A_i)[b, a]."""
    return np.hstack([
        su2_multiplicity(n, two_j)
        * sector_rotation(probes, n, two_j).transpose(0, 2, 1).reshape(len(probes), -1)
        for two_j in occurring_two_j(n)])


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_probe_design_matches_row_major_oracle(n):
    # column i of the design is the oracle applied to the row-major
    # flattening of the unit block family layout.stack(e_i), real parts
    # stacked over imaginary parts
    probes, design, _ = states._probe_design(n)
    layout = _layout(n)
    count = design.shape[1]
    units = np.array([np.concatenate([b.ravel() for b in layout.blocks(e).values()])
                      for e in np.eye(count)]).T
    expectations = row_major_probe_design(n, probes) @ units
    assert design.shape == (2 * len(probes), count)
    np.testing.assert_allclose(design, np.vstack([expectations.real, expectations.imag]),
                               rtol=0, atol=1e-12)


def test_probe_design_is_well_conditioned():
    for n in range(1, N_MAX + 1):
        _, design, _ = states._probe_design(n)
        assert np.linalg.cond(design) < 1e3


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


def test_adm_param_count():
    rng = np.random.default_rng(1)
    assert random_accessible_state(3, rng).param_count == 20


def test_full_matrix_round_trip():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        rho = random_accessible_state(n, rng)
        back = accessible_projection(full_matrix(n, rho.blocks))
        assert rho.allclose(back, atol=1e-10)
