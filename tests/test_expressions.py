import cmath

import numpy as np
import pytest

from accdm.expressions import (
    Definitions,
    ParseError,
    Term,
    parse_definition_line,
    parse_expression_file,
    parse_operator_expression,
)

from conftest import HALF_OVERLAP_TEXT


def test_single_factor_two_terms():
    expr = parse_operator_expression("(aH + aV)")
    assert expr.n == 1
    assert len(expr.factors[0]) == 2
    t1, t2 = expr.factors[0]
    assert (t1.coefficient, t1.polarization, t1.mode) == (1, "H", "a")
    assert (t2.coefficient, t2.polarization, t2.mode) == (1, "V", "a")


def test_unbalanced_parenthesis_reports_position():
    with pytest.raises(ParseError) as err:
        parse_operator_expression("(aH + aV")
    assert err.value.position == 8


def test_half_overlap_expression_structure():
    expr = parse_expression_file(HALF_OVERLAP_TEXT)
    assert expr.n == 3
    assert [len(f) for f in expr.factors] == [2, 2, 4]
    # third factor: derived mode c substituted by (a + b)/sqrt(2)
    modes = sorted({t.mode for t in expr.factors[2]})
    assert modes == ["a", "b"]
    w2 = cmath.exp(4j * cmath.pi / 3)
    for term in expr.factors[2]:
        expected = (1 if term.polarization == "H" else w2) / np.sqrt(2)
        assert abs(term.coefficient - expected) < 1e-12


def test_coefficient_forms():
    defs = Definitions(constants={"g": 2 - 1j})
    expr = parse_operator_expression(
        "(2*aH + 0.5i*aV - i*bH + exp(i*1/2*pi)*bV + g*cH)", defs)
    coefs = [t.coefficient for t in expr.factors[0]]
    assert coefs[0] == 2
    assert coefs[1] == 0.5j
    assert coefs[2] == -1j
    assert abs(coefs[3] - 1j) < 1e-15
    assert coefs[4] == 2 - 1j


def test_exp_with_negative_rational_and_integer():
    expr = parse_operator_expression("(exp(i*-1/2*pi)*aH + exp(i*1*pi)*aV)")
    c1, c2 = (t.coefficient for t in expr.factors[0])
    assert abs(c1 + 1j) < 1e-15
    assert abs(c2 + 1) < 1e-15


def test_unknown_constant_rejected():
    with pytest.raises(ParseError, match="unknown constant"):
        parse_operator_expression("(q*aH)")


def test_minus_separates_terms():
    expr = parse_operator_expression("(aH - aV)")
    assert expr.factors[0][1].coefficient == -1


def test_whitespace_insignificant():
    a = parse_operator_expression("(aH+aV)(aH-aV)")
    b = parse_operator_expression("( aH + aV ) ( aH - aV )")
    assert a == b


def test_mode_must_carry_polarization():
    with pytest.raises(ParseError):
        parse_operator_expression("(a)")
    with pytest.raises(ParseError):
        parse_operator_expression("(2*a)")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_operator_expression("(aH) extra")


def test_derived_mode_must_be_unit_norm():
    defs = Definitions()
    with pytest.raises(ParseError, match="norm"):
        parse_definition_line("c = 0.5*a + 0.5*b", defs)


@pytest.mark.parametrize("line", ["c = 1e200*a + b", "c = 1e400*a",
                                  "c = exp(i*1e400*pi)*a"],
                         ids=["overflowing-square", "infinite", "nan"])
def test_derived_mode_norm_that_is_not_finite_is_a_parse_error(line):
    with pytest.raises(ParseError, match="norm"):
        parse_definition_line(line, Definitions())


@pytest.mark.parametrize("text", ["(exp(i*1/0*pi)*aH)", "x = exp(i*1/0*pi)\n(x*aH)"],
                         ids=["in-expression", "in-definition"])
def test_phase_with_zero_denominator_is_a_parse_error(text):
    with pytest.raises(ParseError, match="division by zero"):
        parse_expression_file(text)


def test_constant_definition_then_mode_definition():
    defs = Definitions()
    parse_definition_line("half = 0.7071067811865476", defs)
    parse_definition_line("c = half*a + half*b", defs)
    assert abs(defs.modes["c"]["a"] - 0.7071067811865476) < 1e-15


def test_chained_mode_definitions_resolve_to_primitives():
    defs = Definitions()
    parse_definition_line("c = 0.7071067811865476*a + 0.7071067811865476*b", defs)
    parse_definition_line("d = 0.7071067811865476*c + 0.7071067811865476*e", defs)
    assert set(defs.modes["d"]) == {"a", "b", "e"}
    assert abs(defs.modes["d"]["a"] - 0.5) < 1e-12


def test_chain_of_derived_modes_expands_to_primitive_terms():
    # d = 0.6 c + 0.8 e = 0.36 a + 0.48 b + 0.8 e
    expr = parse_expression_file("c = 0.6*a + 0.8*b\nd = 0.6*c + 0.8*e\n(dH)(cV)\n")
    assert expr.factors == (
        (Term(0.6 * 0.6, "H", "a"), Term(0.6 * 0.8, "H", "b"), Term(0.8, "H", "e")),
        (Term(0.6, "V", "a"), Term(0.8, "V", "b")))


# 1.0000000000004 is unit norm within NORM_TOL, and the largest float times
# it overflows only when the derived mode is expanded
NON_FINITE_COEFFICIENTS = {
    "infinite": ("(1e400*aH)(aV)", 7),
    "nan-phase": ("(exp(i*1e400*pi)*aH)", 17),
    "overflowing-phase": ("(exp(i*1e300/1e-300*pi)*aH)", 24),
    "infinite-constant": ("x = 1e400\n(aV)(x*aH)", 7),
    "overflowing-expansion": ("c = 1.0000000000004*a\n(1.7976931348623157e308*cH)", 24),
}


@pytest.mark.parametrize("text, position", NON_FINITE_COEFFICIENTS.values(),
                         ids=NON_FINITE_COEFFICIENTS.keys())
def test_non_finite_coefficient_is_a_parse_error_with_position(text, position):
    with pytest.raises(ParseError, match="is not finite") as err:
        parse_expression_file(text)
    assert err.value.position == position


def test_self_referential_mode_rejected():
    defs = Definitions()
    with pytest.raises(ParseError, match="itself"):
        parse_definition_line("c = 1.0*c", defs)


def test_empty_file_rejected():
    with pytest.raises(ParseError, match="no expression"):
        parse_expression_file("# only a comment\n")


def test_expression_requires_at_least_one_factor():
    with pytest.raises(ParseError):
        parse_operator_expression("")


@pytest.mark.parametrize("text, position", [("(²*aH)", 1), ("(aH)(2²*aV)", 6),
                                            ("(٣*aH)", 1), ("(aH + ½V)", 6)],
                         ids=["superscript", "after-digit", "arabic-indic", "fraction"])
def test_non_ascii_digit_is_a_parse_error_with_position(text, position):
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_expression_file(text)
    assert err.value.position == position


def test_non_ascii_letters_still_name_modes():
    expr = parse_operator_expression("(αH + a²V)")
    assert [t.mode for t in expr.factors[0]] == ["α", "a²"]
