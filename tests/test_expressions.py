import cmath

import numpy as np
import pytest

from accdm.expressions import (
    CreationOperatorExpression,
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


# 1.0000000000004 is unit norm within MODE_NORM_TOL, and the largest float
# times it overflows only when the derived mode is expanded
NON_FINITE_COEFFICIENTS = {
    "infinite": ("(1e400*aH)(aV)", 7),
    "nan-phase": ("(exp(i*1e400*pi)*aH)", 17),
    "overflowing-phase": ("(exp(i*1e300/1e-300*pi)*aH)", 24),
    "infinite-constant": ("x = 1e400\n(aV)(x*aH)", 17),
    "overflowing-expansion": ("c = 1.0000000000004*a\n(1.7976931348623157e308*cH)", 46),
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


@pytest.mark.parametrize("text", [
    "c = 0.6*a + 0.8*b\nc = 1.0*b\n(cH)\n",
    "k = 2\nk = 3\n(k*aH)\n",
    "k = 2\nk = 1.0*a\n(kH)\n",
    "c = 1.0*a\nc = 2\n(cH)\n",
], ids=["mode", "constant", "constant-then-mode", "mode-then-constant"])
def test_redefinition_rejected(text):
    # the second definition would silently replace the first
    name = text[0]
    with pytest.raises(ParseError, match=f"redefinition of '{name}'") as err:
        parse_expression_file(text)
    assert (err.value.line, err.value.column) == (2, 1)


@pytest.mark.parametrize("text, through", [
    ("d = 1.0*e\ne = 1.0*d\n(dH)\n", "d"),
    ("d = 0.6*e + 0.8*f\ng = 1.0*d\n  e = 0.6*a + 0.8*g\n(eH)\n", "g"),
], ids=["two-modes", "three-modes"])
def test_definition_cycle_rejected(text, through):
    with pytest.raises(ParseError, match=f"'e' defined in terms of itself through "
                                         f"'{through}'") as err:
        parse_expression_file(text)
    assert text[err.value.position] == "e"
    assert err.value.column == text.split("\n")[err.value.line - 1].index("e") + 1


@pytest.mark.parametrize("text", [
    "d = 0.6*e + 0.8*f\ne = 1.0*g\n(dH)(eV)\n",
    "d = 0.6*e + 0.8*f\ne = 2\n(dH)\n",
], ids=["mode", "constant"])
def test_primitive_mode_of_a_definition_cannot_be_defined_later(text):
    # (dH)(eV) would read e as a primitive mode in one factor and as g in
    # the other
    with pytest.raises(ParseError, match="'e' is already a primitive mode of 'd'") as err:
        parse_expression_file(text)
    assert (err.value.line, err.value.column) == (2, 1)


@pytest.mark.parametrize("text, line, column", [
    ("k = 0.5\n(kV)(aH)\n", 2, 2),
    ("k = 0.5\nc = 0.6*k + 0.8*b\n(cH)\n", 2, 9),
    ("(aH)\n  (bV)(kV)\nk = 0.5\n", 2, 8),
], ids=["factor", "derived-mode", "body-above-the-constant"])
def test_a_constant_is_not_a_mode(text, line, column):
    # one namespace: k would be a coefficient in one place and a primitive
    # hidden mode in another
    with pytest.raises(ParseError, match="'k' is a constant, not a mode") as err:
        parse_expression_file(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_a_constant_may_be_defined_by_a_constant():
    defs = Definitions()
    parse_definition_line("q = 0.6", defs)
    parse_definition_line("k = q", defs)
    assert defs.constants == {"q": 0.6, "k": 0.6} and defs.modes == {}


# definitions above a body spread over several lines: positions, lines and
# columns count in the file
MULTILINE_ERRORS = {
    "non-finite": ("x = 1e400  # too large\nc = 0.6*a + 0.8*b\n(aH)\n  (bV)(x*cH)\n",
                   "is not finite", "cH", 4, 10),
    "unknown-constant": ("c = 0.6*a + 0.8*b\n\n(aH)(bV)\n(k*cH)\n", "unknown constant",
                         "k", 4, 2),
    "bad-character": ("c = 0.6*a + 0.8*b\r\n(aH)\r\n(bV)(cH) $\r\n", "unexpected character",
                      "$", 3, 10),
    "trailing-input": ("(aH)\nc = 0.6*a + 0.8*b\n(cV))\n", "trailing input", ")\n", 3, 5),
    "in-definition": ("(aH)\n# modes\nc = 0.6*a + 0.8*b +\n", "expected 'ident'",
                      "\n", 3, 20),
}


@pytest.mark.parametrize("text, message, at, line, column", MULTILINE_ERRORS.values(),
                         ids=MULTILINE_ERRORS.keys())
def test_error_positions_count_in_the_file(text, message, at, line, column):
    with pytest.raises(ParseError, match=message) as err:
        parse_expression_file(text)
    assert (err.value.line, err.value.column) == (line, column)
    line_start = sum(len(x) for x in text.splitlines(keepends=True)[:line - 1])
    assert err.value.position == line_start + column - 1
    assert text.startswith(at, err.value.position)
    assert f"(at position {err.value.position}, line {line}, column {column})" in str(err.value)


def test_unclosed_factor_on_a_later_line_reports_its_end():
    text = "c = 0.6*a + 0.8*b\n(aH)\n(bV\n\n# done\n"
    with pytest.raises(ParseError, match="expected '\\)'") as err:
        parse_expression_file(text)
    assert (err.value.position, err.value.line, err.value.column) == (26, 3, 4)


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


def test_constant_takes_one_leading_sign():
    defs = Definitions()
    for line in ("k = -0.5", "m = -i", "p = +2i"):
        parse_definition_line(line, defs)
    assert defs.constants == {"k": -0.5, "m": -1j, "p": 2j}
    expr = parse_operator_expression("(k*aH + m*aV + p*bH)", defs)
    assert [t.coefficient for t in expr.factors[0]] == [-0.5, -1j, 2j]
    for line in ("k = --0.5", "k = -+0.5", "k = -"):
        with pytest.raises(ParseError, match="expected 'ident'"):
            parse_definition_line(line, Definitions())


@pytest.mark.parametrize("build, error, message", [
    (lambda: parse_expression_file("(exp(j*1/2*pi)*aH)"), ParseError,
     r"expected 'i' inside exp\(\.\.\.\)"),
    (lambda: parse_expression_file("(exp(i*1/2*p)*aH)"), ParseError,
     r"expected 'pi' inside exp\(\.\.\.\)"),
    (lambda: parse_expression_file("2k = 0.5\n(aH)"), ParseError,
     "invalid definition name '2k'"),
    (lambda: parse_expression_file("c = 0.6*a + 0.8*b )\n(cH)"), ParseError,
     r"expected '\+', '-' or end of line, found '\)'"),
    (lambda: CreationOperatorExpression(()), ValueError,
     "at least one factor"),
    (lambda: CreationOperatorExpression(((),)), ValueError,
     "every factor must have at least one term"),
], ids=["exp-unit", "exp-pi", "definition-name", "definition-tail",
        "no-factor", "empty-factor"])
def test_input_checks_name_their_cause(build, error, message):
    with pytest.raises(error, match=message):
        build()
