"""Creation-operator product expressions with hidden-mode labels.

Grammar (whitespace insignificant)::

    expression := factor+
    factor     := '(' term (('+'|'-') term)* ')'
    term       := [coef '*'] modeId pol
    pol        := 'H' | 'V'
    coef       := decimal | 'i' | decimal 'i' | 'exp(i*' rational '*pi)'
                | named constant

Mode-definition lines, ``modeId = coef*modeId (+ coef*modeId)*``, declare a
derived mode as a unit-norm combination of primitive modes.  Constant
definitions, ``name = coef``, declare named coefficients.  Any identifier
never defined as derived is a primitive mode; primitive modes are mutually
orthonormal by convention.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

NORM_TOL = 1e-12


class ParseError(ValueError):
    """Syntax or semantic error, carrying the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Term:
    coefficient: complex
    polarization: str
    mode: str


@dataclass(frozen=True)
class CreationOperatorExpression:
    """Product of factors, each a sum of single-operator terms."""

    factors: tuple[tuple[Term, ...], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("expression must have at least one factor")
        if any(len(f) == 0 for f in self.factors):
            raise ValueError("every factor must have at least one term")

    @property
    def n(self) -> int:
        return len(self.factors)


@dataclass
class Definitions:
    """Named constants and derived-mode expansions over primitive modes."""

    constants: dict[str, complex] = field(default_factory=dict)
    modes: dict[str, dict[str, complex]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# ASCII digits only: float() would also read other scripts' digits
_TOKEN = re.compile(r"([0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)|(\w+)|([()+\-*/=])|(\S)")


class _Token(NamedTuple):
    kind: str   # one of "()+-*/=", 'number', 'ident', 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        number, ident, punct, other = match.groups()
        # an identifier starts with a letter or '_'
        if other or ident and not (ident[0].isalpha() or ident[0] == "_"):
            raise ParseError(f"unexpected character {match[0][0]!r}", match.start())
        tokens.append(_Token("number" if number else punct or "ident", match[0],
                             match.start()))
    # two end tokens, so that peek(1) needs no bounds check: next() never
    # moves past the first
    tokens += [_Token("end", "", len(text))] * 2
    return tokens


def _check_polarized(tok: _Token) -> None:
    if len(tok.text) < 2 or tok.text[-1] not in "HV":
        raise ParseError(
            f"expected modeId followed by polarization H or V, found {tok.text!r}",
            tok.pos)


class _Parser:
    def __init__(self, text: str, definitions: Definitions):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.definitions = definitions

    def primitives(self, mode: str) -> dict[str, complex]:
        """A derived mode's expansion over primitive modes; ``{mode: 1}`` for
        any other mode."""
        return self.definitions.modes.get(mode, {mode: 1.0 + 0.0j})

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.pos)
        return self.next()

    # -- coefficients -------------------------------------------------------

    def starts_coefficient(self) -> bool:
        tok = self.peek()
        if tok.kind == "number":
            return True
        if tok.kind == "ident":
            if tok.text in ("i", "exp"):
                return True
            return self.peek(1).kind == "*"
        return False

    def parse_coefficient(self) -> complex:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            value = float(tok.text)
            nxt = self.peek()
            if nxt.kind == "ident" and nxt.text == "i":
                self.next()
                return value * 1j
            return complex(value)
        if tok.kind == "ident" and tok.text == "i":
            self.next()
            return 1j
        if tok.kind == "ident" and tok.text == "exp":
            return self._parse_exp()
        if tok.kind == "ident":
            self.next()
            if tok.text not in self.definitions.constants:
                raise ParseError(f"unknown constant {tok.text!r}", tok.pos)
            return self.definitions.constants[tok.text]
        raise ParseError(f"expected a coefficient, found {tok.text!r}", tok.pos)

    def _parse_exp(self) -> complex:
        self.expect("ident")          # 'exp'
        self.expect("(")
        unit = self.expect("ident")
        if unit.text != "i":
            raise ParseError("expected 'i' inside exp(...)", unit.pos)
        self.expect("*")
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        num = self.expect("number")
        numerator = sign * float(num.text)
        denominator = 1.0
        if self.peek().kind == "/":
            self.next()
            tok = self.expect("number")
            denominator = float(tok.text)
            if denominator == 0:
                raise ParseError("division by zero in exp(...)", tok.pos)
        self.expect("*")
        pi_tok = self.expect("ident")
        if pi_tok.text != "pi":
            raise ParseError("expected 'pi' inside exp(...)", pi_tok.pos)
        self.expect(")")
        phase = 1j * cmath.pi * numerator / denominator
        # cmath.exp raises for some non-finite phases; parse_factor refuses NaN
        return cmath.exp(phase) if cmath.isfinite(phase) else complex(math.nan, math.nan)

    # -- terms and factors --------------------------------------------------

    def signed_terms(self, check=lambda tok: None) -> list[tuple[complex, _Token]]:
        """``[sign] [coef '*'] ident (('+'|'-') [coef '*'] ident)*``: each
        identifier, passed to ``check`` as it is read, with its signed
        coefficient."""
        terms = []
        sign = self.next().kind if self.peek().kind in "+-" else "+"
        while True:
            coef = complex(-1 if sign == "-" else 1)
            if self.starts_coefficient():
                coef *= self.parse_coefficient()
                self.expect("*")
            ident = self.expect("ident")
            check(ident)
            terms.append((coef, ident))
            if self.peek().kind not in "+-":
                return terms
            sign = self.next().kind

    def parse_factor(self) -> tuple[Term, ...]:
        """One factor; derived modes expanded, primitive ones kept as read."""
        self.expect("(")
        terms = []
        for coef, tok in self.signed_terms(_check_polarized):
            mode = tok.text[:-1]
            for prim, gamma in self.primitives(mode).items():
                value = coef if prim == mode else coef * gamma
                if not cmath.isfinite(value):
                    raise ParseError(f"coefficient of {tok.text!r} is not finite", tok.pos)
                terms.append(Term(value, tok.text[-1], prim))
        self.expect(")")
        return tuple(terms)

    def parse_expression(self) -> tuple[tuple[Term, ...], ...]:
        factors = [self.parse_factor()]
        while self.peek().kind == "(":
            factors.append(self.parse_factor())
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return tuple(factors)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def parse_operator_expression(
    text: str,
    definitions: Definitions | None = None,
) -> CreationOperatorExpression:
    """Parse an expression, each derived mode expanded as it is read."""
    parser = _Parser(text, definitions or Definitions())
    return CreationOperatorExpression(parser.parse_expression())


def parse_definition_line(line: str, definitions: Definitions) -> None:
    """Parse one ``name = ...`` line, updating ``definitions`` in place.

    The right-hand side is first tried as a lone coefficient (constant
    definition); anything else is a derived-mode combination whose
    coefficient vector must have unit norm.
    """
    eq = line.index("=")
    name = line[:eq].strip()
    if not name.isidentifier():
        raise ParseError(f"invalid definition name {name!r}", 0)
    rhs = line[eq + 1:]

    parser = _Parser(rhs, definitions)
    try:
        value = parser.parse_coefficient()
        if parser.peek().kind == "end":
            definitions.constants[name] = value
            return
    except ParseError:
        pass

    parser = _Parser(rhs, definitions)
    terms = parser.signed_terms()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"expected '+', '-' or end of line, found {tok.text!r}",
                         tok.pos)
    combo: dict[str, complex] = {}
    for coef, ident in terms:
        combo[ident.text] = combo.get(ident.text, 0) + coef
    resolved: dict[str, complex] = {}
    for ident, coef in combo.items():
        if ident == name:
            raise ParseError(f"mode {name!r} defined in terms of itself", eq + 1)
        for prim, gamma in parser.primitives(ident).items():
            resolved[prim] = resolved.get(prim, 0) + coef * gamma
    # hypot of the parts neither overflows, as a sum of squares does, nor
    # raises, as abs() of a complex can for a NaN
    norm = math.hypot(*(x for v in resolved.values() for x in (v.real, v.imag)))
    if not abs(norm * norm - 1.0) <= NORM_TOL:
        raise ParseError(
            f"derived mode {name!r} has norm {norm:.12g}, expected 1", eq + 1)
    definitions.modes[name] = resolved


def parse_expression_file(text: str) -> CreationOperatorExpression:
    """Parse a full expression file: definition lines, then the expression.

    Lines containing '=' are definitions (constants or derived modes);
    '#' starts a comment; remaining lines are joined into the expression.
    """
    definitions = Definitions()
    expression_parts: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            parse_definition_line(line, definitions)
        else:
            expression_parts.append(line)
    body = " ".join(expression_parts)
    if not body:
        raise ParseError("no expression found in input", 0)
    return parse_operator_expression(body, definitions)
