"""A small text language for rational maps.

Example source (files conventionally end in ``.rmap``)::

    dim 2;
    x' = x*(1-y)/(1-x);
    y' = y*(1-x)/(1-y);
    inv r = x*y;

Expressions use +, -, *, /, ^ (non-negative integer powers), parentheses,
integer and decimal literals, and the variables x, y, z up to the declared
dimension.  Decimal literals are read as exact rationals (0.5 -> 1/2).
Fractions may nest; each component is normalized at parse time to a single
numerator/denominator pair with a graded-lex-monic denominator.  Denominators
are cleared but never factored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .core import RationalMap
from .poly import Polynomial, format_polynomial

VARS = ("x", "y", "z")


@dataclass
class ParseDiagnostic(Exception):
    """Syntax error with position and the tokens that would have been legal."""

    offset: int
    line: int
    column: int
    message: str
    expected: Tuple[str, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        expect = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.line}:{self.column}: {self.message}{expect}"


class SemanticError(ValueError):
    """Well-formed source with an inconsistent meaning."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER IDENT PRIME EQ SEMI PLUS MINUS STAR SLASH CARET LPAREN RPAREN EOF
    text: str
    offset: int
    line: int
    column: int


_TOKEN = re.compile(
    r"(?P<NUMBER>\d+\.?\d*|\.\d+)|(?P<IDENT>[^\W\d]\w*)|(?P<PRIME>')|(?P<EQ>=)|(?P<SEMI>;)"
    r"|(?P<PLUS>\+)|(?P<MINUS>-)|(?P<STAR>\*)|(?P<SLASH>/)|(?P<CARET>\^)|(?P<LPAREN>\()|(?P<RPAREN>\))"
    r"|(?P<NEWLINE>\n)|(?P<SKIP>[^\S\n]+)|(?P<ERROR>.)"
)  # \d is a decimal digit of any script; another numeric character (², ½) starts a name


def _tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    line, start = 1, 0  # the line number and the offset where it starts
    for m in _TOKEN.finditer(text):
        kind, i = m.lastgroup, m.start()
        if kind == "NEWLINE":
            line, start = line + 1, i + 1
        elif kind == "ERROR":
            raise ParseDiagnostic(i, line, i - start + 1, f"unexpected character {m[0]!r}")
        elif kind != "SKIP":
            toks.append(Token(kind, m[0], i, line, i - start + 1))
    toks.append(Token("EOF", "", max(0, len(text) - 1), line, len(text) - start + 1))
    return toks


class _Rational:
    """Parse-time value: a pair of polynomials num/den over exact rationals."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        self.num = num
        self.den = den

    def __add__(self, o):
        return _Rational(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o):
        return _Rational(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, o):
        return _Rational(self.num * o.num, self.den * o.den)

    def __neg__(self):
        return _Rational(-self.num, self.den)

    def power(self, k: int):
        return _Rational(self.num**k, self.den**k)


def _normalize(num: Polynomial, den: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """Monic denominator; constant denominators are absorbed into the numerator."""
    if den.is_constant:
        c = den.constant_value()
        return num.scale(Fraction(1) / c), Polynomial.const(Fraction(1), num.nvars)
    lead = den.leading_coefficient()
    inv = Fraction(1) / lead
    return num.scale(inv), den.scale(inv)


class _Parser:
    def __init__(self, toks: List[Token], nvars: int):
        self.toks = toks
        self.pos = 0
        self.nvars = nvars

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str, expected: Tuple[str, ...]) -> ParseDiagnostic:
        t = self.peek()
        raise ParseDiagnostic(t.offset, t.line, t.column, message, expected)

    def expect(self, kind: str, what: str) -> Token:
        if self.peek().kind != kind:
            self.fail(f"expected {what}, found {self.peek().text or 'end of input'!r}", (what,))
        return self.advance()

    # expr := term (('+'|'-') term)*
    def expr(self) -> _Rational:
        v = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.term()
            v = v + rhs if op.kind == "PLUS" else v - rhs
        return v

    # term := factor (('*'|'/') factor)*
    def term(self) -> _Rational:
        v = self.factor()
        while self.peek().kind in ("STAR", "SLASH"):
            op = self.advance()
            rhs = self.factor()
            if op.kind == "STAR":
                v = v * rhs
            else:
                if rhs.num.is_zero:
                    raise SemanticError("division by zero", op.offset)
                v = _Rational(v.num * rhs.den, v.den * rhs.num)
        return v

    # factor := ('+'|'-')* atom ('^' NUMBER)?
    def factor(self) -> _Rational:
        neg = False
        while self.peek().kind in ("PLUS", "MINUS"):
            if self.advance().kind == "MINUS":
                neg = not neg
        v = self.atom()
        if self.peek().kind == "CARET":
            self.advance()
            t = self.expect("NUMBER", "integer exponent")
            if "." in t.text:
                raise ParseDiagnostic(t.offset, t.line, t.column, "exponent must be a non-negative integer", ("integer",))
            v = v.power(int(t.text))
        return -v if neg else v

    # atom := NUMBER | VAR | '(' expr ')'
    def atom(self) -> _Rational:
        t = self.peek()
        if t.kind == "NUMBER":
            self.advance()
            one = Polynomial.const(Fraction(1), self.nvars)
            return _Rational(Polynomial.const(Fraction(t.text), self.nvars), one)
        if t.kind == "IDENT":
            if t.text not in VARS:
                self.fail(f"unknown name {t.text!r}", ("x", "y", "z", "number", "("))
            idx = VARS.index(t.text)
            if idx >= self.nvars:
                raise SemanticError(
                    f"variable {t.text!r} is not declared in a dim {self.nvars} map", t.offset
                )
            self.advance()
            one = Polynomial.const(Fraction(1), self.nvars)
            return _Rational(Polynomial.var(idx, self.nvars), one)
        if t.kind == "LPAREN":
            self.advance()
            v = self.expr()
            self.expect("RPAREN", "')'")
            return v
        self.fail(f"expected a value, found {t.text or 'end of input'!r}", ("number", "variable", "("))


class MapSource(NamedTuple):
    """Parsed map source before a ``RationalMap`` is built from it: nothing checked."""

    components: Tuple[Tuple[Polynomial, Polynomial], ...]
    invariants: Tuple[Tuple[str, Polynomial], ...]


def parse_map(text: str) -> RationalMap:
    """Parse map source into a RationalMap (invariance-checked)."""
    source = parse_source(text)
    try:
        return RationalMap(*source)
    except ValueError as exc:
        raise SemanticError(str(exc)) from None


def parse_source(text: str) -> MapSource:
    """Parse map source into its normalized components and invariants."""
    toks = _tokenize(text)
    if not toks or toks[0].kind == "EOF":
        raise ParseDiagnostic(0, 1, 1, "empty input", ("dim",))
    if not (toks[0].kind == "IDENT" and toks[0].text == "dim"):
        t = toks[0]
        raise ParseDiagnostic(t.offset, t.line, t.column, "map must start with a dim declaration", ("dim",))
    if toks[1].kind != "NUMBER" or "." in toks[1].text:
        t = toks[1]
        raise ParseDiagnostic(t.offset, t.line, t.column, "dim needs an integer 1..3", ("integer",))
    nvars = int(toks[1].text)
    if not 1 <= nvars <= 3:
        raise SemanticError(f"dimension must be 1..3, got {nvars}", toks[1].offset)

    parser = _Parser(toks[2:], nvars)
    parser.expect("SEMI", "';'")

    components: dict = {}
    invariants: List[Tuple[str, Polynomial]] = []
    inv_names = set()
    while parser.peek().kind != "EOF":
        t = parser.peek()
        if t.kind != "IDENT":
            parser.fail("expected a component or invariant statement", ("x'", "y'", "z'", "inv"))
        if t.text == "inv":
            parser.advance()
            name_tok = parser.expect("IDENT", "invariant name")
            if name_tok.text in inv_names:
                raise SemanticError(f"duplicate invariant {name_tok.text!r}", name_tok.offset)
            parser.expect("EQ", "'='")
            value = parser.expr()
            parser.expect("SEMI", "';'")
            num, den = _normalize(value.num, value.den)
            if not den.is_constant:
                raise SemanticError(
                    f"invariant {name_tok.text!r} must be a polynomial", name_tok.offset
                )
            inv_names.add(name_tok.text)
            invariants.append((name_tok.text, num))
            continue
        if t.text in VARS:
            idx = VARS.index(t.text)
            if idx >= nvars:
                raise SemanticError(
                    f"component {t.text!r} is outside a dim {nvars} map", t.offset
                )
            if idx in components:
                raise SemanticError(f"component {t.text!r} defined twice", t.offset)
            parser.advance()
            parser.expect("PRIME", "'''")
            parser.expect("EQ", "'='")
            value = parser.expr()
            parser.expect("SEMI", "';'")
            components[idx] = _normalize(value.num, value.den)
            continue
        parser.fail(f"unexpected {t.text!r}", ("x'", "y'", "z'", "inv"))

    missing = [VARS[i] for i in range(nvars) if i not in components]
    if missing:
        raise SemanticError(f"missing component(s): {', '.join(missing)}")
    return MapSource(tuple(components[i] for i in range(nvars)), tuple(invariants))


def format_map(m: RationalMap) -> str:
    """Canonical source text; parse_map(format_map(m)) is structurally equal to m."""
    lines = [f"dim {m.dim};"]
    for i, (num, den) in enumerate(m.components):
        if den.is_constant and den.constant_value() == 1:
            rhs = format_polynomial(num)
        else:
            rhs = f"({format_polynomial(num)})/({format_polynomial(den)})"
        lines.append(f"{VARS[i]}' = {rhs};")
    for name, p in m.invariants:
        lines.append(f"inv {name} = {format_polynomial(p)};")
    return "\n".join(lines) + "\n"


def maps_equal(a, b) -> bool:
    """Structural equality of normalized maps or ``MapSource``s (components and invariants)."""
    return tuple(a.components) == tuple(b.components) and tuple(a.invariants) == tuple(b.invariants)
