"""Sparse multivariate polynomials in up to three variables.

Coefficients are exact rationals from construction: an int or
``fractions.Fraction`` is kept, any other finite real (a float, a numpy
scalar) is stored as its exact ``Fraction``, and anything else is refused;
evaluation rounds each once by ``quotient``.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Dict, Iterable, Tuple

import numpy as np

VAR_NAMES = ("x", "y", "z")

Exps = Tuple[int, ...]


def _monomial_key(exps: Exps):
    # graded lexicographic: total degree first, then exponent tuple
    return (sum(exps), exps)


def quotient(a: int, b: int) -> float:
    """a / b correctly rounded (b > 0), or inf with the sign of a where it is past
    the float range: the one rounding of an exact value to a float."""
    try:
        return a / b  # int true division rounds correctly
    except OverflowError:
        return math.inf if a > 0 else -math.inf


def _coefficient(c):
    """c as an exact rational: an int or Fraction as it is, any other finite
    real as its ``Fraction``; a complex, infinite, nan or non-number c raises."""
    if isinstance(c, (int, Fraction)):
        return c
    if not isinstance(c, numbers.Real) or not math.isfinite(c):
        raise ValueError(f"coefficient {c!r} is not a finite real number")
    return Fraction(int(c) if isinstance(c, numbers.Integral) else float(c))


class Polynomial:
    """Immutable sparse polynomial: a mapping exponent-tuple -> coefficient."""

    __slots__ = ("nvars", "terms", "_program")

    def __init__(self, nvars: int, terms: Dict[Exps, object] | None = None):
        if not 1 <= nvars <= 3:
            raise ValueError(f"nvars must be 1..3, got {nvars}")
        self.nvars = nvars
        clean: Dict[Exps, object] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _coefficient(c)
            if c != 0:
                clean[tuple(exps)] = c
        self.terms = clean
        self._program = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, value, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def var(cls, index: int, nvars: int) -> "Polynomial":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def leading_coefficient(self):
        """Coefficient of the graded-lex largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[max(self.terms, key=_monomial_key)]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        out: Dict[Exps, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.nvars, out)

    def scale(self, factor) -> "Polynomial":
        return Polynomial(self.nvars, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        return power(self, k, one=Polynomial.const(Fraction(1), self.nvars))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- evaluation ----------------------------------------------------------

    @property
    def program(self) -> "ArrayProgram":
        """The one-polynomial ``ArrayProgram``, built on the first read."""
        if self._program is None:
            self._program = ArrayProgram(self.nvars, (self,))
        return self._program

    def eval(self, values: Iterable[complex]) -> complex:
        vals = tuple(values)
        if len(vals) != self.nvars:
            raise ValueError("wrong number of values")
        return self.program.scalar(vals)[0][0]

    def eval_grid(self, arrays):
        """Evaluate on broadcastable numpy arrays, one per variable; returns a new array."""
        return self.program(arrays)[0][0]

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {format_polynomial(self)!r})"


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form: graded-lex descending, exact coefficients."""
    if p.is_zero:
        return "0"
    parts = []
    for exps in sorted(p.terms, key=_monomial_key, reverse=True):
        c = p.terms[exps]
        sign, mag = "-" if c < 0 else "+", abs(c)
        mono = "*".join(
            VAR_NAMES[i] if e == 1 else f"{VAR_NAMES[i]}^{e}"
            for i, e in enumerate(exps)
            if e
        )
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        parts.append((sign, body))
    sign, body = parts[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# -- array programs -------------------------------------------------------------

_F64 = np.dtype(np.float64)


def power(base, e: int, mul=lambda a, b: a * b, one=1 + 0j):
    """base**e, e >= 0, by the products CPython's complex ``**`` forms for e <= 100:
    ``one`` times base**(2**k) for each set bit k, low bit first, the powers by
    squaring.  On complex numbers this is the value of ``**``, and inf or nan
    where ``**`` raises OverflowError.  ``mul`` lets a program record it."""
    out = one
    while True:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if not e:
            return out
        base = mul(base, base)


class ArrayProgram:
    """Polynomials, and quotients of them, as one straight-line numpy function
    of arrays, one per variable; each variant is compiled on its first call.

    A call returns (values, quotients): a new array per polynomial of
    ``polys`` and per (num, den) pair of ``quotients``, never an input
    array.  Every entry is bitwise what the plain term loop gives: each term
    is its coefficient, rounded by ``quotient`` (+-inf past the float range),
    times its powers in variable order, a coefficient of exactly 1 and a
    first power skipped (``1.0 * x**1`` is ``x``), the terms are summed in
    their order, a constant term as ``c + v``, a constant or zero polynomial
    is an array full of its value, and a quotient divides by its denominator
    unless that is exactly 1 (``x / 1.0`` is ``x``).

    The program forms each power and each product of its terms once and
    shares it across all its polynomials.  When the arrays are float64 of one
    shape, the *folded* variant also

    - forms a term of coefficient -1 as its product m, and adds it as
      ``acc - m``: ``a + (-1.0 * m)`` and ``a - m`` are the same float64
      operation, nan sign bits included;
    - starts a polynomial whose first term is -m and whose second is a
      product p that begins with m, as ``p - m``: where m is nan, so is p,
      with m's bits, so the nan that survives is the same one.  A leading
      -m is otherwise ``-1.0 * m``, never ``np.negative(m)``, which flips a
      nan's sign bit, and ``-a - b`` is never ``-(a + b)``, which gives -0
      where the sum gives +0;
    - adds, subtracts and divides in place into a buffer of its own that
      nothing reads afterwards, each quotient into its numerator's.

    Complex arrays take the plain variant: ``-1.0 * (1+infj)`` is
    ``nan-infj``, which no subtraction reproduces.  The *scalar* variant is
    the plain one on Python complex numbers: a constant polynomial is its
    value, nothing is copied, and powers are ``power``'s products.
    """

    __slots__ = ("nvars", "polys", "quotients", "_runs")

    def __init__(self, nvars: int, polys, quotients=()):
        self.nvars = nvars
        self.polys = tuple(polys)
        self.quotients = tuple(quotients)
        self._runs = {}  # (folded, scalar) -> the compiled function

    def _run(self, folded: bool, scalar: bool = False):
        run = self._runs.get((folded, scalar))
        if run is None:
            text, namespace = _source(self.nvars, self.polys, self.quotients, folded, scalar)
            exec(compile(text, "<ivpp array program>", "exec"), namespace)
            run = self._runs[folded, scalar] = namespace["run"]
        return run

    def __call__(self, arrays):
        return self.variant(arrays)(*arrays)

    def variant(self, arrays):
        """The compiled function a call on these arrays runs: the folded one
        where they are float64 of one shape, and then its outputs are too."""
        a0 = arrays[0]
        return self._run(all(getattr(a, "dtype", None) is _F64 and a.shape == a0.shape for a in arrays))

    def scalar(self, values):
        """(values, quotients) at one point, each value taken as a Python complex."""
        return self._run(False, True)(*map(complex, values))


class _Program:
    """The operations of an ``ArrayProgram`` variant in single assignment form.

    Value i < nvars is input i; value nvars + j is ``ops[j]``, an (op, a, b)
    of values and constant names, entered once per distinct triple."""

    def __init__(self, nvars: int, folded: bool, scalar: bool):
        self.nvars, self.folded, self.scalar = nvars, folded, scalar
        self.ops = []
        self.index = {}  # (op, a, b) -> value
        self.consts = {}  # (type, repr) of a constant -> (name, value)

    def const(self, c) -> str:
        key = (type(c), repr(c))
        if key not in self.consts:
            self.consts[key] = (f"k{len(self.consts)}", c)
        return self.consts[key][0]

    def op(self, op: str, a, b):
        key = (op, a, b)
        if key not in self.index:
            self.index[key] = self.nvars + len(self.ops)
            self.ops.append(key)
        return self.index[key]

    def _leads(self, m, p) -> bool:
        """Whether product p is m times factors, m its first operand at some depth."""
        while isinstance(p, int) and p >= self.nvars:
            op, p, _ = self.ops[p - self.nvars]
            if op != "*":
                return False
            if p == m:
                return True
        return False

    def _power(self, i: int, e: int):
        """Input i to the power e > 1: one ``**``, or on scalars ``power``'s products."""
        if self.scalar:
            return power(i, e, lambda a, b: self.op("*", a, b), self.const(1.0))
        return self.op("**", i, self.const(e))

    def poly(self, poly: Polynomial) -> int:
        terms = []  # (sign, value or constant name)
        for exps, c in poly.terms.items():
            k = None if c == 1 else quotient(*c.as_integer_ratio())
            factors = [i if e == 1 else self._power(i, e) for i, e in enumerate(exps) if e]
            sign = 1
            if self.folded and k == -1 and factors:
                sign, k = -1, None
            term = None if k is None else self.const(k)
            for f in factors:
                term = f if term is None else self.op("*", term, f)
            terms.append((sign, self.const(1.0) if term is None else term))
        if not terms:
            return self.op("full", self.const(0.0), None)
        (sign, acc), rest = terms[0], terms[1:]
        if sign < 0:
            if rest and rest[0][0] > 0 and self._leads(acc, rest[0][1]):
                acc, rest = self.op("-", rest[0][1], acc), rest[1:]
            else:
                acc = self.op("*", self.const(-1.0), acc)
        for sign, term in rest:
            acc = self.op("-" if sign < 0 else "+", acc, term)
        return self.op("full", acc, None) if isinstance(acc, str) else acc

    def quotient(self, num: Polynomial, den: Polynomial) -> int:
        value = self.poly(num)
        if den.terms == {(0,) * self.nvars: 1}:
            return value
        return self.op("/", value, self.poly(den))


def _source(nvars: int, polys, quotients, folded: bool, scalar: bool = False):
    """(Python text of ``run``, its namespace) for an ``ArrayProgram`` variant."""
    prog = _Program(nvars, folded, scalar)
    outs = [prog.poly(p) for p in polys] + [prog.quotient(n, d) for n, d in quotients]
    last = {}  # value -> the last op that reads it
    for j, (_, a, b) in enumerate(prog.ops):
        last[a] = last[b] = j
    names = [f"x{i}" for i in range(nvars)] + [f"t{j}" for j in range(len(prog.ops))]
    lines = []
    if not scalar and any(op == "full" for op, _, _ in prog.ops):
        lines.append(f"shape = np.broadcast({', '.join(names[:nvars])}).shape")
    for j, (op, a, b) in enumerate(prog.ops):
        v = nvars + j
        left, right = (names[u] if isinstance(u, int) else u for u in (a, b))
        if op == "full":
            lines.append(f"{names[v]} = {left}" if scalar else f"{names[v]} = np.full(shape, {left})")
        elif folded and op != "**" and isinstance(a, int) and a >= nvars and a not in outs and last[a] == j:
            names[v] = left  # a's buffer, which nothing reads after this op
            lines.append(f"{left} {op}= {right}")
        else:
            lines.append(f"{names[v]} = {left} {op} {right}")
    returned = []
    for i, v in enumerate(outs):
        fresh = scalar or v >= nvars and v not in outs[:i]
        returned.append(names[v] if fresh else f"{names[v]}.copy()")
    split = len(polys)
    lines.append(f"return [{', '.join(returned[:split])}], [{', '.join(returned[split:])}]")
    text = f"def run({', '.join(names[:nvars])}):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {"np": np, **{name: complex(c) if scalar else c for name, c in prog.consts.values()}}
    return text, namespace
