"""Sparse multivariate polynomials in up to three variables.

Coefficients are kept exact (``fractions.Fraction``) wherever they originate
from source text or built-in map definitions; evaluation converts to complex
on the fly.  Arithmetic also tolerates float/complex coefficients, which show
up after partial substitution during projective limit evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Tuple

VAR_NAMES = ("x", "y", "z")

Exps = Tuple[int, ...]


def _monomial_key(exps: Exps):
    # graded lexicographic: total degree first, then exponent tuple
    return (sum(exps), exps)


class Polynomial:
    """Immutable sparse polynomial: a mapping exponent-tuple -> coefficient."""

    __slots__ = ("nvars", "terms", "_eval_cache")

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
            if c != 0:
                clean[tuple(exps)] = c
        self.terms = clean
        self._eval_cache = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

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

    def degree_in(self, index: int) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[index] for e in self.terms)

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
        if factor == 0:
            return Polynomial.zero(self.nvars)
        return Polynomial(self.nvars, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.const(Fraction(1), self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- evaluation ----------------------------------------------------------

    def _compiled(self):
        # (exponents, complex c) per term; for eval_grid, (c or None for exactly 1, (var, exponent) factors)
        if self._eval_cache is None:
            terms = tuple((exps, complex(c)) for exps, c in self.terms.items())
            plan = tuple(
                (
                    None if c == 1 else c.real if c.imag == 0 else c,
                    tuple((i, e) for i, e in enumerate(exps) if e),
                )
                for exps, c in terms
            )
            self._eval_cache = terms, plan
        return self._eval_cache

    def eval(self, values: Iterable[complex]) -> complex:
        vals = tuple(values)
        if len(vals) != self.nvars:
            raise ValueError("wrong number of values")
        acc = 0j
        for exps, c in self._compiled()[0]:
            term = c
            for v, e in zip(vals, exps):
                if e == 1:
                    term *= v
                elif e > 1:
                    term *= v**e
            acc += term
        return acc

    def eval_grid(self, arrays):
        """Evaluate on broadcastable numpy arrays, one per variable; returns a new array.

        Skipping a coefficient of exactly 1 and a first power changes no bit of the result."""
        acc = None
        for c, factors in self._compiled()[1]:
            term = c
            for i, e in factors:
                power = arrays[i] if e == 1 else arrays[i] ** e
                term = power if term is None else term * power
            term = 1.0 if term is None else term
            acc = term if acc is None else acc + term
        if not hasattr(acc, "shape"):  # zero or constant: one array of the common shape
            import numpy as np

            return np.full(np.broadcast(*arrays).shape, 0.0 if acc is None else acc)
        return acc.copy() if any(acc is arr for arr in arrays) else acc

    def partial_eval(self, values: Dict[int, complex]) -> "Polynomial":
        """Substitute numeric values for a subset of variables.

        The result keeps the same variable slots (substituted slots have
        exponent zero everywhere) so exponent tuples stay aligned.
        """
        out: Dict[Exps, object] = {}
        for exps, c in self.terms.items():
            factor = complex(c)
            new = list(exps)
            for i, v in values.items():
                e = exps[i]
                if e:
                    factor *= v**e
                new[i] = 0
            key = tuple(new)
            out[key] = out.get(key, 0) + factor
        return Polynomial(self.nvars, out)

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {format_polynomial(self)!r})"


def _coeff_str(c) -> str:
    if isinstance(c, Fraction):
        return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    if isinstance(c, complex):
        c = c.real if c.imag == 0 else c
    return repr(c)


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form: graded-lex descending, exact coefficients."""
    if p.is_zero:
        return "0"
    parts = []
    for exps in sorted(p.terms, key=_monomial_key, reverse=True):
        c = p.terms[exps]
        mono = "*".join(
            VAR_NAMES[i] if e == 1 else f"{VAR_NAMES[i]}^{e}"
            for i, e in enumerate(exps)
            if e
        )
        if not mono:
            body = _coeff_str(abs(c) if not isinstance(c, complex) else c)
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{_coeff_str(abs(c))}*{mono}"
        sign = "-" if (not isinstance(c, complex) and c < 0) else "+"
        parts.append((sign, body))
    sign, body = parts[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
