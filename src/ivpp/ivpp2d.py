"""Period-n conditions and branch parametrizations for the built-in 2d map.

On the invariant level r = x*y, the period-n locus is cut out by
r + tan^2(pi*m/n) = 0 taken over m coprime to n with m < n/2; each
admissible m is one branch, with level value rho = -tan^2(pi*m/n) and
parametrization x -> (x, rho/x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, gcd
from typing import List, Tuple

import numpy as np

from .core import Point


PERIOD_MAX = 4096  # the largest period the CLI accepts; decompose --period 4000 takes under 1 s


class DegenerateBranch(ValueError):
    """m/n = 1/2 (tan pole): the period-2 level sits at r = infinity."""


def _check_n(n: int) -> None:
    if n == 2:
        raise DegenerateBranch("period 2 has no IVPP: the level condition forces r = infinity")
    if n < 3:
        raise ValueError(f"period must be >= 3, got {n}")


def tan_pi(p: int, q: int) -> float:
    """tan(pi*p/q) for integers p and q >= 1, within a few ulp of the truth.

    p is reduced mod q in integers, and tan(pi*(q - p)/q) = -tan(pi*p/q) and
    tan(pi/2 - a) = 1/tan(a) keep ``math.tan`` at arguments of at most pi/4,
    where it magnifies their rounding at most pi/2 times.  A quarter turn is
    1 exactly, and p/q = 1/2 is the pole, inf.
    """
    p %= q
    sign = 1.0
    if 2 * p > q:
        p, sign = q - p, -1.0
    if 2 * p == q:
        return math.inf
    if 4 * p == q:
        return sign
    if 4 * p > q:
        return sign / math.tan(math.pi * (q - 2 * p) / (2 * q))
    return sign * math.tan(math.pi * p / q)


def admissible_m(n: int) -> List[int]:
    """Branch indices: m coprime to n, 1 <= m < n/2."""
    _check_n(n)
    return [m for m in range(1, (n + 1) // 2) if gcd(m, n) == 1]


@dataclass(frozen=True)
class IvppBranch:
    """One branch of the period-n variety of the 2d map."""

    n: int
    m: int
    rho: float  # level value: x*y = rho on the branch

    @property
    def label(self) -> str:
        return f"m={self.m}"

    def point(self, x: complex) -> Point:
        if x == 0:
            raise ZeroDivisionError("parametrization pole at x = 0")
        return Point([x, self.rho / x])

    def coords(self, xs: np.ndarray) -> List[np.ndarray]:
        """``point`` on a float64 array: [x, rho/x], both nan at the pole x = 0.

        Where rho/x overflows, y is +inf, the one projective point at
        infinity that ``point`` holds there.
        """
        xs = np.asarray(xs, dtype=np.float64)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ys = self.rho / xs
        pole = xs == 0
        return [np.where(pole, np.nan, xs), np.where(pole, np.nan, np.where(np.isinf(ys), np.inf, ys))]


def branches(n: int) -> List[IvppBranch]:
    """All branches of period n, ordered by m; list length phi(n)/2."""
    return [IvppBranch(n, m, -tan_pi(m, n) ** 2) for m in admissible_m(n)]


@dataclass(frozen=True)
class GammaPolynomial:
    """Product of (r + tan^2(pi*m/n)) over the admissible m, in two forms."""

    n: int
    monic: Tuple[float, ...]  # ascending-degree coefficients, leading 1.0; printed, never evaluated
    scaled: Tuple[int, ...]  # the same polynomial times ``scale``: integers, content 1
    scale: int

    def at(self, r: float) -> float:
        """gamma_n at a finite real r = p/2^e, exactly: Horner's rule in integers over
        the denominator scale * 2^(e*degree), rounded once by ``quotient``.  The float
        range bounds the integers' size: |p| < 2^1024 and e <= 1074."""
        if not math.isfinite(r):
            raise ValueError(f"r must be finite, got {r}")
        p, q = float(r).as_integer_ratio()
        e, num = q.bit_length() - 1, self.scaled[-1]  # a float's denominator is a power of two
        for k, c in enumerate(reversed(self.scaled[:-1]), 1):
            num = num * p + (c << e * k)
        return quotient(num, self.scale << e * (len(self.scaled) - 1))


def _all_m_poly(n: int) -> List[int]:
    """Primitive integer prod of (r + tan^2(pi*m/n)) over every m with 1 <= m < n/2, ascending.

    tan(n t) vanishes at t = pi*m/n, and with r = -tan^2(t) the numerator of
    its multiple-angle formula is tan(t) * sum_k C(n, 2k+1) r^k.
    """
    coeffs = [comb(n, 2 * k + 1) for k in range((n + 1) // 2)]
    content = gcd(*coeffs)
    return [c // content for c in coeffs]


def _divide(num: List[int], den: List[int]) -> List[int]:
    """Exact quotient of ascending integer coefficient lists, both primitive.

    Gauss's lemma makes the quotient integer: contents multiply, and both are 1.
    """
    num = list(num)
    lead = den[-1]
    out = [0] * (len(num) - len(den) + 1)
    for i in reversed(range(len(out))):
        out[i] = q = num[i + len(den) - 1] // lead
        for j, c in enumerate(den):
            num[i + j] -= q * c
    return out


def _gamma_integer(n: int) -> List[int]:
    """Ascending coefficients of gamma_n times its leading one: integers, content 1.

    Each m < n/2 has the reduced period d = n / gcd(m, n) > 2, so the
    all-m product of period n is the product of gamma_d over the divisors
    d > 2 of n; gamma_n is what is left after dividing out the others.
    Every factor is kept primitive, so the divisions stay in the integers.
    """
    gammas = {}
    for d in range(3, n + 1):
        if n % d == 0:
            q = _all_m_poly(d)
            for e, g in gammas.items():
                if d % e == 0:
                    q = _divide(q, g)
            gammas[d] = q
    return gammas[n]


def quotient(a: int, b: int) -> float:
    """a / b correctly rounded (b > 0), or inf with the sign of a where it is past
    the float range: the one rounding of an exact value to a float."""
    try:
        return a / b  # int true division rounds correctly
    except OverflowError:
        return math.inf if a > 0 else -math.inf


def gamma_poly(n: int) -> GammaPolynomial:
    """Monic period-n polynomial in r, plus its integer form, computed exactly.

    Every coefficient is positive; a monic one past the float range is inf,
    while ``scaled`` and ``scale`` stay exact.
    """
    _check_n(n)
    scaled = _gamma_integer(n)
    scale = scaled[-1]  # the monic form's common denominator, since the content is 1
    return GammaPolynomial(n, tuple(quotient(c, scale) for c in scaled), tuple(scaled), scale)
