"""Period-2 structure of the 3d Lotka-Volterra map.

The period-2 level is s = -1 with r free.  Given x and r, the remaining
coordinates are y = a/(x-1), z = a'/(x-1) where a, a' are the two roots of

    a^2 - ((x^2 - 2x + r*x - r)/x) a + r*(x-1)^2/x = 0,

so a_pm = (x^2 - 2x + r*x - r +- sqrt(D))/(2x) with the discriminant

    D = r^2 - 2r^2 x + 2r x^2 + r^2 x^2 - 2r x^3 + 4x^2 - 4x^3 + x^4.

One application sends the point at parameter x, sign s to the point at
x/(x-1) with the opposite sign: the two sheets swap, every orbit closes
in two steps.  The x-dynamics x -> x/(x-1) is identically -x/(1-x): the
restriction of the map to the level IS the reduced recurrence
``lv_recurrence``, an involution of the line independent of r.  This is
the duality the decomposition uses: the interval pairing is read off one
push of the recurrence (``pushed_sigma``), the same at every r.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

import numpy as np

from .core import ExtendedComplex, Point
from .decompose import ComponentDecomposition, pushed_sigma
from .maps import lv_recurrence_map
from .mobius import Mobius
from .poly import quotient


class DegenerateParameter(ValueError):
    """x in {0, 1}: the branch parametrization has a pole there."""


class UnsupportedPeriod(ValueError):
    """Only the printed level conditions (n = 2, 3, 4) are available."""


SIGNS = {"+": 1, "-": -1}


def lv_gamma(n: int, r: float, s: float) -> float:
    """The period-n level condition of the 3d map for n = 2, 3, 4 at finite r and
    s: its exact value at their exact rationals, rounded once by ``quotient``."""
    if n not in (2, 3, 4):
        raise UnsupportedPeriod(f"no printed level condition for period {n}")
    if not (math.isfinite(r) and math.isfinite(s)):
        raise ValueError(f"r and s must be finite, got {r} and {s}")
    r, s = Fraction(r), Fraction(s)
    conditions = (s + 1, (s - r) ** 2 + (r + 1) * (s + 1), (s - r) ** 3 + s * (r + 1) ** 3)  # n = 2, 3, 4
    return quotient(*conditions[n - 2].as_integer_ratio())


def lv_discriminant(x: float, r: float) -> float:
    """D = (r(1 - x) + x^2)^2 + 4x^2(1 - x), the quartic as a square plus a product:
    at a huge r it overflows to +inf, where its expanded terms gave inf - inf.  Where
    its parts still read inf - inf (past x = 1.3e154), D is taken in powers of 1/x."""
    q = r * (1 - x) + x * x
    d = q * q + 4 * x * x * (1 - x)
    far = np.isnan(d) & (x != 0)  # a part overflowed, and inf - inf followed; at x = 0 only a nan r
    if np.any(far):  # there D = x^4 ((1 + r u)^2 + 4u), u = (1 - x)/x^2, which overflows last
        with np.errstate(all="ignore"):
            u = (1 / x) * (1 / x - 1)
            d_far = (x * x) * (x * x) * ((1 + r * u) * (1 + r * u) + 4 * u)
        d = np.where(far, d_far, d) if np.ndim(d) else d_far
    return d


def lv_roots(x: float, r: float) -> Tuple[complex, complex]:
    """The roots a_pm = (base +- sqrt(D))/(2x) = h +- sign(x) g at finite x and r,
    each their exact value rounded once by ``quotient``; a conjugate pair where D < 0.

    h = (x - 2 + r(x - 1)/x)/2 is half their sum and P = r(x - 1)^2/x their
    product, both exact in ``Fraction``, and the half-gap g = sqrt|h^2 - P| is
    carried by ``math.isqrt`` to 133 bits, 80 past a float's, exactly where it is
    rational.  Of real roots, the larger in modulus is h + g with the sign of h,
    and the other is P over it, with no cancellation.
    """
    if not (math.isfinite(x) and math.isfinite(r)):
        raise ValueError(f"x and r must be finite, got {x} and {r}")
    if x in (0, 1):
        raise DegenerateParameter(f"parametrization pole at x = {x}")
    x, r = Fraction(x), Fraction(r)
    h = (x - 2 + r * (x - 1) / x) / 2
    P = r * (x - 1) ** 2 / x
    d = h * h - P
    m = abs(d.numerator * d.denominator)  # |d| = m / den^2, in lowest terms: g is rational iff m is a square
    k = max(0, 134 - m.bit_length() // 2)  # isqrt(m << 2k) has at least 133 bits
    g = Fraction(math.isqrt(m << 2 * k), d.denominator << k)
    if d < 0:
        re, im = quotient(*h.as_integer_ratio()), math.copysign(quotient(*g.as_integer_ratio()), x)
        return complex(re, im), complex(re, -im)
    big = h + g if h >= 0 else h - g
    small = P / (big or 1)  # big is 0 only where P is too
    big, small = (quotient(*v.as_integer_ratio()) for v in (big, small))
    return (big, small) if (h >= 0) == (x > 0) else (small, big)


def lv_period2_param(x: float, r: float, sign: str = "+") -> Point:
    """Point (x, a/(x-1), a'/(x-1)) on the period-2 level: x*y*z = r, s = -1."""
    if sign not in SIGNS:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    a, b = lv_roots(x, r)[:: SIGNS[sign]]  # (a_plus, a_minus) on the + sheet, swapped on the -
    return Point([x, a / (x - 1), b / (x - 1)])


def lv_decompose_period2(r: float, sign: str = "+") -> ComponentDecomposition:
    """x-direction intervals (-inf, 0], (0, 1], (1, inf] with the sheet pairing.

    The boundaries do not depend on r, and neither does the pairing: the
    map moves x on the level by the reduced recurrence x -> -x/(1-x) at
    every r, so sigma is one push of that recurrence's interior samples.
    The first two intervals swap under the map (one tile kind); the third
    is carried to itself in x while the y, z sheets swap (the second tile
    kind, two components over the same x-range).
    """
    if sign not in SIGNS:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    boundaries = (0.0, 1.0, math.inf)
    return ComponentDecomposition(
        period=2,
        branch=f"a{sign}",
        convention="right-closed",
        boundaries=boundaries,
        sigma=pushed_sigma(lv_recurrence_map(), lambda xs: (xs,), boundaries[:-1], "right-closed"),
        r=float(r),
        tiles=2,
        tile_pairs=((1, 2), (3, 3)),
    )


def lv_recurrence(x) -> ExtendedComplex:
    """x -> -x/(1-x), one projective step of ``lv_recurrence_map``; an involution."""
    return lv_recurrence_map().apply(Point([x]))[0]


def lv_diagonalizer() -> Mobius:
    """A change of coordinates T with T o f o T^-1 = (w -> -w).

    T = x/(x - 2) sends the fixed points {0, 2} of the recurrence to the
    fixed points {0, inf} of the sign flip.
    """
    return Mobius(1, 0, 1, -2)

