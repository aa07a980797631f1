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

import cmath
import math
from typing import Tuple

from .core import ExtendedComplex, Point
from .decompose import ComponentDecomposition, pushed_sigma
from .maps import lv_recurrence_map
from .mobius import Mobius


class DegenerateParameter(ValueError):
    """x in {0, 1}: the branch parametrization has a pole there."""


class UnsupportedPeriod(ValueError):
    """Only the printed level conditions (n = 2, 3, 4) are available."""


SIGNS = {"+": 1, "-": -1}


def lv_gamma(n: int, r: float, s: float) -> float:
    """The period-n level condition of the 3d map for n = 2, 3, 4, in
    products, which overflow to +-inf where ``**`` would raise."""
    if n == 2:
        return s + 1
    if n == 3:
        return (s - r) * (s - r) + (r + 1) * (s + 1)
    if n == 4:
        return (s - r) * (s - r) * (s - r) + s * ((r + 1) * (r + 1) * (r + 1))
    raise UnsupportedPeriod(f"no printed level condition for period {n}")


def lv_discriminant(x: float, r: float) -> float:
    """D = (r(1 - x) + x^2)^2 + 4x^2(1 - x), the quartic as a square plus a product:
    at a huge r it overflows to +inf, where its expanded terms gave inf - inf."""
    q = r * (1 - x) + x * x
    return q * q + 4 * x * x * (1 - x)


def lv_roots(x: float, r: float) -> Tuple[complex, complex]:
    """The two quadratic roots (a_plus, a_minus).

    The square root takes the non-negative real branch when D >= 0;
    negative discriminants give a conjugate pair.
    """
    if x in (0, 1):
        raise DegenerateParameter(f"parametrization pole at x = {x}")
    d = lv_discriminant(x, r)
    sq = math.sqrt(d) if d >= 0 else cmath.sqrt(complex(d))
    base = x * x - 2 * x + r * x - r
    a_plus = (base + sq) / (2 * x)
    a_minus = (base - sq) / (2 * x)
    return a_plus, a_minus


def lv_period2_param(x: float, r: float, sign: str = "+") -> Point:
    """Point (x, a/(x-1), a'/(x-1)) on the period-2 level: x*y*z = r, s = -1."""
    if sign not in SIGNS:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    a_plus, a_minus = lv_roots(x, r)
    a, b = (a_plus, a_minus) if SIGNS[sign] > 0 else (a_minus, a_plus)
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

