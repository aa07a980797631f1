"""Invariant-level reduction of the 2d map to a Mobius action.

On the level x*y = r the map acts on x alone as x -> (x - r)/(1 - x),
the fractional-linear action of M = [[1, -r], [-1, 1]].  Its eigenvalues
are 1 +- sqrt(r); the eigenvalue ratio s = (1 + sqrt(r))/(1 - sqrt(r)) turns
the action into the pure scale w -> s*w in the eigencoordinate
(``scale_coordinate_map``), so period n means s^n = 1.  The component
boundaries are the orbit of infinity: ``boundary_c`` gives them in x as
real floats, and ``boundary_d`` is the composition z = ``x_to_z_map(r)`` of
M^m(inf), the m-th ``power_matrix`` applied to infinity.

Square roots use the principal branch, so sqrt of a negative real is
positive imaginary; all level values of real branches are negative real,
which fixes the signs of the z-space boundary values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, List

from .core import INF, ExtendedComplex
from .ivpp2d import tan_pi


class ZeroInvariant(ValueError):
    """The closed-form power and the x<->z change need a nonzero level r."""


@dataclass(frozen=True)
class Mobius:
    """Fractional-linear map (a*x + b)/(c*x + d), nonsingular: ad - bc != 0 exactly, for the entries as stored."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        parts = [v for z in (self.a, self.b, self.c, self.d) for v in (z.real, z.imag)]
        if all(map(math.isfinite, parts)):  # an overflowed entry has no exact determinant, and is kept
            ar, ai, br, bi, cr, ci, dr, di = map(Fraction, parts)
            if ar * dr - ai * di == br * cr - bi * ci and ar * di + ai * dr == br * ci + bi * cr:
                raise ValueError("matrix is singular (det = 0)")

    def __call__(self, x) -> ExtendedComplex:
        x = x if isinstance(x, ExtendedComplex) else ExtendedComplex(x)
        if x.is_infinite:
            return INF if self.c == 0 else ExtendedComplex(self.a / self.c)
        z = x.value
        num = self.a * z + self.b
        den = self.c * z + self.d
        if den == 0:
            return INF  # num != 0 here: a common root would force det = 0
        return ExtendedComplex(num / den)

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)


def level_matrix(r: complex) -> Mobius:
    """The reduced map x -> (x - r)/(1 - x) on the level x*y = r, the matrix
    [[1, -r], [-1, 1]]; projectively 1 -> inf and inf -> -1."""
    return Mobius(1, -r, -1, 1)


def power_matrix(r: complex, m: int) -> Mobius:
    """Closed form of the m-th matrix power, up to an overall scalar.

    With the eigenvalues l+- = 1 +- sqrt(r) the entries are
    [[l+^m + l-^m, -sqrt(r)(l+^m - l-^m)], [-(l+^m - l-^m)/sqrt(r), l+^m + l-^m]];
    equals 2*M at m = 1.  Its determinant is 4(1 - r)^m, so at r = 1 and
    m >= 1 the matrix is singular and ``Mobius`` refuses it (ValueError).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if r == 0:
        raise ZeroInvariant("closed-form power needs r != 0")
    sr = cmath.sqrt(r)
    p, q = (1 + sr) ** m, (1 - sr) ** m
    return Mobius(p + q, -sr * (p - q), -(p - q) / sr, p + q)


def x_to_z_map(r: complex) -> Mobius:
    """The boundary chart z = sqrt(r)*(1 - x)/(1 + x): inf -> -sqrt(r), -1 -> inf;
    its ``inverse()`` takes z back to x."""
    if r == 0:
        raise ZeroInvariant("the x<->z change needs r != 0")
    sr = cmath.sqrt(r)
    return Mobius(-sr, sr, 1, 1)


def scale_coordinate_map(r: complex) -> Mobius:
    """Eigencoordinate w = (sqrt(r) - x)/(sqrt(r) + x) of the level action.

    This is the coordinate built from the eigenvector rows, in which one
    application is exactly w -> s*w.  The boundary chart ``x_to_z_map``
    is a different Mobius image of the line: it reproduces the tabulated
    z-values of the boundaries but is not itself the scaling chart.
    """
    if r == 0:
        raise ZeroInvariant("the eigencoordinate needs r != 0")
    sr = cmath.sqrt(r)
    return Mobius(-1, sr, 1, sr)


def boundary_c(n: int, m: int, k: int = 1) -> float:
    """x-space component boundary (1-s)(1+s^m)/((1+s)(1-s^m)), s = exp(2*pi*i*k/n).

    The value is real: (1-s)/(1+s) = -i tan(pi k/n) and (1+s^m)/(1-s^m) =
    i cot(pi mk/n), so it is computed as tan(pi k/n)/tan(pi mk/n), a finite
    float, which is 0 where mk = n/2 mod n.  m = 0 and m = n, and every m
    with mk = 0 mod n, give the boundary at infinity, math.inf.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if not 0 <= m <= n:
        raise ValueError(f"m must be in 0..{n}")
    if gcd(k, n) != 1:
        raise ValueError(f"k = {k} is not a primitive root exponent mod n = {n}")
    if m * k % n == 0:
        return math.inf
    return tan_pi(k, n) / tan_pi(m * k, n)


def boundary_cs(n: int, k: int = 1) -> List[float]:
    return [boundary_c(n, m, k) for m in range(n + 1)]


def boundary_d(r: complex, m: int) -> ExtendedComplex:
    """z-space boundary value for the m-th iterate on the level r: the z-chart
    of M^m(inf), infinite where M^m(inf) = -1."""
    return x_to_z_map(r)(power_matrix(r, m)(INF))


def boundary_ds(n: int, r: complex) -> List[ExtendedComplex]:
    """The z-space boundaries of period n >= 3, m = 0..n."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return [boundary_d(r, m) for m in range(n + 1)]


def conjugacy_error(T: Mobius, f: Callable, s: complex, xs: Iterable) -> float:
    """Largest chordal distance of T(f(x)) from s*T(x) over the points xs; near
    0 when T conjugates f to the scale w -> s*w."""
    worst = 0.0
    for x in xs:
        tx = T(x)
        want = INF if tx.is_infinite else ExtendedComplex(s * tx.value)
        worst = max(worst, T(f(x)).chordal(want))
    return worst
