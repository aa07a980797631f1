"""Invariant-level reduction of the 2d map to a Mobius action.

On the level x*y = r the map acts on x alone as x -> (x - r)/(1 - x),
the fractional-linear action of [[1, -r], [-1, 1]].  Its eigenvalues are
1 +- sqrt(r); the eigenvalue ratio s = (1 + sqrt(r))/(1 - sqrt(r)) turns
the action into the pure scale z -> s*z in the coordinate
z = sqrt(r)*(1 - x)/(1 + x), so period n means s^n = 1 and the component
boundaries come out in closed form (``boundary_c`` in x, ``boundary_d``
in z).

Square roots use the principal branch, so sqrt of a negative real is
positive imaginary; all level values of real branches are negative real,
which fixes the signs of the z-space boundary values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Tuple

from .core import INF, ExtendedComplex
from .ivpp2d import tan_pi


class ZeroInvariant(ValueError):
    """The closed-form power and the x<->z change need a nonzero level r."""


@dataclass(frozen=True)
class Mobius:
    """Fractional-linear map (a*x + b)/(c*x + d), nonsingular."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if abs(self.det) <= 1e-12:
            raise ValueError("matrix is singular (|det| <= 1e-12)")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __call__(self, x) -> ExtendedComplex:
        x = x if isinstance(x, ExtendedComplex) else ExtendedComplex(x)
        if x.is_infinite:
            if self.c == 0:
                return INF
            return ExtendedComplex(self.a / self.c)
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


@dataclass(frozen=True)
class EigenData:
    """Eigen-structure of the level matrix: lambda_pm = 1 +- sqrt(r)."""

    sqrt_r: complex
    lam_plus: complex
    lam_minus: complex
    s: ExtendedComplex  # lam_plus / lam_minus; infinity exactly at r = 1


def eigen(r: complex) -> EigenData:
    sr = cmath.sqrt(r)
    lp, lm = 1 + sr, 1 - sr
    s = INF if lm == 0 else ExtendedComplex(lp / lm)
    return EigenData(sr, lp, lm, s)


def power_matrix(r: complex, m: int) -> Mobius:
    """Closed form of the m-th matrix power, up to an overall scalar.

    Entries: [[l+^m + l-^m, -sqrt(r)(l+^m - l-^m)],
              [-(l+^m - l-^m)/sqrt(r), l+^m + l-^m]]; equals 2*M at m = 1.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if r == 0:
        raise ZeroInvariant("closed-form power needs r != 0")
    e = eigen(r)
    p, q = e.lam_plus**m, e.lam_minus**m
    return Mobius(p + q, -e.sqrt_r * (p - q), -(p - q) / e.sqrt_r, p + q)


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


def boundary_d(n: int, r: complex, m: int) -> ExtendedComplex:
    """z-space boundary value for the m-th iterate on the level r.

    -sqrt(r) * (sqrt(r)(l+^m + l-^m) + (l+^m - l-^m))
             / (sqrt(r)(l+^m + l-^m) - (l+^m - l-^m))
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if r == 0:
        raise ZeroInvariant("the z-space boundary needs r != 0")
    e = eigen(r)
    p, q = e.lam_plus**m, e.lam_minus**m
    num = e.sqrt_r * (p + q) + (p - q)
    den = e.sqrt_r * (p + q) - (p - q)
    scale = abs(e.sqrt_r * (p + q)) + abs(p - q)
    if abs(den) <= 1e-9 * max(1.0, scale):
        return INF
    return ExtendedComplex(-e.sqrt_r * num / den)


def boundary_ds(n: int, r: complex) -> List[ExtendedComplex]:
    return [boundary_d(n, r, m) for m in range(n + 1)]


@dataclass(frozen=True)
class ExclusionReport:
    """Numerical certificate that s(r) = -1 has no finite solution.

    s(r) + 1 = 2/(1 - sqrt(r)) exactly, so |s + 1| stays positive on every
    bounded region and decays only like 2/sqrt(|r|).
    """

    min_abs: Dict[float, float]  # radius R -> min |s(r) + 1| over |r| <= R
    attained_r: Dict[float, complex]
    identity_max_dev: float  # max | |s+1| - 2/|1 - sqrt(r)| | over the grid

    @property
    def all_positive(self) -> bool:
        return all(v > 0 for v in self.min_abs.values())


def period2_exclusion(radii: Tuple[float, ...] = (10.0, 100.0, 1000.0)) -> ExclusionReport:
    """Grid-minimize |s(r) + 1| over |r| <= R for each radius R."""
    min_abs: Dict[float, float] = {}
    attained: Dict[float, complex] = {}
    dev = 0.0
    for R in radii:
        best = math.inf
        best_r = 0j
        n_rad, n_ang = 60, 96
        for i in range(1, n_rad + 1):
            rad = R * (i / n_rad) ** 2  # denser near the origin
            for j in range(n_ang):
                ang = 2 * math.pi * j / n_ang
                r = cmath.rect(rad, ang)
                sr = cmath.sqrt(r)
                if sr == 1:
                    continue
                val = abs((1 + sr) / (1 - sr) + 1)
                dev = max(dev, abs(val - 2 / abs(1 - sr)))
                if val < best:
                    best, best_r = val, r
        min_abs[R] = best
        attained[R] = best_r
    return ExclusionReport(min_abs, attained, dev)
