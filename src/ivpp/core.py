"""Projective evaluation and iteration of rational maps.

Every coordinate lives on its own copy of the projective line (one-point
compactification per coordinate), so poles are ordinary values and the
point at infinity can be fed back into a map.  Comparisons near infinity
use the chordal metric, under which the whole line has diameter 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .poly import Polynomial

TOL_EQ = 1e-9  # default comparison tolerance (chordal)
TOL_INV = 1e-10  # relative tolerance for invariant conservation
CHECK_POINTS = 100  # random points on which a declared invariant must be conserved

_CHECK_SEED = 0x1F2D3C


def check_tol(tol: float) -> None:
    """Refuse a chordal tolerance that is not in (0, 1): every chordal
    distance is at most 1, so a larger tol accepts every point."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol}")


class Indeterminate(ArithmeticError):
    """The map evaluated to 0/0: the point is on the indeterminacy locus."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class InfiniteCoordinate(ValueError):
    """An operation that needs finite coordinates received infinity."""


class ExtendedComplex:
    """A value on the complex projective line: finite complex or infinity."""

    __slots__ = ("_z",)

    def __init__(self, value=None):
        if value is None:
            self._z = None
            return
        if isinstance(value, ExtendedComplex):
            self._z = value._z
            return
        z = complex(value)
        if math.isnan(z.real) or math.isnan(z.imag):
            raise ValueError("NaN is an error state, not a projective value")
        if math.isinf(z.real) or math.isinf(z.imag):
            self._z = None
        else:
            self._z = z

    @property
    def is_infinite(self) -> bool:
        return self._z is None

    @property
    def is_finite(self) -> bool:
        return self._z is not None

    @property
    def value(self) -> complex:
        if self._z is None:
            raise InfiniteCoordinate("value requested at the point at infinity")
        return self._z

    def _homogeneous(self) -> Tuple[complex, complex]:
        """Normalized (u, v) with the point = u/v and |u|^2+|v|^2 = 1."""
        z = self._z
        if z is None:
            return (1 + 0j, 0j)
        if abs(z) <= 1:
            h = math.sqrt(1 + abs(z) ** 2)
            return (z / h, 1 / h)
        w = 1 / z
        h = math.sqrt(1 + abs(w) ** 2)
        return (1 / h, w / h)

    def chordal(self, other) -> float:
        """Chordal distance |u1 v2 - u2 v1| in [0, 1]; infinity is ordinary."""
        if not isinstance(other, ExtendedComplex):
            other = ExtendedComplex(other)
        u1, v1 = self._homogeneous()
        u2, v2 = other._homogeneous()
        return abs(u1 * v2 - u2 * v1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtendedComplex):
            try:
                other = ExtendedComplex(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self._z == other._z

    def __hash__(self):
        return hash(self._z)

    def __repr__(self) -> str:
        return "inf" if self._z is None else repr(self._z)


INF = ExtendedComplex()


def chordal(a, b) -> float:
    return ExtendedComplex(a).chordal(b)


class Point:
    """A point of C^d (d = 1, 2, 3) with projective coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        cs = tuple(c if isinstance(c, ExtendedComplex) else ExtendedComplex(c) for c in coords)
        if not 1 <= len(cs) <= 3:
            raise ValueError(f"dimension must be 1..3, got {len(cs)}")
        self.coords = cs

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_finite(self) -> bool:
        return all(c.is_finite for c in self.coords)

    def values(self) -> Tuple[complex, ...]:
        return tuple(c.value for c in self.coords)

    def chordal(self, other: "Point") -> float:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return max(a.chordal(b) for a, b in zip(self.coords, other.coords))

    def __getitem__(self, i) -> ExtendedComplex:
        return self.coords[i]

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class OrbitTrace:
    """A finite orbit segment: k+1 points, closure flag, first-return period."""

    points: Tuple[Point, ...]
    closed: bool
    minimal_period: Optional[int]


def _limit_ratio(num: Polynomial, den: Polynomial, inf_vars: Tuple[int, ...]):
    """Iterated limit of num/den as the listed variables go to infinity.

    Returns a complex value or INF; raises Indeterminate when the iterated
    limit has no well-defined projective value.
    """
    if num.is_zero:
        if den.is_zero:
            raise Indeterminate("0/0 under the projective limit")
        return 0j
    if den.is_zero:
        return INF
    if not inf_vars:
        nv = num.constant_value()
        dv = den.constant_value()
        if dv == 0:
            if nv == 0:
                raise Indeterminate("0/0 under the projective limit")
            return INF
        return complex(nv) / complex(dv)
    v, rest = inf_vars[0], inf_vars[1:]
    a, b = num.degree_in(v), den.degree_in(v)
    lead_num = Polynomial(num.nvars, {_zero_at(e, v): c for e, c in num.terms.items() if e[v] == a})
    lead_den = Polynomial(den.nvars, {_zero_at(e, v): c for e, c in den.terms.items() if e[v] == b})
    if a == b:
        return _limit_ratio(lead_num, lead_den, rest)
    r = _limit_ratio(lead_num, lead_den, rest)
    if a > b:
        if r is INF or r != 0:
            return INF
        raise Indeterminate("0 * inf under the projective limit")
    if r is INF:
        raise Indeterminate("inf / inf under the projective limit")
    return 0j


def _zero_at(exps: Tuple[int, ...], i: int) -> Tuple[int, ...]:
    out = list(exps)
    out[i] = 0
    return tuple(out)


class RationalMap:
    """A d-dimensional map with component-wise polynomial num/den pairs.

    Declared invariants are checked at construction on random finite
    non-pole points (relative tolerance ``TOL_INV``).
    """

    def __init__(
        self,
        components: Sequence[Tuple[Polynomial, Polynomial]],
        invariants: Sequence[Tuple[str, Polynomial]] = (),
        name: str | None = None,
    ):
        self.dim = len(components)
        if not 1 <= self.dim <= 3:
            raise ValueError("dimension must be 1..3")
        for num, den in components:
            if num.nvars != self.dim or den.nvars != self.dim:
                raise ValueError("component variable count must equal the dimension")
            if den.is_zero:
                raise ValueError("component denominator is identically zero")
        self.components = tuple((num, den) for num, den in components)
        self.invariants = tuple((str(n), p) for n, p in invariants)
        for _, p in self.invariants:
            if p.nvars != self.dim:
                raise ValueError("invariant variable count must equal the dimension")
        self.name = name
        self._check_invariants()

    # -- construction-time invariance check ----------------------------------

    def _check_invariants(self) -> None:
        if not self.invariants:
            return
        rng = random.Random(_CHECK_SEED)
        checked = 0
        attempts = 0
        while checked < CHECK_POINTS:
            attempts += 1
            if attempts > 50 * CHECK_POINTS:
                raise ValueError("could not sample enough non-pole points")
            vals = tuple(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(self.dim)
            )
            image = self._raw_image(vals)
            if image is None:
                continue
            for inv_name, p in self.invariants:
                before = p.eval(vals)
                after = p.eval(image)
                if abs(after - before) > TOL_INV * max(1.0, abs(before)):
                    raise ValueError(
                        f"declared invariant {inv_name!r} is not conserved: "
                        f"{before!r} -> {after!r} at {vals!r}"
                    )
            checked += 1

    def _raw_image(self, vals: Tuple[complex, ...]) -> Optional[Tuple[complex, ...]]:
        """Image at a finite point, or None if a pole/huge value intervenes."""
        out = []
        for num, den in self.components:
            dv = den.eval(vals)
            if abs(dv) < 0.05:
                return None
            w = num.eval(vals) / dv
            if abs(w) > 1e3:
                return None
            out.append(w)
        return tuple(out)

    # -- evaluation ----------------------------------------------------------

    def apply(self, p: Point) -> Point:
        """One projective step; raises Indeterminate on the 0/0 locus."""
        if p.dim != self.dim:
            raise ValueError(f"point dimension {p.dim} != map dimension {self.dim}")
        if p.is_finite:
            vals = p.values()
            out = []
            for num, den in self.components:
                nv, dv = num.eval(vals), den.eval(vals)
                if dv == 0:
                    if nv == 0:
                        raise Indeterminate("0/0: point on the indeterminacy locus")
                    out.append(INF)
                    continue
                w = nv / dv
                if math.isnan(w.real) or math.isnan(w.imag):
                    raise Indeterminate("evaluation produced NaN")
                if math.isinf(w.real) or math.isinf(w.imag):
                    out.append(INF)
                else:
                    out.append(ExtendedComplex(w))
            return Point(out)
        finite = {i: c.value for i, c in enumerate(p.coords) if c.is_finite}
        inf_vars = tuple(i for i, c in enumerate(p.coords) if c.is_infinite)
        out = []
        for num, den in self.components:
            n0 = num.partial_eval(finite)
            d0 = den.partial_eval(finite)
            v = _limit_ratio(n0, d0, inf_vars)
            out.append(v if v is INF else ExtendedComplex(v))
        return Point(out)

    def eval_raw(self, vals: Sequence[complex]) -> Tuple[complex, ...]:
        """Fast finite-point image with IEEE semantics (inf on poles, nan on 0/0)."""
        out = []
        for num, den in self.components:
            nv, dv = num.eval(vals), den.eval(vals)
            if dv == 0:
                out.append(complex(math.inf, 0) if nv != 0 else complex(math.nan, 0))
            else:
                out.append(nv / dv)
        return tuple(out)

    # -- orbits ---------------------------------------------------------------

    def iterate(self, p: Point, k: int, tol: float = TOL_EQ) -> OrbitTrace:
        """Trace of k+1 points; Indeterminate is re-raised with its step index."""
        if k < 1:
            raise ValueError("k must be >= 1")
        check_tol(tol)
        points = [p]
        cur = p
        for step in range(1, k + 1):
            try:
                cur = self.apply(cur)
            except Indeterminate as exc:
                raise Indeterminate(str(exc), step=step) from None
            points.append(cur)
        minimal = None
        for m in range(1, k + 1):
            if points[m].chordal(points[0]) < tol:
                minimal = m
                break
        closed = points[-1].chordal(points[0]) < tol
        return OrbitTrace(tuple(points), closed, minimal)

    def detect_period(self, p: Point, n_max: int, tol: float = TOL_EQ) -> Optional[int]:
        """Smallest n <= n_max with chordal(F^n(p), p) < tol, else None."""
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        check_tol(tol)
        cur = p
        for n in range(1, n_max + 1):
            cur = self.apply(cur)
            if cur.chordal(p) < tol:
                return n
        return None

    def invariant_values(self, p: Point) -> List[complex]:
        if not p.is_finite:
            raise InfiniteCoordinate("invariants need finite coordinates")
        vals = p.values()
        return [poly.eval(vals) for _, poly in self.invariants]

    def __repr__(self) -> str:
        tag = self.name or f"{self.dim}d map"
        return f"RationalMap<{tag}>"

