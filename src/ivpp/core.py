"""Projective evaluation and iteration of rational maps.

Every coordinate lives on its own copy of the projective line (one-point
compactification per coordinate), so poles are ordinary values and the
point at infinity can be fed back into a map.  Comparisons near infinity
use the chordal metric, under which the whole line has diameter 1.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .poly import ArrayProgram, Polynomial

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
        if cmath.isnan(z):
            raise ValueError("NaN is an error state, not a projective value")
        self._z = None if cmath.isinf(z) else z

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


def _leading_ratio(num, den):
    """The iterated limit of num/den as the infinite variables go to infinity,
    from the leading group of each: (exponents in those variables,
    coefficient at the point), or None where every group is 0.

    Returns a complex value or INF; raises Indeterminate when the iterated
    limit has no well-defined projective value.
    """
    if num is None:
        if den is None:
            raise Indeterminate("0/0 under the projective limit")
        return 0j
    if den is None:
        return INF
    (a, nv), (b, dv) = num, den
    w = nv / dv
    for i, j in zip(reversed(a), reversed(b)):  # the last variable's limit is taken first
        if i > j:
            if w == 0:
                raise Indeterminate("0 * inf under the projective limit")
            w = INF
        elif i < j:
            if w is INF:
                raise Indeterminate("inf / inf under the projective limit")
            w = 0j
    return w


def _projective(w) -> ExtendedComplex:
    """A computed value, or INF, as a point of the line; Indeterminate where a part is nan."""
    if w is not INF and cmath.isnan(w):
        raise Indeterminate("evaluation produced NaN")
    return ExtendedComplex(w)


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
        self._limit_programs = {}  # infinite variables -> _limit_program's (program, layout)
        self._check_invariants()

    # -- construction-time invariance check ----------------------------------

    def _check_invariants(self) -> None:
        if not self.invariants:
            return
        rng = random.Random(_CHECK_SEED)
        checked = 0
        for _ in range(50 * CHECK_POINTS):
            vals = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(self.dim))
            image = [nv / dv if abs(dv) >= 0.05 else math.inf for nv, dv in self._fractions(vals)]
            if any(abs(w) > 1e3 for w in image):
                continue  # near a pole, or a huge image
            for inv_name, p in self.invariants:
                before, after = p.eval(vals), p.eval(image)
                if abs(after - before) > TOL_INV * max(1.0, abs(before)):
                    raise ValueError(
                        f"declared invariant {inv_name!r} is not conserved: {before!r} -> {after!r} at {vals!r}"
                    )
            checked += 1
            if checked == CHECK_POINTS:
                return
        raise ValueError("could not sample enough non-pole points")

    # -- evaluation ----------------------------------------------------------

    @cached_property
    def point_program(self) -> ArrayProgram:
        """The numerators, then the denominators: what ``apply`` and ``eval_raw`` run on one point."""
        return ArrayProgram(self.dim, [p for part in zip(*self.components) for p in part])

    def _fractions(self, vals):
        """(numerator, denominator) of each component at a finite point."""
        values = self.point_program.scalar(vals)[0]
        return zip(values[: self.dim], values[self.dim :])

    def apply(self, p: Point) -> Point:
        """One projective step; raises Indeterminate on the 0/0 locus and where a value is nan."""
        if p.dim != self.dim:
            raise ValueError(f"point dimension {p.dim} != map dimension {self.dim}")
        if p.is_finite:
            out = []
            for nv, dv in self._fractions(p.values()):
                if dv == 0 and nv == 0:
                    raise Indeterminate("0/0: point on the indeterminacy locus")
                out.append(INF if dv == 0 else _projective(nv / dv))
            return Point(out)
        program, layout = self._limit_program(tuple(i for i, c in enumerate(p.coords) if c.is_infinite))
        values = program.scalar([0j if c.is_infinite else c.value for c in p.coords])[0]
        leads = [next(((k, c) for k, c in zip(keys, values[start:]) if c != 0), None) for start, keys in layout]
        return Point([_projective(_leading_ratio(num, den)) for num, den in zip(leads[::2], leads[1::2])])

    def _limit_program(self, inf_vars: Tuple[int, ...]):
        """(program, layout) of ``apply`` where the variables ``inf_vars`` are
        infinite, built on the first such point.  Each numerator and
        denominator, in turn, is split into groups by its exponents in those
        variables, in lexicographically descending order; the program gives
        every group's coefficient, a polynomial in the finite variables, and
        the layout holds (first output, group exponents) per polynomial."""
        built = self._limit_programs.get(inf_vars)
        if built is None:
            coefficients, layout = [], []
            for poly in (p for pair in self.components for p in pair):
                groups = {}
                for exps, c in poly.terms.items():
                    finite = tuple(0 if i in inf_vars else e for i, e in enumerate(exps))
                    groups.setdefault(tuple(exps[i] for i in inf_vars), {})[finite] = c
                keys = sorted(groups, reverse=True)
                layout.append((len(coefficients), keys))
                coefficients += [Polynomial(self.dim, groups[k]) for k in keys]
            built = self._limit_programs[inf_vars] = (ArrayProgram(self.dim, coefficients), layout)
        return built

    @cached_property
    def step_program(self) -> ArrayProgram:
        """(denominators, images) of one step on arrays of points, one per
        variable: the program of ``kernel.step``, built on its first call."""
        return ArrayProgram(self.dim, [den for _, den in self.components], self.components)

    @cached_property
    def denominator_program(self) -> ArrayProgram:
        """The denominators alone, the part of ``step_program`` that the
        pole-depth scan reads at its last depth."""
        return ArrayProgram(self.dim, [den for _, den in self.components])

    def eval_raw(self, vals: Sequence[complex]) -> Tuple[complex, ...]:
        """Fast finite-point image with IEEE semantics (inf on poles, nan on 0/0)."""
        return tuple(
            nv / dv if dv != 0 else complex(math.inf if nv != 0 else math.nan, 0)
            for nv, dv in self._fractions(vals)
        )

    # -- orbits ---------------------------------------------------------------

    def _orbit(self, p: Point, k: int):
        """F(p), ..., F^k(p), one ``apply`` each; an Indeterminate is re-raised with its step index."""
        for step in range(1, k + 1):
            try:
                p = self.apply(p)
            except Indeterminate as exc:
                raise Indeterminate(str(exc), step=step) from None
            yield p

    def iterate(self, p: Point, k: int, tol: float = TOL_EQ) -> OrbitTrace:
        """Trace of k+1 points; Indeterminate is re-raised with its step index."""
        if k < 1:
            raise ValueError("k must be >= 1")
        check_tol(tol)
        points = [p, *self._orbit(p, k)]
        minimal = None
        for m in range(1, k + 1):
            if points[m].chordal(points[0]) < tol:
                minimal = m
                break
        closed = points[-1].chordal(points[0]) < tol
        return OrbitTrace(tuple(points), closed, minimal)

    def detect_period(self, p: Point, n_max: int, tol: float = TOL_EQ) -> Optional[int]:
        """Smallest n <= n_max with chordal(F^n(p), p) < tol, else None;
        Indeterminate is re-raised with its step index."""
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        check_tol(tol)
        for n, cur in enumerate(self._orbit(p, n_max), 1):
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

