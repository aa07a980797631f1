"""Built-in rational maps.

Names accepted by the CLI:

* ``f2d``           the 2d map (x, y) -> (x(1-y)/(1-x), y(1-x)/(1-y)), invariant r = x*y
* ``f3d``           the 3d Lotka-Volterra map, invariants r = x*y*z, s = (1-x)(1-y)(1-z)
* ``f2d-reduced``   the invariant-level reduction x -> (x - r)/(1 - x), needs r
* ``lv-recurrence`` the period-2 recurrence x -> -x/(1 - x)

Built-ins are defined through the map DSL so they carry the same normalized
form as user-supplied sources.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .core import RationalMap

F2D_SOURCE = """\
dim 2;
x' = x*(1-y)/(1-x);
y' = y*(1-x)/(1-y);
inv r = x*y;
"""

F3D_SOURCE = """\
dim 3;
x' = x*(1-y+y*z)/(1-z+z*x);
y' = y*(1-z+z*x)/(1-x+x*y);
z' = z*(1-x+x*y)/(1-y+y*z);
inv r = x*y*z;
inv s = (1-x)*(1-y)*(1-z);
"""

LV_RECURRENCE_SOURCE = """\
dim 1;
x' = -x/(1-x);
"""


def _parse(src: str, name: str) -> RationalMap:
    from .dsl import parse_map

    m = parse_map(src)
    m.name = name
    return m


@lru_cache(maxsize=None)
def f2d() -> RationalMap:
    return _parse(F2D_SOURCE, "f2d")


@lru_cache(maxsize=None)
def f3d() -> RationalMap:
    return _parse(F3D_SOURCE, "f3d")


def f2d_reduced(r) -> RationalMap:
    """Dimension-1 reduction of f2d on the level x*y = r (real rational r)."""
    if r is None:
        raise ValueError("f2d-reduced needs the invariant level r")
    rv = Fraction(r)
    return _parse(f"dim 1; x' = (x - ({rv}))/(1 - x);", f"f2d-reduced(r={rv})")


@lru_cache(maxsize=None)
def lv_recurrence_map() -> RationalMap:
    return _parse(LV_RECURRENCE_SOURCE, "lv-recurrence")


BUILTINS = {  # CLI name -> the map at level r, which only f2d-reduced reads
    "f2d": lambda r: f2d(),
    "f3d": lambda r: f3d(),
    "f2d-reduced": f2d_reduced,
    "lv-recurrence": lambda r: lv_recurrence_map(),
}


def get_map(name: str, r=None) -> RationalMap:
    if name not in BUILTINS:
        raise KeyError(f"unknown built-in map {name!r} (have {', '.join(BUILTINS)})")
    return BUILTINS[name](r)
