"""Component decomposition of a period-n variety along the x direction.

Boundaries come from two routes that must agree: the closed-form values
``boundary_c`` (analytic), and the orbit of the chart's pole under the
level's fractional-linear recurrence, fitted from the map (empirical).
Intervals between consecutive boundaries are half-open; the map permutes
them, and the permutation is read off by pushing one interior sample of
each interval through the map once (``pushed_sigma``, shared with the 3d
map's period-2 pairing in ``lv3d``).  Every orbit here goes through
``kernel.step`` on arrays: the closure check and the fit of the empirical
route, and the one step of all interior samples that gives the permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import TOL_EQ, RationalMap
from .ivpp2d import IvppBranch
from .kernel import return_start, returns, step
from .maps import f2d
from .mobius import boundary_cs

INF_F = math.inf
CLASSIFY_TOL = 1e-9  # relative reach of a cut in ``classify_cuts``: an x this close sits on it


class NoClosure(ValueError):
    """Sampled points do not close after n steps: wrong branch or period."""


class NotACycle(ValueError):
    """The interval permutation is not a single n-cycle: wrong boundary set."""


@dataclass(frozen=True)
class ComponentDecomposition:
    """Ordered interval decomposition plus the induced component permutation.

    ``boundaries`` lists the cut points ascending with infinity last (the
    projective point at infinity is always a cut).  ``sigma`` is 1-based:
    component i maps into component sigma[i-1].  ``convention`` records
    which end of each interval is closed.
    """

    period: int
    branch: str
    convention: str  # "left-closed" [a, b) or "right-closed" (a, b]
    boundaries: Tuple[float, ...]
    sigma: Tuple[int, ...]
    rho: Optional[float] = None  # 2d level value x*y
    r: Optional[float] = None  # 3d slice parameter
    tiles: int = 1
    tile_pairs: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        fin = self.finite_boundaries()
        if self.boundaries[-1] != INF_F:
            raise ValueError("the boundary at infinity must be present (last)")
        if not all(math.isfinite(b) for b in fin):
            raise ValueError("every boundary but the last must be finite")
        if list(fin) != sorted(fin):
            raise ValueError("boundaries must be ascending")
        if self.convention not in ("left-closed", "right-closed"):
            raise ValueError(f"unknown convention {self.convention!r}")
        n = self.n_components
        if sorted(self.sigma) != list(range(1, n + 1)):
            raise ValueError(f"sigma must map each of the {n} components to a different one of 1..{n}: {self.sigma}")

    def finite_boundaries(self) -> Tuple[float, ...]:
        return self.boundaries[:-1]

    @property
    def n_components(self) -> int:
        return len(self.boundaries)

    def classify(self, x):
        """1-based component index of x, a float or an array of them; see ``classify_cuts``."""
        return classify_cuts(self.finite_boundaries(), x, self.convention)

    def to_json_dict(self) -> dict:
        fin = self.finite_boundaries()
        doc = {
            "period": self.period,
            "branch": self.branch,
            "convention": self.convention,
            "boundaries": [-INF_F, *fin],  # interval starting points, ascending
            "sigma": list(self.sigma),
        }
        if self.rho is not None:
            doc["rho"] = self.rho
        if self.r is not None:
            doc["r"] = self.r
        if self.tiles != 1:
            doc["tiles"] = self.tiles
            doc["tile_pairs"] = [list(p) for p in self.tile_pairs]
        return doc


def classify_cuts(cuts: Sequence[float], x, convention: str = "left-closed"):
    """1-based component of x among the ascending finite ``cuts``: a Python
    int for a float x, an integer array of x's shape for an array.  Infinity
    lands in the last component, len(cuts) + 1; nan, which compares false
    with every cut, lands after them all when left-closed and before them
    all (component 1) when right-closed.

    x within CLASSIFY_TOL * max(1, |cut|) of a cut point counts as sitting
    on the cut, so the half-open convention decides its side; this keeps
    the printed boundary memberships stable against the ~1e-16 noise the
    closed forms carry.  The cuts within reach of x are adjacent in the
    sorted list, so x snaps to the lowest of them.  One searchsorted pass
    places every x; only an x within reach of a cut next to it is placed
    again, and only a chain of such cuts is walked down.
    """
    c = np.asarray(cuts, dtype=float)
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    side = "right" if convention == "left-closed" else "left"
    q = c.searchsorted(flat, side=side)  # x lies between ends[q] and ends[1:][q]
    ends = np.concatenate(([math.nan], c, [math.nan]))
    reach = CLASSIFY_TOL * np.maximum(1.0, np.abs(ends))  # the cuts are finite, so x - ends never warns
    lower = np.abs(flat - ends[q]) <= reach[q]
    near = lower | (np.abs(flat - ends[1:][q]) <= reach[1:][q])
    if np.count_nonzero(near):
        near = np.flatnonzero(near)
        v, at = flat[near], q[near] + ~lower[near]  # ends[at]: the cut below x if within reach, else the one above
        while True:
            down = np.abs(v - ends[at - 1]) <= reach[at - 1]  # never past ends[0], which is nan
            if not np.count_nonzero(down):
                break
            at -= down
        q[near] = c.searchsorted(ends[at], side=side)
    q[np.isinf(flat)] = len(c)
    if side == "left":
        q[np.isnan(flat)] = 0
    return int(q[0]) + 1 if arr.ndim == 0 else q.reshape(arr.shape) + 1


def interior_samples(cuts: Sequence[float]) -> List[float]:
    """One interior x per component of the ascending finite cuts, deterministic and pole-avoiding."""
    out = []
    for lo, hi in zip([-INF_F, *cuts], [*cuts, INF_F]):
        if math.isinf(lo) and math.isinf(hi):
            out.append(0.6180339887498949)
        elif math.isinf(lo):
            out.append(hi - 1.6180339887498949)
        elif math.isinf(hi):
            out.append(lo + 1.6180339887498949)
        else:
            out.append(lo + (hi - lo) * 0.6180339887498949)
    return out


# -- analytic boundaries ------------------------------------------------------


def boundaries_analytic(branch: IvppBranch) -> List[float]:
    """The real closed-form cuts ``boundary_cs`` of the branch, ascending, infinity last.

    The n - 1 finite cuts tan(pi m/n)/tan(pi jm/n), j = 1..n-1, are distinct,
    and those of j and n - j are exact negatives."""
    return sorted(c for c in boundary_cs(branch.n, k=branch.m) if c != INF_F) + [INF_F]


# -- empirical boundaries -----------------------------------------------------

SCAN_WINDOW = (-6.0, 6.0)  # the x-range the three probes are drawn from


def _to_0_inf_1(z0: float, zinf: float, z1: float) -> Tuple[float, float, float, float]:
    """Matrix (a, b, c, d) of the Möbius map that sends z0, zinf, z1 to 0, inf, 1:
    z -> (z - z0)(z1 - zinf) / ((z - zinf)(z1 - z0))."""
    return z1 - zinf, -z0 * (z1 - zinf), z1 - z0, -zinf * (z1 - z0)


def boundaries_empirical(m: RationalMap, param: Callable[[np.ndarray], Sequence[np.ndarray]], n: int) -> List[float]:
    """The cuts of a period-n level read off the map itself, ascending, infinity last.

    Contract: ``param`` maps a float64 array of x to m's real coordinate
    arrays, one per variable, all nan where it has a pole; it is a chart of
    the level, and on an IVPP level (m^n = id) m acts on that chart as a
    fractional-linear map M: x -> (ax + b)/(cx + d) of period n.  Its
    fundamental domains are the components, so the cuts are the orbit of
    the chart's pole, cut_j = M^j(inf).

    n must be at least 1 (ValueError).  Three probes from SCAN_WINDOW take
    n steps through ``kernel.step``, and the level must close on one of
    them, or NoClosure.  Their first images fit M by cross ratios: the
    Möbius map that sends the probes to 0, inf, 1, then the inverse of the
    one that sends their images there.  The orbit of infinity runs in plain
    floats for at most n - 1 steps and stops where it comes back to
    infinity within the closure's chordal tolerance (a level whose minimal
    period divides n).  No closed form is read.

    On f2d every branch of n = 3..178 agrees with the closed form within
    BOUNDARY_TOL (worst 3.9e-10 on n = 3..60); the first miss is n = 179,
    m = 89, by 2.9e-7 on a cut near 6.5e3.  On 32 branches of n = 4093..4096
    the cuts are within 1e-6 relative and give the analytic sigma.
    """
    if n < 1:
        raise ValueError(f"period must be >= 1, got {n}")
    lo, hi = SCAN_WINDOW

    # closure pre-check on a few generic interior points, n steps of the flow;
    # a probe on a pole of param starts nan and never returns
    probes = lo + (hi - lo) * np.array([0.137, 0.411, 0.739])
    start = param(probes)
    _, cur = step(m, start)
    image_x = cur[0]
    for _ in range(n - 1):
        _, cur = step(m, cur)
    closed = returns(cur, return_start(start), TOL_EQ, np.ones(probes.shape, dtype=bool))
    if not closed.any():
        raise NoClosure(f"sampled points do not return after {n} steps")
    if not np.isfinite(image_x).all():
        raise NoClosure("a probe leaves the chart in one step, so the level recurrence cannot be fitted")

    # M = T^-1 S, where S sends probes 0, 2, 1 and T their images to 0, inf, 1 (the order of the widest range)
    sa, sb, sc, sd = _to_0_inf_1(*probes[[0, 2, 1]].tolist())
    ta, tb, tc, td = _to_0_inf_1(*image_x[[0, 2, 1]].tolist())
    a, b, c, d = td * sa - tb * sc, td * sb - tb * sd, ta * sc - tc * sa, ta * sd - tc * sb

    cuts, x = [], INF_F
    for _ in range(n - 1):
        num, den = (a, c) if math.isinf(x) else (a * x + b, c * x + d)
        x = num / den if den else INF_F
        if abs(x) * TOL_EQ > 1.0:  # back at infinity
            break
        cuts.append(x)
    return sorted(cuts) + [INF_F]


BOUNDARY_TOL = 1e-7  # the routes agree when every paired |analytic - empirical| is below this


def compare_boundaries(
    analytic: Sequence[float], empirical: Sequence[float]
) -> Tuple[List[Tuple[Optional[float], Optional[float], float]], float]:
    """Rows (analytic, empirical, |diff|) over the longer list, and the largest |diff|.

    A list shorter than the other reads None in its cell and |diff| inf, so
    differing counts never agree; equal infinities differ by 0.
    """
    rows = [
        (u, v, math.inf if u is None or v is None else 0.0 if u == v else abs(u - v))
        for u, v in zip_longest(analytic, empirical)
    ]
    return rows, max((d for _, _, d in rows), default=0.0)


# -- decomposition ------------------------------------------------------------


def decompose(branch: IvppBranch, method: str = "analytic") -> ComponentDecomposition:
    """Intervals between boundaries plus the cycle permutation of the 2d map.

    Convention is left-closed [a, b); the unbounded piece is (-inf, c) and
    the point at infinity belongs to the last piece [c_last, inf).
    """
    if method == "analytic":
        bounds = boundaries_analytic(branch)
    elif method == "empirical":
        bounds = boundaries_empirical(f2d(), branch.coords, branch.n)
    else:
        raise ValueError(f"unknown method {method!r}")

    sigma = pushed_sigma(f2d(), branch.coords, [b for b in bounds if math.isfinite(b)])
    _require_single_cycle(sigma)  # before the decomposition, which refuses a non-permutation
    return ComponentDecomposition(
        period=branch.n,
        branch=branch.label,
        convention="left-closed",
        boundaries=tuple(bounds),
        sigma=sigma,
        rho=branch.rho,
    )


def pushed_sigma(
    m: RationalMap,
    param: Callable[[np.ndarray], Sequence[np.ndarray]],
    cuts: Sequence[float],
    convention: str = "left-closed",
) -> Tuple[int, ...]:
    """The component of each interior sample's x-image, all pushed through one step of m.

    ``param`` maps a float64 array of x to m's coordinate arrays, as for
    ``boundaries_empirical``; the images are classified among the ascending
    finite ``cuts`` under ``convention``."""
    _, (image_x, *_) = step(m, param(np.asarray(interior_samples(cuts))))
    bad = np.flatnonzero(~np.isfinite(image_x))
    if bad.size:
        raise NotACycle(f"no classifiable image for component {bad[0] + 1}")
    return tuple(classify_cuts(cuts, image_x, convention).tolist())


def _require_single_cycle(sigma: Tuple[int, ...]) -> None:
    """Refuse sigma (entries in 1..n) unless n steps from 1 visit all n components and end at 1."""
    n, cur, seen = len(sigma), 1, set()
    for _ in range(n):
        cur = sigma[cur - 1]
        seen.add(cur)
    if cur != 1 or len(seen) != n:
        raise NotACycle(f"sigma {sigma} is not a single {n}-cycle")
