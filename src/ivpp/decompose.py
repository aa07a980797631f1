"""Component decomposition of a period-n variety along the x direction.

Boundaries come from two routes that must agree: the closed-form values
``boundary_c`` (analytic), and a scan/bisection search for poles of the
x-coordinates of the n-step flow (empirical).  Intervals between
consecutive boundaries are half-open; the map permutes them, and the
permutation is read off by pushing one interior sample of each interval
through the map once (``pushed_sigma``, shared with the 3d map's period-2
pairing in ``lv3d``).  Every orbit here goes through ``kernel.step`` on
arrays: the scan, its bisection and closure check, and the one step of
all interior samples that gives the permutation.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import TOL_EQ, RationalMap
from .ivpp2d import IvppBranch
from .kernel import return_start, returns, step
from .maps import f2d
from .mobius import boundary_cs

INF_F = math.inf


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
        if list(fin) != sorted(fin):
            raise ValueError("boundaries must be ascending")
        if self.boundaries[-1] != INF_F:
            raise ValueError("the boundary at infinity must be present (last)")
        if self.convention not in ("left-closed", "right-closed"):
            raise ValueError(f"unknown convention {self.convention!r}")
        if len(fin) != len(self.boundaries) - 1:
            raise ValueError("every boundary but the last must be finite")
        n = self.n_components
        if sorted(self.sigma) != list(range(1, n + 1)):
            raise ValueError(f"sigma must map each of the {n} components to a different one of 1..{n}: {self.sigma}")

    @cached_property
    def _finite(self) -> Tuple[float, ...]:
        return tuple(b for b in self.boundaries if math.isfinite(b))

    def finite_boundaries(self) -> Tuple[float, ...]:
        return self._finite

    @property
    def n_components(self) -> int:
        return len(self.boundaries)

    def intervals(self) -> List[Tuple[float, float]]:
        """(lo, hi) pairs covering the extended line; first lo and last hi are inf."""
        fin = self.finite_boundaries()
        ends = [-INF_F, *fin, INF_F]
        return list(zip(ends[:-1], ends[1:]))

    def classify(self, x, tol: float = 1e-9):
        """1-based component index of x, a float or an array of them; see ``classify_cuts``."""
        return classify_cuts(self._finite, x, self.convention, tol)

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


def classify_cuts(cuts: Sequence[float], x, convention: str = "left-closed", tol: float = 1e-9):
    """1-based component of x among the ascending finite ``cuts``; infinity
    lands in the last component, len(cuts) + 1.

    x within tol of a cut point counts as sitting on the cut, so the
    half-open convention decides its side; this keeps the printed
    boundary memberships stable against the ~1e-16 noise the closed
    forms carry.  The cuts within tol of x are adjacent in the sorted
    list, so x snaps to the lowest of them, found from its bisect
    position in O(log n).  An array x gets an array of classes: one
    searchsorted pass decides every finite x farther than tol from the
    cuts next to it, and the scalar rule the rest.
    """
    if np.ndim(x):
        x = np.asarray(x, dtype=float)
        q = np.searchsorted(cuts, x, side="right" if convention == "left-closed" else "left")
        ends = np.array([math.nan, *cuts, math.nan])  # ends[q], ends[q + 1]: the cuts next to x
        reach = tol * np.maximum(1.0, np.abs(ends))
        with np.errstate(invalid="ignore"):
            near = (np.abs(x - ends[q]) <= reach[q]) | (np.abs(x - ends[q + 1]) <= reach[q + 1])
        out = q + 1
        rest = np.nonzero(near | ~np.isfinite(x))
        out[rest] = [classify_cuts(cuts, v, convention, tol) for v in x[rest].tolist()]
        return out
    if math.isinf(x):
        return len(cuts) + 1

    def near(j: int) -> bool:
        return abs(x - cuts[j]) <= tol * max(1.0, abs(cuts[j]))

    p = bisect_left(cuts, x)
    j = p
    while j > 0 and near(j - 1):
        j -= 1
    if j < p or (p < len(cuts) and near(p)):
        x = cuts[j]
    if convention == "left-closed":
        return bisect_right(cuts, x) + 1
    return bisect_left(cuts, x) + 1


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

_HUGE = 1e8
SCAN_WINDOW = (-6.0, 6.0)  # the x-range of the sign-change scan


def _dedup_sorted(values: List[float], tol: float = 1e-9) -> List[float]:
    values = sorted(values)
    out: List[float] = []
    for v in values:
        if not out or abs(v - out[-1]) > tol:
            out.append(v)
    return out


def _flow_x(m: RationalMap, coords: Sequence[np.ndarray], n: int) -> Iterator[np.ndarray]:
    """x-coordinates of the points 0..n-1 of the flow from arrays of starts.

    An orbit is dead, and reads nan from then on, once a step gives 0/0.
    """
    alive = np.ones(coords[0].shape, dtype=bool)
    for k in range(n):
        if k:
            _, coords = step(m, coords)
            for c in coords:
                alive &= ~np.isnan(c)
        yield np.where(alive, coords[0], np.nan)


def _digits(x: np.ndarray) -> np.ndarray:
    """One signature digit per orbit: the sign of x, 5 at infinity, 9 when dead."""
    return np.where(np.isnan(x), 9, np.where(np.isinf(x), 5, np.sign(x))).astype(np.int8)


_BISECT_LEVELS = 4  # bisection steps per flow: each round flows 2**4 - 1 midpoints per bracket


def _midpoint_tree(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every midpoint the next _BISECT_LEVELS bisection steps of [a, b] could take.

    Row j is heap node j: node 0 is the midpoint of [a, b], and the children
    of a node on [lo, hi] with midpoint c are 2j+1 on [lo, c] and 2j+2 on
    [c, hi], each computed as 0.5 * (lo + hi) like a sequential step.
    """
    los, his, mids = a[None], b[None], []
    for _ in range(_BISECT_LEVELS):
        mid = 0.5 * (los + his)
        mids.append(mid)
        los = np.stack([los, mid], axis=1).reshape(-1, a.size)
        his = np.stack([mid, his], axis=1).reshape(-1, a.size)
    return np.concatenate(mids)


def boundaries_empirical(
    m: RationalMap,
    param: Callable[[np.ndarray], Sequence[np.ndarray]],
    n: int,
    samples: int = 4800,
    tol: float = 1e-9,
) -> List[float]:
    """Boundary estimates from sign changes of the flow's x-coordinates.

    Scans SCAN_WINDOW, bisects every discontinuity of the orbit signature
    (the sign pattern of the x-coordinate of all n iterates), and keeps
    the candidates where some iterate actually blows up (a pole), not the
    plain zero crossings.  The point at infinity is probed through the
    u = 1/x chart: it is a boundary when the signatures on the two sides
    of u = 0 disagree, which for the parameter-is-x flows used here they
    always do.

    ``param`` maps a float64 array of x to real coordinate arrays, one per
    variable, all nan where the parametrization has a pole.  Each stage
    pushes all its points through one vector flow; a bisection round flows
    the whole midpoint tree of its next _BISECT_LEVELS steps at once and
    then walks it, so its cuts are those of one midpoint per round.
    """
    lo, hi = SCAN_WINDOW
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")

    # closure pre-check on a few generic interior points, n steps of the flow;
    # a probe on a pole of param starts nan and never returns, and no n < 1 closes
    probes = lo + (hi - lo) * np.array([0.137, 0.411, 0.739])
    cur = start = param(probes)
    for _ in range(n):
        _, cur = step(m, cur)
    closed = returns(cur, return_start(start), TOL_EQ, np.ones(probes.shape, dtype=bool))
    if n < 1 or not closed.any():
        raise NoClosure(f"sampled points do not return after {n} steps")

    # the samples, then the two sides of u = 1/x = 0
    xs = np.append(lo + (hi - lo) * np.arange(samples + 1) / samples, [1.0 / 1e-9, -1.0 / 1e-9])
    sig = np.empty((n, xs.size), dtype=np.int8)  # row k: the digits of iterate k
    change = np.zeros(xs.size - 1, dtype=bool)
    for k, x in enumerate(_flow_x(m, param(xs), n)):
        sig[k] = _digits(x)
        change |= sig[k, 1:] != sig[k, :-1]

    # bisect every discontinuity in lockstep against its left sample's signature
    i = np.flatnonzero(change[:samples])
    a, b = xs[i], xs[i + 1]
    left = sig[:, i]
    thr = tol * 0.01
    while (act := np.flatnonzero(b - a > thr)).size:
        mids = _midpoint_tree(a[act], b[act])
        same = np.ones(mids.shape, dtype=bool)
        for k, x in enumerate(_flow_x(m, param(mids.ravel()), n)):
            same &= _digits(x).reshape(mids.shape) == left[k, act]
        # walk it as sequential bisection would: a midpoint with the left sample's
        # signature becomes a (go on to node 2j+2), any other becomes b (node 2j+1),
        # and a bracket within thr stays as it is
        node, col = np.zeros(act.size, dtype=np.intp), np.arange(act.size)
        for _ in range(_BISECT_LEVELS):
            go = b[act] - a[act] > thr
            mid, s = mids[node, col], same[node, col]
            a[act] = np.where(go & s, mid, a[act])
            b[act] = np.where(go & ~s, mid, b[act])
            node = 2 * node + 1 + s

    # keep only pole crossings: near a boundary some iterate is huge
    x_star = 0.5 * (a + b)
    pole = np.zeros(x_star.size, dtype=bool)
    for x in _flow_x(m, param(x_star), n):
        pole |= np.abs(x) > _HUGE
    out = _dedup_sorted(x_star[pole].tolist(), tol=10 * tol)
    if change[-1]:
        out.append(INF_F)
    return out


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
