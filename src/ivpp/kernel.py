"""Numpy orbit step and grid kernel.

``step`` applies a map of any dimension to arrays of points with IEEE
semantics (inf on a pole, nan on 0/0) and also returns the denominators
it evaluated.  The period grid, the pole-depth layers and the empirical
boundary scan all iterate through it.  ``period_grid`` gives each cell of
a 2d map's raster the first k <= n_max whose iterate is within tol of the
start under the chordal metric, 0 when there is none, and -1 when the
orbit leaves the finite chart first (0/0 or a pole transit).
"""

from __future__ import annotations

import os
from typing import List, Sequence, Tuple

import numpy as np

from .core import RationalMap

BACKEND = "python"


def step(m: RationalMap, coords: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """(denominators, images) of m at arrays of one shape, one per variable;
    both are lists of new arrays of that shape, one per component."""
    with np.errstate(all="ignore"):
        dens = [den.eval_grid(coords) for _, den in m.components]
        images = [num.eval_grid(coords) / d for (num, _), d in zip(m.components, dens)]
    return dens, images


def _homogeneous(a):
    """Normalized homogeneous pair (u, v) of a on the real projective line."""
    small = np.abs(a) <= 1.0
    with np.errstate(all="ignore"):
        h1 = np.sqrt(1.0 + a * a)
        w = np.where(small, 0.0, 1.0 / a)  # inf -> 0 in the inverse chart
        h2 = np.sqrt(1.0 + w * w)
        u = np.where(small, a / h1, 1.0 / h2)
        v = np.where(small, 1.0 / h1, w / h2)
    return u, v


def _chord_grid(a, uv):
    """Chordal distance |u1 v2 - u2 v1| from a to b, given uv = _homogeneous(b);
    on arrays, handles inf, propagates nan."""
    u1, v1 = _homogeneous(a)
    u2, v2 = uv
    return np.abs(u1 * v2 - u2 * v1)


def _rows(m, xs, ys, n_max, tol, out, row_lo, row_hi):
    """Fill out[row_lo:row_hi, :] with the minimal periods of the 2d map m."""
    cx, cy = x0, y0 = np.meshgrid(xs, ys[row_lo:row_hi])
    start = _homogeneous(x0), _homogeneous(y0)  # projected once, compared at every step
    period = np.zeros(x0.shape, dtype=np.int16)
    dead = np.zeros(x0.shape, dtype=bool)
    for k in range(1, n_max + 1):
        _, (cx, cy) = step(m, (cx, cy))
        with np.errstate(all="ignore"):
            dead |= (np.isnan(cx) | np.isnan(cy)) & (period == 0)
            dist = np.maximum(_chord_grid(cx, start[0]), _chord_grid(cy, start[1]))
        period[(period == 0) & ~dead & (dist < tol)] = k
    period[dead] = -1
    out[row_lo:row_hi, :] = period


def period_grid(
    m: RationalMap,
    xs: np.ndarray,
    ys: np.ndarray,
    n_max: int,
    tol: float,
    threads: int | None = None,
) -> np.ndarray:
    """Per-cell minimal period (int16): 0 none, -1 left the finite chart.

    Rows are split across ``threads`` workers (IVPP_THREADS by default);
    cells are independent and writes disjoint, so the result does not
    depend on the execution order.
    """
    if m.dim != 2:
        raise ValueError("grid kernels support 2d maps")
    polys = [p for pair in m.components for p in pair]
    if any(complex(c).imag != 0 for p in polys for c in p.terms.values()):
        raise ValueError("grid kernels need real coefficients")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    out = np.empty((ys.shape[0], xs.shape[0]), dtype=np.int16)
    if threads is None:
        threads = int(os.environ.get("IVPP_THREADS", "1"))
    threads = max(1, min(threads, ys.shape[0]))
    if threads == 1:
        _rows(m, xs, ys, n_max, tol, out, 0, ys.shape[0])
        return out
    from concurrent.futures import ThreadPoolExecutor

    edges = np.linspace(0, ys.shape[0], threads + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(_rows, m, xs, ys, n_max, tol, out, int(a), int(b))
            for a, b in zip(edges[:-1], edges[1:])
            if b > a
        ]
        for f in futures:
            f.result()
    return out
