"""Zero sets of the denominators of map iterates.

Component boundaries of a period-n variety sit on the intersection of the
variety with the locus where some iterate hits a pole; the k-th layer here
marks, per grid cell, a sign change of a component denominator evaluated
along the orbit at depth k (the orbit's first pole).  The orbits run in
the kernel's row blocks, shared between threads by ``kernel.run_blocks``,
and each block keeps only two bool masks per denominator, its positive and
its negative cells, never the float denominators themselves.  A block also
steps the first row of the block below it, so that no block reads
another's masks.  ``first_pole_depth`` comes from one scan; the
per-(depth, component) curves are built by a second scan only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import RationalMap
from .kernel import check_grid_map, denominators, run_blocks, step


@dataclass(frozen=True)
class DenominatorCurve:
    """One implicit curve den_j(F^(k-1)(p)) = 0, sampled on the grid."""

    depth: int  # k: the application at which the pole occurs
    component: int  # j: which component's denominator
    values: np.ndarray  # int8 sign of the denominator (0 where the orbit died earlier)
    crossing: np.ndarray  # bool: sign change toward the right/down neighbor


@dataclass(frozen=True)
class DenominatorZeroSet:
    curve_layers: Callable[[], Tuple[DenominatorCurve, ...]] = field(repr=False)  # computes ``curves``
    first_pole_depth: np.ndarray  # int16 per cell: 0 = none within k_max

    @cached_property
    def curves(self) -> Tuple[DenominatorCurve, ...]:
        """The curves in (depth, component) order, computed on first read and cached."""
        return self.curve_layers()

    def layer(self, k: int) -> np.ndarray:
        mask = np.zeros(self.first_pole_depth.shape, dtype=bool)
        for c in self.curves:
            if c.depth == k:
                mask |= c.crossing
        return mask


def cell_centers(window, resolution) -> Tuple[np.ndarray, np.ndarray]:
    """The x and y centres of a (w, h) grid over the window: every grid layer's input check."""
    x0, x1, y0, y1 = window
    if not (np.isfinite(x1 - x0) and np.isfinite(y1 - y0)):
        raise ValueError("window bounds and widths must be finite")
    if not (x0 < x1 and y0 < y1):
        raise ValueError(f"window must be increasing (x0 < x1, y0 < y1), got {tuple(window)}")
    if len(resolution) != 2 or not all(isinstance(v, Integral) and type(v) is not bool and v > 0 for v in resolution):
        raise ValueError(f"resolution must be two positive ints, got {tuple(resolution)}")
    w, h = resolution
    if w * h > 4096 * 4096:  # every grid command allocates from these centres
        raise ValueError("resolution capped at 4096 x 4096")
    dx, dy = (x1 - x0) / w, (y1 - y0) / h
    xs = x0 + dx * (np.arange(w) + 0.5)
    ys = y0 + dy * (np.arange(h) + 0.5)
    return xs, ys


def _scan(m: RationalMap, k_max: int, xs, ys, curves: Optional[List[DenominatorCurve]] = None) -> np.ndarray:
    """First pole depth (int16) per cell; with ``curves``, (depth, component)
    ordered, also write each curve's sign and crossing mask.

    Two denominators of opposite signs are exactly a positive and a negative
    one, so a crossing is ``(pos_a & neg_b) | (neg_a & pos_b)`` on the bool
    masks ``pos = alive & (D > 0)`` and ``neg = alive & (D < 0)``.  A block
    has no ``alive`` mask while every iterate is finite; the first non-finite
    image creates it.  At k_max only the denominators are evaluated: no
    image past the last depth is read.  A cell's crossing reads only its
    right and lower neighbours, so each block also steps the first row of
    the next one, a halo row, for its last row's vertical test and writes
    only its own rows: the blocks are independent, and ``run_blocks`` runs
    them on any thread in any order.
    """
    w, h = xs.shape[0], ys.shape[0]
    first_pole = np.zeros((h, w), dtype=np.int16)

    def block(lo: int, hi: int) -> None:
        coords = np.meshgrid(xs, ys[lo : min(hi + 1, h)])  # and the halo row; the last block has none
        alive = None  # every iterate finite so far
        depth = first_pole[lo:hi]
        rows = hi - lo
        for k in range(1, k_max + 1):
            if k < k_max:
                # images of dead cells are fed back unmasked: the masks drop them by ``alive``
                den_vals, coords = step(m, coords)
            else:
                den_vals = denominators(m, coords)
            step_cross = np.zeros(depth.shape, dtype=bool)
            for j, D in enumerate(den_vals):
                pos, neg = D > 0, D < 0
                if alive is not None:
                    pos &= alive
                    neg &= alive
                p, n = pos[:rows].ravel(), neg[:rows].ravel()  # horizontal pairs on the flat block, row ends cut after
                cross = np.empty(depth.shape, dtype=bool)
                np.bitwise_or(p[:-1] & n[1:], n[:-1] & p[1:], out=cross.ravel()[:-1])
                cross[:, -1] = False
                cross[: pos.shape[0] - 1] |= (pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:])
                step_cross |= cross
                if curves is not None:
                    curve = curves[(k - 1) * len(den_vals) + j]
                    np.subtract(pos[:rows], neg[:rows], out=curve.values[lo:hi], dtype=np.int8)
                    curve.crossing[lo:hi] = cross
            depth[step_cross & (depth == 0)] = k
            if k < k_max:
                finite = np.isfinite(coords[0])
                for arr in coords[1:]:
                    finite &= np.isfinite(arr)
                if alive is not None:
                    alive &= finite
                elif not finite.all():
                    alive = finite

    run_blocks(block, w, h)
    return first_pole


def denominator_zero_curves(
    m: RationalMap,
    k_max: int,
    window: Tuple[float, float, float, float],
    resolution: Tuple[int, int],
) -> DenominatorZeroSet:
    """Numeric pole-depth layers of a 2d map: ``first_pole_depth`` at once, ``curves`` on first read.

    The scan is linear in k; k_max <= 6 keeps the curve store that reading ``curves`` builds
    small: an int8 and a bool full-size layer per depth and denominator, about 400 MB at the
    4096 x 4096 cap for f2d."""
    if not 1 <= k_max <= 6:
        raise ValueError("k_max must be 1..6")
    check_grid_map(m)
    xs, ys = cell_centers(window, resolution)
    w, h = resolution

    def curve_layers() -> Tuple[DenominatorCurve, ...]:
        curves = [
            DenominatorCurve(k, j, np.zeros((h, w), dtype=np.int8), np.zeros((h, w), dtype=bool))
            for k in range(1, k_max + 1)
            for j in range(len(m.components))
        ]
        _scan(m, k_max, xs, ys, curves)
        return tuple(curves)

    return DenominatorZeroSet(curve_layers, _scan(m, k_max, xs, ys))
