"""Zero sets of the denominators of map iterates.

Component boundaries of a period-n variety sit on the intersection of the
variety with the locus where some iterate hits a pole; the k-th layer here
marks, per grid cell, a sign change of a component denominator evaluated
along the orbit at depth k (the orbit's first pole).  The orbits run in
the kernel's row blocks, and each block keeps only two bool masks per
denominator, its positive and its negative cells, never the float
denominators themselves.  ``first_pole_depth`` comes from one scan; the
per-(depth, component) curves are built by a second scan only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import RationalMap
from .kernel import blocks, check_grid_map, denominators, step
from .poly import Polynomial


@dataclass(frozen=True)
class DenominatorCurve:
    """One implicit curve den_j(F^(k-1)(p)) = 0, sampled on the grid."""

    depth: int  # k: the application at which the pole occurs
    component: int  # j: which component's denominator
    values: np.ndarray  # int8 sign of the denominator (0 where the orbit died earlier)
    crossing: np.ndarray  # bool: sign change toward the right/down neighbor


@dataclass(frozen=True)
class DenominatorZeroSet:
    k_max: int
    window: Tuple[float, float, float, float]
    resolution: Tuple[int, int]
    denominators: Tuple[Polynomial, ...]  # the map's own (k = 1) denominators
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
    x0, x1, y0, y1 = window
    if not (np.isfinite(x1 - x0) and np.isfinite(y1 - y0)):
        raise ValueError("window bounds and widths must be finite")
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
    image past the last depth is read.  Each block carries its last row's
    masks per (depth, component) into the next, whose first row closes the
    vertical test of the seam: a seam crossing at depth k marks the row above
    it, which the block before already scanned, so its depth becomes the
    least such k.
    """
    w, h = xs.shape[0], ys.shape[0]
    first_pole = np.zeros((h, w), dtype=np.int16)
    seam = {}  # (k, j) -> (pos, neg) of the previous block's last row
    for lo, hi in blocks(w, h):
        coords = np.meshgrid(xs, ys[lo:hi])
        alive = None  # every iterate finite so far
        depth = first_pole[lo:hi]
        above = first_pole[lo - 1] if lo else None  # the last row of the block before
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
                p, n = pos.ravel(), neg.ravel()  # horizontal pairs on the flat block, row ends cut after
                cross = np.empty(depth.shape, dtype=bool)
                np.bitwise_or(p[:-1] & n[1:], n[:-1] & p[1:], out=cross.ravel()[:-1])
                cross[:, -1] = False
                cross[:-1] |= (pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:])
                step_cross |= cross
                if above is not None:
                    up_pos, up_neg = seam[k, j]
                    seam_cross = (up_pos & neg[0]) | (up_neg & pos[0])
                    above[seam_cross & ((above == 0) | (above > k))] = k
                seam[k, j] = pos[-1].copy(), neg[-1].copy()
                if curves is not None:
                    curve = curves[(k - 1) * len(den_vals) + j]
                    np.subtract(pos, neg, out=curve.values[lo:hi], dtype=np.int8)
                    curve.crossing[lo:hi] = cross
                    if above is not None:
                        curve.crossing[lo - 1] |= seam_cross
            depth[step_cross & (depth == 0)] = k
            if k < k_max:
                finite = np.isfinite(coords[0])
                for arr in coords[1:]:
                    finite &= np.isfinite(arr)
                if alive is not None:
                    alive &= finite
                elif not finite.all():
                    alive = finite
    return first_pole


def denominator_zero_curves(
    m: RationalMap,
    k_max: int,
    window: Optional[Tuple[float, float, float, float]] = None,
    resolution: Optional[Tuple[int, int]] = None,
) -> DenominatorZeroSet:
    """Numeric pole-depth layers for a 2d map (k_max <= 6: degree growth guard).

    Without a window only the exact k = 1 denominators are reported, which
    works for any dimension.  With one, ``first_pole_depth`` is scanned at
    once and ``curves`` on first read.
    """
    if not 1 <= k_max <= 6:
        raise ValueError("k_max must be 1..6")
    dens = tuple(den for _, den in m.components)
    if window is None or resolution is None:
        return DenominatorZeroSet(k_max, (0, 0, 0, 0), (0, 0), dens, lambda: (), np.zeros((0, 0), dtype=np.int16))
    if m.dim != 2:
        raise ValueError("the window scan supports 2d maps; use the exact k=1 list instead")
    check_grid_map(m)
    xs, ys = cell_centers(window, resolution)
    w, h = resolution

    def curve_layers() -> Tuple[DenominatorCurve, ...]:
        curves = [
            DenominatorCurve(k, j, np.zeros((h, w), dtype=np.int8), np.zeros((h, w), dtype=bool))
            for k in range(1, k_max + 1)
            for j in range(len(dens))
        ]
        _scan(m, k_max, xs, ys, curves)
        return tuple(curves)

    return DenominatorZeroSet(
        k_max, tuple(window), tuple(resolution), dens, curve_layers, _scan(m, k_max, xs, ys)
    )
