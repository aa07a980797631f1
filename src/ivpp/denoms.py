"""Zero sets of the denominators of map iterates.

Component boundaries of a period-n variety sit on the intersection of the
variety with the locus where some iterate hits a pole; the k-th layer here
marks, per grid cell, a sign change of a component denominator evaluated
along the orbit at depth k (the orbit's first pole).  The orbits run in
the kernel's row blocks; only int8 signs and bool masks are kept per
(depth, component), never the float denominators themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import RationalMap
from .kernel import blocks, step
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
    curves: Tuple[DenominatorCurve, ...]
    first_pole_depth: np.ndarray  # int16 per cell: 0 = none within k_max

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


def denominator_zero_curves(
    m: RationalMap,
    k_max: int,
    window: Optional[Tuple[float, float, float, float]] = None,
    resolution: Optional[Tuple[int, int]] = None,
) -> DenominatorZeroSet:
    """Numeric pole-depth layers for a 2d map (k_max <= 6: degree growth guard).

    Without a window only the exact k = 1 denominators are reported, which
    works for any dimension.
    """
    if not 1 <= k_max <= 6:
        raise ValueError("k_max must be 1..6")
    dens = tuple(den for _, den in m.components)
    if window is None or resolution is None:
        return DenominatorZeroSet(
            k_max, (0, 0, 0, 0), (0, 0), dens, (), np.zeros((0, 0), dtype=np.int16)
        )
    if m.dim != 2:
        raise ValueError("the window scan supports 2d maps; use the exact k=1 list instead")

    xs, ys = cell_centers(window, resolution)
    w, h = resolution
    curves = tuple(
        DenominatorCurve(k, j, np.zeros((h, w), dtype=np.int8), np.zeros((h, w), dtype=bool))
        for k in range(1, k_max + 1)
        for j in range(len(dens))
    )
    first_pole = np.zeros((h, w), dtype=np.int16)
    for lo, hi in blocks(w, h):
        # one halo row below the block feeds the vertical sign-change test of row hi - 1
        coords = np.meshgrid(xs, ys[lo : min(hi + 1, h)])
        alive = np.ones(coords[0].shape, dtype=bool)
        depth = first_pole[lo:hi]
        for k in range(1, k_max + 1):
            # images of dead cells are fed back unmasked: the signs mask them by ``alive``
            den_vals, coords = step(m, coords)
            step_cross = np.zeros(depth.shape, dtype=bool)
            for j, D in enumerate(den_vals):
                s = np.zeros(D.shape, dtype=np.int8)
                s[alive & (D > 0)] = 1
                s[alive & (D < 0)] = -1
                cross = np.zeros(D.shape, dtype=bool)
                cross[:, :-1] |= (s[:, :-1] * s[:, 1:]) < 0
                cross[:-1, :] |= (s[:-1, :] * s[1:, :]) < 0
                curve = curves[(k - 1) * len(dens) + j]
                curve.values[lo:hi] = s[: hi - lo]
                curve.crossing[lo:hi] = cross[: hi - lo]
                step_cross |= cross[: hi - lo]
            depth[step_cross & (depth == 0)] = k
            for arr in coords:
                alive &= np.isfinite(arr)
    return DenominatorZeroSet(k_max, tuple(window), tuple(resolution), dens, curves, first_pole)
