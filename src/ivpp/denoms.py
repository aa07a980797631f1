"""Zero sets of the denominators of map iterates.

Component boundaries of a period-n variety sit on the intersection of the
variety with the locus where some iterate hits a pole; the k-th layer here
marks, per grid cell, a sign change of a component denominator evaluated
along the orbit at depth k (the orbit's first pole).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import RationalMap
from .kernel import step
from .poly import Polynomial


@dataclass(frozen=True)
class DenominatorCurve:
    """One implicit curve den_j(F^(k-1)(p)) = 0, sampled on the grid."""

    depth: int  # k: the application at which the pole occurs
    component: int  # j: which component's denominator
    values: np.ndarray  # signed samples (nan where the orbit died earlier)
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
    coords = np.meshgrid(xs, ys)
    shape = coords[0].shape
    alive = np.ones(shape, dtype=bool)
    first_pole = np.zeros(shape, dtype=np.int16)
    curves: List[DenominatorCurve] = []
    for k in range(1, k_max + 1):
        # images of dead cells are fed back unmasked: every output masks them by ``alive``
        den_vals, coords = step(m, coords)
        step_cross = np.zeros(shape, dtype=bool)
        for j, D in enumerate(den_vals):
            D[~alive] = np.nan
            cross = np.zeros(shape, dtype=bool)
            s = np.sign(D)
            cross[:, :-1] |= (s[:, :-1] * s[:, 1:]) < 0
            cross[:-1, :] |= (s[:-1, :] * s[1:, :]) < 0
            cross &= alive
            curves.append(DenominatorCurve(k, j, D, cross))
            step_cross |= cross
        first_pole[step_cross & (first_pole == 0)] = k
        for arr in coords:
            alive &= np.isfinite(arr)
    return DenominatorZeroSet(k_max, tuple(window), tuple(resolution), dens, tuple(curves), first_pole)


