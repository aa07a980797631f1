"""Tiling rasters: per-cell period class and component index over a window.

Two layers per raster:

* ``period``     raw per-cell minimal period from the grid kernel
                 (0 none, -1 the orbit left the finite chart), computed on
                 first read and cached, so outputs that never read it (the
                 component PGM) never run the kernel;
* ``component``  for branch rasters, the component index of cells lying in
                 a band around the branch variety, verified by snapping the
                 cell to the variety (same x, y = rho/x) and demanding the
                 snapped point close after exactly n steps.  The snapped
                 point depends only on the cell's column, so the check runs
                 once per column that has band cells: one run of all of them
                 through ``kernel.first_returns``, the period grid's loop.
                 The band is tested only on each column's candidate rows
                 (see ``_band``), so the pass costs O(band cells + output)
                 rather than O(width * height).  Every raster keeps the
                 layer as an index into it and the classes it takes there
                 (a branch raster's classified rows and columns, a stripe
                 raster's stripe rows and their level lines), and writes
                 them, ``layer[index] = classes``, into the dense (h, w)
                 layer only when ``.component`` is read and into the one
                 byte body of the component PGM.

Cells are independent and the output is deterministic for fixed inputs.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from . import kernel
from .core import RationalMap, check_tol
from .decompose import decompose
from .denoms import cell_centers
from .ivpp2d import IvppBranch
from .lv3d import lv_decompose_period2, lv_discriminant
from .maps import f2d

RASTER_TOL = 1e-6  # default chordal tolerance of the raw period layer
EXACT_TOL = 1e-9  # closure tolerance for snapped on-variety points
BAND_CELLS = 1.5  # half-width of the component band, in cell widths


@dataclass
class TilingRaster:
    window: Tuple[float, float, float, float]
    width: int
    height: int
    period_layer: Callable[[], np.ndarray] = field(repr=False)  # computes ``period``
    index: Tuple[np.ndarray, ...] = field(repr=False)  # where the component layer is classified
    classes: np.ndarray = field(repr=False)  # int16 classes there: layer[index] = classes
    meta: dict = field(default_factory=dict)

    @cached_property
    def period(self) -> np.ndarray:
        """int16 (h, w) period layer, computed on first read and cached."""
        return self.period_layer()

    @cached_property
    def component(self) -> np.ndarray:
        """int16 (h, w) component layer, 0 = unclassified; written from its index on first read."""
        layer = np.zeros((self.height, self.width), dtype=np.int16)
        layer[self.index] = self.classes
        return layer

    def cells(self) -> Tuple[np.ndarray, np.ndarray]:
        return cell_centers(self.window, (self.width, self.height))

    def _body(self, layer: str) -> np.ndarray:
        """The PGM body of a layer; the component layer is written into it from its index."""
        if layer != "component":
            return _pgm_body(getattr(self, layer))
        body = np.zeros((self.height, self.width), dtype=np.uint8)
        clipped = np.empty(self.classes.shape, dtype=np.uint8)  # no wider copy of the classes
        body[::-1][self.index] = np.clip(self.classes, 0, 255, out=clipped, casting="unsafe")  # top row first
        return body

    def to_pgm_bytes(self, layer: str = "component") -> bytes:
        """Binary PGM (P5); byte = zero-based class index + 1, 0 = unclassified."""
        return b"".join(_pgm_parts(self._body(layer)))

    def to_pgm(self, path: str, layer: str = "component") -> None:
        _pgm_write(path, self._body(layer))

    def to_csv(self, path: str) -> None:
        xs, ys = self.cells()
        write_csv(path, "x,y,period,component", xs, ys, (self.period, self.component))


def _pgm_body(grid: np.ndarray) -> np.ndarray:
    """PGM body of an (h, w) integer layer: a fresh C-contiguous uint8 (h, w) array,
    clipped to 0..255 with the top row = largest y."""
    if np.ndim(grid) != 2:
        raise ValueError(f"a PGM needs a 2-d layer, got shape {np.shape(grid)}")
    body = np.empty(grid.shape, dtype=np.uint8)
    np.clip(grid[::-1, :], 0, 255, out=body, casting="unsafe")  # clipped values fit a byte
    return body


def _pgm_parts(body: np.ndarray) -> Tuple[bytes, np.ndarray]:
    """The P5 header of a uint8 (h, w) body, and the body."""
    h, w = body.shape
    return f"P5\n{w} {h}\n255\n".encode(), body


@contextmanager
def output(path: str, mode: str):
    """The one opener of every file ivpp writes, binary ("wb") or UTF-8 text ("w"):
    in place, without O_TRUNC, and on leaving, by return or any exception, flushed
    and then cut at the written position (a regular file only), even if the flush
    fails.  Symlinks, mode, owner and hard links behave as with ``open(path, "w")``."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8", closefd=False) as fh:
            yield fh
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):  # not /dev/null or a pipe
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            os.close(fd)


def _pgm_write(path: str, body: np.ndarray) -> None:
    with output(path, "wb") as fh:
        fh.writelines(_pgm_parts(body))


def write_pgm(path: str, grid: np.ndarray) -> None:
    """Write the binary PGM (P5) of an (h, w) integer layer to ``path`` through ``output``,
    from one body buffer; a layer that is not 2-d raises before the file is opened."""
    _pgm_write(path, _pgm_body(grid))


def write_csv(path: str, header: str, xs, ys, layers) -> None:
    """One line per cell, rows from the smallest y: x and y (%.17g), then each integer layer.

    Each layer must have the shape (len(ys), len(xs)); a ValueError is raised
    before the file is opened otherwise.  The file is written through ``output``,
    in place and then cut to the written length.  A row is written by its runs,
    stretches of consecutive cells with the same values in every layer: the run
    over columns [a, b) ending in t = "y,v1,...\\n" is one join of the x texts of
    its columns with t between them, plus t.  Every x is formatted once, and
    every line end once per row and value tuple: memory is O(width)."""
    w, h = len(xs), len(ys)
    for layer in layers:
        if np.shape(layer) != (h, w):
            raise ValueError(f"layer of shape {np.shape(layer)} does not fit the {h}x{w} grid")
    xcol = [f"{x:.17g}," for x in xs.tolist()]
    with output(path, "w") as fh:
        fh.write(header + "\n")
        for i, y in enumerate(f"{y:.17g}" for y in ys.tolist()):
            row = [layer[i] for layer in layers]
            change = np.zeros(w, dtype=bool)  # change[j]: cell j starts a run
            change[:1] = True
            for r in row:
                change[1:] |= r[1:] != r[:-1]
            starts = np.flatnonzero(change)
            bounds = starts.tolist() + [w]
            ends = {}  # value tuple -> its line end in this row
            pieces = []
            for a, b, *values in zip(bounds, bounds[1:], *(r[starts].tolist() for r in row)):
                key = tuple(values)
                t = ends.get(key)
                if t is None:
                    t = ends[key] = y + "".join(f",{v}" for v in key) + "\n"
                pieces += (t.join(xcol[a:b]), t)
            fh.write("".join(pieces))


def check_period_args(n_max: int, tol: float) -> None:
    """Refuse a chordal tol outside (0, 1) and an n_max outside 1..kernel.N_MAX_LIMIT."""
    check_tol(tol)
    if not 1 <= n_max <= kernel.N_MAX_LIMIT:
        raise ValueError(f"n_max must be in 1..{kernel.N_MAX_LIMIT}, got {n_max}")


def raster(
    m: RationalMap,
    window: Tuple[float, float, float, float],
    resolution: Tuple[int, int],
    n_max: int,
    tol: float = RASTER_TOL,
    branch: Optional[IvppBranch] = None,
) -> TilingRaster:
    """Period raster of a 2d map, plus component classes along one branch of f2d only.

    A cell joins the component layer when the local level value x*y falls
    within ``BAND_CELLS`` cell-widths of the branch level rho and the
    snapped point (x, rho/x) has minimal period exactly n (tol 1e-9); its
    class is the component of x in the branch's analytic ``decompose``.
    The period layer is deferred until ``.period`` is read; on branch
    rasters it reads n on every classified cell.  The component layer is
    kept as the rows and columns of its classified cells and their classes.
    """
    kernel.check_grid_map(m)
    if branch is not None and m.components != f2d().components:
        raise ValueError("component rasters need the f2d branches")
    check_period_args(n_max, tol)
    xs, ys = cell_centers(window, resolution)
    w, h = resolution
    index = (np.zeros(0, dtype=np.intp),) * 2
    classes = np.zeros(0, dtype=np.int16)
    meta = {
        "map": m.name or "user",
        "n_max": n_max,
        "tol": tol,
        "backend": kernel.BACKEND,
    }

    def period_layer() -> np.ndarray:
        raw = kernel.period_grid(m, xs, ys, n_max, tol)
        if branch is not None:
            raw[index] = branch.n  # every classified cell
        return raw

    if branch is not None:
        decomp = decompose(branch)
        cell = max((window[1] - window[0]) / w, (window[3] - window[2]) / h)
        rows, column = _band(xs, ys, window, branch.rho, BAND_CELLS * cell, cell)
        has_band = np.zeros(w, dtype=bool)
        has_band[column] = True
        columns = np.flatnonzero(has_band)
        closes = kernel.first_returns(m, branch.coords(xs[columns]), branch.n, EXACT_TOL) == branch.n
        column_class = np.zeros(w, dtype=np.int16)
        column_class[columns[closes]] = decomp.classify(xs[columns[closes]])
        classes = column_class[column]
        keep = classes != 0
        index, classes = (rows[keep], column[keep]), classes[keep]
        meta.update(
            {
                "period_n": branch.n,
                "branch": branch.label,
                "band_cells": BAND_CELLS,
                "snap_checks": int(columns.size),
                "classified": int(classes.size),
            }
        )

    return TilingRaster(tuple(window), w, h, period_layer, index, classes, meta)


def _band(xs, ys, window, rho: float, c: float, cell: float) -> Tuple[np.ndarray, np.ndarray]:
    """Rows and columns (intp) of the cells with |x*y - rho| <= c*(|x| + |y| + 1)
    and |x| > cell (the parametrization pole at x = 0), each cell once.

    With y = rho/x + d the test gives |d| <= c(|x| + |rho/x| + 1)/(|x| - c)
    when |x| > c, so a column is tested only on the rows of that range,
    widened by a relative 1e-9 and two rows for rounding; a column with
    |x| <= 2c, or whose range is not finite, is tested on all h rows.  The
    columns' candidate rows are laid end to end and tested about BLOCK_CELLS
    at a time, each block expanded from the first row and row count of the
    columns it meets.  Far out the test overflows to inf, which it compares.
    """
    h = ys.size
    y0, y1 = window[2], window[3]
    dy = (y1 - y0) / h
    ax = np.abs(xs)
    rows, columns = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    with np.errstate(all="ignore"):
        r = rho / xs
        half = c * (ax + np.abs(r) + 1.0) / (ax - c)
        half += 1e-9 * (half + np.abs(r) + abs(y0) + abs(y1))
        a, b = (r - half - y0) / dy - 0.5, (r + half - y0) / dy - 0.5
        lo, hi = np.floor(np.minimum(a, b)) - 2, np.ceil(np.maximum(a, b)) + 3
        full = (ax <= 2 * c) | ~np.isfinite(lo) | ~np.isfinite(hi)
        lo = np.clip(np.where(full, 0, lo), 0, h).astype(np.intp)
        count = np.clip(np.where(full, h, hi), 0, h).astype(np.intp) - lo
        cols = np.flatnonzero((ax > cell) & (count > 0))
        count = count[cols]
        ends = np.cumsum(count)  # candidate t of column k, starts[k] <= t < ends[k], is row t + shift[k]
        starts = ends - count
        shift = lo[cols] - starts
        total = int(count.sum())
        for t0 in range(0, total, kernel.BLOCK_CELLS):
            t1 = min(t0 + kernel.BLOCK_CELLS, total)
            k0, k1 = np.searchsorted(ends, t0, "right"), np.searchsorted(starts, t1)
            n = np.minimum(ends[k0:k1], t1) - np.maximum(starts[k0:k1], t0)
            row = np.repeat(shift[k0:k1], n)
            row += np.arange(t0, t1)
            X, Y = np.repeat(xs[cols[k0:k1]], n), ys[row]
            gap = X * Y  # |X*Y - rho| <= c*(|X| + |Y| + 1), in place; + and * commute bit for bit
            gap -= rho
            np.abs(gap, out=gap)
            reach = np.abs(Y, out=Y)
            reach += np.abs(X, out=X)
            reach += 1.0
            reach *= c
            keep = gap <= reach
            rows.append(row[keep])
            columns.append(np.repeat(cols[k0:k1], n)[keep])
    return np.concatenate(rows), np.concatenate(columns)


def lv_raster(
    window: Tuple[float, float, float, float],
    resolution: Tuple[int, int],
    sign: str = "+",
    stripe_half_width: float = 0.25,
) -> TilingRaster:
    """Striped period-2 tiling of the 3d map over the (x, r) plane.

    Rows near integer r (the level sets drawn with r stepped by 1) are
    classified by the r-independent x-intervals; cells with a negative
    discriminant have no real point and stay unclassified.  The stripe
    half-width must be in (0, 0.5]: wider stripes would overlap.
    """
    if not 0 < stripe_half_width <= 0.5:
        raise ValueError(f"stripe half-width must be in (0, 0.5], got {stripe_half_width}")
    xs, rs = cell_centers(window, resolution)
    w, h = resolution
    classes = lv_decompose_period2(0.0, sign).classify(xs).astype(np.int16)
    levels = np.round(rs)  # the nearest integer level of each row, half to even as round()
    near = ~(np.abs(rs - levels) > stripe_half_width) & (window[2] <= levels) & (levels <= window[3])
    rows = np.flatnonzero(near)
    level, which = np.unique(levels[rows], return_inverse=True)
    with np.errstate(all="ignore"):  # far out D overflows to +inf, which is real
        real = lv_discriminant(xs, level[:, np.newaxis]) >= 0  # one (levels x columns) grid
    grid = np.where(real & (xs != 0.0) & (xs != 1.0), classes, np.int16(0))
    lines = grid[which]  # each stripe row is its level's line

    def period_layer() -> np.ndarray:
        layer = np.zeros((h, w), dtype=np.int16)
        layer[rows] = np.where(lines != 0, 2, 0)  # every classified cell
        return layer

    return TilingRaster(
        tuple(window),
        w,
        h,
        period_layer,
        (rows,),
        lines,
        {
            "map": "f3d",
            "period_n": 2,
            "branch": f"a{sign}",
            "stripe_half_width": stripe_half_width,
            "plane": "(x, r)",
        },
    )
