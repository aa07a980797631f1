"""The benchmark's workloads: the CLI commands each one runs and the checks on their outputs.

A workload is made from a seed alone.  The seed jitters every raster window
by a sub-cell offset, so cell centres move while the picture stays the
same, and it shuffles the command order of every pass.  Each command is
one ``ivpp`` CLI invocation; its check reads the files the command wrote
and returns ``None`` when they are right, or the reason they are not.

The checks use the library only as the paper's reference: analytic
decompositions, and one map step for the successor rule of the tiling
rasters (acceptance check 10).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ivpp import cli
from ivpp.core import Indeterminate
from ivpp.decompose import decompose
from ivpp.ivpp2d import branches
from ivpp.lv3d import lv_decompose_period2
from ivpp.maps import f2d

HERE = os.path.dirname(os.path.abspath(__file__))
LYNESS = os.path.join(HERE, "lyness.rmap")

SUCCESSOR_MIN = 0.999  # the rule of acceptance check 10
MIN_CLASSIFIED = 1000
LYNESS_PERIOD5_MIN = 0.99
CUT_TOL = 1e-7


@dataclass
class Command:
    key: str  # stable name of the command, the same in every pass
    argv: List[str]
    check: Callable[[], Optional[str]]  # runs after a zero exit
    cells: int = 0  # grid cells the command computes


@dataclass
class Workload:
    name: str
    commands: List[Command]
    work_unit: str  # what work_per_s counts: "cells" or "branches"
    # which part of the speed probe scales its times: the kind of work it mostly does
    probe: str  # "python", "numpy" or "both"
    references: Dict[Tuple[int, int], List[float]] = field(default_factory=dict)

    @property
    def work_per_pass(self) -> int:
        if self.work_unit == "cells":
            return sum(c.cells for c in self.commands)
        return len(self.commands)

    def boundary_recall(self, empirical: Dict[Tuple[int, int], List[float]]) -> float:
        """Analytic cuts (infinity included) matched by an empirical cut, over all analytic cuts."""
        matched = total = 0
        for key, ref in self.references.items():
            found = empirical.get(key, [])
            total += len(ref)
            matched += sum(1 for a in ref if any(_same_cut(a, e) for e in found))
        return matched / total if total else 0.0


def _same_cut(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= CUT_TOL * max(1.0, abs(a))


# -- inputs --------------------------------------------------------------------


def _jitter(rng, window, res):
    """Shift a window by a random sub-cell offset in x and y."""
    x0, x1, y0, y1 = window
    w, h = res
    dx, dy = (x1 - x0) / w * rng.uniform(-0.5, 0.5), (y1 - y0) / h * rng.uniform(-0.5, 0.5)
    return (x0 + dx, x1 + dx, y0 + dy, y1 + dy)


def _grid_args(window, res) -> List[str]:
    return ["--window=" + ",".join(repr(float(v)) for v in window), "--res", f"{res[0]}x{res[1]}"]


def _cell_centers(window, res) -> Tuple[np.ndarray, np.ndarray]:
    x0, x1, y0, y1 = window
    w, h = res
    return (
        x0 + (x1 - x0) / w * (np.arange(w) + 0.5),
        y0 + (y1 - y0) / h * (np.arange(h) + 0.5),
    )


# -- output readers ----------------------------------------------------------------


def read_pgm(path: str, res) -> np.ndarray:
    """PGM bytes as an (h, w) array with row 0 at the smallest y, as the rasters store it."""
    w, h = res
    with open(path, "rb") as fh:
        data = fh.read()
    header = f"P5\n{w} {h}\n255\n".encode()
    if not data.startswith(header) or len(data) != len(header) + w * h:
        raise ValueError(f"{os.path.basename(path)}: not a {w}x{h} P5 image")
    return np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(h, w)[::-1, :]


def _csv_column_matches(path: str, window, res, column: int, pgm: np.ndarray) -> Optional[str]:
    """Row count w*h, cell centres in row-major order, and one integer column equal to the PGM."""
    w, h = res
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[0] != w * h:
        return f"CSV has {table.shape[0]} rows, want {w * h}"
    xs, ys = _cell_centers(window, res)
    if not (
        np.allclose(table[:, 0], np.tile(xs, h), rtol=1e-12, atol=1e-12)
        and np.allclose(table[:, 1], np.repeat(ys, w), rtol=1e-12, atol=1e-12)
    ):
        return "CSV cell centres differ from the window's"
    values = np.clip(table[:, column], 0, 255).astype(np.uint8).reshape(h, w)
    if not np.array_equal(values, pgm):
        return f"CSV column {column} differs from the PGM in {int((values != pgm).sum())} cells"
    return None


# -- tiles -------------------------------------------------------------------------


class _Repeat:
    """Remembers each command's first PGM digest, so repetitions must be byte-identical."""

    def __init__(self):
        self.digests: Dict[str, str] = {}

    def differs(self, key: str, path: str) -> bool:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return self.digests.setdefault(key, digest) != digest


def _successor_fraction(grid, xs, image_class) -> float:
    """Share of classified cells whose image lands in sigma of their class.

    Cells of one column share x, so the image class is computed once per
    column; a column whose image is a pole is skipped, as in check 10.
    """
    ok = bad = 0
    for j in np.nonzero((grid > 0).any(axis=0))[0]:
        succ = image_class(float(xs[j]))
        if succ is None:
            continue
        col = grid[:, j]
        comps, counts = np.unique(col[col > 0], return_counts=True)
        for comp, count in zip(comps, counts):
            if succ(int(comp)):
                ok += int(count)
            else:
                bad += int(count)
    return ok / max(1, ok + bad)


def _check_tiling(path, res, xs, n_components, image_class, repeat, key) -> Optional[str]:
    grid = read_pgm(path, res)
    classes = sorted(int(v) for v in np.unique(grid[grid > 0]))
    if classes != list(range(1, n_components + 1)):
        return f"component classes {classes}, want 1..{n_components}"
    classified = int((grid > 0).sum())
    if classified < MIN_CLASSIFIED:
        return f"only {classified} classified cells"
    frac = _successor_fraction(grid, xs, image_class)
    if frac < SUCCESSOR_MIN:
        return f"successor fraction {frac:.5f} < {SUCCESSOR_MIN}"
    if repeat.differs(key, path):
        return "PGM bytes differ from the first repetition"
    return None


def _f2d_image_class(n: int, index: int):
    b = branches(n)[index - 1]
    d = decompose(b, method="analytic")
    m = f2d()

    def image_class(x: float):
        try:
            cx = m.apply(b.point(x))[0]
        except Indeterminate:
            return None
        if cx.is_infinite:
            return None
        target = d.classify(cx.value.real)
        return lambda comp: target == d.sigma[comp - 1]

    return d.n_components, image_class


def _f3d_image_class():
    d = lv_decompose_period2(0.0, "+")

    def image_class(x: float):
        if x == 1.0:
            return None
        target = d.classify(x / (x - 1.0))  # the reduced step x -> -x/(1-x)
        return lambda comp: target == d.sigma[comp - 1]

    return d.n_components, image_class


def tiles(rng, workdir: str) -> Workload:
    repeat = _Repeat()
    commands = []
    square4, square12 = (-4.0, 4.0, -4.0, 4.0), (-12.0, 12.0, -12.0, 12.0)
    specs = [  # (period, branch, window, resolution): the paper's tiling figures
        (3, 1, square4, (800, 800)),
        (5, 2, square12, (800, 800)),  # cuts at +-1 and +-4.24 on the level xy = -9.47
        (7, 1, square4, (800, 800)),
        (3, 1, square4, (2000, 2000)),
    ]
    for n, index, window, res in specs:
        win = _jitter(rng, window, res)
        key = f"raster-component-f2d-n{n}-b{index}-{res[0]}"
        out = os.path.join(workdir, key + ".pgm")
        n_comp, image_class = _f2d_image_class(n, index)
        xs, _ = _cell_centers(win, res)
        argv = ["raster", "--map", "f2d", "--period", str(n), "--branch", str(index)]
        argv += _grid_args(win, res) + ["-o", out]
        check = lambda out=out, res=res, xs=xs, n_comp=n_comp, ic=image_class, key=key: (
            _check_tiling(out, res, xs, n_comp, ic, repeat, key)
        )
        commands.append(Command(key, argv, check, res[0] * res[1]))

    res = (600, 600)
    win = _jitter(rng, (-3.0, 3.0, -5.0, 5.0), res)
    key = "raster-striped-f3d-600"
    out = os.path.join(workdir, key + ".pgm")
    n_comp, image_class = _f3d_image_class()
    xs, _ = _cell_centers(win, res)
    argv = ["raster", "--map", "f3d", "--period", "2"] + _grid_args(win, res) + ["-o", out]
    check = lambda: _check_tiling(out, res, xs, n_comp, image_class, repeat, key)
    commands.append(Command(key, argv, check, res[0] * res[1]))
    return Workload("tiles", commands, "cells", "numpy")  # grid kernel up to 2000^2


# -- layers ------------------------------------------------------------------------


def _check_period_raster(pgm_path, csv_path, window, res, n_max) -> Optional[str]:
    grid = read_pgm(pgm_path, res)
    if int(grid.max()) > n_max:
        return f"period {int(grid.max())} above n_max {n_max}"
    if csv_path:
        return _csv_column_matches(csv_path, window, res, 2, grid)
    return None


def _check_lyness(pgm_path, res, n_max) -> Optional[str]:
    grid = read_pgm(pgm_path, res)
    share = float((grid == 5).mean())
    if share < LYNESS_PERIOD5_MIN:
        return f"period-5 share {share:.5f} < {LYNESS_PERIOD5_MIN}"
    return _check_period_raster(pgm_path, None, None, res, n_max)


def _check_denoms(pgm_path, csv_path, window, res, k_max) -> Optional[str]:
    grid = read_pgm(pgm_path, res)
    if int(grid.max()) > k_max:
        return f"pole depth {int(grid.max())} outside 0..{k_max}"
    if csv_path:
        return _csv_column_matches(csv_path, window, res, 2, grid)
    return None


def layers(rng, workdir: str) -> Workload:
    commands = []
    n_max, k_max = 8, 6
    res = (800, 800)

    win = _jitter(rng, (-4.0, 4.0, -4.0, 4.0), res)
    key = "raster-period-f2d-800-csv"
    pgm, csv = os.path.join(workdir, key + ".pgm"), os.path.join(workdir, key + ".csv")
    argv = ["raster", "--map", "f2d", "--mode", "period", "--n-max", str(n_max)]
    argv += _grid_args(win, res) + ["-o", pgm, "--csv", csv]
    check = lambda pgm=pgm, csv=csv, win=win: _check_period_raster(pgm, csv, win, res, n_max)
    commands.append(Command(key, argv, check, res[0] * res[1]))

    win = _jitter(rng, (-4.0, 4.0, -4.0, 4.0), res)
    key = "raster-period-lyness-800"
    pgm_l = os.path.join(workdir, key + ".pgm")
    argv = ["raster", "--map", LYNESS, "--mode", "period", "--n-max", str(n_max)]
    argv += _grid_args(win, res) + ["-o", pgm_l]
    commands.append(Command(key, argv, lambda: _check_lyness(pgm_l, res, n_max), res[0] * res[1]))

    for dres, with_csv in (((800, 800), True), ((2000, 2000), False)):
        win = _jitter(rng, (-4.0, 4.0, -4.0, 4.0), dres)
        key = f"denoms-f2d-k{k_max}-{dres[0]}" + ("-csv" if with_csv else "")
        pgm = os.path.join(workdir, key + ".pgm")
        csv = os.path.join(workdir, key + ".csv") if with_csv else None
        argv = ["denoms", "--map", "f2d", "--k-max", str(k_max)] + _grid_args(win, dres)
        argv += ["-o", pgm] + (["--csv", csv] if csv else [])
        check = lambda pgm=pgm, csv=csv, win=win, dres=dres: _check_denoms(pgm, csv, win, dres, k_max)
        commands.append(Command(key, argv, check, dres[0] * dres[1]))
    return Workload("layers", commands, "cells", "both")  # grid kernel, curve sampling, CSV text


# -- boundaries ------------------------------------------------------------------


def _check_decomposition(path, ref) -> Optional[str]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    cuts = [float(v) for v in doc["boundaries"]]
    want = [float(v) for v in ref["boundaries"]]
    if len(cuts) != len(want):
        return f"{len(cuts)} cuts, want {len(want)}"
    if not all(_same_cut(a, b) for a, b in zip(want, cuts)):
        return f"cuts {cuts} differ from {want}"
    if doc["sigma"] != ref["sigma"]:
        return f"sigma {doc['sigma']} differs from {ref['sigma']}"
    return None


def boundaries(rng, workdir: str) -> Workload:
    """Every branch of n=3..16; the analytic CLI decomposition is the reference.

    There is no window here, so the seed only shuffles the command order.
    """
    commands = []
    refs: Dict[Tuple[int, int], List[float]] = {}
    for n in range(3, 17):
        for index, b in enumerate(branches(n), 1):
            base = ["decompose", "--map", "f2d", "--period", str(n), "--branch", str(index)]
            code, out, err = cli.run_captured(base + ["--method", "analytic"])
            if code != 0:
                raise RuntimeError(f"analytic reference n={n} branch {index}: {err.strip()}")
            ref = json.loads(out)
            refs[(n, b.m)] = [float(v) for v in ref["boundaries"][1:]] + [math.inf]
            key = f"decompose-empirical-n{n}-b{index}"
            path = os.path.join(workdir, key + ".json")
            argv = base + ["--method", "empirical", "-o", path]
            commands.append(Command(key, argv, lambda path=path, ref=ref: _check_decomposition(path, ref)))
    return Workload("boundaries", commands, "branches", "python", refs)  # scalar Python only


BUILDERS = {"tiles": tiles, "layers": layers, "boundaries": boundaries}
