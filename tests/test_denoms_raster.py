import importlib
import os
import stat
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import JITTERED_WINDOW, POLE_WINDOW, csv_per_cell, pole_depths_eager, snapped_period_is
from ivpp import kernel
from ivpp.cli import run_captured
from ivpp.core import RationalMap
from ivpp.decompose import decompose
from ivpp.denoms import cell_centers, denominator_zero_curves
from ivpp.dsl import format_map, parse_map
from ivpp.ivpp2d import branches
from ivpp.maps import f2d, f3d
from ivpp.poly import Polynomial
from ivpp.raster import lv_raster, raster, write_csv, write_pgm

raster_module = importlib.import_module("ivpp.raster")  # the package attribute ivpp.raster is the function
denoms_module = importlib.import_module("ivpp.denoms")


# -- denominator zero sets -------------------------------------------------------


def _crossings_at(zs, k):
    """The union of the sign changes of the depth-k curves of ``zs``."""
    mask = np.zeros(zs.first_pole_depth.shape, dtype=bool)
    for c in zs.curves:
        if c.depth == k:
            mask |= c.crossing
    return mask


def test_k1_denominators_are_the_maps_own():
    # normalized denominators: x - 1 and y - 1 (same zero sets as 1-x, 1-y)
    from fractions import Fraction

    x = Polynomial.var(0, 2)
    y = Polynomial.var(1, 2)
    one = Polynomial.const(Fraction(1), 2)
    assert tuple(den for _, den in f2d().components) == (x - one, y - one)


def test_f3d_k1_denominator_contains_the_printed_surface():
    # 1 - z + z*x (already monic in the graded-lex order, so kept as given)
    from fractions import Fraction

    terms = {(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(-1), (1, 0, 1): Fraction(1)}
    assert Polynomial(3, terms) in [den for _, den in f3d().components]


def test_k1_layer_marks_the_pole_lines():
    zs = denominator_zero_curves(f2d(), 2, (-2, 2, -2, 2), (80, 80))
    layer1 = _crossings_at(zs, 1)
    xs = -2 + 4 * (np.arange(80) + 0.5) / 80
    col = int(np.argmin(np.abs(xs - 1.0)))
    row = col
    assert layer1[:, col - 1 : col + 1].any(axis=1).all()  # the line x = 1
    assert layer1[row - 1 : row + 1, :].any(axis=0).all()  # the line y = 1
    assert (zs.first_pole_depth[:, col - 1 : col + 1] == 1).any()


def test_depth_guard_and_dimension_guard():
    with pytest.raises(ValueError, match="k_max must be 1..6"):
        denominator_zero_curves(f2d(), 7, (-1, 1, -1, 1), (10, 10))
    with pytest.raises(ValueError, match="grid kernels support 2d maps"):
        denominator_zero_curves(f3d(), 2, (-1, 1, -1, 1), (10, 10))


def test_pole_depths_of_a_map_with_a_constant_denominator():
    m = parse_map("dim 2; x' = y; y' = (1 + y)/x;")  # Lyness: den_x is 1
    zs = denominator_zero_curves(m, 2, (-1, 1, -1, 1), (20, 20))
    const = [c for c in zs.curves if c.component == 0]
    assert [(c.values.shape, c.values.dtype) for c in const] == [((20, 20), np.int8)] * 2
    assert (const[0].values == 1).all()  # the sign of den_x on every cell
    assert not any(c.crossing.any() for c in const)
    assert _crossings_at(zs, 1)[:, 9].all()  # the pole line x = 0 runs between columns 9 and 10


def _same_pole_depths(a, b):
    assert np.array_equal(a.first_pole_depth, b.first_pole_depth)
    assert all(np.array_equal(_crossings_at(a, k), _crossings_at(b, k)) for k in range(1, a.curves[-1].depth + 1))
    assert [(c.depth, c.component) for c in a.curves] == [(c.depth, c.component) for c in b.curves]
    for c, d in zip(a.curves, b.curves):
        assert np.array_equal(c.values, d.values) and np.array_equal(c.crossing, d.crossing)


@pytest.mark.parametrize("workers", [1, 3], ids=["one-thread", "three-threads"])
@pytest.mark.parametrize("rows", [1, 3], ids=["one-row-blocks", "three-row-blocks"])
@pytest.mark.parametrize("resolution", [(31, 23), (1, 23), (23, 1)])
def test_pole_depths_in_blocks_equal_a_single_block(monkeypatch, workers, rows, resolution):
    whole = denominator_zero_curves(f2d(), 4, JITTERED_WINDOW, resolution)
    whole.curves  # the curves are scanned on first read: read them in a single block too
    assert kernel.blocks(*resolution) == [(0, resolution[1])]
    monkeypatch.setattr(kernel, "WORKERS", workers)
    monkeypatch.setattr(kernel, "BLOCK_CELLS", rows * resolution[0])  # 23 rows do not split into threes
    _same_pole_depths(denominator_zero_curves(f2d(), 4, JITTERED_WINDOW, resolution), whole)


POLE_MAPS = {
    "f2d": f2d(),
    "lyness": parse_map("dim 2; x' = y; y' = (1 + y)/x;"),
    "constant-denominators": parse_map("dim 2; x' = y; y' = 1 - x;"),
}


def _same_as_eager(monkeypatch, rows, m, k_max, window, resolution):
    """The scan's depths, curves and layers, in blocks of ``rows`` rows (None:
    the default) on one thread and shared by three, equal the eager
    single-block scan's; returns its depths."""
    depth, curves = pole_depths_eager(m, k_max, window, resolution)
    assert kernel.blocks(*resolution) == [(0, resolution[1])]
    if rows is not None:
        monkeypatch.setattr(kernel, "BLOCK_CELLS", rows * resolution[0])
    for workers in (1, 3):
        monkeypatch.setattr(kernel, "WORKERS", workers)
        zs = denominator_zero_curves(m, k_max, window, resolution)
        assert zs.first_pole_depth.dtype == np.int16 and np.array_equal(zs.first_pole_depth, depth)
        assert [(c.depth, c.component) for c in zs.curves] == [(k, j) for k, j, _, _ in curves]
        for c, (_, _, values, crossing) in zip(zs.curves, curves):
            assert c.values.dtype == np.int8 and np.array_equal(c.values, values)
            assert c.crossing.dtype == bool and np.array_equal(c.crossing, crossing)
        for k in range(1, k_max + 1):
            want = np.logical_or.reduce([cr for d, _, _, cr in curves if d == k])
            assert np.array_equal(_crossings_at(zs, k), want)
    return depth


@pytest.mark.parametrize("rows", [1, 3, None], ids=["one-row-blocks", "three-row-blocks", "one-block"])
@pytest.mark.parametrize("resolution", [(31, 23), (1, 23), (23, 1)])
@pytest.mark.parametrize("name", list(POLE_MAPS))
def test_pole_depths_equal_the_eager_reference(monkeypatch, name, rows, resolution):
    """The sign-mask scan in any row blocks gives the eager single-block
    scan's depths, curves and layers."""
    depth = _same_as_eager(monkeypatch, rows, POLE_MAPS[name], 4, JITTERED_WINDOW, resolution)
    if name != "constant-denominators" and resolution == (31, 23):
        assert (depth > 0).any()


SCAN_MAPS = {
    "f2d": POLE_MAPS["f2d"],
    "lyness": POLE_MAPS["lyness"],
    "reviving": parse_map("dim 2; x' = 1/(x - 1); y' = y;"),  # x = 1 -> inf -> 0 -> -1: a dead cell turns finite again
}
SCAN_GRIDS = {  # cell centres on multiples of 1/8, so on the pole lines x = 0, x = 1 and y = 1
    "on-the-pole-lines": ((-4.0625, 3.9375, -3.0625, 2.9375), (64, 48)),
    "one-column-at-x-1": ((0.9375, 1.0625, -3.0625, 2.9375), (1, 48)),
    "one-row-at-y-1": ((-4.0625, 3.9375, 0.9375, 1.0625), (64, 1)),
    "finite-everywhere": (JITTERED_WINDOW, (31, 23)),
}


def _dies_before(m, k_max, window, resolution):
    """Whether an iterate before the last depth is not finite on this grid."""
    coords = np.meshgrid(*cell_centers(window, resolution))
    for _ in range(k_max - 1):
        _, coords = kernel.step(m, coords)
        if not all(np.isfinite(c).all() for c in coords):
            return True
    return False


@pytest.mark.parametrize("rows", [1, 5, None], ids=["one-row-blocks", "five-row-blocks", "one-block"])
@pytest.mark.parametrize("k_max", [1, 4])
@pytest.mark.parametrize("grid", list(SCAN_GRIDS))
@pytest.mark.parametrize("name", list(SCAN_MAPS))
def test_the_scan_paths_equal_the_eager_reference(monkeypatch, name, grid, k_max, rows):
    """At k_max = 1 the last depth is the first.  On the pole lines iterates
    turn non-finite inside a block, where the scan first makes its ``alive``
    mask, and a cell stays dead once it died; on the jittered grid every
    iterate stays finite and no block makes one.  1-wide and 1-high grids
    have no horizontal or no vertical pairs (under 1 s in all)."""
    m = SCAN_MAPS[name]
    window, resolution = SCAN_GRIDS[grid]
    if k_max > 1:
        assert _dies_before(m, k_max, window, resolution) == (grid != "finite-everywhere")
    _same_as_eager(monkeypatch, rows, m, k_max, window, resolution)


@pytest.mark.parametrize("k_max", [1, 3, 6])
def test_the_scan_evaluates_no_image_past_the_last_depth(monkeypatch, k_max):
    """Per row block, a whole step at every depth but the last, where only
    the denominator part of the map's program runs.  One thread, so that
    the blocks' calls do not interleave."""
    monkeypatch.setattr(kernel, "WORKERS", 1)
    calls = []
    for name in ("step", "denominators"):
        real = getattr(denoms_module, name)
        monkeypatch.setattr(denoms_module, name, lambda m, coords, name=name, real=real: calls.append(name) or real(m, coords))
    monkeypatch.setattr(kernel, "BLOCK_CELLS", 4 * 31)
    zs = denominator_zero_curves(f2d(), k_max, JITTERED_WINDOW, (31, 23))
    per_block = ["step"] * (k_max - 1) + ["denominators"]
    assert len(kernel.blocks(31, 23)) == 6 and calls == per_block * 6
    zs.curves
    assert calls == per_block * 12
    assert f2d().denominator_program.quotients == ()  # no numerator in that part


def test_denoms_command_builds_no_curve(monkeypatch, tmp_path):
    built = []
    curve = denoms_module.DenominatorCurve
    monkeypatch.setattr(denoms_module, "DenominatorCurve", lambda *a: built.append(a[:2]) or curve(*a))
    argv = ["denoms", "--k-max", "6", "--window=-4,4,-4,4", "--res", "40x30", "-o", str(tmp_path / "d.pgm")]
    code, _, err = run_captured(argv + ["--csv", str(tmp_path / "d.csv")])
    assert code == 0, err
    assert built == []
    assert len(denominator_zero_curves(f2d(), 6, (-4, 4, -4, 4), (40, 30)).curves) == len(built) == 12


def test_curves_are_built_on_first_read_and_cached(monkeypatch):
    scans = []
    scan = denoms_module._scan
    monkeypatch.setattr(denoms_module, "_scan", lambda *a: scans.append(len(a)) or scan(*a))
    zs = denominator_zero_curves(f2d(), 3, (-2, 2, -2, 2), (17, 20))
    assert scans == [4]  # first_pole_depth only
    curves = zs.curves
    assert isinstance(curves, tuple) and len(curves) == 6
    assert zs.curves is curves
    assert scans == [4, 5]  # one curve scan, on the first read


@pytest.mark.parametrize("workers", [1, 3], ids=["one-thread", "three-threads"])
@pytest.mark.parametrize("rows", [1, 3, 5])
def test_a_pole_line_on_a_block_seam(monkeypatch, rows, workers):
    """y = 1 lies between rows 14 and 15 of this grid, and row 15 starts a block:
    the block above it steps row 15 as its halo row, so it sees the sign
    change of den_y = y - 1 across the seam."""
    window, res = (-2.0, 2.0, -2.0, 2.0), (17, 20)
    whole = denominator_zero_curves(f2d(), 3, window, res)
    whole.curves  # scanned on first read: read in a single block, before the split
    monkeypatch.setattr(kernel, "WORKERS", workers)
    monkeypatch.setattr(kernel, "BLOCK_CELLS", rows * res[0])
    assert 15 in [lo for lo, _ in kernel.blocks(*res)]
    blocked = denominator_zero_curves(f2d(), 3, window, res)
    _same_pole_depths(blocked, whole)
    _, ys = cell_centers(window, res)
    assert ys[14] < 1.0 < ys[15]
    den_y = blocked.curves[1]
    assert (den_y.values[14] == -1).all() and (den_y.values[15] == 1).all()
    assert den_y.crossing[14].all() and not den_y.crossing[15].any()
    assert (blocked.first_pole_depth[14] == 1).all()


def test_depth2_layer_marks_preimages_of_the_pole_line():
    """x(1-y)/(1-x) = 1 first sends (2/3, 1/2) onto the pole line x = 1 at
    step 2, so its cell belongs to the depth-2 layer."""
    from fractions import Fraction

    x0, y0 = Fraction(2, 3), Fraction(1, 2)
    image_x = x0 * (1 - y0) / (1 - x0)
    assert image_x == 1  # exact oracle
    window = (0.5, 0.85, 0.3, 0.7)
    zs = denominator_zero_curves(f2d(), 3, window, (70, 80))
    from ivpp.denoms import cell_centers

    xs, ys = cell_centers(window, (70, 80))
    j = int(np.argmin(np.abs(xs - 2 / 3)))
    i = int(np.argmin(np.abs(ys - 0.5)))
    patch = zs.first_pole_depth[i - 1 : i + 2, j - 1 : j + 2]
    assert (patch == 2).any()


def test_deeper_layers_appear():
    zs = denominator_zero_curves(f2d(), 3, (-4, 4, -4, 4), (160, 160))
    depths = set(np.unique(zs.first_pole_depth).tolist())
    assert {1, 2, 3} <= depths


def test_period3_boundaries_intersect_shallow_layers():
    """On the level x*y = -3, the component cuts {-1, 1} sit where the
    first three layers cross the variety."""
    zs = denominator_zero_curves(f2d(), 3, (-4, 4, -4, 4), (400, 400))
    from ivpp.denoms import cell_centers

    xs, ys = cell_centers((-4, 4, -4, 4), (400, 400))
    X, Y = np.meshgrid(xs, ys)
    on_variety = np.abs(X * Y + 3.0) < 0.08
    marked = zs.first_pole_depth > 0
    hits_x = X[on_variety & marked]
    assert hits_x.size > 0
    for cut in (-1.0, 1.0):
        assert np.min(np.abs(hits_x - cut)) < 0.05


def _level_curves(xs, ys, k_max):
    """Per depth k = 1..k_max and t in (1, r), a function on the cell centres
    whose sign changes exactly across the curve x = M_r^-(k-1)(t), r = xy.

    With power_matrix(r, m) = [[a, b], [c, d]], m = k - 1, the curve is
    M_r^m(x) = t, the zero set of (a x + b) - t (c x + d).  The entries are
    the closed form's polynomials in r, a = d = 2 sum C(m, 2i) r^i,
    c = -2 sum C(m, 2i + 1) r^i and b = r c; for t = r, the factor x of r
    is divided out, which leaves a polynomial whose zeros are the curve's."""
    from math import comb

    x, y = np.meshgrid(xs, ys)
    r = x * y
    curves = []
    for k in range(1, k_max + 1):
        m = k - 1
        a = 2 * sum(comb(m, 2 * i) * r**i for i in range(m // 2 + 1))
        c = -2 * sum(comb(m, 2 * i + 1) * r**i for i in range(m // 2 + 1)) * np.ones_like(r)
        b, d = r * c, a
        curves.append((k, (a * x + b) - (c * x + d)))
        curves.append((k, ((a * x + b) - r * (c * x + d)) / x))
    return curves


def test_the_level_curves_are_the_inverse_powers_of_the_level_matrix():
    """The sign functions of ``_level_curves`` vanish on x = M_r^-(k-1)(t),
    with M_r^(k-1) from ``power_matrix`` and its ``inverse()``."""
    from ivpp.mobius import power_matrix

    for r in (-13.7, -2.3, -0.41, 0.29, 2.6, 11.3):  # off the periodic levels, where a curve can leave for infinity
        for k in range(1, 7):
            inverse = power_matrix(r, k - 1).inverse()
            for t_index, t in enumerate((1.0, r)):
                x = inverse(t).value.real
                xs, ys = np.asarray([x]), np.asarray([r / x])
                _, g = _level_curves(xs, ys, k)[2 * (k - 1) + t_index]
                _, g_off = _level_curves(xs + 1e-3, ys, k)[2 * (k - 1) + t_index]
                assert abs(g[0, 0]) <= 1e-9 * abs(g_off[0, 0])


def test_pole_depths_agree_with_the_level_curves_both_ways():
    """ROADMAP item 8: on the level xy = r, den_j(F^(k-1)) vanishes where
    x_(k-1) = 1 or x_(k-1) = r, so the depth-k layer is read off the level
    matrix alone, independently of the scan.  On an 800^2 window, k_max = 6:

    - every cell of depth k has a curve of depth at most k crossing a pair
      of neighbours within one cell of it;
    - every pair of neighbours, right or down, that a curve of depth k
      separates and no other curve of depth at most k does, puts depth
      1..k on its left or upper cell (two curves between the pair may
      cancel, so those pairs are not read).

    About 0.5 s here, the scan included."""
    resolution, k_max = (800, 800), 6
    zs = denominator_zero_curves(f2d(), k_max, JITTERED_WINDOW, resolution)
    depth = zs.first_pole_depth
    curves = _level_curves(*cell_centers(JITTERED_WINDOW, resolution), k_max)
    assert (depth > 0).mean() > 0.02 and set(np.unique(depth).tolist()) == set(range(k_max + 1))

    right = [(k, np.signbit(g[:, :-1]) != np.signbit(g[:, 1:])) for k, g in curves]
    down = [(k, np.signbit(g[:-1]) != np.signbit(g[1:])) for k, g in curves]
    for k in range(1, k_max + 1):
        near = np.zeros(depth.shape, dtype=bool)  # a curve of depth <= k between neighbours near the cell
        for (kc, h), (_, v) in zip(right, down):
            if kc <= k:
                near[:, :-1] |= h
                near[:, 1:] |= h
                near[:-1] |= v
                near[1:] |= v
        grown = near.copy()
        grown[1:] |= near[:-1]
        grown[:-1] |= near[1:]
        grown[:, 1:] |= near[:, :-1]
        grown[:, :-1] |= near[:, 1:]
        assert grown[depth == k].all(), k
        for pairs, cell in ((right, depth[:, :-1]), (down, depth[:-1])):
            at_k = sum(sep.astype(np.int8) for kc, sep in pairs if kc == k)
            at_most_k = sum(sep.astype(np.int8) for kc, sep in pairs if kc <= k)
            alone = (at_k == 1) & (at_most_k == 1)
            assert alone.sum() > 100
            assert ((cell[alone] >= 1) & (cell[alone] <= k)).all(), k


# -- rasters -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_period3_raster():
    b = branches(3)[0]
    d = decompose(b)
    return raster(f2d(), (-4, 4, -4, 4), (200, 200), n_max=4, branch=b), d, b


def test_raster_assigns_three_classes(small_period3_raster):
    R, d, b = small_period3_raster
    mask = R.component > 0
    assert sorted(np.unique(R.component[mask]).tolist()) == [1, 2, 3]
    assert (R.period[mask] == 3).all()


def test_raster_pgm_format(small_period3_raster):
    R, _, _ = small_period3_raster
    blob = R.to_pgm_bytes("component")
    assert blob.startswith(b"P5\n200 200\n255\n")
    assert len(blob) == len(b"P5\n200 200\n255\n") + 200 * 200


def test_raster_determinism(small_period3_raster):
    R, d, b = small_period3_raster
    again = raster(f2d(), (-4, 4, -4, 4), (200, 200), n_max=4, branch=b)
    assert R.to_pgm_bytes() == again.to_pgm_bytes()
    assert np.array_equal(R.period, again.period)


def test_raster_csv(tmp_path, small_period3_raster):
    R, _, _ = small_period3_raster
    path = tmp_path / "tiles.csv"
    R.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,period,component"
    assert len(lines) == 1 + 200 * 200


def test_pgm_bytes_clip_and_flip(tmp_path):
    grid = np.array([[-1, 0, 300], [5, 255, 256]], dtype=np.int16)  # row 0 = smallest y
    write_pgm(tmp_path / "g.pgm", grid)
    assert (tmp_path / "g.pgm").read_bytes() == b"P5\n3 2\n255\n" + bytes([5, 255, 255, 0, 0, 255])


LAYER_VALUES = np.array([-1, 0, 7, 12, 327, 32767, -32768], dtype=np.int16)


@pytest.mark.parametrize("resolution", [(1, 1), (7, 3), (3, 8)])
@pytest.mark.parametrize("header", ["x,y,period,component", "x,y,first_pole_k"])
def test_csv_writer_matches_the_per_cell_reference(tmp_path, resolution, header):
    w, h = resolution
    xs, ys = cell_centers(JITTERED_WINDOW, resolution)
    layers = [
        np.roll(np.resize(LAYER_VALUES, w * h), shift).reshape(h, w)
        for shift in range(header.count(",") - 1)
    ]
    path = tmp_path / "out.csv"
    write_csv(str(path), header, xs, ys, layers)
    assert path.read_bytes() == csv_per_cell(header, xs, ys, layers)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_csv_writer_on_full_range_int16_layers(tmp_path, count):
    """The value table spans the layers' whole range: the int16 extremes and random values."""
    xs, ys = cell_centers(JITTERED_WINDOW, (37, 5))
    rng = np.random.default_rng(count)
    layers = [rng.integers(-32768, 32768, size=(5, 37)).astype(np.int16) for _ in range(count)]
    layers[0][0, :4] = [-32768, -1, 0, 32767]
    layers[-1][-1, -4:] = [32767, 0, -1, -32768]
    header = "x,y," + ",".join(f"v{i}" for i in range(count))
    path = tmp_path / "out.csv"
    write_csv(str(path), header, xs, ys, layers)
    assert path.read_bytes() == csv_per_cell(header, xs, ys, layers)


CSV_RUNS = {  # name -> layers, each a list of rows
    "one run": [[[5] * 9, [5] * 9], [[0] * 9, [0] * 9]],
    "every cell a run": [[[0, 1] * 4 + [0], [1, 0] * 4 + [1]], [[2] * 9, [-2, 2] * 4 + [-2]]],
    "runs that do not line up": [[[0, 0, 0, 1, 1, 1, 1, 2, 2]], [[3, 3, 4, 4, 4, 4, 4, 5, 5]]],
    "a run at the last column": [[[7, 7, 7, 7, 7, 7, 7, 7, 8], [8, 7, 7, 7, 7, 7, 7, 7, 7]]],
    "width 1": [[[3], [3], [-1]], [[3], [4], [-1]]],
    "negative and int16 extremes": [
        [[-32768, -32768, -1, -1, 32767, 32767, -5, 0, -32768]],
        [[32767, -32768, -32768, -1, -1, 32767, -5, -5, -5]],
    ],
}


@pytest.mark.parametrize("name", sorted(CSV_RUNS))
def test_csv_runs_match_the_per_cell_reference(tmp_path, name):
    layers = [np.asarray(rows, dtype=np.int16) for rows in CSV_RUNS[name]]
    h, w = layers[0].shape
    xs, ys = cell_centers(JITTERED_WINDOW, (w, h))
    header = "x,y," + ",".join(f"v{i}" for i in range(len(layers)))
    path = tmp_path / "out.csv"
    write_csv(str(path), header, xs, ys, layers)
    assert path.read_bytes() == csv_per_cell(header, xs, ys, layers)


@pytest.mark.parametrize("shape", [(3, 8), (3, 6), (4, 7), (2, 7), (7,), (3, 7, 1)])
def test_csv_writer_refuses_a_layer_that_does_not_fit_the_grid(tmp_path, shape):
    """Checked on every layer before the file is opened, so an existing file is kept."""
    xs, ys = cell_centers(JITTERED_WINDOW, (7, 3))
    path = tmp_path / "out.csv"
    path.write_text("kept")
    with pytest.raises(ValueError, match="does not fit"):
        write_csv(str(path), "x,y,a,b", xs, ys, (np.zeros((3, 7), np.int16), np.zeros(shape, np.int16)))
    assert path.read_text() == "kept"


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_exception_partway_through_a_csv_leaves_the_rows_written_before_it(tmp_path, monkeypatch, error):
    """The file's write raises on the third row, over a longer existing file: the
    header and the first two rows stay, and nothing of the old file."""
    xs, ys = cell_centers(JITTERED_WINDOW, (7, 5))
    layer = np.arange(35, dtype=np.int16).reshape(5, 7)
    fresh, path = tmp_path / "fresh.csv", tmp_path / "out.csv"
    write_csv(str(fresh), "x,y,a", xs, ys, (layer,))
    path.write_bytes(b"\xff" * 2 * fresh.stat().st_size)
    output = raster_module.output

    @contextmanager
    def failing(name, mode):
        with output(name, mode) as fh:
            write, rows = fh.write, []

            def write_row(text):
                rows.append(text)
                if len(rows) == 4:  # the header, then rows 0, 1 and 2
                    raise error("the third row")
                return write(text)

            fh.write = write_row
            yield fh

    monkeypatch.setattr(raster_module, "output", failing)
    with pytest.raises(error, match="the third row"):
        write_csv(str(path), "x,y,a", xs, ys, (layer,))
    assert path.read_text().splitlines() == fresh.read_text().splitlines()[: 1 + 2 * 7]
    assert path.read_bytes().endswith(b"\n")


def test_a_symlinked_output_writes_its_target_and_stays_a_symlink(tmp_path):
    grid = np.arange(12, dtype=np.int16).reshape(3, 4)
    target, link, fresh = tmp_path / "target.pgm", tmp_path / "link.pgm", tmp_path / "fresh.pgm"
    target.write_bytes(b"\xff" * 100)
    link.symlink_to(target)
    write_pgm(str(link), grid)
    write_pgm(str(fresh), grid)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh.read_bytes()


def test_an_output_keeps_an_existing_mode_and_creates_a_new_file_as_open_does(tmp_path):
    xs, ys = cell_centers(JITTERED_WINDOW, (3, 2))
    layer = np.zeros((2, 3), np.int16)
    kept = tmp_path / "kept.csv"
    kept.write_text("old text, longer than the new one" * 10)
    kept.chmod(0o604)
    write_csv(str(kept), "x,y,a", xs, ys, (layer,))
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    with open(tmp_path / "by_open.csv", "w"):
        pass
    write_csv(str(tmp_path / "new.csv"), "x,y,a", xs, ys, (layer,))
    umask = os.umask(0)
    os.umask(umask)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("by_open.csv", "new.csv")}
    assert modes == {0o666 & ~umask}


def test_csv_writer_memory_is_bounded_by_the_width(tmp_path):
    """Two layers whose every cell is its own run: the peak stays far below the
    file's size and does not grow with the height (about 1.5 s, most of it
    tracemalloc's)."""
    peaks = []
    for h in (4, 16):
        xs, ys = cell_centers(JITTERED_WINDOW, (4096, h))
        a = (np.indices((h, 4096)).sum(axis=0) % 2).astype(np.int16)
        layers = (a, 1 - a)
        path = tmp_path / f"out{h}.csv"
        tracemalloc.start()
        try:
            write_csv(str(path), "x,y,a,b", xs, ys, layers)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < path.stat().st_size / 2
    assert peaks[1] < 1.1 * peaks[0]


def test_period_layer_band_mode():
    """With a cell-sized tolerance the raw period layer shows the variety band;
    at the strict default tolerance off-variety cells stay empty."""
    R = raster(f2d(), (-4, 4, -4, 4), (200, 200), n_max=4, tol=0.05)
    xs, ys = R.cells()
    X, Y = np.meshgrid(xs, ys)
    near = np.abs(X * Y + 3.0) < 0.02
    frac = (R.period[near] == 3).mean()
    assert frac > 0.9
    strict = raster(f2d(), (-4, 4, -4, 4), (200, 200), n_max=4)
    far = (np.abs(X - Y) > 0.05) & (strict.period >= 0)
    assert (strict.period[far] == 0).all()


def test_successor_property_on_raster_cells(small_period3_raster):
    R, d, b = small_period3_raster
    m = f2d()
    xs, _ = R.cells()
    ok = bad = 0
    for i, j in zip(*np.nonzero(R.component > 0)):
        x = float(xs[j])
        img = m.apply(b.point(x))
        if img[0].is_infinite:
            continue
        if d.classify(img[0].value.real) == d.sigma[int(R.component[i, j]) - 1]:
            ok += 1
        else:
            bad += 1
    assert ok > 0 and bad == 0


def test_raster_off_variety_cells_are_unclassified(small_period3_raster):
    R, _, _ = small_period3_raster
    xs, ys = R.cells()
    X, Y = np.meshgrid(xs, ys)
    far = np.abs(X * Y + 3.0) > 0.5
    assert (R.component[far] == 0).all()


def test_raster_in_small_blocks_equals_the_default_blocks(monkeypatch):
    """Both layers are the same when the period grid is cut into one-row blocks
    and the band's columns into slabs of a few rows as when each is one block."""
    b = branches(3)[0]
    R1 = raster(f2d(), (-3, 3, -3, 3), (120, 120), n_max=4, branch=b)
    period, component = R1.period, R1.component  # the period layer is built when read
    assert kernel.blocks(120, 120) == [(0, 120)]
    monkeypatch.setattr(kernel, "BLOCK_CELLS", 5)
    R5 = raster(f2d(), (-3, 3, -3, 3), (120, 120), n_max=4, branch=b)
    assert len(kernel.blocks(120, 120)) == 120
    assert np.array_equal(R5.period, period)
    assert np.array_equal(R5.component, component)
    assert component.any() and len(np.unique(period)) > 2


def test_resolution_guard():
    """Every grid path refuses more than 4096^2 cells before it allocates a grid."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="4096"):
            raster(f2d(), (-1, 1, -1, 1), (5000, 5000), n_max=2)
        with pytest.raises(ValueError, match="4096"):
            lv_raster((-1, 1, -1, 1), (5000, 5000))
        with pytest.raises(ValueError, match="4096"):
            denominator_zero_curves(f2d(), 2, (-1, 1, -1, 1), (5000, 5000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one 5000-cell row of float64 is 40 kB, the grid 200 MB


GRID_ENTRY_POINTS = {
    "raster": lambda window, res: raster(f2d(), window, res, n_max=2, branch=branches(3)[0]),
    "denoms": lambda window, res: denominator_zero_curves(f2d(), 2, window, res),
    "lv_raster": lv_raster,
}


@pytest.mark.parametrize("entry", GRID_ENTRY_POINTS)
@pytest.mark.parametrize(
    "window, resolution, message",
    [
        ((-1, 1, -1, 1), (0, 5), "resolution must be two positive ints"),  # a ZeroDivisionError before
        ((-1, 1, -1, 1), (-3, -5), "resolution must be two positive ints"),  # empty layers before
        ((-1, 1, -1, 1), (2.5, 3), "resolution must be two positive ints"),  # 3 columns spaced for 2.5
        ((-1, 1, -1, 1), (True, 3), "resolution must be two positive ints"),
        ((-1, 1, -1, 1), (3, 4, 5), "resolution must be two positive ints"),
        ((1, -1, -1, 1), (4, 4), "window must be increasing"),
        ((-1, 1, 1, 1), (4, 4), "window must be increasing"),
    ],
    ids=["zero-width", "negative", "fractional", "bool", "three-values", "x-decreasing", "y-empty"],
)
def test_every_grid_entry_point_refuses_a_bad_window_or_resolution(entry, window, resolution, message):
    """``cell_centers``, which every grid layer calls first, holds the contract."""
    with pytest.raises(ValueError, match=message):
        GRID_ENTRY_POINTS[entry](window, resolution)


def test_cell_centers_take_numpy_ints():
    xs, ys = cell_centers((-1, 1, -1, 1), (np.int64(4), np.int32(2)))
    assert xs.tolist() == [-0.75, -0.25, 0.25, 0.75] and ys.tolist() == [-0.5, 0.5]


def test_a_branch_raster_refuses_a_map_other_than_f2d():
    """The band, snap and classes come from f2d's branch, so another map's
    closure test would classify cells of no variety of its own."""
    lyness = parse_map((Path(__file__).parents[1] / "perfbench" / "lyness.rmap").read_text())
    with pytest.raises(ValueError, match="component rasters need the f2d branches"):
        raster(lyness, (-4, 4, -4, 4), (200, 200), n_max=8, branch=branches(5)[0])
    f2d_copy = parse_map(format_map(f2d()))  # the same map under no name
    assert raster(f2d_copy, (-4, 4, -4, 4), (40, 40), n_max=4, branch=branches(3)[0]).labels.flat.size > 0


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1.0}, {"n_max": 0}, {"n_max": 40000}])
@pytest.mark.parametrize("with_branch", [False, True])
def test_out_of_contract_input_is_refused_on_entry(kwargs, with_branch):
    """A component raster, whose period layer is deferred, refuses what a period raster does."""
    b = branches(3)[0]
    extra = {"branch": b} if with_branch else {}
    args = {"n_max": 4, **kwargs, **extra}
    with pytest.raises(ValueError):
        raster(f2d(), (-1, 1, -1, 1), (8, 8), **args)


def test_branch_raster_runs_the_kernel_only_when_period_is_read(monkeypatch):
    calls = []
    original = kernel.period_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel, "period_grid", counting)
    b = branches(3)[0]
    R = raster(f2d(), (-4, 4, -4, 4), (120, 120), n_max=4, branch=b)
    R.to_pgm_bytes("component")
    assert calls == []
    first = R.period
    assert len(calls) == 1
    assert R.period is first  # cached
    assert len(calls) == 1


def test_lazy_period_layer_matches_the_direct_override():
    b = branches(5)[1]
    window, res = (-12, 12, -12, 12), (150, 150)
    R = raster(f2d(), window, res, n_max=6, branch=b)
    xs, ys = R.cells()
    raw = kernel.period_grid(f2d(), xs, ys, 6, 1e-6)
    want = np.where(R.component > 0, np.int16(5), raw)
    assert R.period.dtype == np.int16
    assert np.array_equal(R.period, want)
    plain = raster(f2d(), window, res, n_max=6)
    assert np.array_equal(plain.period, raw)


def test_snapped_check_runs_once_per_band_column(monkeypatch):
    """Every band column is one start of the first-return loop, stepped at
    most n times, the pole x = 1 among them; no scalar orbit runs."""
    stepped = []
    original_step = kernel.step

    def recording_step(m, coords):
        stepped.append(coords[0].copy())
        return original_step(m, coords)

    def scalar(*args, **kwargs):
        raise AssertionError("a scalar orbit step")

    b = branches(3)[0]
    monkeypatch.setattr(RationalMap, "detect_period", scalar)
    monkeypatch.setattr(RationalMap, "apply", scalar)
    monkeypatch.setattr(kernel, "step", recording_step)
    R = raster(f2d(), POLE_WINDOW, (256, 200), n_max=4, branch=b)
    monkeypatch.undo()
    starts = stepped[0]  # the snapped x of every band column
    assert starts.size == R.meta["snap_checks"] and 1.0 in starts.tolist()
    assert 1 <= len(stepped) <= b.n and all(a.size <= starts.size for a in stepped)
    assert R.meta["snap_checks"] < R.meta["classified"] == int((R.component > 0).sum())


SNAP_WINDOWS = [  # the second puts a cell centre on the pole x = 1 (column 16)
    (JITTERED_WINDOW, (24, 24)),
    ((-7.25, 8.75, -8.0, 8.0), (32, 32)),
]


def test_vector_snapped_check_equals_the_scalar_one(monkeypatch):
    """On every band column of every branch of n = 3..30, the component pass's
    decision is conftest's scalar ``snapped_period_is``, the pole column
    x = 1 included."""
    runs = []
    original = kernel.first_returns

    def recording(m, coords, n_max, tol):
        got = original(m, coords, n_max, tol)
        runs.append((coords[0], got == n_max))
        return got

    monkeypatch.setattr(kernel, "first_returns", recording)
    outcomes = {True: 0, False: 0}
    poles = []
    for window, resolution in SNAP_WINDOWS:
        poles.append(0)
        for n in range(3, 31):
            for b in branches(n):
                runs.clear()
                raster(f2d(), window, resolution, n_max=1, branch=b)
                (xs, closes), = runs
                for x, vector in zip(xs.tolist(), closes.tolist()):
                    assert vector == snapped_period_is(f2d(), b, x), (b, x)
                    outcomes[vector] += 1
                    poles[-1] += x == 1.0
    assert poles[1] > 0  # the pole column x = 1 is decided on the one path too
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_vector_snapped_check_keeps_the_first_return():
    """Lyness has period 5 everywhere: a snapped point passes at n = 5, and at
    n = 10 it fails, since its first return comes at step 5."""
    lyness = parse_map((Path(__file__).parents[1] / "perfbench" / "lyness.rmap").read_text())
    xs = np.linspace(-3.1, 2.9, 41)
    for n, want in ((5, True), (10, False)):
        b = branches(n)[0]
        closes = kernel.first_returns(lyness, b.coords(xs), n, raster_module.EXACT_TOL) == n
        assert closes.tolist() == [snapped_period_is(lyness, b, x) for x in xs.tolist()]
        assert np.count_nonzero(closes) > 30 if want else not closes.any()


# -- the striped 3d raster ------------------------------------------------------------


def test_lv_raster_stripes():
    R = lv_raster((-3, 3, -4.5, 4.5), (120, 90), sign="+", stripe_half_width=0.2)
    xs, rs = R.cells()
    on_stripe_rows = [i for i, r in enumerate(rs) if abs(r - round(r)) <= 0.2]
    off_stripe_rows = [i for i, r in enumerate(rs) if abs(r - round(r)) > 0.2]
    assert (R.component[off_stripe_rows, :] == 0).all()
    classified = R.component[on_stripe_rows, :]
    assert (classified > 0).any()
    assert set(np.unique(classified).tolist()) <= {0, 1, 2, 3}
    # boundaries are r-independent: the classified columns split at x = 0 and 1
    j_neg = int(np.argmin(np.abs(xs + 2.0)))
    j_mid = int(np.argmin(np.abs(xs - 0.5)))
    j_big = int(np.argmin(np.abs(xs - 2.0)))
    col_classes = R.component[on_stripe_rows][:, [j_neg, j_mid, j_big]]
    col_classes = col_classes[(col_classes > 0).all(axis=1)]
    assert col_classes.size > 0
    assert (col_classes == np.array([1, 2, 3])).all()


def test_lv_raster_skips_complex_branch_cells():
    # D(2, r) = r(r-8) < 0 for 0 < r < 8: x = 2 on the r = 3 stripe is complex
    R = lv_raster((1.5, 2.5, 2.8, 3.2), (40, 10), sign="+", stripe_half_width=0.3)
    assert (R.component == 0).all()


def test_lv_raster_evaluates_all_levels_in_one_call(monkeypatch):
    """One discriminant grid of (levels x columns), bit-identical to the per-row form."""
    from ivpp.lv3d import lv_decompose_period2, lv_discriminant

    levels = []

    def recording(xs, r):
        levels.append(np.asarray(r).ravel().tolist())
        return lv_discriminant(xs, r)

    window, resolution = (-3.0 + 0.0123, 3.0 - 0.0071, -5.0 + 0.013, 5.0 - 0.029), (61, 303)
    monkeypatch.setattr(raster_module, "lv_discriminant", recording)
    R = lv_raster(window, resolution, sign="+", stripe_half_width=0.25)
    xs, rs = R.cells()
    want = np.zeros_like(R.component)
    fin = np.asarray(lv_decompose_period2(0.0, "+").finite_boundaries())
    classes = (np.searchsorted(fin, xs, side="left") + 1).astype(np.int16)
    for i, r in enumerate(rs):  # the per-row form: every stripe row evaluates its level
        level = round(float(r))
        if abs(r - level) <= 0.25 and window[2] <= level <= window[3]:
            mask = (lv_discriminant(xs, float(level)) >= 0) & (xs != 0.0) & (xs != 1.0)
            want[i, mask] = classes[mask]
    assert levels == [[float(v) for v in range(-4, 5)]]
    assert (want > 0).any() and R.component.tobytes() == want.tobytes()
