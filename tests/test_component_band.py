"""The band of the component rasters, its component layer and the PGM encoder and writer.

The band is found from per-column candidate rows (all rows for the full
columns), laid end to end and tested a block at a time; every test here
compares it with ``band_mask_dense``, the test on every cell of the grid.
"""

import importlib
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import band_mask_dense, pgm_concat, stripe_layer_per_level
from ivpp import kernel
from ivpp.cli import run_captured
from ivpp.core import TOL_EQ
from ivpp.decompose import decompose
from ivpp.denoms import cell_centers
from ivpp.ivpp2d import branches
from ivpp.maps import f2d
from ivpp.raster import TilingRaster, lv_raster, raster, write_pgm

raster_module = importlib.import_module("ivpp.raster")  # the package attribute ivpp.raster is the function

SQUARE4, SQUARE12 = (-4.0, 4.0, -4.0, 4.0), (-12.0, 12.0, -12.0, 12.0)
TILES_SPECS = [  # (period, branch, window, resolution) of the benchmark's tiling figures
    (3, 1, SQUARE4, (800, 800)),
    (5, 2, SQUARE12, (800, 800)),
    (7, 1, SQUARE4, (800, 800)),
    (3, 1, SQUARE4, (2000, 2000)),
]
FULL_COLUMNS = (0.0025, 0.005, -4.0, 4.0)  # |x| <= 2c in every column at any square resolution


def jitter(rng, window, res):
    """Shift a window by a random sub-cell offset in x and y."""
    x0, x1, y0, y1 = window
    dx, dy = (x1 - x0) / res[0] * rng.uniform(-0.5, 0.5), (y1 - y0) / res[1] * rng.uniform(-0.5, 0.5)
    return (x0 + dx, x1 + dx, y0 + dy, y1 + dy)


def band_of(window, resolution, rho, band_cells=1.5):
    """The band of ``raster`` as a bool (h, w) mask, from the rows and columns ``_band`` gives."""
    w, h = resolution
    xs, ys = cell_centers(window, resolution)
    cell = max((window[1] - window[0]) / w, (window[3] - window[2]) / h)
    rows, columns = raster_module._band(xs, ys, window, rho, band_cells * cell, cell)
    mask = np.zeros((h, w), dtype=bool)
    mask[rows, columns] = True
    assert rows.shape == columns.shape and np.count_nonzero(mask) == rows.size  # every band cell once
    return mask


def assert_band_is_dense(window, resolution, rho, band_cells=1.5):
    got = band_of(window, resolution, rho, band_cells)
    want = band_mask_dense(window, resolution, rho, band_cells)
    assert np.array_equal(got, want), (window, resolution, rho, int((got != want).sum()))
    return want


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_band_equals_the_dense_mask_on_the_tiles_specs(seed):
    rng = random.Random(seed)
    for n, index, window, res in TILES_SPECS:
        want = assert_band_is_dense(jitter(rng, window, res), res, branches(n)[index - 1].rho)
        assert want.sum() > 1000


def test_band_equals_the_dense_mask_far_out_on_the_level():
    """n = 16, m = 7: rho is about -25, so the curve is steep over most columns."""
    (b,) = [b for b in branches(16) if b.m == 7]
    assert -26 < b.rho < -25
    rng = random.Random(16)
    for window in (SQUARE12, (-40.0, 40.0, -40.0, 40.0), (0.5, 3.0, -60.0, -5.0)):
        res = (311, 257)
        want = assert_band_is_dense(jitter(rng, window, res), res, b.rho)
        assert want.any()


@pytest.mark.parametrize("n", [3, 12, 40])
def test_band_with_cell_centres_on_zero_and_on_plus_minus_cell(n):
    """Centres at x = 0, x = +-cell (excluded, |x| > cell is strict) and x = +-2c (the
    last full columns); small |rho| puts the curve through those columns."""
    window, res = (-4.125, 4.125, -4.0, 4.0), (33, 64)  # dx = 0.25 = cell, dy = 0.125
    xs, _ = cell_centers(window, res)
    assert xs[16] == 0.0 and xs[15] == -0.25 and xs[17] == 0.25 and xs[19] == 0.75  # 2c = 0.75
    for b in (branches(n)[0], branches(n)[-1]):
        want = assert_band_is_dense(window, res, b.rho)
        assert not want[:, 15:18].any()
    assert band_of(window, res, branches(n)[0].rho).any()


def test_band_on_the_full_column_window():
    res = (256, 256)
    cell = 8.0 / 256
    assert 0.005 <= 2 * 1.5 * cell  # every column is a full column
    assert_band_is_dense(FULL_COLUMNS, res, -3.0)
    window = (0.1, 0.13, -40.0, -20.0)  # cell = 20/256 < |x| <= 2c: full columns with band cells
    want = assert_band_is_dense(window, res, -3.0)
    assert want.sum() > 1000


@pytest.mark.parametrize(
    "window, resolution",
    [
        ((0.9, 1.1, -4.0, 4.0), (1, 500)),
        ((-4.0, 4.0, -3.01, -2.99), (500, 1)),
        ((-4.0, 4.0, -4.0, 4.0), (1, 1)),
        ((0.999, 1.001, -3.5, -2.5), (1, 4000)),
    ],
)
def test_band_on_one_column_and_one_row(window, resolution):
    assert_band_is_dense(window, resolution, -3.0)


def test_band_of_a_window_that_misses_the_curve():
    want = assert_band_is_dense((1.0, 2.0, 1.0, 2.0), (300, 200), -3.0)
    assert not want.any()


@pytest.mark.parametrize("block_cells", [1, 97, 4096])
def test_band_across_chunk_seams(monkeypatch, block_cells):
    """Small blocks of candidates start and end inside a column's rows, and split
    one column's rows over many blocks."""
    monkeypatch.setattr(kernel, "BLOCK_CELLS", block_cells)
    rng = random.Random(block_cells)
    for window, res in ((SQUARE4, (160, 150)), ((0.999, 1.001, -3.5, -2.5), (1, 400)), (FULL_COLUMNS, (40, 60))):
        want = assert_band_is_dense(jitter(rng, window, res), res, -3.0)
        assert want.any() or window == FULL_COLUMNS
    assert band_of(SQUARE4, (160, 150), -3.0).sum() > block_cells or block_cells > 1000  # the band alone spans blocks


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 40),
    pick=st.integers(0, 1000),
    x0=st.floats(-30.0, 30.0),
    y0=st.floats(-30.0, 30.0),
    width=st.floats(1e-4, 60.0),
    height=st.floats(1e-4, 60.0),
    w=st.integers(1, 70),
    h=st.integers(1, 70),
    band_cells=st.sampled_from([0.0, 0.4, 1.5, 6.0]),
)
def test_band_equals_the_dense_mask_on_random_windows(n, pick, x0, y0, width, height, w, h, band_cells):
    bs = branches(n)
    rho = bs[pick % len(bs)].rho
    assert_band_is_dense((x0, x0 + width, y0, y0 + height), (w, h), rho, band_cells)


def test_component_layer_is_the_column_class_on_the_band():
    b = branches(5)[1]
    d = decompose(b)
    window, res = jitter(random.Random(5), SQUARE12, (300, 280)), (300, 280)
    R = raster(f2d(), window, res, n_max=1, branch=b)
    band = band_mask_dense(window, res, b.rho)
    xs, _ = R.cells()
    assert not R.component[~band].any()
    for j in np.flatnonzero(band.any(axis=0)):
        values = set(R.component[band[:, j], j].tolist())
        assert values == {0} or values == {d.classify(float(xs[j]))}, j
    assert R.meta["classified"] == int(np.count_nonzero(R.component)) > 1000
    assert R.meta["snap_checks"] == int(band.any(axis=0).sum())


def test_full_column_window_memory():
    """At 2048^2 the full columns are tested a block at a time: the peak is the
    PGM body and its bytes (1 + 1 bytes a cell), no grid mask and no dense component layer."""
    b = branches(3)[0]
    cells = 2048 * 2048
    tracemalloc.start()
    try:
        R = raster(f2d(), FULL_COLUMNS, (2048, 2048), n_max=8, branch=b)
        blob = R.to_pgm_bytes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blob) == cells + len(b"P5\n2048 2048\n255\n")
    assert peak < 2 * cells + (2 << 20)


@pytest.mark.parametrize("window", [FULL_COLUMNS, SQUARE4], ids=["full_columns", "square4"])
def test_component_pgm_file_memory(tmp_path, window):
    """At 2048^2 ``to_pgm`` scatters the band cells into its one byte body: the
    peak is that body (1 byte a cell) plus about 32 bytes a classified cell for
    the band and its indices, with no dense component layer.  Measured with
    numpy 2.4: 40 kB over the body on the full-column window, where no cell is
    classified, and 430 kB on (-4, 4)^2, where 12,548 are (the bound allows
    532 kB); the dense int16 layer adds 8 MiB.  A first small raster loads
    what the first call imports, so the peak counts this raster only."""
    b = branches(3)[0]
    cells = 2048 * 2048
    raster(f2d(), SQUARE4, (64, 64), n_max=8, branch=b).to_pgm(tmp_path / "warm.pgm")
    tracemalloc.start()
    try:
        R = raster(f2d(), window, (2048, 2048), n_max=8, branch=b)
        R.to_pgm(tmp_path / "c.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "c.pgm").stat().st_size == cells + len(b"P5\n2048 2048\n255\n")
    assert peak < cells + 32 * R.meta["classified"] + (128 << 10)
    assert (R.meta["classified"] > 10_000) == (window == SQUARE4)


def dense_reference(m, window, resolution, branch, n_max=8):
    """The component and period layers as a dense component layer gave them: the
    band cells' column classes put into an int16 zero layer by ``np.put``, and the
    period layer n wherever that layer is positive, the raw period elsewhere."""
    w, h = resolution
    xs, ys = cell_centers(window, resolution)
    cell = max((window[1] - window[0]) / w, (window[3] - window[2]) / h)
    band = raster_module._band(xs, ys, window, branch.rho, raster_module.BAND_CELLS * cell, cell)
    columns = np.unique(band[1])
    closes = kernel.first_returns(m, branch.coords(xs[columns]), branch.n, TOL_EQ) == branch.n
    column_class = np.zeros(w, dtype=np.int16)
    column_class[columns[closes]] = decompose(branch).classify(xs[columns[closes]])
    component = np.zeros((h, w), dtype=np.int16)
    np.put(component, np.ravel_multi_index(band, (h, w)), column_class[band[1]])
    raw = kernel.period_grid(m, xs, ys, n_max, raster_module.RASTER_TOL)
    return band, component, np.where(component > 0, np.int16(branch.n), raw)


@pytest.mark.parametrize(
    "n, m, window, resolution",
    [
        (5, 2, SQUARE12, (300, 280)),
        (3, 1, (1.0, 2.0, 1.0, 2.0), (120, 90)),  # the band misses the window: no band cell
        (3, 1, SQUARE4, (257, 256)),  # the centre column is x = 0
        (300, 77, SQUARE4, (400, 300)),  # classes up to 276: the PGM clips
    ],
)
def test_band_cells_give_the_dense_layers(tmp_path, n, m, window, resolution):
    """A branch raster keeps its component layer as the rows and columns of its
    classified band cells and their classes; the layers, the
    component and period PGMs and the CSV are those of the dense layer, whether
    ``component`` is read before or after the PGM is written."""
    (b,) = [b for b in branches(n) if b.m == m]
    band, component, period = dense_reference(f2d(), window, resolution, b)
    xs, ys = cell_centers(window, resolution)
    if window == SQUARE4 and n == 3:
        assert xs[resolution[0] // 2] == 0.0 and not component[:, resolution[0] // 2].any()
    assert (band[0].size == 0) == (window == (1.0, 2.0, 1.0, 2.0)) == (not component.any())
    assert (int(component.max()) > 255) == (n == 300)
    first, late = (raster(f2d(), window, resolution, n_max=8, branch=b) for _ in range(2))
    assert np.array_equal(first.component, component)
    first.to_pgm(tmp_path / "first.pgm")
    late.to_pgm(tmp_path / "late.pgm")
    assert np.array_equal(late.component, component)
    want = pgm_concat(component)
    assert (tmp_path / "first.pgm").read_bytes() == (tmp_path / "late.pgm").read_bytes() == want
    assert late.to_pgm_bytes() == want
    assert np.array_equal(late.period, period)
    late.to_pgm(tmp_path / "period.pgm", "period")
    assert (tmp_path / "period.pgm").read_bytes() == pgm_concat(period)
    late.to_csv(tmp_path / "got.csv")
    raster_module.write_csv(tmp_path / "want.csv", "x,y,period,component", xs, ys, (period, component))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert late.meta["classified"] == int(np.count_nonzero(component))


# -- f3d stripes ------------------------------------------------------------------------

STRIPE_WINDOWS = [  # (window, resolution, stripe half-width)
    ((-1.125, 2.125, -3.0, 3.0), (13, 48), 0.25),  # cell centres on x = 0 and x = 1
    ((-3.0, 3.0, -3.25, 3.25), (40, 13), 0.5),  # rows on integers and half-integers, half to even
    ((-3.0, 3.0, -2.1, 2.9), (50, 40), 0.3),  # levels -2 and 3 partly outside the window
    ((-3.0, 3.0, 0.9, 1.1), (64, 1), 0.25),  # one row
    ((1.9, 2.1, -9.5, 9.5), (1, 77), 0.4),  # one column, through complex cells (0 < r < 8 at x = 2)
]


@pytest.mark.parametrize("window, resolution, half", STRIPE_WINDOWS)
@pytest.mark.parametrize("sign", ["+", "-"])
def test_stripe_layers_equal_the_per_level_cells(window, resolution, half, sign):
    """Each stripe row is written whole from its level's line: the component and
    period layers are those of the per-level flat cells, and 2 on every classified cell."""
    R = lv_raster(window, resolution, sign=sign, stripe_half_width=half)
    want = stripe_layer_per_level(window, resolution, sign, half)
    xs, rs = R.cells()
    if window[0] == -1.125:
        assert {0.0, 1.0} <= set(xs.tolist()) and not want[:, xs == 0.0].any() and not want[:, xs == 1.0].any()
    if half == 0.5:
        assert {-2.5, 2.5} <= set(rs.tolist()) and want[rs == 2.5].any() and want[rs == -2.5].any()
    assert want.any()
    assert np.array_equal(R.component, want)
    assert np.array_equal(R.period, np.where(want > 0, np.int16(2), np.int16(0)))
    assert R.to_pgm_bytes() == pgm_concat(want)


def test_stripe_pgm_file_memory(tmp_path):
    """At 2048^2 ``to_pgm`` writes each stripe row whole into its one byte body: the
    peak is that body (1 byte a cell) and the stripe rows' int16 lines with their
    clipped uint8 copy (3 bytes a stripe cell), with no index a cell."""
    cells = 2048 * 2048
    lv_raster((-3, 3, -4.5, 4.5), (64, 64)).to_pgm(tmp_path / "warm.pgm")
    tracemalloc.start()
    try:
        R = lv_raster((-3, 3, -4.5, 4.5), (2048, 2048))
        R.to_pgm(tmp_path / "s.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stripe_cells = R.classes.size
    assert (tmp_path / "s.pgm").stat().st_size == cells + len(b"P5\n2048 2048\n255\n")
    assert stripe_cells > cells // 3 and np.count_nonzero(R.classes) > cells // 3
    assert peak < cells + 3 * stripe_cells + (128 << 10)


def test_extreme_windows_are_classified_without_warnings(tmp_path):
    """At r near 1e300 every discriminant is +inf: all 64 cells are real and
    classified; the f2d band test overflows to inf at x near 1e300.  The suite
    turns a RuntimeWarning into an error, and the CLI prints none."""
    R = lv_raster((-3, 3, 1e300, 2e300), (8, 8))
    assert np.count_nonzero(R.component) == 64 and np.count_nonzero(R.period == 2) == 64
    window = (1e300, 1.0000001e300, -1, 1)
    assert_band_is_dense(window, (8, 8), branches(3)[0].rho)
    assert raster(f2d(), window, (8, 8), 8, branch=branches(3)[0]).to_pgm_bytes() == pgm_concat(
        dense_reference(f2d(), window, (8, 8), branches(3)[0])[1]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # as outside the suite: a warning is printed, not raised
        argv = ["raster", "--map", "f3d", "--period", "2", "--window=-3,3,1e300,2e300", "--res", "8x8"]
        code, out, err = run_captured(argv + ["-o", str(tmp_path / "s.pgm")])
    assert (code, err) == (0, "") and (tmp_path / "s.pgm").read_bytes() == pgm_concat(R.component)


@pytest.mark.parametrize("window", [(1e200, 2e200, -3, 3), (1e150, 1e160, -3, 3), (-2e200, -1e200, -3, 3)])
def test_stripes_at_a_huge_x_are_classified(window):
    """Past x = 1.3e154 D ~ x^4 > 0 overflows to +inf in every stripe cell, on
    either side of x = 0: all 32 of them are real and classified, without a warning."""
    R = lv_raster(window, (8, 8))
    assert R.classes.size == 32 and np.count_nonzero(R.classes) == 32
    assert np.count_nonzero(R.period == 2) == 32


# -- PGM -------------------------------------------------------------------------------

PGM_EDGES = np.array([-32768, -1, 0, 255, 256, 32767], dtype=np.int16)  # each side of both clip bounds


@pytest.mark.parametrize("shape", [(1, 1), (0, 4), (3, 7), (64, 33)])
def test_pgm_bytes_equal_the_concatenated_encoder(tmp_path, shape):
    """Through ``write_pgm`` and through ``TilingRaster.to_pgm`` (both layers),
    the PGM is the reference encoder's, byte for byte."""
    rng = np.random.default_rng(shape[1])
    grid = rng.integers(-40, 400, size=shape).astype(np.int16)
    edges = rng.permutation(PGM_EDGES)[: grid.size]
    grid.flat[rng.choice(grid.size, edges.size, replace=False)] = edges
    if grid.size >= PGM_EDGES.size:
        assert set(PGM_EDGES.tolist()) <= set(grid.ravel().tolist())
    want = pgm_concat(grid)
    write_pgm(tmp_path / "w.pgm", grid)
    assert (tmp_path / "w.pgm").read_bytes() == want
    index = np.nonzero(grid)  # the grid as its nonzero cells
    R = TilingRaster((0.0, 1.0, 0.0, 1.0), shape[1], shape[0], lambda: grid, index, grid[index])
    for layer in ("component", "period"):
        R.to_pgm(tmp_path / f"{layer}.pgm", layer)
        assert (tmp_path / f"{layer}.pgm").read_bytes() == want


@pytest.mark.parametrize("shape", [(), (7,), (2, 3, 4)])
def test_pgm_writer_refuses_a_layer_that_is_not_2d(tmp_path, shape):
    """Refused before the file is opened, so an existing file is kept."""
    path = tmp_path / "out.pgm"
    path.write_bytes(b"kept")
    grid = np.zeros(shape, np.int16)
    with pytest.raises(ValueError, match="2-d layer"):
        write_pgm(path, grid)
    with pytest.raises(ValueError, match="2-d layer"):
        no_cells = (np.zeros(0, np.intp),) * 2, np.zeros(0, np.int16)
        TilingRaster((0.0, 1.0, 0.0, 1.0), 1, 1, lambda: grid, *no_cells).to_pgm(path, "period")
    assert path.read_bytes() == b"kept"
