"""The band of the component rasters, its component layer and the PGM encoder and writer.

The band is found from per-column candidate rows (all rows for the full
columns); every test here compares it with ``band_mask_dense``, the test on
every cell of the grid.
"""

import importlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import band_mask_dense, pgm_concat
from ivpp import kernel
from ivpp.decompose import decompose
from ivpp.denoms import cell_centers
from ivpp.ivpp2d import branches
from ivpp.maps import f2d
from ivpp.raster import TilingRaster, pgm_bytes, raster, write_pgm

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
    """The band of ``raster`` as a bool (h, w) mask, and its chunks of flat indices."""
    w, h = resolution
    xs, ys = cell_centers(window, resolution)
    cell = max((window[1] - window[0]) / w, (window[3] - window[2]) / h)
    chunks = raster_module._band(xs, ys, window, rho, band_cells * cell, cell)
    flat = np.concatenate([np.zeros(0, dtype=np.int32), *chunks])
    assert np.unique(flat).size == flat.size  # every band cell once
    mask = np.zeros(w * h, dtype=bool)
    mask[flat] = True
    return mask.reshape(h, w), chunks


def assert_band_is_dense(window, resolution, rho, band_cells=1.5):
    got, chunks = band_of(window, resolution, rho, band_cells)
    want = band_mask_dense(window, resolution, rho, band_cells)
    assert np.array_equal(got, want), (window, resolution, rho, int((got != want).sum()))
    return want, chunks


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_band_equals_the_dense_mask_on_the_tiles_specs(seed):
    rng = random.Random(seed)
    for n, index, window, res in TILES_SPECS:
        want, _ = assert_band_is_dense(jitter(rng, window, res), res, branches(n)[index - 1].rho)
        assert want.sum() > 1000


def test_band_equals_the_dense_mask_far_out_on_the_level():
    """n = 16, m = 7: rho is about -25, so the curve is steep over most columns."""
    (b,) = [b for b in branches(16) if b.m == 7]
    assert -26 < b.rho < -25
    rng = random.Random(16)
    for window in (SQUARE12, (-40.0, 40.0, -40.0, 40.0), (0.5, 3.0, -60.0, -5.0)):
        res = (311, 257)
        want, _ = assert_band_is_dense(jitter(rng, window, res), res, b.rho)
        assert want.any()


@pytest.mark.parametrize("n", [3, 12, 40])
def test_band_with_cell_centres_on_zero_and_on_plus_minus_cell(n):
    """Centres at x = 0, x = +-cell (excluded, |x| > cell is strict) and x = +-2c (the
    last full columns); small |rho| puts the curve through those columns."""
    window, res = (-4.125, 4.125, -4.0, 4.0), (33, 64)  # dx = 0.25 = cell, dy = 0.125
    xs, _ = cell_centers(window, res)
    assert xs[16] == 0.0 and xs[15] == -0.25 and xs[17] == 0.25 and xs[19] == 0.75  # 2c = 0.75
    for b in (branches(n)[0], branches(n)[-1]):
        want, _ = assert_band_is_dense(window, res, b.rho)
        assert not want[:, 15:18].any()
    assert band_of(window, res, branches(n)[0].rho)[0].any()


def test_band_on_the_full_column_window():
    res = (256, 256)
    cell = 8.0 / 256
    assert 0.005 <= 2 * 1.5 * cell  # every column is a full column
    assert_band_is_dense(FULL_COLUMNS, res, -3.0)
    window = (0.1, 0.13, -40.0, -20.0)  # cell = 20/256 < |x| <= 2c: full columns with band cells
    want, _ = assert_band_is_dense(window, res, -3.0)
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
    want, chunks = assert_band_is_dense((1.0, 2.0, 1.0, 2.0), (300, 200), -3.0)
    assert not want.any() and all(c.size == 0 for c in chunks)


@pytest.mark.parametrize("block_cells", [1, 97, 4096])
def test_band_across_chunk_seams(monkeypatch, block_cells):
    """Small blocks split a group's columns, and one column's rows."""
    monkeypatch.setattr(kernel, "BLOCK_CELLS", block_cells)
    rng = random.Random(block_cells)
    for window, res in ((SQUARE4, (160, 150)), ((0.999, 1.001, -3.5, -2.5), (1, 400)), (FULL_COLUMNS, (40, 60))):
        want, chunks = assert_band_is_dense(jitter(rng, window, res), res, -3.0)
        assert want.any() or window == FULL_COLUMNS
    assert len(band_of(SQUARE4, (160, 150), -3.0)[1]) > 1 or block_cells > 1000


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
    component layer (2 bytes a cell) and the PGM buffer and its bytes (1 + 1), no grid mask."""
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
    assert peak < 4 * cells + (2 << 20)


def test_component_pgm_file_memory(tmp_path):
    """At 2048^2 ``to_pgm`` writes from one byte body: the peak is the component
    layer (2 bytes a cell) and that body (1), with no second copy of the image."""
    b = branches(3)[0]
    cells = 2048 * 2048
    tracemalloc.start()
    try:
        R = raster(f2d(), FULL_COLUMNS, (2048, 2048), n_max=8, branch=b)
        R.to_pgm(tmp_path / "c.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "c.pgm").stat().st_size == cells + len(b"P5\n2048 2048\n255\n")
    assert peak < 3 * cells + (2 << 20)


# -- PGM -------------------------------------------------------------------------------

PGM_EDGES = np.array([-32768, -1, 0, 255, 256, 32767], dtype=np.int16)  # each side of both clip bounds


@pytest.mark.parametrize("shape", [(1, 1), (0, 4), (3, 7), (64, 33)])
def test_pgm_bytes_equal_the_concatenated_encoder(tmp_path, shape):
    """In memory, through ``write_pgm`` and through ``TilingRaster.to_pgm`` (both
    layers), the PGM is the reference encoder's, byte for byte."""
    rng = np.random.default_rng(shape[1])
    grid = rng.integers(-40, 400, size=shape).astype(np.int16)
    edges = rng.permutation(PGM_EDGES)[: grid.size]
    grid.flat[rng.choice(grid.size, edges.size, replace=False)] = edges
    if grid.size >= PGM_EDGES.size:
        assert set(PGM_EDGES.tolist()) <= set(grid.ravel().tolist())
    want = pgm_concat(grid)
    blob = pgm_bytes(grid)
    assert type(blob) is bytes and blob == want
    write_pgm(tmp_path / "w.pgm", grid)
    assert (tmp_path / "w.pgm").read_bytes() == want
    R = TilingRaster((0.0, 1.0, 0.0, 1.0), shape[1], shape[0], lambda: grid, grid)
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
        TilingRaster((0.0, 1.0, 0.0, 1.0), 1, 1, lambda: grid, grid).to_pgm(path)
    assert path.read_bytes() == b"kept"
