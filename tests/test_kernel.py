import os
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivpp.kernel as kernel
import ivpp.poly as poly_module
from conftest import (
    assert_same_bits,
    eval_grid_term_loop,
    homogeneous_two_roots,
    period_rows_dense,
    period_rows_exact,
)
from ivpp.core import ExtendedComplex, Point, RationalMap
from ivpp.dsl import parse_map
from ivpp.lv3d import lv_discriminant, lv_period2_param
from ivpp.maps import f2d, f2d_reduced, f3d, lv_recurrence_map
from ivpp.poly import Polynomial


def test_kernel_finds_the_fixed_line():
    xs = np.linspace(-2, 2, 41)
    g = kernel.period_grid(f2d(), xs, xs, 4, 1e-9)
    diag = np.diagonal(g)
    on_indeterminacy = np.isclose(xs, 1.0)  # (1, 1) is a 0/0 point
    assert (diag[~on_indeterminacy] == 1).all()  # x = y is fixed
    assert (diag[on_indeterminacy] == -1).all()


def test_kernel_marks_pole_transits_undefined():
    xs = np.asarray([1.0])  # x = 1 is a pole of the first component
    ys = np.asarray([2.0])
    g = kernel.period_grid(f2d(), xs, ys, 4, 1e-9)
    assert g[0, 0] == -1


def test_step_at_the_exact_pole_of_f2d():
    xs, ys = np.asarray([1.0, 1.0, 2.0]), np.asarray([2.0, 1.0, -1.5])
    dens, (nx, ny) = kernel.step(f2d(), (xs, ys))
    assert dens[0].tolist() == [0.0, 0.0, 1.0]  # den_x = x - 1
    assert dens[1].tolist() == [1.0, 0.0, -2.5]  # den_y = y - 1
    assert nx[0] == np.inf and ny[0] == 0.0  # (1, 2) -> (1/0, 0/1)
    assert np.isnan(nx[1]) and np.isnan(ny[1])  # (1, 1) is 0/0
    assert (nx[2], ny[2]) == pytest.approx((-5.0, 0.6))


def test_step_on_a_1d_map():
    m = lv_recurrence_map()  # x -> -x/(1 - x)
    xs = np.asarray([1.0, 0.0, 2.0, -3.0, np.inf])
    dens, (images,) = kernel.step(m, (xs,))
    assert dens[0].tolist() == [0.0, -1.0, 1.0, -4.0, np.inf]
    assert images[0] == np.inf and images[1] == 0.0
    assert images[2] == m.eval_raw((2.0,))[0].real == 2.0
    assert images[3] == m.eval_raw((-3.0,))[0].real
    assert np.isnan(images[4])  # inf/inf


def test_blocks_cover_the_rows_in_order(monkeypatch):
    monkeypatch.setattr(kernel, "BLOCK_CELLS", 30)
    assert kernel.blocks(10, 7) == [(0, 3), (3, 6), (6, 7)]
    assert kernel.blocks(31, 2) == [(0, 1), (1, 2)]  # a row wider than a block is one block
    assert kernel.blocks(1, 65) == [(0, 30), (30, 60), (60, 65)]
    assert kernel.blocks(5, 0) == []


def _seam_grid(w, h):
    """Cell centres of a jittered window whose cells are not symmetric about 0."""
    return np.linspace(-2.9, 3.1, w) + 0.0123, np.linspace(-3.1, 2.9, h) - 0.0099


BAND_TOL = 0.05  # wide enough that the layers show several periods, not one value


@pytest.mark.parametrize("workers", [1, 3], ids=["one-thread", "three-threads"])
@pytest.mark.parametrize("rows", [1, 3], ids=["one-row-blocks", "three-row-blocks"])
@pytest.mark.parametrize("w, h", [(13, 17), (1, 23), (23, 1)])
@pytest.mark.parametrize("name", ["f2d", "lyness"])
def test_period_grid_in_blocks_equals_a_single_block(monkeypatch, workers, rows, w, h, name):
    """One default block, which these grids do not fill, gives the grid that
    blocks of 1 or 3 rows give, on one thread or shared by three: more
    threads than the host's CPUs, and fewer than the blocks but on the
    1-high grid."""
    m = f2d() if name == "f2d" else LYNESS
    xs, ys = _seam_grid(w, h)
    whole = kernel.period_grid(m, xs, ys, 8, BAND_TOL)
    assert kernel.blocks(w, h) == [(0, h)]  # the default block holds these grids whole
    monkeypatch.setattr(kernel, "WORKERS", workers)
    assert np.array_equal(kernel.period_grid(m, xs, ys, 8, BAND_TOL), whole)
    monkeypatch.setattr(kernel, "BLOCK_CELLS", rows * w)  # 17 and 23 rows do not split into threes
    assert len(kernel.blocks(w, h)) == -(-h // rows)
    assert np.array_equal(kernel.period_grid(m, xs, ys, 8, BAND_TOL), whole)


def _threads_after(before):
    """``threading.active_count()`` now; then every thread not in ``before`` is
    joined for at most 10 s, so a leaked thread fails the count instead of
    hanging the run."""
    count = threading.active_count()
    for t in threading.enumerate():
        if t not in before:
            t.join(10)
    return count


def test_run_blocks_runs_every_block_once_under_fast_thread_switches(monkeypatch):
    """Eight threads on 1-row blocks, switching every microsecond: each block
    runs exactly once and the grid equals the serial one (well under 1 s)."""
    m = f2d()
    xs, ys = _seam_grid(37, 90)
    monkeypatch.setattr(kernel, "BLOCK_CELLS", 37)
    monkeypatch.setattr(kernel, "WORKERS", 1)
    serial = kernel.period_grid(m, xs, ys, 8, BAND_TOL)
    monkeypatch.setattr(kernel, "WORKERS", 8)
    ran = []
    before = threading.enumerate()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.perf_counter()
        kernel.run_blocks(lambda lo, hi: ran.append((lo, hi)), 37, 90)
        threaded = kernel.period_grid(m, xs, ys, 8, BAND_TOL)
        elapsed = time.perf_counter() - started
    finally:
        sys.setswitchinterval(interval)
    assert _threads_after(before) == len(before)
    assert sorted(ran) == kernel.blocks(37, 90) and len(ran) == 90
    assert np.array_equal(threaded, serial)
    assert elapsed < 30.0


def test_an_error_in_a_helper_reaches_the_caller(monkeypatch):
    """A helper's exception is raised in the caller as the same object, after
    the caller's own block; nothing takes a block once it was raised, and
    no thread is left running."""
    monkeypatch.setattr(kernel, "WORKERS", 2)
    monkeypatch.setattr(kernel, "BLOCK_CELLS", 1)  # ten 1-row blocks of width 1
    boom = ValueError("block failed")
    caller_busy, raised = threading.Event(), threading.Event()
    helper, ran = [], []

    def block(lo, hi):
        ran.append(lo)
        if threading.current_thread() is threading.main_thread():
            caller_busy.set()
            assert raised.wait(10)
            helper[0].join(10)  # the helper has recorded its error and left
            return
        assert caller_busy.wait(10)
        helper.append(threading.current_thread())
        raised.set()
        raise boom

    before = threading.enumerate()
    with pytest.raises(ValueError) as info:
        kernel.run_blocks(block, 1, 10)
    assert info.value is boom
    assert sorted(ran) == [0, 1]
    assert _threads_after(before) == len(before)


def test_an_interrupt_in_the_caller_waits_for_the_helper(monkeypatch):
    """A KeyboardInterrupt on the calling thread is raised only once the
    helper has finished its current block, and the helper takes no other."""
    monkeypatch.setattr(kernel, "WORKERS", 2)
    monkeypatch.setattr(kernel, "BLOCK_CELLS", 1)  # ten 1-row blocks of width 1
    busy, interrupted, done, ran = threading.Event(), threading.Event(), [], []

    def block(lo, hi):
        ran.append(lo)
        if threading.current_thread() is threading.main_thread():
            assert busy.wait(10)
            interrupted.set()
            raise KeyboardInterrupt
        busy.set()
        assert interrupted.wait(10)  # still in its block when the caller is interrupted
        time.sleep(0.05)  # and after it recorded the interrupt
        done.append(lo)

    before = threading.enumerate()
    with pytest.raises(KeyboardInterrupt):
        kernel.run_blocks(block, 1, 10)
    assert len(done) == 1 and sorted(ran) == [0, 1]
    assert _threads_after(before) == len(before)


def test_one_worker_runs_the_blocks_in_order_on_the_caller(monkeypatch):
    monkeypatch.setattr(kernel, "WORKERS", 1)
    monkeypatch.setattr(kernel, "BLOCK_CELLS", 3)
    ran = []
    kernel.run_blocks(lambda lo, hi: ran.append((lo, hi, threading.get_ident())), 1, 8)
    assert ran == [(lo, hi, threading.get_ident()) for lo, hi in kernel.blocks(1, 8)]


def test_workers_are_the_usable_cpus_up_to_two():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert kernel.WORKERS == min(2, cpus)


def test_period_grid_rejects_non_2d_maps():
    xs = np.linspace(-1, 1, 3)
    with pytest.raises(ValueError, match="2d"):
        kernel.period_grid(f2d_reduced(-3), xs, xs, 4, 1e-9)


LYNESS = parse_map((Path(__file__).parents[1] / "perfbench" / "lyness.rmap").read_text())
POWERS = parse_map("dim 2; x' = (x^2 - y)/(1 - x); y' = (y^2 + x)/(1 + y);")


@pytest.mark.parametrize(
    "m, lo, hi, n_max",
    [(f2d(), -2.0, 2.0, 6), (LYNESS, -3.0, 3.0, 8), (POWERS, -2.0, 2.0, 6)],
    ids=["f2d", "lyness", "powers"],
)
def test_kernel_matches_scalar_detect_period(m, lo, hi, n_max):
    xs = np.linspace(lo, hi, 41)
    tol = 1e-6
    g = kernel.period_grid(m, xs, xs, n_max, tol)
    checked = 0
    for i, y in enumerate(xs):
        for j, x in enumerate(xs):
            if g[i, j] < 0:
                continue
            want = m.detect_period(Point([float(x), float(y)]), n_max, tol)
            assert g[i, j] == (want or 0), (x, y)
            checked += 1
    assert checked > 0.9 * g.size


def _scalar_first_returns(m, starts, n_max, tol):
    """detect_period per start, as first_returns states it: k, or 0 for none."""
    return [m.detect_period(Point([float(v) for v in p]), n_max, tol) or 0 for p in zip(*starts)]


def test_first_returns_matches_scalar_detect_period_in_1d_and_3d():
    """The first-return loop on flat starts of other dimensions: the 1d map
    x -> -x/(1 - x), an involution with the fixed points 0 and 2 and the pole
    1, and f3d on real points of its period-2 levels and on generic points.
    Every start the loop does not mark -1 gets detect_period's answer, and
    -1 falls only on the pole."""
    tol = 1e-9
    lv = lv_recurrence_map()
    xs = np.concatenate([np.linspace(-3.05, 3.05, 62), [0.0, 1.0, 2.0]])
    got = kernel.first_returns(lv, [xs], 4, tol)
    assert got.dtype == np.int16 and np.flatnonzero(got < 0).tolist() == [63]  # x = 1
    keep = got >= 0
    assert got[keep].tolist() == _scalar_first_returns(lv, [xs[keep]], 4, tol)
    assert sorted(set(got[keep].tolist())) == [1, 2]

    rng = np.random.default_rng(5)
    points = []
    while len(points) < 60:
        x, r = rng.uniform(-4, 4), rng.uniform(-6, 6)
        if min(abs(x), abs(x - 1)) >= 0.05 and lv_discriminant(x, r) >= 0:
            points.append([c.value.real for c in lv_period2_param(x, r, "+-"[len(points) % 2]).coords])
    points += rng.uniform(-3, 3, (40, 3)).tolist()
    starts = list(np.asarray(points).T)
    got = kernel.first_returns(f3d(), starts, 6, tol)
    assert (got[:60] == 2).all() and (got >= 0).all()
    assert got.tolist() == _scalar_first_returns(f3d(), starts, 6, tol)


def test_first_returns_refuses_periods_the_int16_layer_cannot_hold():
    """A period above int16 would wrap: with rho = -tan^2(pi/33000) the cell
    returns at step 33000, which would read -32536, "left the chart"."""
    rho = -np.tan(np.pi / 33000) ** 2
    assert kernel.N_MAX_LIMIT == np.iinfo(np.int16).max
    for n_max in (0, kernel.N_MAX_LIMIT + 1, 33001):
        with pytest.raises(ValueError, match=f"n_max must be in 1..{kernel.N_MAX_LIMIT}"):
            kernel.first_returns(f2d(), [np.asarray([2.0]), np.asarray([rho / 2])], n_max, 1e-6)
    with pytest.raises(ValueError, match="n_max"):
        kernel.period_grid(f2d(), [2.0], [rho / 2], 33001, 1e-6)
    diagonal = [np.asarray([0.5, 3.0])] * 2  # x = y is fixed
    assert kernel.first_returns(f2d(), diagonal, kernel.N_MAX_LIMIT, 1e-6).tolist() == [1, 1]


def test_python_chordal_helper_matches_core():
    vals = np.asarray([0.0, 1.0, -1.0, 3.5, 1e120, np.inf, -np.inf, 1e-30])
    for a in vals:
        for b in vals:
            got = float(kernel._chord_grid(np.asarray([a]), kernel._homogeneous(np.asarray([b])))[0])
            want = ExtendedComplex(float(a)).chordal(float(b))
            assert got == pytest.approx(want, abs=1e-12)


# -- the fast paths against their plain forms in conftest ----------------------------

ONE = np.nextafter(1.0, 2.0) - 1.0  # one ulp at 1
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308, 0.5, -3.25, 7.0]
EDGES = [1.0, -1.0, 1.0 + ONE, 1.0 - ONE / 2, -1.0 - ONE, -1.0 + ONE / 2]


def test_one_root_chart_is_bitwise_the_two_root_chart():
    a = np.asarray(SPECIAL + EDGES + np.random.default_rng(5).standard_normal(200).tolist())
    with np.errstate(over="ignore"):
        a = np.concatenate([a, 1.0 / a[a != 0]])  # both charts, inf and subnormals included
    for got, want in zip(kernel._homogeneous(a), homogeneous_two_roots(a)):
        assert_same_bits(got, want)


def _poly(nvars, terms):
    return Polynomial(nvars, {tuple(e): c for e, c in terms})


POLYS = {
    "constant": _poly(2, [((0, 0), Fraction(3, 2))]),
    "one": _poly(2, [((0, 0), Fraction(1))]),
    "zero": Polynomial(2),
    "bare-x": Polynomial.var(0, 2),
    "bare-y": Polynomial.var(1, 2),
    "minus-x": _poly(2, [((1, 0), -1)]),
    "unit-terms": _poly(2, [((2, 1), 1.0), ((1, 1), -1.0), ((0, 3), Fraction(1)), ((0, 0), 1)]),
    "floats": _poly(2, [((1, 0), 0.1), ((0, 1), -2.5), ((1, 2), 1e-3), ((0, 0), -1 / 3)]),
    "cube": _poly(3, [((1, 1, 1), 1), ((0, 0, 2), -1), ((3, 0, 0), 0.25)]),
}
MAPS = {"f2d": f2d(), "f3d": f3d(), "lyness": LYNESS, "powers": POWERS}


def _grid(nvars):
    vals = np.asarray(SPECIAL + EDGES)
    return np.meshgrid(*[vals] * nvars, indexing="ij")


@pytest.mark.parametrize("name", [*MAPS, *POLYS])
def test_eval_grid_is_bitwise_the_term_loop(name):
    if name in MAPS:
        polys = [p for pair in MAPS[name].components for p in pair]
    else:
        polys = [POLYS[name]]
    for p in polys:
        arrays = _grid(p.nvars)
        with np.errstate(all="ignore"):
            got, want = p.eval_grid(arrays), eval_grid_term_loop(p, arrays)
        assert_same_bits(got, want)
        assert not any(np.shares_memory(got, a) for a in arrays)  # a new array, never an input


def test_eval_grid_of_a_bare_variable_on_broadcast_arrays_is_a_copy():
    x, y = np.arange(3.0)[:, None], np.arange(4.0)[None, :]
    got = Polynomial.var(0, 2).eval_grid((x, y))
    assert np.array_equal(got, x) and not np.shares_memory(got, x)


def _map(*components):
    """A map from (numerator terms, denominator terms) per component, each
    term (exponents, coefficient) in the order the program sums them."""
    n = len(components)
    return RationalMap([(_poly(n, num), _poly(n, den)) for num, den in components])


X3, Y3, Z3, ONE3 = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
XY, ONE2 = (1, 1), (0, 0)
FOLD_MAPS = {
    # -x + y*z has no fold (x is not where y*z starts), -x + x*y folds to x*y - x, -y + x*y does not
    "leading-minus": _map(
        ([(X3, -1), ((0, 1, 1), 1)], [(ONE3, 1)]),
        ([(X3, -1), ((1, 1, 0), 1)], [(Z3, 1), (ONE3, -1)]),
        ([(Y3, -1), ((1, 1, 0), 1)], [(ONE3, 1), (Z3, -1)]),
    ),
    # -x - y is (-1.0 * x) - y, never -(x + y); 1 - x - y is 1.0 - x - y
    "minus-minus": _map(
        ([((1, 0), -1), ((0, 1), -1)], [((0, 1), -1), ((1, 0), -1)]),
        ([(ONE2, 1), ((1, 0), -1), ((0, 1), -1)], [((1, 0), 1), (ONE2, -1)]),
    ),
    # x*y in a numerator and a denominator, and a numerator equal to its denominator
    "shared-product": _map(
        ([(XY, 1), (ONE2, 1)], [(XY, 1), ((1, 0), -1)]),
        ([(XY, 1), ((0, 1), -1)], [(XY, 1), ((0, 1), -1)]),
    ),
    "constant-denominator": _map(
        ([((1, 0), 1), ((0, 1), 1)], [(ONE2, 2)]),
        ([((1, 0), -1)], [(ONE2, Fraction(-1, 3))]),
    ),
    # x' = y is a bare variable, y' = x*y - x is not divided by 1
    "unit-denominator": _map(
        ([((0, 1), 1)], [(ONE2, 1)]),
        ([((1, 0), -1), (XY, 1)], [(ONE2, 1)]),
    ),
}
STEP_MAPS = {**MAPS, **FOLD_MAPS}


def _step_term_loop(m, coords):
    """Reference ``kernel.step`` on real arrays: the term loop per denominator
    and numerator, then ``/``."""
    with np.errstate(all="ignore"):
        dens = [eval_grid_term_loop(den, coords) for _, den in m.components]
        return dens, [eval_grid_term_loop(num, coords) / d for (num, _), d in zip(m.components, dens)]


def _step_skipping_units(m, coords):
    """Reference ``kernel.step`` on complex arrays, where ``1.0 * z``,
    ``z**1`` and ``z / 1.0`` are not z once a part is infinite: the term
    loop without a coefficient of exactly 1 or a first power, then ``/``
    unless the denominator is exactly 1."""

    def term_loop(poly):
        acc = None
        for exps, c in poly.terms.items():
            term = None if c == 1 else float(c)
            for arr, e in zip(coords, exps):
                if e:
                    power = arr if e == 1 else arr**e
                    term = power if term is None else term * power
            term = 1.0 if term is None else term
            acc = term if acc is None else acc + term
        return np.full(coords[0].shape, 0.0 if acc is None else acc) if not hasattr(acc, "shape") else acc

    with np.errstate(all="ignore"):
        dens = [term_loop(den) for _, den in m.components]
        units = [den == Polynomial.const(1, m.dim) for _, den in m.components]
        return dens, [term_loop(num) if unit else term_loop(num) / d for (num, _), d, unit in zip(m.components, dens, units)]


def _complex_grid(nvars):
    """Starts whose real and imaginary parts run over SPECIAL + EDGES."""
    vals = np.asarray(SPECIAL + EDGES)
    z = np.empty(vals.size**2, dtype=complex)
    z.real, z.imag = np.repeat(vals, vals.size), np.tile(vals, vals.size)
    return [np.roll(z, 7 * i) for i in range(nvars)]


def _f3d_complex_sheets():
    """The complex points of f3d's period-2 sheets, as ``test_lv3d`` steps them."""
    points = [
        lv_period2_param(x, r, sign).values()
        for sign in "+-"
        for r in np.linspace(-50.0, 50.0, 41).tolist()
        for x in (-7.3, -0.61, 0.13, 0.87, 1.9, 11.7)
        if lv_discriminant(x, r) < 0
    ]
    return [np.array([p[i] for p in points]) for i in range(3)]


@pytest.mark.parametrize("starts", ["real", "complex"])
@pytest.mark.parametrize("name", list(STEP_MAPS))
def test_the_step_program_is_bitwise_the_term_loop(name, starts):
    """Real starts run the folded program and give the term loop's bits;
    complex ones, SPECIAL + EDGES parts and f3d's period-2 sheets, run the
    plain program and give the bits of the term loop that skips what is
    an identity only on reals (``1.0 *``, ``**1``, ``/ 1.0``).  Nan sign
    bits included, every array new, the denominator part the same."""
    m = STEP_MAPS[name]
    coords = _grid(m.dim) if starts == "real" else _complex_grid(m.dim)
    cases = [coords] + ([_f3d_complex_sheets()] if name == "f3d" and starts == "complex" else [])
    for coords in cases:
        dens, images = kernel.step(m, coords)
        want_dens, want_images = (_step_term_loop if starts == "real" else _step_skipping_units)(m, coords)
        for got, want in zip(dens + images, want_dens + want_images):
            assert_same_bits(got, want)
        outs = dens + images
        for i, a in enumerate(outs):
            assert not any(np.shares_memory(a, b) for b in list(coords) + outs[:i])
        for got, want in zip(kernel.denominators(m, coords), want_dens):
            assert_same_bits(got, want)


_TERMS = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.sampled_from([1, -1, 2, Fraction(-3, 2)])),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_TERMS, _TERMS), min_size=2, max_size=2))
def test_a_random_step_program_is_bitwise_the_term_loop(components):
    """Maps of up to four terms per polynomial, in any order: every fold the
    program finds must keep the term loop's bits, on real starts with both
    nan signs and on complex starts."""
    comps = [(_poly(2, num), _poly(2, den)) for num, den in components]
    if any(den.is_zero for _, den in comps):
        return
    m = RationalMap(comps)
    real = np.meshgrid(*[np.asarray(SPECIAL + EDGES + [-np.nan])] * 2, indexing="ij")
    for coords, reference in ((real, _step_term_loop), (_complex_grid(2), _step_skipping_units)):
        dens, images = kernel.step(m, coords)
        want_dens, want_images = reference(m, coords)
        for got, want in zip(dens + images, want_dens + want_images):
            assert_same_bits(got, want)


def test_the_f2d_program_forms_x_times_y_once_in_five_arrays():
    """Two denominators, the shared x*y and two images: every other
    operation runs in place, and the leading -x folds into x*y - x."""
    m = f2d()
    text, _ = poly_module._source(2, [den for _, den in m.components], m.components, folded=True)
    assert text.count("x0 * x1") == 1 and "t2 - x0" in text
    assert len([line for line in text.splitlines() if " = " in line]) == 5
    assert "np.negative" not in text


GRIDS = [(13, 17), (1, 23), (23, 1)]


@pytest.mark.parametrize("n_max", [1, 5, 8])
@pytest.mark.parametrize("name", ["f2d", "lyness", "powers"])
def test_period_grid_equals_the_dense_reference(monkeypatch, name, n_max):
    m = MAPS[name]
    for w, h in GRIDS:
        xs, ys = _seam_grid(w, h)
        want = period_rows_dense(m, xs, ys, n_max, BAND_TOL)
        for rows in (1, 3, 7):
            monkeypatch.setattr(kernel, "BLOCK_CELLS", rows * w)
            assert np.array_equal(kernel.period_grid(m, xs, ys, n_max, BAND_TOL), want), (w, h, rows)


def test_period_grid_keeps_the_first_return_of_a_cell_that_returns_again():
    xs, ys = _seam_grid(40, 30)
    want = period_rows_dense(f2d(), xs, ys, 8, BAND_TOL)
    assert ((want > 0) & (want <= 4)).any()  # such cells come back within tol at 2k too
    assert np.array_equal(kernel.period_grid(f2d(), xs, ys, 8, BAND_TOL), want)


# -- the bound-first return test ------------------------------------------------

EXTREMES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 1e154, -1.5e154, 1e200, -1e308]
ANY_FLOAT = st.one_of(st.floats(), st.sampled_from(EXTREMES))


@st.composite
def _start_and_iterate(draw, tol):
    """(b, a): a anywhere, equal to b, a few ulps off, or about tol (chordal) away."""
    b = draw(ANY_FLOAT)
    kind = draw(st.sampled_from(["any", "same", "ulps", "near"]))
    if kind == "any":
        return b, draw(ANY_FLOAT)
    if kind == "same":
        return b, b
    if kind == "ulps":
        to = draw(st.sampled_from([-np.inf, np.inf]))
        a = b
        for _ in range(draw(st.integers(1, 4))):
            with np.errstate(over="ignore"):  # the largest float steps to inf
                a = float(np.nextafter(a, to))
        return b, a
    with np.errstate(all="ignore"):
        return b, float(b + draw(st.floats(-3.0, 3.0)) * tol * (1.0 + b * b))


@st.composite
def _return_cases(draw):
    tol = draw(st.floats(1e-300, 1.0))
    pairs = draw(st.lists(st.tuples(_start_and_iterate(tol), _start_and_iterate(tol)), min_size=1, max_size=16))
    open_ = np.asarray(draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))))
    return tol, pairs, open_


@settings(max_examples=150, deadline=None)
@given(_return_cases())
def test_the_return_bound_never_rejects_an_exact_return(case):
    """``returns`` decides as the exact chordal distance of every coordinate
    does, on ±inf, nan, squares past the float range, equal and one-ulp
    pairs, subnormals and tol from 1e-300 to 1 (about 1.5 s)."""
    tol, pairs, open_ = case
    starts = [np.asarray([p[c][0] for p in pairs]) for c in (0, 1)]
    cur = [np.asarray([p[c][1] for p in pairs]) for c in (0, 1)]
    got = kernel.returns(cur, kernel.return_start(starts), tol, open_)
    want = open_.copy()
    for a, b in zip(cur, starts):
        want &= kernel._chord_grid(a, kernel._homogeneous(b)) < tol
    assert np.array_equal(got, want)


@pytest.mark.parametrize("tol", [1e-300, 1e-12, 1e-6, 0.5, 1.0])
def test_the_return_bound_on_every_pair_of_extremes(tol):
    """Every pair of these values and their neighbours one ulp away; the
    chordal distance of 7 and its upper neighbour rounds to 0 (under 1 ms)."""
    base = np.asarray(EXTREMES + SPECIAL + EDGES)
    vals = np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)])
    b, a = (g.ravel() for g in np.meshgrid(vals, vals))
    open_ = np.ones(a.size, dtype=bool)
    got = kernel.returns([a], kernel.return_start([b]), tol, open_)
    assert np.array_equal(got, kernel._chord_grid(a, kernel._homogeneous(b)) < tol)
    assert got[a == b].all() and not got[np.isnan(a) | np.isnan(b)].any()


def _undecided(cur, start, tol, open_):
    """Entries that neither bound of ``returns`` decides, from the bounds as
    its docstring states them, on ``return_start``'s (b, 1 + b²)."""
    left, sure = open_.copy(), open_ & (tol >= kernel.SURE_TOL)
    with np.errstate(all="ignore"):
        for a, (b, nb) in zip(cur, start):
            gap = np.abs(a - b)
            left &= gap <= (2.0 * tol + 1e-12) * (a * a + nb)
            lim = np.abs(a * b + 1.0) * (0.5 * tol)
            sure &= (gap < lim) & (lim + nb < np.inf)
    return left & ~sure


def _counting_chord(monkeypatch):
    """The sizes of the arrays that the exact chordal distance sees, per call."""
    seen = []
    real = kernel._chord_grid

    def counting_chord(a, uv):
        seen.append(a.size)
        return real(a, uv)

    monkeypatch.setattr(kernel, "_chord_grid", counting_chord)
    return seen


@pytest.mark.parametrize("tol", [1e-300, 1e-12, 1e-6, 0.5, 1.0])
@pytest.mark.parametrize("returning", ["a third", "all"])
@pytest.mark.parametrize("grid_first", [True, False])
def test_the_return_bound_on_two_coordinates(monkeypatch, tol, returning, grid_first):
    """Every pair of extremes in one coordinate, three times over (60% of the
    pairs pass the reject bound below tol 0.5, 88% from 0.5 on), and finite
    starts in the other, in both orders.  The other coordinate returns on
    all entries or on the first copy of the pairs only, and is far from its
    start elsewhere.  The exact distance sees exactly the entries that
    neither bound decides, once per coordinate.  From tol 1e-12 on, the
    accept bound decides a tenth to over half of the returns, and only
    returns whose every chord is below tol/2 plus rounding (under 0.1 s in
    all)."""
    base = np.asarray(EXTREMES + SPECIAL + EDGES)
    vals = np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)])
    b, a = (np.tile(g.ravel(), 3) for g in np.meshgrid(vals, vals))
    n = a.size
    first_copy = np.arange(n) < n // 3
    fixed_b = np.resize([0.0, -0.0, 0.5, -3.25, 7.0, 5e-324, -1.0, 1.0 + ONE, 2.2e-308], n)
    fixed_a = np.where(first_copy | (returning == "all"), fixed_b, -fixed_b - 3.0)
    cur, starts = ([a, fixed_a], [b, fixed_b]) if grid_first else ([fixed_a, a], [fixed_b, b])
    open_ = first_copy | (np.arange(n) % 7 != 3)
    chords = [kernel._chord_grid(u, kernel._homogeneous(v)) for u, v in zip(cur, starts)]
    want = open_ & (chords[0] < tol) & (chords[1] < tol)
    start = kernel.return_start(starts)
    undecided = _undecided(cur, start, tol, open_)
    seen = _counting_chord(monkeypatch)
    got = kernel.returns(cur, start, tol, open_)
    assert np.array_equal(got, want)
    assert want.any() and not want.all()
    count = np.count_nonzero(undecided)
    assert seen == ([count] * 2 if count else [])
    accepted = want & ~undecided
    if tol >= kernel.SURE_TOL:
        assert 10 * np.count_nonzero(accepted) >= np.count_nonzero(want)
        assert (np.maximum(*chords)[accepted] <= 0.5 * tol * (1.0 + 1e-12) + 1e-15).all()
    else:
        assert not accepted.any()


ACCEPT_TOLS = [1e-300, 1e-15, np.nextafter(kernel.SURE_TOL, 0.0), kernel.SURE_TOL, 1e-12, 1e-9, 1e-6, BAND_TOL, 0.5,
               1.0, 2.0]  # every tol the return tests run at, and both sides of SURE_TOL


def _near_chord(rng, size, d):
    """(b, a): starts b of either sign at magnitudes 1e-3 to 1e300, and a with
    chord(a, b) within 1e-6 relative of d.  chord(a, b) = |sin(atan a - atan b)|,
    and beyond 1 the inverse chart keeps the angles accurate."""
    b = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3.0, 300.0, size)
    d = np.minimum(d * (1.0 + rng.uniform(-1e-6, 1e-6, size)), 1.0)
    turn = rng.choice([-1.0, 1.0], size) * np.arcsin(d)
    big = np.abs(b) > 1.0
    with np.errstate(divide="ignore"):
        t = np.tan(np.arctan(np.where(big, 1.0 / b, b)) + turn)
        a = np.where(big, 1.0 / t, t)
    return b, a


@pytest.mark.parametrize("tol", ACCEPT_TOLS)
def test_the_accept_bound_decides_as_the_exact_form(tol):
    """``returns`` equals the exact per-coordinate decision on every pair of
    extremes, specials, edges, overflowing products (1e300 against ±1e9) and
    their ulp neighbours, infinite starts and nan included, and on random
    pairs whose chord is within 1e-6 relative of tol and of tol/2; on two
    coordinates, in both orders, against a returning, a far and a
    near-threshold other coordinate (about 0.1 s per tol)."""
    rng = np.random.default_rng(16)
    base = np.asarray(EXTREMES + SPECIAL + EDGES + [1e300, -1e300, 1e9, -1e9])
    vals = np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)])
    grid_b, grid_a = (g.ravel() for g in np.meshgrid(vals, vals))
    near = [_near_chord(rng, 20_000, d) for d in (tol, 0.5 * tol)]
    b = np.concatenate([grid_b] + [nb for nb, _ in near])
    a = np.concatenate([grid_a] + [na for _, na in near])
    n = a.size
    open_ = rng.random(n) < 0.9
    shuffle = rng.permutation(n)
    others = [(np.full(n, 0.5), np.full(n, 0.5)), (np.full(n, 0.5), np.full(n, -2.0)), (b[shuffle], a[shuffle])]
    for other_b, other_a in others:
        for cur, starts in (([a, other_a], [b, other_b]), ([other_a, a], [other_b, b])):
            want = open_.copy()
            for u, v in zip(cur, starts):
                want &= kernel._chord_grid(u, kernel._homogeneous(v)) < tol
            got = kernel.returns(cur, kernel.return_start(starts), tol, open_)
            assert np.array_equal(got, want)
    assert want.any() and not want.all()


RETURN_GRID = np.linspace(-3.0, 3.0, 25)  # holds the diagonal and exact period-3 and 4 points such as (2, -1.5), (2, -0.5)


@pytest.mark.parametrize("tol", [1e-6, 1e-12, 2.0])
@pytest.mark.parametrize("name", ["f2d", "lyness"])
def test_period_grid_equals_the_exact_everywhere_reference(monkeypatch, name, tol):
    """Blocks of 1, 3 and 7 rows cut the grids between returning cells; at
    tol 2 every cell returns at k = 1 unless it dies (about 0.1 s each)."""
    m = MAPS[name]
    for xs, ys in [(RETURN_GRID, RETURN_GRID), _seam_grid(23, 17)]:
        want = period_rows_exact(m, xs, ys, 8, tol)
        if tol > 1:
            assert set(want.flat) <= {-1, 1} and (want == 1).any()
        elif name == "f2d" and xs is RETURN_GRID:
            assert {-1, 0, 1, 3, 4} <= set(want.flat)
        for rows in (1, 3, 7):
            monkeypatch.setattr(kernel, "BLOCK_CELLS", rows * xs.shape[0])
            assert np.array_equal(kernel.period_grid(m, xs, ys, 8, tol), want), (xs.shape, rows)


def test_the_exact_distance_runs_only_on_candidates(monkeypatch):
    """Of the 14,641 cells of this f2d grid, 144 return within 8 steps (the
    diagonal and the levels xy = -3 and -1).  The exact chordal distance
    sees only the entries that neither bound decides, 8 per coordinate in
    all: the accept bound decides the other returns."""
    xs = np.linspace(-3.0, 3.0, 121)
    want = period_rows_exact(f2d(), xs, xs, 8, 1e-6)
    undecided = []
    real_returns = kernel.returns

    def noting_returns(cur, start, tol, open_):
        undecided.append(np.count_nonzero(_undecided(cur, start, tol, open_)))
        return real_returns(cur, start, tol, open_)

    monkeypatch.setattr(kernel, "returns", noting_returns)
    seen = _counting_chord(monkeypatch)
    g = kernel.period_grid(f2d(), xs, xs, 8, 1e-6)
    assert np.array_equal(g, want)
    returned = np.count_nonzero(g > 0)
    assert returned == 144
    assert seen[::2] == seen[1::2] == [u for u in undecided if u]  # x and y: the same entries
    assert sum(seen[::2]) == 8


def _stepped_sizes(monkeypatch):
    sizes = []
    real = kernel.step

    def counting_step(m, coords):
        sizes.append(coords[0].size)
        return real(m, coords)

    monkeypatch.setattr(kernel, "step", counting_step)
    return sizes


def test_decided_cells_are_not_stepped_again(monkeypatch):
    xs, ys = _seam_grid(40, 30)
    sizes = _stepped_sizes(monkeypatch)
    g = kernel.period_grid(LYNESS, xs, ys, 8, 1e-15)  # so tight that rounding keeps a few cells open
    open_cells = np.count_nonzero(g == 0)
    assert set(g.flat) == {0, 5} and 0 < open_cells < g.size // 2  # Lyness: every map point has period 5
    assert sizes == [g.size] * 5 + [open_cells] * 3  # from k = 6 on, only the open cells step


def test_stepping_stops_once_every_cell_is_decided(monkeypatch):
    sizes = _stepped_sizes(monkeypatch)
    g = kernel.period_grid(f2d(), np.asarray([2.0]), np.asarray([2.0]), 8, 1e-9)
    assert g.tolist() == [[1]] and sizes == [1]  # the fixed diagonal: one step, then none


def test_a_denominator_of_one_is_not_divided_by():
    """Lyness' x' = y: the image is y itself, bit for bit, even a signalling
    nan, which a division by 1.0 would quiet, and not the input; the
    denominators still come back as arrays of ones."""
    values = np.asarray([0.0, -0.0, 1.0, -2.5, 5e-324, 1e308, np.inf, -np.inf, np.nan, 0.0])
    values.view(np.uint64)[-1] = 0x7FF0000000000001  # a signalling nan
    xs, ys = np.meshgrid(values, values[::-1])
    dens, (nx, ny) = kernel.step(LYNESS, (xs, ys))
    assert np.array_equal(nx.view(np.uint64), ys.view(np.uint64))
    assert not np.shares_memory(nx, ys)
    assert_same_bits(np.asarray(dens[0]), np.ones_like(xs))
    with np.errstate(all="ignore"):
        assert_same_bits(ny, eval_grid_term_loop(LYNESS.components[1][0], (xs, ys)) / xs)


LYNESS_LOCAL = parse_map("dim 2; x' = y; y' = (1 + y)/x;")  # the Lyness map, period 5 on every level
K_STEP_MAPS = {"f2d": f2d(), "f3d": f3d(), "lyness": LYNESS_LOCAL}


def _broadcast_starts(nvars):
    """float64 starts of different shapes, so the first steps cannot take the folded program."""
    vals = np.asarray(SPECIAL + EDGES)
    return [vals.reshape((-1,) + (1,) * i) for i in range(nvars)]


@pytest.mark.parametrize("starts", ["real", "complex", "broadcast"])
@pytest.mark.parametrize("name", list(K_STEP_MAPS))
def test_k_steps_are_bitwise_k_single_steps(name, starts):
    """``step(m, c, k)`` gives the k-th step's denominators and images bit for
    bit as k calls of one step give them, nan sign bits and infinities
    included, for k = 1..8: on float64 starts that hit poles, 0/0 and
    overflow, on complex starts, and on broadcast float64 starts, where the
    first steps take the plain program.  Every array is new."""
    m = K_STEP_MAPS[name]
    coords = {"real": _grid, "complex": _complex_grid, "broadcast": _broadcast_starts}[starts](m.dim)
    want, cur = [], coords
    for _ in range(8):
        dens, cur = kernel.step(m, cur)
        want.append(dens + cur)
    for k in range(1, 9):
        dens, images = kernel.step(m, coords, k)
        assert len(dens) == len(images) == m.dim
        for got, expected in zip(dens + images, want[k - 1]):
            assert_same_bits(got, expected)
        assert not any(np.shares_memory(a, c) for a in dens + images for c in coords)
    seen = [a for w in want for a in w]
    assert any(np.isnan(a).any() for a in seen) and any(np.isinf(a).any() for a in seen)  # the starts reach both


def test_k_steps_keep_the_callers_error_state():
    """The k steps run under their own np.errstate: the caller's settings are
    the same afterwards, and no RuntimeWarning escapes, though the steps
    divide by zero, overflow and form 0/0."""
    import warnings

    coords = _grid(2)
    with np.errstate(all="warn"):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (1, 2, 8):
                kernel.step(f2d(), coords, k)
        assert np.geterr() == before


def test_k_steps_refuse_k_below_one():
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            kernel.step(f2d(), _grid(2), k)
