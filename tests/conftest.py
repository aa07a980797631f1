"""Shared oracles for the test suite.

The Fraction-based evaluators here are independent of the library's
complex-arithmetic path: expected values in the tests are computed (or
frozen from) these, never from the code under test.  ``classify_by_loop``
is the plain form of the snapping classification, and ``eval_grid_term_loop``,
``homogeneous_two_roots`` and ``period_rows_dense`` those of the grid
kernel's polynomial evaluation, projective chart and period loop, against
which the fast ones must give identical answers; ``period_rows_exact`` is
the period loop that takes the exact chordal distance of every open cell
at every step, before the bound-first return test.  ``pole_depths_eager``
is the pole-depth scan that builds every curve with int8 sign products,
``gamma_fraction`` the exact period polynomial in ``Fraction`` arithmetic,
and ``horner_rounded`` a polynomial's exact value at a float, rounded
once.  ``boundary_cs_complex`` is the paper's root-of-unity form of the
cuts, which the library evaluates in real arithmetic, and
``boundary_d_closed_form`` the z-space cut's own closed form, with its
relative snap to infinity, before it was composed from the level matrix.
``band_mask_dense`` is the component rasters' band test on every cell of
the grid, before the per-column candidate rows, and ``pgm_concat`` the
PGM encoder that clips to int16, casts and concatenates the header.
``stripe_layer_per_level`` is the f3d stripe layer as its flat cells were
built level by level, with the discriminant in its expanded terms.
``snapped_period_is`` is the component pass's decision made on the scalar
projective orbit, the rule the vector first-return loop must reproduce.
``eval_term_loop`` and ``apply_term_loop`` are the complex term loop that
evaluated single points before the compiled program did, and its finite
projective step;
``apply_limit_ratio`` is the projective step at an infinite coordinate that
substituted the finite coordinates into new polynomials and took the limit
one variable at a time, before the leading groups were compiled.
"""

import cmath
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import comb
from typing import Tuple

import numpy as np
import pytest


def f2d_exact(x: Fraction, y: Fraction) -> Tuple[Fraction, Fraction]:
    """Exact one-step image of the 2d map at a rational point."""
    return (x * (1 - y) / (1 - x), y * (1 - x) / (1 - y))


def f3d_exact(x: Fraction, y: Fraction, z: Fraction):
    dx = 1 - y + y * z
    dy = 1 - z + z * x
    dz = 1 - x + x * y
    return (x * dx / dy, y * dy / dz, z * dz / dx)


def reduced_exact(r: Fraction, x: Fraction) -> Fraction:
    return (x - r) / (1 - x)


def eval_term_loop(poly, values) -> complex:
    """Reference ``Polynomial.eval``: each term is its complex coefficient
    times every power by ``**``, summed onto 0j; ``**`` raises OverflowError
    where a power overflows."""
    acc = 0j
    for exps, c in poly.terms.items():
        term = complex(c)
        for v, e in zip(values, exps):
            if e == 1:
                term *= v
            elif e > 1:
                term *= v**e
        acc += term
    return acc


def apply_term_loop(m, values):
    """Reference ``RationalMap.apply`` at a finite point: component by
    component, numerator and denominator by ``eval_term_loop``; INF on a
    pole, Indeterminate on 0/0 and where the quotient is nan."""
    from ivpp.core import INF, ExtendedComplex, Indeterminate, Point

    out = []
    for num, den in m.components:
        nv, dv = eval_term_loop(num, values), eval_term_loop(den, values)
        if dv == 0:
            if nv == 0:
                raise Indeterminate("0/0")
            out.append(INF)
            continue
        w = nv / dv
        if cmath.isnan(w):
            raise Indeterminate("nan")
        out.append(ExtendedComplex(w))
    return Point(out)


def apply_limit_ratio(m, point):
    """Reference ``RationalMap.apply`` at a point with an infinite coordinate:
    the finite coordinates substituted term by term into every numerator and
    denominator (``partial_eval``), then the iterated limit taken one infinite
    variable at a time, first to last, on the terms of highest degree in it
    (``limit_ratio``); Indeterminate where the limit has no projective value
    or is nan."""
    from ivpp.core import INF, ExtendedComplex, Indeterminate, Point
    from ivpp.poly import power

    def partial_eval(poly, values):
        """Exponents -> complex coefficient, nonzero, of ``poly`` at the finite ``values``."""
        out = {}
        for exps, c in poly.terms.items():
            factor = complex(c)
            new = list(exps)
            for i, v in values.items():
                e = exps[i]
                if e:
                    factor *= power(v, e)
                new[i] = 0
            key = tuple(new)
            out[key] = out.get(key, 0) + factor
        return {e: c for e, c in out.items() if c != 0}

    def leading(terms, v):
        a = max(e[v] for e in terms)
        return a, {e[:v] + (0,) + e[v + 1 :]: c for e, c in terms.items() if e[v] == a}

    def limit_ratio(num, den, inf_vars):
        if not num:
            if not den:
                raise Indeterminate("0/0 under the projective limit")
            return 0j
        if not den:
            return INF
        if not inf_vars:  # every variable substituted: one constant term each
            return next(iter(num.values())) / next(iter(den.values()))
        (a, lead_num), (b, lead_den) = leading(num, inf_vars[0]), leading(den, inf_vars[0])
        r = limit_ratio(lead_num, lead_den, inf_vars[1:])
        if a > b:
            if r is INF or r != 0:
                return INF
            raise Indeterminate("0 * inf under the projective limit")
        if a < b:
            if r is INF:
                raise Indeterminate("inf / inf under the projective limit")
            return 0j
        return r

    finite = {i: c.value for i, c in enumerate(point.coords) if c.is_finite}
    inf_vars = tuple(i for i, c in enumerate(point.coords) if c.is_infinite)
    out = []
    for num, den in m.components:
        w = limit_ratio(partial_eval(num, finite), partial_eval(den, finite), inf_vars)
        if w is not INF and cmath.isnan(w):
            raise Indeterminate("evaluation produced NaN")
        out.append(ExtendedComplex(w))
    return Point(out)


def boundary_cs_complex(n: int, k: int) -> np.ndarray:
    """The paper's complex boundary formula (1-s)(1+s^j)/((1+s)(1-s^j)),
    s = exp(2*pi*i*k/n), for j = 1..n-1, in numpy complex arithmetic."""
    s = np.exp(2j * np.pi * (k % n) / n)
    sj = np.exp(2j * np.pi * (np.arange(1, n) * k % n) / n)
    return (1 - s) * (1 + sj) / ((1 + s) * (1 - sj))


def boundary_d_closed_form(r: complex, m: int):
    """-sqrt(r)(sqrt(r)(l+^m + l-^m) + (l+^m - l-^m)) / (sqrt(r)(l+^m + l-^m) - (l+^m - l-^m)),
    l+- = 1 +- sqrt(r), as an ``ExtendedComplex``; INF where the denominator is
    within 1e-9 of zero relative to the scale of its terms."""
    from ivpp.core import INF, ExtendedComplex

    sr = cmath.sqrt(r)
    p, q = (1 + sr) ** m, (1 - sr) ** m
    num = sr * (p + q) + (p - q)
    den = sr * (p + q) - (p - q)
    if abs(den) <= 1e-9 * max(1.0, abs(sr * (p + q)) + abs(p - q)):
        return INF
    return ExtendedComplex(-sr * num / den)


# a window whose cell centres are not round numbers, so every digit of %.17g shows
JITTERED_WINDOW = (-4.0 + 0.0123456789, 4.0 + 0.0123456789, -3.0 - 0.00987654321, 5.0 - 0.00987654321)


# a window whose cell centres fall on every integer x, the poles x = 1 and x = rho among them
POLE_WINDOW = (-3.984375, 4.015625, -4.0, 4.0)


def snapped_period_is(m, branch, x: float, tol: float = 1e-9) -> bool:
    """Reference decision of the component pass: the scalar projective orbit of
    the snapped point (x, rho/x) first returns within tol at step n; False
    where the point or its orbit is undefined."""
    from ivpp.core import Indeterminate

    try:
        return m.detect_period(branch.point(x), branch.n, tol) == branch.n
    except (ZeroDivisionError, Indeterminate):
        return False


def csv_per_cell(header: str, xs, ys, layers) -> bytes:
    """Reference CSV text of the grid outputs, formatted one cell at a time."""
    lines = [header]
    for i in range(len(ys)):
        for j in range(len(xs)):
            values = "".join(f",{int(layer[i, j])}" for layer in layers)
            lines.append(f"{xs[j]:.17g},{ys[i]:.17g}{values}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def band_mask_dense(window, resolution, rho, band_cells=1.5):
    """Reference band of a component raster: the test on every cell, bool (h, w)."""
    from ivpp.denoms import cell_centers

    w, h = resolution
    xs, ys = cell_centers(window, resolution)
    cell = max((window[1] - window[0]) / w, (window[3] - window[2]) / h)
    X = xs[np.newaxis, :]
    out = np.empty((h, w), dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, h, 256):  # rows at a time, to bound the float temporaries
            Y = ys[lo : lo + 256, np.newaxis]
            band = band_cells * cell * (np.abs(X) + np.abs(Y) + 1.0)
            out[lo : lo + 256] = (np.abs(X * Y - rho) <= band) & (np.abs(X) > cell)
    return out


def stripe_layer_per_level(window, resolution, sign="+", stripe_half_width=0.25):
    """Reference component layer of ``lv_raster``: for each level, the flat indices
    of its classified columns on each of its stripe rows and their classes, put
    into an int16 (h, w) zero layer; D in its eight expanded terms."""
    from ivpp.denoms import cell_centers
    from ivpp.lv3d import lv_decompose_period2

    xs, rs = cell_centers(window, resolution)
    w, h = resolution
    classes = lv_decompose_period2(0.0, sign).classify(xs).astype(np.int16)
    levels = np.round(rs)
    near = ~(np.abs(rs - levels) > stripe_half_width) & (window[2] <= levels) & (levels <= window[3])
    rows = np.flatnonzero(near)
    level, which = np.unique(levels[rows], return_inverse=True)
    x, r = xs, level[:, np.newaxis]
    d = r * r - 2 * r * r * x + 2 * r * x * x + r * r * x * x - 2 * r * x**3 + 4 * x * x - 4 * x**3 + x**4
    grid = np.where((d >= 0) & (xs != 0.0) & (xs != 1.0), classes, np.int16(0))
    layer = np.zeros(h * w, dtype=np.int16)
    for k, line in enumerate(grid):
        j = np.flatnonzero(line)
        i = rows[which == k] * w
        layer[(i[:, np.newaxis] + j).ravel()] = np.tile(line[j], i.size)
    return layer.reshape(h, w)


def pgm_concat(grid) -> bytes:
    """Reference PGM of ``write_pgm``: clip, cast, flip, then header + data."""
    h, w = grid.shape
    data = np.clip(grid, 0, 255).astype(np.uint8)[::-1, :]
    return f"P5\n{w} {h}\n255\n".encode() + data.tobytes()


def classify_by_loop(decomp, x: float, tol: float = 1e-9) -> int:
    """Reference ``ComponentDecomposition.classify``: snap x to the first ascending
    cut within tol by a loop over every cut, then bisect."""
    if math.isinf(x):
        return decomp.n_components
    fin = decomp.finite_boundaries()
    for b in fin:
        if abs(x - b) <= tol * max(1.0, abs(b)):
            x = b
            break
    if decomp.convention == "left-closed":
        return bisect_right(fin, x) + 1
    return bisect_left(fin, x) + 1


def assert_same_bits(got, want) -> None:
    """Equal values, nan masks and sign bits (real and imaginary parts apart)."""
    assert got.shape == want.shape and got.dtype == want.dtype
    for g, w in ((got.real, want.real), (got.imag, want.imag)) if np.iscomplexobj(want) else ((got, want),):
        assert np.array_equal(np.isnan(g), np.isnan(w))
        assert np.array_equal(np.signbit(g), np.signbit(w))
        assert np.array_equal(g, w, equal_nan=True)


def eval_grid_term_loop(poly, arrays):
    """Reference ``Polynomial.eval_grid``: every term is its coefficient times
    every power, 1 and first powers included, summed in order."""
    acc = None
    for exps, c in poly.terms.items():
        term = float(c)
        for arr, e in zip(arrays, exps):
            if e:
                term = term * arr**e
        acc = term if acc is None else acc + term
    if not hasattr(acc, "shape"):
        return np.full(np.broadcast(*arrays).shape, 0.0 if acc is None else acc)
    return acc


def homogeneous_two_roots(a):
    """Reference ``kernel._homogeneous``: each chart with its own square root."""
    small = np.abs(a) <= 1.0
    with np.errstate(all="ignore"):
        h1 = np.sqrt(1.0 + a * a)
        w = np.where(small, 0.0, 1.0 / a)
        h2 = np.sqrt(1.0 + w * w)
        return np.where(small, a / h1, 1.0 / h2), np.where(small, 1.0 / h1, w / h2)


def period_rows_dense(m, xs, ys, n_max, tol):
    """Reference period grid: every cell stepped n_max times by the term-loop
    evaluation, compared in the two-root chart, and decided by the still-open
    rule ``(period == 0) & ~dead``."""

    def chord(a, uv):
        u1, v1 = homogeneous_two_roots(a)
        return np.abs(u1 * uv[1] - uv[0] * v1)

    cx, cy = x0, y0 = np.meshgrid(xs, ys)
    start = homogeneous_two_roots(x0), homogeneous_two_roots(y0)
    period = np.zeros(x0.shape, dtype=np.int16)
    dead = np.zeros(x0.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(1, n_max + 1):
            dens = [eval_grid_term_loop(den, (cx, cy)) for _, den in m.components]
            cx, cy = (eval_grid_term_loop(num, (cx, cy)) / d for (num, _), d in zip(m.components, dens))
            dead |= (np.isnan(cx) | np.isnan(cy)) & (period == 0)
            dist = np.maximum(chord(cx, start[0]), chord(cy, start[1]))
            period[(period == 0) & ~dead & (dist < tol)] = k
    period[dead] = -1
    return period


def period_rows_exact(m, xs, ys, n_max, tol):
    """Reference period grid, the whole grid as one block: the exact chordal
    distance of every stepped cell to its start at every step, decided cells
    retired once at most half are open."""
    from ivpp.kernel import _chord_grid, _homogeneous, step

    cx, cy = x0, y0 = [c.ravel() for c in np.meshgrid(xs, ys)]
    start = _homogeneous(x0), _homogeneous(y0)
    period = np.zeros(x0.size, dtype=np.int16)
    cell = np.arange(x0.size)
    open_ = np.ones(x0.size, dtype=bool)
    for k in range(1, n_max + 1):
        _, (cx, cy) = step(m, (cx, cy))
        with np.errstate(all="ignore"):
            nan = np.isnan(cx) | np.isnan(cy)
            dist = np.maximum(_chord_grid(cx, start[0]), _chord_grid(cy, start[1]))
        hit = open_ & (nan | (dist < tol))
        period[cell[hit]] = np.where(nan[hit], -1, k)
        open_ ^= hit
        live = np.count_nonzero(open_)
        if live == 0:
            break
        if 2 * live <= open_.size:
            cx, cy, cell = cx[open_], cy[open_], cell[open_]
            start = tuple((u[open_], v[open_]) for u, v in start)
            open_ = np.ones(live, dtype=bool)
    return period.reshape(ys.shape[0], xs.shape[0])


def pole_depths_eager(m, k_max, window, resolution):
    """Reference pole-depth scan: (first_pole_depth, [(depth, component, values, crossing)]).

    Every curve is full size and filled in the kernel's row blocks (one halo
    row each), with int8 signs and crossings where a sign product is negative."""
    from ivpp.denoms import cell_centers
    from ivpp.kernel import blocks, step

    xs, ys = cell_centers(window, resolution)
    w, h = resolution
    n = len(m.components)
    curves = [(k, j, np.zeros((h, w), dtype=np.int8), np.zeros((h, w), dtype=bool))
              for k in range(1, k_max + 1) for j in range(n)]
    first_pole = np.zeros((h, w), dtype=np.int16)
    for lo, hi in blocks(w, h):
        coords = np.meshgrid(xs, ys[lo : min(hi + 1, h)])
        alive = np.ones(coords[0].shape, dtype=bool)
        depth = first_pole[lo:hi]
        for k in range(1, k_max + 1):
            den_vals, coords = step(m, coords)
            step_cross = np.zeros(depth.shape, dtype=bool)
            for j, D in enumerate(den_vals):
                s = np.zeros(D.shape, dtype=np.int8)
                s[alive & (D > 0)] = 1
                s[alive & (D < 0)] = -1
                cross = np.zeros(D.shape, dtype=bool)
                cross[:, :-1] |= (s[:, :-1] * s[:, 1:]) < 0
                cross[:-1, :] |= (s[:-1, :] * s[1:, :]) < 0
                _, _, values, crossing = curves[(k - 1) * n + j]
                values[lo:hi] = s[: hi - lo]
                crossing[lo:hi] = cross[: hi - lo]
                step_cross |= cross[: hi - lo]
            depth[step_cross & (depth == 0)] = k
            for arr in coords:
                alive &= np.isfinite(arr)
    return first_pole, curves


def gamma_fraction(n):
    """Reference monic gamma_n, ascending, in exact fractions: the monic all-m
    product sum_k C(d, 2k+1) r^k of each divisor d > 2 of n, divided by the
    gamma_e of every divisor e of d found before it."""

    def divide(num, den):
        num, out = list(num), [Fraction(0)] * (len(num) - len(den) + 1)
        for i in reversed(range(len(out))):
            out[i] = num[i + len(den) - 1]
            for j, c in enumerate(den):
                num[i + j] -= out[i] * c
        return out

    gammas = {}
    for d in range(3, n + 1):
        if n % d == 0:
            coeffs = [Fraction(comb(d, 2 * k + 1)) for k in range((d + 1) // 2)]
            q = [c / coeffs[-1] for c in coeffs]
            for e, g in gammas.items():
                if d % e == 0:
                    q = divide(q, g)
            gammas[d] = q
    return gammas[n]


def horner_rounded(coeffs, r, scale=1):
    """sum coeffs[k] r^k / scale, ascending, by Horner's rule in Fraction at the
    exact r, rounded by ``float()``, or +-inf with its sign where that raises."""
    r, value = Fraction(r), Fraction(0)
    for c in reversed(coeffs):
        value = value * r + c
    value /= scale
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@pytest.fixture(scope="session")
def exact_period3_orbit():
    """The rational period-3 orbit through (2, -3/2), iterated exactly."""
    p = (Fraction(2), Fraction(-3, 2))
    orbit = [p]
    for _ in range(3):
        orbit.append(f2d_exact(*orbit[-1]))
    return orbit
