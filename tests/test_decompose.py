import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ivpp import kernel, serialize
from ivpp.decompose import (
    BOUNDARY_TOL,
    ComponentDecomposition,
    NoClosure,
    NotACycle,
    _require_single_cycle,
    boundaries_analytic,
    boundaries_empirical,
    compare_boundaries,
    decompose,
)
from ivpp.ivpp2d import branches
from ivpp.maps import f2d, lv_recurrence_map
from ivpp.raster import raster

from conftest import POLE_WINDOW, boundary_cs_complex, classify_by_loop, f2d_exact

SQ5 = math.sqrt(5.0)
B_PLUS = -2 + SQ5
B_MINUS = -2 - SQ5


# -- exact orbits through kernel.step on the branch chart ------------------------


def test_step_on_branch_coords_follows_the_exact_orbits():
    """The flow of (x, rho/x) through kernel.step, against exact iteration:
    the period-3 orbit through (2, -3/2) and the period-4 one through (2, -1/2)."""
    p = (Fraction(2), Fraction(-3, 2))
    exact = [p]
    for _ in range(3):
        exact.append(f2d_exact(*exact[-1]))
    assert exact[1] == (Fraction(-5), Fraction(3, 5))
    assert exact[2] == (Fraction(-1, 3), Fraction(9))
    assert exact[3] == exact[0]
    four = [(2, -0.5), (-3, 1 / 3), (-0.5, 2), (1 / 3, -3), (2, -0.5)]

    cur = [np.concatenate(pair) for pair in zip(branches(3)[0].coords([2.0]), branches(4)[0].coords([2.0]))]
    for (ex, ey), (wx, wy) in zip(exact, four):
        assert cur[0].tolist() == pytest.approx([float(ex), wx], abs=1e-12)
        assert cur[1].tolist() == pytest.approx([float(ey), wy], abs=1e-12)
        _, cur = kernel.step(f2d(), cur)


def test_step_on_branch_coords_at_the_poles():
    """x = 0 is the chart's pole (both coordinates nan); x = 1 is a pole of
    the first component, so one step sends x to infinity."""
    start = branches(3)[0].coords([0.0, 1.0])
    assert np.isnan(start[0][0]) and np.isnan(start[1][0])
    _, (x1, y1) = kernel.step(f2d(), start)
    assert np.isinf(x1[1]) and y1[1] == 0.0


# -- analytic boundaries -----------------------------------------------------------


def test_boundaries_analytic_printed_sets():
    assert boundaries_analytic(branches(3)[0]) == pytest.approx([-1.0, 1.0, math.inf])
    assert boundaries_analytic(branches(4)[0]) == pytest.approx([-1.0, 0.0, 1.0, math.inf])
    b5p = boundaries_analytic(branches(5)[0])
    assert b5p == pytest.approx([-1.0, -B_PLUS, B_PLUS, 1.0, math.inf])
    b5m = boundaries_analytic(branches(5)[1])
    assert b5m == pytest.approx([B_MINUS, -1.0, 1.0, -B_MINUS, math.inf])
    b6 = boundaries_analytic(branches(6)[0])
    assert b6 == pytest.approx([-1.0, -1 / 3, 0.0, 1 / 3, 1.0, math.inf])


# -- empirical boundaries ------------------------------------------------------------


def test_empirical_agrees_with_analytic_everywhere():
    """Every branch of n = 3..60: the orbit of infinity under the fitted level
    recurrence is the closed-form cut set."""
    count = 0
    for n in range(3, 61):
        for b in branches(n):
            ana = boundaries_analytic(b)
            emp = boundaries_empirical(f2d(), b.coords, n)
            assert len(ana) == len(emp), (n, b.m)
            for u, v in zip(ana, emp):
                if math.isinf(u):
                    assert math.isinf(v)
                else:
                    assert abs(u - v) < BOUNDARY_TOL, (n, b.m)
            count += 1
    assert count == 550


def test_empirical_reads_no_closed_form(monkeypatch):
    """With the closed forms of the cuts and of tan(pi p/q) raising, a chart
    built from the level value alone still gives the cuts of n = 7, m = 3."""
    import importlib

    from ivpp import ivpp2d, mobius

    decompose_module = importlib.import_module("ivpp.decompose")  # ivpp.decompose is the function
    b = branches(7)[2]
    ana, rho = boundaries_analytic(b), b.rho

    def closed_form(*args, **kwargs):
        raise AssertionError("a closed form")

    for module, name in ((decompose_module, "boundary_cs"), (mobius, "boundary_cs"), (ivpp2d, "tan_pi")):
        monkeypatch.setattr(module, name, closed_form)
    with np.errstate(divide="ignore"):
        emp = boundaries_empirical(f2d(), lambda x: (x, rho / x), 7)
    assert compare_boundaries(ana, emp)[1] < BOUNDARY_TOL


@pytest.mark.parametrize("n", [2, 4, 6])
def test_empirical_on_the_1d_recurrence(n):
    # boundary oracle: the pole of -x/(1 - x) is x = 1, plus infinity itself;
    # at a multiple of the minimal period 2 the orbit of infinity stops where it comes back
    got = boundaries_empirical(lv_recurrence_map(), lambda x: (x,), n)
    assert len(got) == 2
    assert got[0] == pytest.approx(1.0, abs=1e-7)
    assert math.isinf(got[1])


@pytest.mark.parametrize("n", [3, 7, 16, 60])
def test_the_empirical_route_takes_three_step_calls_whatever_n(monkeypatch, n):
    """The first images for the fit, the other n - 1 steps of the closure in
    one k-step call, and the push of the interior samples for sigma: three
    ``kernel.step`` calls per branch, with the same decomposition as n - 1
    single steps of the closure give."""
    import importlib

    decompose_module = importlib.import_module("ivpp.decompose")  # ivpp.decompose is the function
    real, calls = kernel.step, []

    def counting_step(m, coords, k=1):
        calls.append(k)
        return real(m, coords, k)

    def single_steps(m, coords, k=1):
        for _ in range(k):
            dens, coords = real(m, coords)
        return dens, coords

    b = branches(n)[-1]
    monkeypatch.setattr(decompose_module, "step", single_steps)
    want = decompose(b, method="empirical")
    monkeypatch.setattr(decompose_module, "step", counting_step)
    assert decompose(b, method="empirical") == want
    assert calls == [1, n - 1, 1]


def test_empirical_at_period_one_closes_on_the_first_images():
    """n = 1: the first images are also the closure's; the identity closes, with no cut but infinity."""
    from ivpp.core import RationalMap
    from ivpp.poly import Polynomial

    x, one = Polynomial.var(0, 1), Polynomial.const(1, 1)
    assert boundaries_empirical(RationalMap([(x, one)]), lambda x: (x,), 1) == [math.inf]


def test_empirical_refuses_a_probe_on_a_pole():
    """x -> (p x + 1)/(x - p) is an involution with its pole on the middle
    probe p: the other two probes close, but no recurrence is fitted
    through an image at infinity."""
    from ivpp.core import RationalMap
    from ivpp.decompose import SCAN_WINDOW
    from ivpp.poly import Polynomial

    lo, hi = SCAN_WINDOW
    p = float((lo + (hi - lo) * np.array([0.137, 0.411, 0.739]))[1])
    x, one = Polynomial.var(0, 1), Polynomial.const(1, 1)
    m = RationalMap([(x.scale(p) + one, x - one.scale(p))])
    with pytest.raises(NoClosure, match="leaves the chart"):
        boundaries_empirical(m, lambda x: (x,), 2)


def test_coords_is_point_on_arrays():
    xs = [0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0, -0.37, 1e-300, 7.25]
    for n in (3, 4, 7, 10):
        for b in branches(n):
            want = []
            for x in xs:
                try:
                    want.append([c.value.real if c.is_finite else math.inf for c in b.point(x).coords])
                except ZeroDivisionError:
                    want.append([math.nan, math.nan])
            got = b.coords(np.array(xs))
            assert len(got) == 2 and all(c.dtype == np.float64 for c in got)
            np.testing.assert_array_equal(np.array(got).T, np.array(want))


def test_compare_boundaries_flags_a_wrong_cut_list():
    ana = boundaries_analytic(branches(5)[0])  # -1, -0.236..., 0.236..., 1, inf
    rows, worst = compare_boundaries(ana, ana)
    assert worst == 0.0 and [(u, v) for u, v, _ in rows] == list(zip(ana, ana))

    shifted = ana[:1] + [ana[1] + 1e-6] + ana[2:]  # one cut off by more than the tolerance
    rows, worst = compare_boundaries(ana, shifted)
    assert worst == pytest.approx(1e-6) and worst > BOUNDARY_TOL
    assert [d for _, _, d in rows].index(worst) == 1

    missing = ana[:2] + ana[3:]  # a cut the empirical route missed: every row is printed
    rows, worst = compare_boundaries(ana, missing)
    assert len(rows) == len(ana) and rows[-1] == (math.inf, None, math.inf)
    assert worst == math.inf

    rows, worst = compare_boundaries(ana[:-1], ana)  # the longer list is the empirical one
    assert rows[-1] == (None, math.inf, math.inf) and worst == math.inf
    assert compare_boundaries(ana[:-1] + [-math.inf], ana)[1] == math.inf


def test_empirical_no_closure_on_a_wrong_period():
    with pytest.raises(NoClosure):
        boundaries_empirical(f2d(), branches(3)[0].coords, 4)
    for n in (0, -3):  # a period below 1 is outside the contract, not a failed closure
        with pytest.raises(ValueError, match=f"period must be >= 1, got {n}") as refused:
            boundaries_empirical(lv_recurrence_map(), lambda x: (x,), n)
        assert not isinstance(refused.value, NoClosure)


# -- decomposition -----------------------------------------------------------------


EXPECTED_SIGMA = {
    (3, 1): (2, 3, 1),
    (4, 1): (2, 3, 4, 1),
    (5, 1): (2, 3, 4, 5, 1),
    (5, 2): (3, 4, 5, 1, 2),
    (6, 1): (2, 3, 4, 5, 6, 1),
}


@pytest.mark.parametrize("method", ["analytic", "empirical"])
def test_decompose_sigma_tables(method):
    for (n, k), want in EXPECTED_SIGMA.items():
        d = decompose(branches(n)[k - 1], method=method)
        assert d.sigma == want
        assert d.n_components == n
        assert d.convention == "left-closed"


def test_sigma_is_a_single_cycle_property():
    for n in (3, 4, 5, 6):
        for b in branches(n):
            d = decompose(b)
            sigma = d.sigma
            # sigma^n = identity, sigma^k != identity for 0 < k < n
            perm = list(range(1, n + 1))
            for k in range(1, n + 1):
                perm = [sigma[i - 1] for i in perm]
                if k < n:
                    assert perm != list(range(1, n + 1))
            assert perm == list(range(1, n + 1))


def test_every_branch_to_n200_matches_the_closed_form():
    """All 6,115 branches of n = 3..200 against the paper's complex form of
    the cuts (conftest's ``boundary_cs_complex``), not the map: the finite
    cuts are cut_j = (1-s)(1+s^j)/((1+s)(1-s^j)), s = exp(2 pi i m/n),
    j = 1..n-1, within 1e-12 * max(1, |cut|); labelling each component by the
    j of its left cut, the one from -inf by 0 (its left end, infinity, is
    cut_0), sigma is the map j -> j - 1 mod n."""
    count = 0
    for n in range(3, 201):
        j = np.arange(1, n)
        for b in branches(n):
            d = decompose(b)
            cuts = boundary_cs_complex(n, b.m)
            order = np.argsort(cuts.real)
            want = cuts[order]
            got = np.array(d.finite_boundaries())
            assert got.shape == want.shape, (n, b.m)
            assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all(), (n, b.m)
            labels = np.concatenate([[0], j[order]])
            component = np.empty(n, dtype=int)
            component[labels] = np.arange(1, n + 1)
            assert d.sigma == tuple(component[(labels - 1) % n].tolist()), (n, b.m)
            count += 1
    assert count == 6115


def test_the_closed_forms_are_exact():
    """Every cut of every branch of n = 3..60 and every level rho of n = 3..200
    is within 2e-15 * max(1, |v|) of its 30-digit value, cut_j = tan(pi m/n) /
    tan(pi jm/n) and rho = -tan^2(pi m/n); and the cuts of j and n - j are
    exact negatives, so each branch's sorted cuts read the same negated and
    reversed."""
    with mpmath.workdps(30):
        for n in range(3, 201):
            tans = {p: mpmath.tan(mpmath.pi * p / n) for p in (range(n) if n <= 60 else (b.m for b in branches(n)))}
            for b in branches(n):
                rho = -tans[b.m] ** 2
                assert abs(b.rho - rho) <= 2e-15 * max(1, abs(rho)), (n, b.m)
                if n > 60:
                    continue
                cuts = boundaries_analytic(b)[:-1]
                assert cuts == [-c for c in reversed(cuts)], (n, b.m)
                want = sorted(0 if 2 * (j * b.m % n) == n else tans[b.m] / tans[j * b.m % n] for j in range(1, n))
                for got, w in zip(cuts, want):
                    assert abs(got - w) <= 2e-15 * max(1, abs(w)), (n, b.m)


def test_decompose_and_the_scan_take_no_scalar_orbit(monkeypatch):
    """With RationalMap.apply, .iterate and .detect_period raising, both
    decompose methods on every branch of n = 3..8, the 1d empirical cuts and
    a component raster over the poles still give their usual results: every
    orbit they follow is a vector one."""
    from ivpp.core import RationalMap

    pick = {(n, b.m): b for n in range(3, 9) for b in branches(n)}
    cases = [(n, m, method) for n, m in pick for method in ("analytic", "empirical")]
    want = {case: decompose(pick[case[:2]], method=case[2]) for case in cases}
    want_lv = boundaries_empirical(lv_recurrence_map(), lambda x: (x,), 2)
    want_raster = raster(f2d(), POLE_WINDOW, (256, 200), n_max=4, branch=branches(3)[0])

    def scalar(*args, **kwargs):
        raise AssertionError("a scalar orbit step")

    for name in ("apply", "iterate", "detect_period"):
        monkeypatch.setattr(RationalMap, name, scalar)
    for case in cases:
        assert decompose(pick[case[:2]], method=case[2]) == want[case], case
    assert boundaries_empirical(lv_recurrence_map(), lambda x: (x,), 2) == want_lv
    got = raster(f2d(), POLE_WINDOW, (256, 200), n_max=4, branch=branches(3)[0])
    assert np.array_equal(got.component, want_raster.component) and got.meta == want_raster.meta
    assert (got.component > 0).any()


def test_not_a_cycle_guard():
    d = ComponentDecomposition(
        period=3,
        branch="m=1",
        convention="left-closed",
        boundaries=(-1.0, 1.0, math.inf),
        sigma=(1, 2, 3),
    )
    with pytest.raises(NotACycle, match=r"sigma \(1, 2, 3\) is not a single 3-cycle"):
        _require_single_cycle(d.sigma)


@pytest.mark.parametrize("sigma", [(), (1, 2), (2, 3, 1, 1), (0, 3, 1), (2, 3, 4)])
def test_sigma_must_send_every_component_into_the_components(sigma):
    with pytest.raises(ValueError, match="sigma must map each of the 3 components"):
        ComponentDecomposition(3, "m=1", "left-closed", (-1.0, 1.0, math.inf), sigma)


@pytest.mark.parametrize("sigma", [(2, 1, 2), (1, 1, 1), (3, 3, 2)])
def test_sigma_must_be_a_permutation(sigma):
    with pytest.raises(ValueError, match="sigma must map each of the 3 components to a different one"):
        ComponentDecomposition(3, "m=1", "left-closed", (-1.0, 1.0, math.inf), sigma)


def test_every_boundary_but_the_last_must_be_finite():
    with pytest.raises(ValueError, match="every boundary but the last must be finite"):
        ComponentDecomposition(3, "m=1", "left-closed", (-math.inf, 1.0, math.inf), (2, 3, 1))


# -- classify ---------------------------------------------------------------------


def test_classify_examples():
    d3 = decompose(branches(3)[0])
    assert d3.classify(-1.0) == 2  # [-1, 1) is the second component, left-closed
    assert d3.classify(0.999) == 2
    assert d3.classify(math.inf) == 3
    assert d3.classify(-math.inf) == 3  # one projective point
    d4 = decompose(branches(4)[0])
    assert d4.classify(1.0) == 4


def test_classify_is_a_partition():
    """Every finite x lands in exactly one interval under either convention."""
    d_left = decompose(branches(4)[0])
    from ivpp.lv3d import lv_decompose_period2

    d_right = lv_decompose_period2(0.0, "+")
    for d in (d_left, d_right):
        for x in [-10.0, *d.finite_boundaries(), 0.3, 0.9999, 1.0001, 7.5]:
            idx = d.classify(x)
            assert 1 <= idx <= d.n_components
            ends = [-math.inf, *d.finite_boundaries(), math.inf]
            lo, hi = ends[idx - 1], ends[idx]
            if d.convention == "left-closed":
                assert (lo == -math.inf or lo <= x + 1e-9) and x < hi + 1e-9
            else:
                assert lo - 1e-9 < x and (hi == math.inf or x <= hi + 1e-9)


def _probe_xs(cuts, rng):
    xs = [rng.uniform(-10.0, 10.0) for _ in range(20)] + [rng.uniform(-1e4, 1e4) for _ in range(5)]
    for c in cuts:  # on the cut, inside tol, on its edge and outside; the float neighbours of the cut and the edges
        step = 1e-9 * max(1.0, abs(c))
        xs += [c + k * step for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
        xs += [math.nextafter(v, to) for v in (c - step, c, c + step) for to in (-math.inf, math.inf)]
    return xs + [math.inf, -math.inf, 0.0, -0.0, math.nan]


def test_classify_equals_the_loop_over_every_cut():
    rng = random.Random(0xB15EC7)
    cases = []  # (decomposition, the cuts to probe, conventions)
    for n in range(3, 41):
        for b in branches(n):
            d = decompose(b)
            cases.append((d, d.finite_boundaries(), ("left-closed", "right-closed")))
    big = decompose(branches(4000)[0])
    fin = big.finite_boundaries()
    cases.append((big, fin[:5] + fin[5:-5:80] + fin[-5:], ("left-closed",)))
    # cuts closer together than tol: x snaps to the lowest cut within tol of it
    crowded = ComponentDecomposition(3, "crowded", "left-closed", (0.0, 5e-10, 1e-9, 1.0, math.inf), (1, 2, 3, 4, 5))
    cases.append((crowded, crowded.finite_boundaries(), ("left-closed", "right-closed")))
    for d, cuts, conventions in cases:
        for conv in conventions:
            dc = ComponentDecomposition(d.period, d.branch, conv, d.boundaries, d.sigma)
            xs = _probe_xs(cuts, rng)
            got = [dc.classify(x) for x in xs]
            assert got == [classify_by_loop(dc, x) for x in xs], (d.period, d.branch, conv)
            assert {type(k) for k in got} == {int}  # a float gives a Python int; the probes end in inf, -inf, nan
            classes = dc.classify(np.array(xs))
            assert classes.dtype.kind == "i" and classes.tolist() == got, (d.period, d.branch, conv)
            grid = dc.classify(np.array(xs[:24]).reshape(4, 6))
            assert grid.shape == (4, 6) and grid.dtype.kind == "i" and grid.ravel().tolist() == got[:24]
    assert crowded.classify(1e-9) == 2 and crowded.classify(-1e-10) == 2


def test_cycle_covariance_100_points():
    rng = random.Random(0xCAFE)
    m = f2d()
    for n in (3, 4, 5, 6):
        for b in branches(n):
            d = decompose(b)
            done = 0
            while done < 100:
                x = rng.uniform(-5, 5)
                if abs(x) < 0.02 or any(abs(x - c) < 1e-6 for c in d.finite_boundaries()):
                    continue
                img = m.apply(b.point(x))
                if img[0].is_infinite:
                    continue
                assert d.classify(img[0].value.real) == d.sigma[d.classify(x) - 1]
                done += 1


# -- boundary provenance -------------------------------------------------------------


def test_boundaries_lie_on_denominator_zero_curves():
    """Each finite analytic boundary is a pole of some flow iterate: the
    denominator of a component, evaluated along the flow, changes sign
    within 1e-6 of the boundary."""
    m = f2d()
    eps = 1e-6
    for n in (3, 4, 5, 6):
        for b in branches(n):
            for c in boundaries_analytic(b)[:-1]:
                witnessed = False
                for k in range(n):
                    for pick in (0, 1):
                        lo = _den_along_flow(m, b, c - eps, k, pick)
                        hi = _den_along_flow(m, b, c + eps, k, pick)
                        if lo is None or hi is None:
                            continue
                        if lo == 0 or hi == 0 or (lo < 0) != (hi < 0):
                            witnessed = True
                assert witnessed, f"boundary {c} of n={n} m={b.m} has no pole witness"


def _den_along_flow(m, branch, x, k, component):
    try:
        coords = (complex(x), complex(branch.rho / x))
    except ZeroDivisionError:
        return None
    for _ in range(k):
        coords = m.eval_raw(coords)
        if any(math.isnan(c.real) or math.isinf(c.real) for c in coords):
            return None
    d = m.components[component][1].eval(coords)
    return d.real if abs(d.imag) < 1e-12 else None


# -- serialization --------------------------------------------------------------------


def test_json_document_shape():
    d = decompose(branches(3)[0])
    text = serialize.dumps(d.to_json_dict())
    doc = json.loads(text)
    assert doc["period"] == 3
    assert doc["convention"] == "left-closed"
    assert doc["boundaries"][0] == "-inf"
    assert doc["boundaries"][1] == pytest.approx(-1.0)
    assert doc["sigma"] == [2, 3, 1]
    assert doc["rho"] == pytest.approx(-3.0)


def test_json_17_digit_round_trip():
    value = 0.1 + 0.2  # famous non-representable sum
    text = serialize.dumps({"v": value})
    assert json.loads(text)["v"] == value
