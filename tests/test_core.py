import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivpp.cli import run_captured
from ivpp.core import (
    INF,
    ExtendedComplex,
    Indeterminate,
    InfiniteCoordinate,
    Point,
    RationalMap,
)
from ivpp.dsl import parse_map
from ivpp.maps import f2d, f3d, get_map
from ivpp.lv3d import lv_period2_param
from ivpp.poly import Polynomial

from conftest import apply_limit_ratio, apply_term_loop, eval_term_loop, f2d_exact, f3d_exact, reduced_exact


# -- ExtendedComplex / chordal metric ------------------------------------------


def test_nan_is_rejected():
    with pytest.raises(ValueError):
        ExtendedComplex(complex(math.nan, 0))
    with pytest.raises(ValueError):
        ExtendedComplex(complex(0, math.nan))


def test_inf_inputs_collapse_to_the_infinity_marker():
    assert ExtendedComplex(math.inf).is_infinite
    assert ExtendedComplex(complex(0, -math.inf)).is_infinite
    assert INF.is_infinite
    with pytest.raises(InfiniteCoordinate):
        INF.value


def test_chordal_known_values():
    assert ExtendedComplex(0).chordal(INF) == pytest.approx(1.0)
    assert ExtendedComplex(1).chordal(-1) == pytest.approx(1.0)  # antipodal points
    assert INF.chordal(INF) == 0.0
    assert ExtendedComplex(3).chordal(3) == 0.0
    # huge finite values sit next to infinity
    assert ExtendedComplex(1e200).chordal(INF) < 1e-190


finite_values = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e8
)


@settings(max_examples=200, deadline=None)
@given(finite_values, finite_values)
def test_chordal_symmetry_and_range(a, b):
    d1, d2 = ExtendedComplex(a).chordal(b), ExtendedComplex(b).chordal(a)
    assert d1 == pytest.approx(d2, abs=1e-15)
    assert 0.0 <= d1 <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(finite_values.filter(lambda z: abs(z) > 1e-6), finite_values.filter(lambda z: abs(z) > 1e-6))
def test_chordal_inversion_isometry(a, b):
    assert ExtendedComplex(a).chordal(b) == pytest.approx(ExtendedComplex(1 / a).chordal(1 / b), abs=1e-12)


# -- apply examples -------------------------------------------------------------


def test_apply_fixed_line():
    p = f2d().apply(Point([0.3, 0.3]))
    assert p.chordal(Point([0.3, 0.3])) < 1e-15


def test_apply_matches_exact_arithmetic():
    expected = f2d_exact(Fraction(2), Fraction(-3, 2))
    assert expected == (Fraction(-5), Fraction(3, 5))  # frozen from the oracle
    got = f2d().apply(Point([2, -1.5]))
    assert got[0].value == pytest.approx(-5)
    assert got[1].value == pytest.approx(0.6)
    # the level x*y = -3 is preserved
    assert got[0].value * got[1].value == pytest.approx(-3)


def test_apply_pole_is_projective_not_a_crash():
    got = f2d().apply(Point([1, 2]))
    assert got[0].is_infinite
    assert got[1].is_finite


def test_apply_indeterminate_point():
    with pytest.raises(Indeterminate):
        f2d().apply(Point([1, 1]))


def test_apply_at_infinity_uses_leading_coefficients():
    got = f2d().apply(Point([INF, 0]))
    assert got[0].value == pytest.approx(-1)


# -- iterate / detect_period -----------------------------------------------------


def test_iterate_period3_closure(exact_period3_orbit):
    assert exact_period3_orbit[3] == exact_period3_orbit[0]
    trace = f2d().iterate(Point([2, -1.5]), 3)
    assert trace.closed
    assert trace.minimal_period == 3
    for point, exact in zip(trace.points, exact_period3_orbit):
        assert point[0].value == pytest.approx(float(exact[0]))
        assert point[1].value == pytest.approx(float(exact[1]))
    assert trace.points[-1].chordal(trace.points[0]) < 1e-9
    assert (len(trace.points) - 1) % trace.minimal_period == 0


def test_iterate_fixed_line_is_constant():
    trace = f2d().iterate(Point([0.7, 0.7]), 5)
    assert trace.minimal_period == 1
    assert all(p.chordal(trace.points[0]) < 1e-12 for p in trace.points)


def test_iterate_3d_period2_level():
    p0 = lv_period2_param(2.5, 1.5, "+")
    trace = f3d().iterate(p0, 2)
    assert trace.closed
    assert trace.minimal_period == 2


def test_iterate_reports_the_indeterminate_step():
    with pytest.raises(Indeterminate) as err:
        f2d().iterate(Point([1, 1]), 4)
    assert err.value.step == 1


def test_iterate_and_detect_period_report_a_later_indeterminate_step():
    lyness = parse_map("dim 2; x' = y; y' = (1+y)/x;")  # (-1, 0) -> (0, -1) -> 0/0
    for orbit in (lyness.iterate, lyness.detect_period):
        with pytest.raises(Indeterminate) as err:
            orbit(Point([-1, 0]), 4)
        assert err.value.step == 2


def test_detect_period_examples():
    m = f2d()
    assert m.detect_period(Point([2, -1.5]), 8, 1e-9) == 3
    assert m.detect_period(Point([0.4, 0.4]), 8, 1e-9) == 1
    assert m.detect_period(Point([0.7, -1 / 0.7]), 8, 1e-9) == 4
    assert m.detect_period(Point([0.31, 1.7]), 8, 1e-9) is None


# -- invariants -------------------------------------------------------------------


def test_invariant_values_examples():
    assert f2d().invariant_values(Point([2, -1.5]))[0] == pytest.approx(-3)
    r, s = f3d().invariant_values(Point([1, 1, 1]))
    assert r == pytest.approx(1)
    assert s == pytest.approx(0)


def test_invariant_values_need_finite_points():
    with pytest.raises(InfiniteCoordinate):
        f2d().invariant_values(Point([INF, 0]))


@pytest.mark.parametrize("name", ["f2d", "f3d"])
def test_invariant_conservation_1000_points(name):
    m = get_map(name, r=None)
    rng = random.Random(2026)
    checked = 0
    while checked < 1000:
        vals = tuple(
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(m.dim)
        )
        if any(abs(den.eval(vals)) < 0.05 for _, den in m.components):
            continue  # near a pole
        image = m.eval_raw(vals)
        if any(abs(w) > 1e3 for w in image):
            continue
        for _, poly in m.invariants:
            before, after = poly.eval(vals), poly.eval(image)
            assert abs(after - before) <= 1e-10 * max(1.0, abs(before))
        checked += 1


def test_declared_invariant_is_checked_at_construction():
    from ivpp.dsl import parse_map, SemanticError

    with pytest.raises(SemanticError):
        parse_map("dim 2; x' = x*(1-y)/(1-x); y' = y*(1-x)/(1-y); inv bad = x+y;")


def test_an_invariant_false_by_less_than_any_float_tolerance_is_refused_by_ivpp_parse(tmp_path):
    """x*y + x/10^12 changes by (x' - x)/10^12 per step, within the 1e-10
    relative drift a float check allows; the exact check refuses it."""
    src = tmp_path / "m.rmap"
    src.write_text("dim 2; x' = x*(1-y)/(1-x); y' = y*(1-x)/(1-y); inv r = x*y + 1/1000000000000*x;")
    assert run_captured(["parse", str(src)]) == (2, "", "error: declared invariant 'r' is not conserved by the map\n")


def _mutants(p: Polynomial):
    """p with one coefficient plus 1, for each coefficient, then with one term dropped, for each term."""
    for exps, c in p.terms.items():
        yield Polynomial(p.nvars, {**p.terms, exps: c + 1})
    for exps in p.terms:
        yield Polynomial(p.nvars, {e: c for e, c in p.terms.items() if e != exps})


@pytest.mark.parametrize("name, refused", [("f2d", 0), ("f3d", 12)])
def test_a_mutated_invariant_is_accepted_iff_it_lies_in_the_span_of_1_and_the_invariants(name, refused):
    m = get_map(name)
    span = [Polynomial.const(1, m.dim)] + [p for _, p in m.invariants]
    monomials = sorted({e for p in span for e in p.terms})  # a mutant adds no monomial

    def rank(polys):
        return np.linalg.matrix_rank(np.array([[float(p.terms.get(e, 0)) for e in monomials] for p in polys]))

    outcomes = []
    for _, p in m.invariants:
        for mutant in _mutants(p):
            try:
                RationalMap(m.components, [("q", mutant)])
                outcomes.append(True)
            except ValueError as exc:
                assert str(exc) == "declared invariant 'q' is not conserved by the map"
                outcomes.append(False)
            assert outcomes[-1] == (rank(span + [mutant]) == rank(span)), mutant
    assert outcomes.count(False) == refused


# -- projective consistency --------------------------------------------------------


def test_apply_at_pole_is_the_limit_along_the_real_axis():
    m = f2d()
    at_pole = m.apply(Point([1, 2]))
    prev = None
    for eps in (1e-4, 1e-6, 1e-8):
        near = m.apply(Point([1 + eps, 2]))
        d = near.chordal(at_pole)
        if prev is not None:
            assert d < prev
        prev = d
    assert prev < 1e-7


def test_dimension_mismatch_is_rejected():
    with pytest.raises(ValueError):
        f2d().apply(Point([1, 2, 3]))
    with pytest.raises(ValueError):
        Point([1, 2, 3, 4])


# -- single-point evaluation against the term loop and exact arithmetic ----------------


def _float_map():
    """Non-unit float coefficients, which the map keeps as their exact Fractions."""
    x, y, one = Polynomial.var(0, 2), Polynomial.var(1, 2), Polynomial.const(Fraction(1), 2)
    num_x = (x**2).scale(0.1) + y.scale(-2.5) - one
    num_y = x**3 + (x * y**2).scale(1 / 3)
    return RationalMap([(num_x, one - x * y), (num_y, y.scale(1e-3) - one)])


POINT_MAPS = {
    "f2d": f2d(),
    "f3d": f3d(),
    "lyness": parse_map("dim 2; x' = y; y' = (1+y)/x;"),
    "powers": parse_map("dim 2; x' = (x^2 - y)/(1 - x); y' = (y^5 + x^3*y^2)/(1 + y^4);"),
    "floats": _float_map(),
}


def _part(rng: random.Random) -> float:
    """A real or imaginary part: a signed zero, a small integer, a moderate
    value, or any magnitude from subnormal to 1e308."""
    kind = rng.random()
    if kind < 0.15:
        return rng.choice((0.0, -0.0))
    if kind < 0.3:
        return float(rng.choice((-2, -1, 1, 2)))
    if kind < 0.6:
        return rng.uniform(-3, 3)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320, 308)


def _coordinate(rng: random.Random) -> complex:
    """A random coordinate; one in four is a real integer of -2..2, so that
    poles and 0/0 come up."""
    if rng.random() < 0.25:
        return complex(rng.choice((-2, -1, 0, 1, 2)), rng.choice((0.0, -0.0)))
    return complex(_part(rng), _part(rng))


def _same(got: complex, want: complex) -> bool:
    """Complex ``==``, with nan in the same parts."""
    return all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in ((got.real, want.real), (got.imag, want.imag)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (Indeterminate, OverflowError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", POINT_MAPS)
def test_point_evaluation_is_the_term_loop(name):
    """``Polynomial.eval``, ``apply`` and ``eval_raw`` on 2,000 random points
    per map (10,000 in all) against the term loop.  They differ only where a
    ``**`` of the loop raised OverflowError: the program's products give inf
    there, so ``apply`` returns a point or raises Indeterminate."""
    m = POINT_MAPS[name]
    rng = random.Random(f"term-loop-{name}")
    seen = set()
    for _ in range(2000):
        vals = tuple(_coordinate(rng) for _ in range(m.dim))
        for poly in (p for pair in m.components for p in pair):
            want = _outcome(eval_term_loop, poly, vals)
            if want is not OverflowError:
                assert _same(poly.eval(vals), want), (poly, vals)
        want = _outcome(apply_term_loop, m, vals)
        got = _outcome(m.apply, Point(vals))
        seen.add(want if isinstance(want, type) else "inf" if not want.is_finite else "finite")
        if want is OverflowError:
            assert got is Indeterminate or isinstance(got, Point)
            continue
        assert got == want, vals
        raw = _outcome(lambda: [(eval_term_loop(num, vals), eval_term_loop(den, vals)) for num, den in m.components])
        if raw is not OverflowError:
            want = [n / d if d != 0 else complex(math.inf if n != 0 else math.nan, 0) for n, d in raw]
            assert all(_same(g, w) for g, w in zip(m.eval_raw(vals), want)), vals
    assert {"finite", "inf", Indeterminate} <= seen  # poles, and 0/0 or nan
    assert (OverflowError in seen) == (name in ("powers", "floats"))  # the maps with a power


def test_an_overflowing_power_is_infinite():
    m = parse_map("dim 2; x' = x^2 + y; y' = y;")
    square = Polynomial.var(0, 2) ** 2
    with pytest.raises(OverflowError):
        eval_term_loop(square, (1e200 + 0j, 1 + 0j))
    assert math.isinf(square.eval((1e200, 1)).real)
    with pytest.raises(Indeterminate):  # inf + 0j over 1 + 0j is inf + nanj, as for an overflowing product
        m.apply(Point([1e200, 1]))
    assert m.apply(Point([1e200, INF])) == Point([INF, INF])  # the limit, with 1e200**2 as inf


def test_a_nan_limit_at_infinity_is_indeterminate():
    with pytest.raises(Indeterminate):
        f3d().apply(Point([-1e154, INF, 1.6018347278853194e200 + 1e308j]))


LIMIT_MAPS = {
    **POINT_MAPS,
    "f2d-reduced": get_map("f2d-reduced", r=-0.75),
    "lv-recurrence": get_map("lv-recurrence"),
}

# what the limit reaches on each map's random points: a finite coordinate, an
# infinite one, Indeterminate; a 1d map has the one point (inf,)
LIMIT_OUTCOMES = {
    "f2d": {"finite", "inf"},
    "f3d": {"finite", "inf", Indeterminate},
    "lyness": {"finite", "inf", Indeterminate},
    "powers": {"finite", "inf", Indeterminate},
    "floats": {"finite", "inf", Indeterminate},
    "f2d-reduced": {"finite"},
    "lv-recurrence": {"finite"},
}


def _limit_outcome(fn, *args):
    """The point, or Indeterminate with its message, which ``ivpp orbit`` prints."""
    try:
        return fn(*args)
    except Indeterminate as exc:
        return Indeterminate, str(exc)


def _infinite_point(rng: random.Random, dim: int, coordinate=_coordinate) -> Point:
    """A point with a random nonempty set of infinite coordinates, the others drawn by ``coordinate``."""
    pattern = [i for i in range(dim) if rng.random() < 0.5] or [rng.randrange(dim)]
    return Point([INF if i in pattern else coordinate(rng) for i in range(dim)])


@pytest.mark.parametrize("name", LIMIT_MAPS)
def test_apply_at_infinity_is_the_limit_ratio(name):
    """``apply`` at 1,500 random points per map (10,500 in all), each with a
    random nonempty set of infinite coordinates, against the limit taken one
    variable at a time: the same point (``==``, blind to the sign of a zero
    part) or Indeterminate with the same message on both."""
    m = LIMIT_MAPS[name]
    rng = random.Random(f"limit-{name}")
    seen = set()
    for _ in range(1500):
        p = _infinite_point(rng, m.dim)
        want = _limit_outcome(apply_limit_ratio, m, p)
        assert _limit_outcome(m.apply, p) == want, p
        outcomes = [Indeterminate] if isinstance(want, tuple) else ["inf" if c.is_infinite else "finite" for c in want]
        seen.update(outcomes)
    assert seen == LIMIT_OUTCOMES[name]


_TERMS_3D = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 3), st.sampled_from([1, -1, 2, Fraction(-3, 2)])),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_TERMS_3D, _TERMS_3D), min_size=3, max_size=3), st.integers(0, 2**32))
def test_a_random_map_at_infinity_is_the_limit_ratio(components, seed):
    """3d maps of up to five terms per polynomial at points whose finite
    coordinates are small integers, so that leading groups cancel: every
    pattern of infinite coordinates gives the limit's outcome."""
    def poly(terms):
        out = {}
        for exps, c in terms:
            out[exps] = out.get(exps, 0) + c
        return Polynomial(3, out)

    comps = [(poly(num), poly(den)) for num, den in components]
    if any(den.is_zero for _, den in comps):
        return
    m = RationalMap(comps)
    rng = random.Random(seed)
    for _ in range(20):
        p = _infinite_point(rng, 3, lambda rng: complex(rng.randint(-2, 2)))
        assert _limit_outcome(m.apply, p) == _limit_outcome(apply_limit_ratio, m, p), p


def _dyadic(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-64, 64), 2 ** rng.randint(0, 4))


def _exact(name: str, r: Fraction):
    """The exact one-step image of a built-in map, as a function of the coordinates."""
    return {"f2d": f2d_exact, "f3d": f3d_exact, "f2d-reduced": lambda x: (reduced_exact(r, x),)}[name]


def _close(got, want: Fraction) -> bool:
    return got.is_finite and abs(got.value - float(want)) <= 1e-12 * max(1.0, abs(float(want)))


@pytest.mark.parametrize("name", ["f2d", "f3d", "f2d-reduced"])
def test_apply_matches_exact_arithmetic_at_rational_points(name):
    rng = random.Random(f"exact-{name}")
    r = Fraction(-3, 4)
    m = get_map(name, r=r)
    exact = _exact(name, r)
    checked = 0
    while checked < 300:
        p = tuple(_dyadic(rng) for _ in range(m.dim))  # exact in float64
        try:
            want = exact(*p)
        except ZeroDivisionError:
            continue
        got = m.apply(Point([float(v) for v in p]))
        assert all(_close(g, w) for g, w in zip(got, want)), p
        checked += 1


@pytest.mark.parametrize(
    "name, point, want",
    [
        ("f2d", (1, 2), (INF, 0)),  # x' = -1/0
        ("f2d", (1, 1), Indeterminate),  # x' = 0/0
        ("f3d", (Fraction(1, 2), 1, 2), (INF, 0, 1)),  # 1 - z + z*x = 0 under x*(1 - y + y*z) = 1
        ("f3d", (0, 1, 1), Indeterminate),  # x' = 0/0
        ("f2d-reduced", (1,), (INF,)),  # (1 - r)/0
    ],
)
def test_apply_at_poles_and_on_the_indeterminacy_locus(name, point, want):
    r = Fraction(-3, 4)
    m = get_map(name, r=r)
    if want is Indeterminate:
        with pytest.raises(Indeterminate):
            m.apply(Point([float(v) for v in point]))
        return
    assert m.apply(Point([float(v) for v in point])) == Point(want)
    with pytest.raises(ZeroDivisionError):  # the exact image has a pole there too
        _exact(name, r)(*map(Fraction, point))


def test_reduced_map_at_the_level_one_is_indeterminate_at_its_pole():
    m = get_map("f2d-reduced", r=1)
    with pytest.raises(Indeterminate):
        m.apply(Point([1.0]))
    with pytest.raises(ZeroDivisionError):
        reduced_exact(Fraction(1), Fraction(1))
