import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivpp.core import (
    INF,
    ExtendedComplex,
    Indeterminate,
    InfiniteCoordinate,
    Point,
    chordal,
)
from ivpp.maps import f2d, f3d, get_map
from ivpp.lv3d import lv_period2_param

from conftest import f2d_exact


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
    assert chordal(0, INF) == pytest.approx(1.0)
    assert chordal(1, -1) == pytest.approx(1.0)  # antipodal points
    assert chordal(INF, INF) == 0.0
    assert chordal(3, 3) == 0.0
    # huge finite values sit next to infinity
    assert chordal(1e200, INF) < 1e-190


finite_values = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e8
)


@settings(max_examples=200, deadline=None)
@given(finite_values, finite_values)
def test_chordal_symmetry_and_range(a, b):
    d1, d2 = chordal(a, b), chordal(b, a)
    assert d1 == pytest.approx(d2, abs=1e-15)
    assert 0.0 <= d1 <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(finite_values.filter(lambda z: abs(z) > 1e-6), finite_values.filter(lambda z: abs(z) > 1e-6))
def test_chordal_inversion_isometry(a, b):
    assert chordal(a, b) == pytest.approx(chordal(1 / a, 1 / b), abs=1e-12)


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
        image = m._raw_image(vals)
        if image is None:
            continue
        for _, poly in m.invariants:
            before, after = poly.eval(vals), poly.eval(image)
            assert abs(after - before) <= 1e-10 * max(1.0, abs(before))
        checked += 1


def test_declared_invariant_is_checked_at_construction():
    from ivpp.dsl import parse_map, SemanticError

    with pytest.raises(SemanticError):
        parse_map("dim 2; x' = x*(1-y)/(1-x); y' = y*(1-x)/(1-y); inv bad = x+y;")


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
