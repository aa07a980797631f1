import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivpp.dsl import (
    ParseDiagnostic,
    SemanticError,
    format_map,
    maps_equal,
    parse_map,
)
from ivpp.core import RationalMap
from ivpp.maps import F2D_SOURCE, f2d, f3d, lv_recurrence_map
from ivpp.poly import Polynomial


def test_parse_builtin_2d_source():
    m = parse_map("dim 2; x' = x*(1-y)/(1-x); y' = y*(1-x)/(1-y); inv r = x*y;")
    assert maps_equal(m, f2d())


def test_parse_lv_recurrence():
    m = parse_map("dim 1; x' = -x/(1-x);")
    assert maps_equal(m, lv_recurrence_map())


def test_unterminated_parenthesis_diagnostic():
    src = "dim 2; x' = (x"
    with pytest.raises(ParseDiagnostic) as err:
        parse_map(src)
    d = err.value
    assert 0 <= d.offset < len(src)
    assert len(d.expected) >= 1
    assert d.line == 1


@pytest.mark.parametrize(
    "src",
    [
        "",
        "x' = x;",
        "dim 2 x' = x;",
        "dim 2; x' = ;",
        "dim 2; x' = x ^ 1.5;",
        "dim 2; x' = x +;",
        "dim 2; x' = (x; y' = y;",
    ],
)
def test_syntax_errors_point_inside_the_input(src):
    with pytest.raises(ParseDiagnostic) as err:
        parse_map(src)
    assert 0 <= err.value.offset <= max(0, len(src) - 1)
    assert err.value.expected


@pytest.mark.parametrize(
    "src,fragment",
    [
        ("dim 1; x' = y;", "not declared"),
        ("dim 2; x' = x;", "missing component"),
        ("dim 2; x' = x; x' = x; y' = y;", "defined twice"),
        ("dim 2; x' = x/0; y' = y;", "division by zero"),
        ("dim 2; x' = x; y' = y; inv r = x/(1-y);", "must be a polynomial"),
        ("dim 4; x' = x;", "dimension"),
    ],
)
def test_semantic_errors(src, fragment):
    with pytest.raises(SemanticError) as err:
        parse_map(src)
    assert fragment in str(err.value)


def test_roundtrip_builtins():
    for m in (f2d(), f3d(), lv_recurrence_map()):
        assert maps_equal(m, parse_map(format_map(m)))


@pytest.mark.parametrize(
    "coeff, text",
    [(-2.0, "-2*x"), (-1.0, "-x"), (0.75, "3/4*x"), (Fraction(-1, 2), "-1/2*x")],
)
def test_a_coefficient_prints_its_value_and_sign(coeff, text):
    assert str(Polynomial.var(0, 2).scale(coeff)) == text


def test_a_constant_term_prints_its_value_and_sign():
    x = Polynomial.var(0, 2)
    assert str(x + Polynomial.const(-2.0, 2)) == "x - 2"
    assert str(x + Polynomial.const(Fraction(1, 2), 2)) == "x + 1/2"


FINITE_NONZERO = st.floats(-1e300, 1e300).filter(bool)  # subnormals included; bounded so invariants stay finite


@settings(max_examples=200, deadline=None)
@given(c=st.floats(allow_nan=False, allow_infinity=False))
@example(c=5e-324)
@example(c=-1e300)
@example(c=0.1)
def test_a_finite_real_coefficient_is_stored_as_its_exact_fraction(c):
    """A float, by construction or by ``scale``, and a numpy scalar are stored as
    their exact Fraction, which converts back to the same double; ints stay."""
    x = Polynomial.var(0, 1)
    for p in (Polynomial(1, {(1,): c}), x.scale(c), x.scale(np.float64(c))):
        stored = p.terms.get((1,), Fraction(0))
        assert type(stored) is Fraction and stored == Fraction(c) and float(stored) == c
    assert Polynomial.const(np.float32(0.1), 1).constant_value() == Fraction(float(np.float32(0.1)))
    assert Polynomial.const(np.int64(3), 1).constant_value() == 3
    assert type(Polynomial.const(3, 1).constant_value()) is int


@pytest.mark.parametrize(
    "c",
    [1j, -2 + 0j, np.complex128(1), math.inf, -math.inf, math.nan, np.float64("nan")],
    ids=["1j", "-2+0j", "numpy-complex", "inf", "-inf", "nan", "numpy-nan"],
)
def test_a_coefficient_that_is_not_a_finite_real_is_refused(c):
    """Complex (a zero imaginary part included), infinite and nan coefficients
    are refused when the polynomial is built, so no layer meets one."""
    with pytest.raises(ValueError, match="is not a finite real number"):
        Polynomial(2, {(1, 0): c})
    with pytest.raises(ValueError, match="is not a finite real number"):
        Polynomial.var(0, 2).scale(c)
    with pytest.raises(ValueError, match="'1' is not a finite real number"):
        Polynomial.const("1", 2)


@settings(max_examples=60, deadline=None)
@given(a=FINITE_NONZERO, b=FINITE_NONZERO, c=FINITE_NONZERO)
@example(a=0.1, b=5e-324, c=1e300)
@example(a=-1e300, b=1e-20, c=-0.1)
@example(a=1 / 3, b=2.5, c=-5e-324)
def test_format_map_prints_a_float_coefficient_exactly(a, b, c):
    """A float prints as its exact Fraction, which parses back to the same value,
    in a numerator, a denominator and an invariant."""
    x, y, one = Polynomial.var(0, 2), Polynomial.var(1, 2), Polynomial.const(Fraction(1), 2)
    num = x.scale(a) + Polynomial.const(b, 2)
    maps = [
        RationalMap([(num, y + Polynomial.const(c, 2)), (y, one)]),
        RationalMap([(x, one), (y, one)], [("r", num)]),  # the identity conserves any invariant
    ]
    for m in maps:
        text = format_map(m)
        assert "." not in text and "e" not in text  # no float literal
        back = parse_map(text)
        assert maps_equal(m, back) and format_map(back) == text


def test_nested_fraction_clears_to_a_polynomial():
    m = parse_map("dim 2; x' = x/(1/(1-y)); y' = y;")
    num, den = m.components[0]
    assert den == Polynomial.const(Fraction(1), 2)
    x = Polynomial.var(0, 2)
    y = Polynomial.var(1, 2)
    one = Polynomial.const(Fraction(1), 2)
    assert num == x * (one - y)


def test_decimal_literals_are_exact_rationals():
    a = parse_map("dim 1; x' = 0.5*x;")
    b = parse_map("dim 1; x' = x/2;")
    assert maps_equal(a, b)


def _random_poly(rng: random.Random, nvars: int) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice(["1", "2", "3", "0.5", "-1", "-2"])
        mono = coeff
        for v in "xyz"[:nvars]:
            e = rng.randint(0, 2)
            if e == 1:
                mono += f"*{v}"
            elif e == 2:
                mono += f"*{v}^2"
        terms.append(mono)
    return " + ".join(terms)


def test_roundtrip_50_random_maps():
    rng = random.Random(0xD51)
    built = 0
    while built < 50:
        nvars = rng.randint(1, 3)
        comps = []
        for v in "xyz"[:nvars]:
            num = _random_poly(rng, nvars)
            den = _random_poly(rng, nvars)
            comps.append(f"{v}' = ({num})/({den});")
        src = f"dim {nvars}; " + " ".join(comps)
        try:
            m = parse_map(src)
        except SemanticError:
            continue  # a zero denominator came up
        assert maps_equal(m, parse_map(format_map(m)))
        built += 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_roundtrip_generated_polynomials(term_specs):
    terms = {}
    for c, ex, ey in term_specs:
        key = (ex, ey)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(c)
    p = Polynomial(2, terms)
    if p.is_zero:
        return
    src = f"dim 2; x' = {p}; y' = y;"
    m = parse_map(src)
    assert m.components[0][0] == p
    assert maps_equal(m, parse_map(format_map(m)))


def test_builtin_source_constant_matches():
    assert maps_equal(parse_map(F2D_SOURCE), f2d())
