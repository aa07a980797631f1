import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ivpp.core import INF, ExtendedComplex, Point
from ivpp.kernel import step
from ivpp.lv3d import (
    DegenerateParameter,
    UnsupportedPeriod,
    lv_decompose_period2,
    lv_diagonalizer,
    lv_discriminant,
    lv_gamma,
    lv_period2_param,
    lv_recurrence,
    lv_roots,
)
from ivpp.maps import f3d, lv_recurrence_map
from ivpp.mobius import Mobius, conjugacy_error


# -- level conditions --------------------------------------------------------------


def test_lv_gamma_printed_conditions():
    assert lv_gamma(2, 123.4, -1.0) == 0
    assert lv_gamma(3, -1.0, -1.0) == 0
    assert lv_gamma(4, 0.0, 0.0) == 0
    assert lv_gamma(3, 2.0, 1.0) == pytest.approx((1 - 2) ** 2 + 3 * 2)
    with pytest.raises(UnsupportedPeriod):
        lv_gamma(5, 0.0, 0.0)
    for bad in ((math.inf, 1.0), (1.0, -math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="^r and s must be finite"):
            lv_gamma(3, *bad)
    assert lv_gamma(4, 1e300, 1.0) == math.inf  # (1 - r)^3 + (1 + r)^3 = 2 + 6r^2, past the float range


def _reference_roots(x, r):
    """(base +- sqrt(D))/(2x) at 1000 digits, D = base^2 - 4xr(x - 1)^2: enough for every
    cancellation up to |x| = 1e200, and down to x = 5e-324 at |r| <= 1e300 (1e-623 relative)."""
    with mpmath.workdps(1000):
        x, r = mpmath.mpf(x), mpmath.mpf(r)
        base = x * x - 2 * x + r * x - r
        sq = mpmath.sqrt(mpmath.mpc(base * base - 4 * x * r * (x - 1) ** 2))
        return (base + sq) / (2 * x), (base - sq) / (2 * x)


@pytest.mark.parametrize("x", [10.0, 2.0, 1e8, 1e16, 1e30, 1e200, -1e200, 1e-200, 0.5, -0.5])
def test_roots_are_the_exact_ones_rounded_at_every_finite_x(x):
    """Each root is within a few ulp of the exact one, the smaller too, and both stay
    finite where x^2 overflows: (x - 2 + r(x - 1)/x)/2 +- the half-gap, and the smaller
    root as the product over the larger.  (2, 3) is on the complex branch."""
    got = lv_roots(x, 3.0)
    for root, want in zip(got, _reference_roots(x, 3.0)):
        assert abs(mpmath.mpc(root) - want) <= 1e-15 * abs(want), (root, want)
        assert math.isfinite(abs(complex(root)))


SUBNORMAL_X = [1e-310, -1e-310, 5e-324, -5e-324]
OVERFLOW_X_R = [(x, r) for x in SUBNORMAL_X for r in (3.0, -3.0, 1e-5, 1e-310, 1e300)] + [
    (0.1, 1.7e308),  # r(x - 1)/x overflows at a normal x too
    (-1.0, -1e308),
    (-100.0, 1.79e308),
    (2.0**-54, -1.7e308),
]


@pytest.mark.parametrize("x, r", OVERFLOW_X_R)
def test_only_a_root_past_the_float_range_is_infinite(x, r):
    """Where (x - 1)/x or r(x - 1)/x is past the float range, each root is
    the exact one rounded within a few ulps (absolute 2^-1074 where it is
    subnormal), and only a root past the float range is +-inf, with its
    sign: at a subnormal x and r = 3 the larger is about -3/x and the
    smaller about -1."""
    with mpmath.workdps(1000):
        want = _reference_roots(x, r)
        for root, exact in zip(lv_roots(x, r), want):
            assert exact.imag == 0
            if abs(exact.real) > mpmath.mpf(sys.float_info.max):
                assert root == math.copysign(math.inf, exact.real), (root, exact)
            else:
                tol = 1e-15 * abs(exact.real) + mpmath.mpf(2) ** -1074
                assert abs(mpmath.mpf(root) - exact.real) <= tol, (root, exact)


def _correctly_rounded(v):
    """The float nearest the mpf v, ties to even: +-inf from the midpoint
    2^1024 - 2^970 above the largest float on, and subnormals rounded once."""
    exact = Fraction(int(mpmath.sign(v) * v.man)) * Fraction(2) ** int(v.exp) if v else Fraction(0)  # man is |v|'s
    if abs(exact) >= 2**1024 - 2**970:
        return math.inf if exact > 0 else -math.inf
    return exact.numerator / exact.denominator  # int true division rounds once


def _rounded_roots(x, r):
    """(a+, a-) correctly rounded, from 1000 digits without cancellation: h and P
    are half the sum and the product, g = sqrt|h^2 - P|; real roots are the larger
    in modulus h + g with the sign of h and the smaller P over it, a+ = h + sign(x) g."""
    with mpmath.workdps(1000):
        x, r = mpmath.mpf(x), mpmath.mpf(r)
        h = (x - 2 + r * (x - 1) / x) / 2
        P = r * (x - 1) ** 2 / x
        g = mpmath.sqrt(abs(h * h - P))
        if h * h < P:
            re, im = _correctly_rounded(h), math.copysign(_correctly_rounded(g), x)
            return complex(re, im), complex(re, -im)
        big = h + g if h >= 0 else h - g
        big, small = _correctly_rounded(big), _correctly_rounded(P / big)
        return (big, small) if (h >= 0) == (x > 0) else (small, big)


def _rounding_sample():
    rng = random.Random(35)
    uniform = [(rng.uniform(-5, 5), rng.uniform(-10, 10)) for _ in range(1000)]
    spread = [  # log-uniform magnitudes from 1e-300 to 1e300, either sign
        tuple(rng.choice((-1, 1)) * 10 ** rng.uniform(-300, 300) for _ in range(2)) for _ in range(1000)
    ]
    return uniform + spread + [(x, 3.0) for x in SUBNORMAL_X] + OVERFLOW_X_R


def test_both_roots_are_rounded_once():
    """Each root is its exact value correctly rounded, +-inf past the float range:
    uniform (x, r), log-uniform magnitudes up to 1e+-300, and every subnormal-x and overflow case."""
    misses = [(x, r) for x, r in _rounding_sample() if lv_roots(x, r) != _rounded_roots(x, r)]
    assert misses == []


# -- the branch parametrization -------------------------------------------------------


def test_roots_are_consistent_with_the_quadratic():
    """a+ * a- = r (x-1)^2 / x and a+ + a- = (x^2 - 2x + rx - r)/x."""
    rng = random.Random(31)
    for _ in range(50):
        x = rng.uniform(-3, 3)
        r = rng.uniform(-5, 5)
        if min(abs(x), abs(x - 1)) < 0.05:
            continue
        ap, am = lv_roots(x, r)
        assert ap * am == pytest.approx(r * (x - 1) ** 2 / x, rel=1e-9, abs=1e-9)
        assert ap + am == pytest.approx((x * x - 2 * x + r * x - r) / x, rel=1e-9, abs=1e-9)


def test_param_satisfies_both_levels():
    rng = random.Random(32)
    m = f3d()
    for _ in range(50):
        x = rng.uniform(-3, 3)
        r = rng.uniform(-5, 5)
        if min(abs(x), abs(x - 1)) < 0.05:
            continue
        for sign in "+-":
            p = lv_period2_param(x, r, sign)
            rv, sv = m.invariant_values(p)
            assert rv == pytest.approx(r, abs=1e-9)
            assert sv == pytest.approx(-1, abs=1e-9)
            assert abs(lv_gamma(2, rv.real, sv.real)) < 1e-9  # a real level: sv is -1 within 1e-9 above


def test_param_closure_at_2_3_both_signs():
    """(x, r) = (2, 3) sits on the complex branch; closure still holds."""
    m = f3d()
    assert lv_discriminant(2.0, 3.0) < 0
    for sign in "+-":
        p = lv_period2_param(2.0, 3.0, sign)
        trace = m.iterate(p, 2)
        assert trace.closed
        assert trace.minimal_period == 2


def test_param_swap_at_minus1_2():
    """One application swaps the two sheets: F(p_+(x)) = p_-(x/(x-1))."""
    assert lv_discriminant(-1.0, 2.0) == pytest.approx(33.0)
    m = f3d()
    p = lv_period2_param(-1.0, 2.0, "+")
    img = m.apply(p)
    assert img[0].value == pytest.approx(0.5)  # x/(x-1)
    q = lv_period2_param(0.5, 2.0, "-")
    assert img.chordal(q) < 1e-12
    # and the image's last two coordinates are the swapped root pair at X
    from ivpp.lv3d import lv_roots

    ap, am = lv_roots(0.5, 2.0)
    assert img[1].value == pytest.approx(am / (0.5 - 1))
    assert img[2].value == pytest.approx(ap / (0.5 - 1))


def test_param_degenerate_x():
    with pytest.raises(DegenerateParameter):
        lv_period2_param(0.0, 2.0, "+")
    with pytest.raises(DegenerateParameter):
        lv_period2_param(1.0, 2.0, "+")
    for alias in ("a+", "a-"):  # the sheets are named + and - only
        with pytest.raises(ValueError, match="sign must be"):
            lv_period2_param(0.5, 2.0, alias)
        with pytest.raises(ValueError, match="sign must be"):
            lv_decompose_period2(2.0, alias)


def test_param_exact_oracle():
    """Exact substitution oracle at a rational sample."""
    from fractions import Fraction

    x, r = Fraction(3), Fraction(2)
    # roots of a^2 - ((x^2-2x+rx-r)/x) a + r(x-1)^2/x: sum 7/3, product 8/3
    # -> a in {(7 +- sqrt(49 - 96... ))}: discriminant (7/3)^2 - 4*8/3 = 49/9 - 32/3 = -47/9 < 0
    d = lv_discriminant(3.0, 2.0)
    assert d == pytest.approx(9 * (-47 / 9 + 0), abs=1e-9) or d < 0  # complex branch here
    p = lv_period2_param(3.0, 2.0, "+")
    vals = p.values()
    prod = vals[0] * vals[1] * vals[2]
    s = (1 - vals[0]) * (1 - vals[1]) * (1 - vals[2])
    assert prod == pytest.approx(2.0 + 0j, abs=1e-12)
    assert s == pytest.approx(-1.0 + 0j, abs=1e-12)


def test_discriminant_where_the_square_plus_product_reads_inf_minus_inf():
    """Past x = 1.3e154 x*x overflows, and at huge r and x r*(1 - x) does: the
    square-plus-product form reads inf - inf.  There the quartic in powers of 1/x
    is infinite with the sign of the exact D: +inf, as D ~ x^4, but -inf at
    x = r = 1e300, where D ~ -4x^3.  Everywhere else the value is that form's,
    bit for bit, for arrays and floats alike."""
    xs = np.array([-1e300, -2e200, -1e154, -3.0, 0.0, 0.5, 1.0, 2.0, 1e154, 1.3e154, 1e155, 1e200, 1e300])
    rs = np.array([[-1e300], [-3.0], [0.0], [2.0], [1e300], [np.nan]])
    with np.errstate(all="ignore"):
        q = rs * (1 - xs) + xs * xs
        plain = q * q + 4 * xs * xs * (1 - xs)
        grid = lv_discriminant(xs, rs)
    far = np.isnan(plain) & ~np.isnan(rs)
    assert far.sum() == 27 and np.all(np.isinf(grid[far]))
    for i, j in zip(*np.nonzero(far)):
        x, r = Fraction(xs[j]), Fraction(rs[i, 0])
        assert (grid[i, j] > 0) == ((r * (1 - x) + x * x) ** 2 + 4 * x * x * (1 - x) > 0)
    assert np.array_equal(grid[~far].view(np.int64), plain[~far].view(np.int64))
    for (i, j), d in np.ndenumerate(grid):
        one = lv_discriminant(float(xs[j]), float(rs[i, 0]))
        assert isinstance(one, float) and np.array_equal(np.float64(one).view(np.int64), d.view(np.int64))


# -- period exactness -------------------------------------------------------------------


def test_every_param_point_has_period_exactly_2():
    rng = random.Random(33)
    m = f3d()
    done = 0
    while done < 50:
        x = rng.uniform(-4, 4)
        r = rng.uniform(-6, 6)
        if min(abs(x), abs(x - 1)) < 0.05:
            continue
        sign = "+" if done % 2 else "-"
        p = lv_period2_param(x, r, sign)
        assert m.detect_period(p, 2, 1e-9) == 2
        done += 1


# -- interval decomposition ---------------------------------------------------------------


def test_decompose_period2_shape():
    d = lv_decompose_period2(2.0, "+")
    assert d.boundaries == (0.0, 1.0, math.inf)
    assert d.sigma == (2, 1, 3)
    assert d.convention == "right-closed"
    assert d.tiles == 2
    assert d.tile_pairs == ((1, 2), (3, 3))
    assert d.r == 2.0


def test_decompose_period2_classify_right_closed():
    d = lv_decompose_period2(0.0, "+")
    assert d.classify(0.0) == 1  # (-inf, 0]
    assert d.classify(0.5) == 2
    assert d.classify(1.0) == 2  # (0, 1]
    assert d.classify(2.0) == 3
    assert d.classify(math.inf) == 3


def test_decompose_period2_interval_images():
    # x = 1/2 -> x/(x-1) = -1: (0, 1] -> (-inf, 0]; x = 2 -> 2 stays
    assert 0.5 / (0.5 - 1) == -1.0
    assert 2.0 / (2.0 - 1) == 2.0
    d = lv_decompose_period2(3.0, "-")
    assert d.sigma == (2, 1, 3)


def test_boundaries_do_not_depend_on_r():
    seen = set()
    for r in range(-5, 6):
        for sign in "+-":
            d = lv_decompose_period2(float(r), sign)
            seen.add((d.boundaries, d.sigma))
    assert len(seen) == 1


def test_decompose_handles_the_singular_level():
    """r = -1 puts the + sheet on the indeterminacy locus; the pairing is read
    off the reduced recurrence, which is the same at every r."""
    d = lv_decompose_period2(-1.0, "+")
    assert d.sigma == (2, 1, 3)


@pytest.mark.parametrize("sign", "+-")
def test_the_3d_step_moves_x_by_the_reduced_recurrence(sign):
    """On both sheets of the period-2 level one step of the 3d map sends x to
    -x/(1-x) at every r, which is why the pairing is read off the recurrence.
    The cells with D < 0 step as complex arrays.  r = -1 on the + sheet lies
    on the indeterminacy locus and is left out."""
    xs = (-7.3, -2.0, -0.61, -0.2, 0.13, 0.5, 0.87, 1.2, 1.9, 3.0, 11.7)
    rs = [r for r in np.linspace(-50.0, 50.0, 201).tolist() if not (sign == "+" and r == -1.0)]
    for real in (True, False):
        points = [
            lv_period2_param(x, r, sign).values() for r in rs for x in xs if (lv_discriminant(x, r) >= 0) == real
        ]
        coords = [np.array([p[i].real if real else p[i] for p in points]) for i in range(3)]
        _, (image_x, _, _) = step(f3d(), coords)
        want = -coords[0] / (1 - coords[0])
        assert len(points) > 50
        assert np.all(np.abs(image_x - want) <= 1e-9 * np.abs(want))


# -- the reduced recurrence ------------------------------------------------------------------


def test_recurrence_period_2_sample():
    a = lv_recurrence(3.0)
    assert a.value == pytest.approx(1.5)
    assert lv_recurrence(a).value == pytest.approx(3.0)


def test_recurrence_fixed_points():
    assert lv_recurrence(0.0).value == 0.0
    assert lv_recurrence(2.0).value == pytest.approx(2.0)


def test_recurrence_pole_round_trip():
    assert lv_recurrence(1.0).is_infinite
    assert lv_recurrence(INF).value == pytest.approx(1.0)


def test_recurrence_is_an_involution_independent_of_r():
    rng = random.Random(34)
    worst = 0.0
    for _ in range(1000):
        x = ExtendedComplex(complex(rng.uniform(-10, 10), rng.uniform(-10, 10)))
        worst = max(worst, lv_recurrence(lv_recurrence(x)).chordal(x))
    assert worst < 1e-10


def test_the_mobius_and_the_dsl_recurrence_are_one_map():
    """lv_recurrence is one projective step of maps.lv_recurrence_map (the
    map the pairing pushes): both send 0, 1, 2 and infinity to 0, infinity,
    2 and 1."""
    m = lv_recurrence_map()
    for x, image in [(0.0, 0.0), (1.0, INF), (2.0, 2.0), (INF, 1.0)]:
        assert lv_recurrence(x) == image
        assert m.apply(Point([x])).coords == (image,)


def _random_points(seed: int, count: int = 200):
    rng = random.Random(seed)
    return [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(count)]


def test_diagonalizer_conjugates_to_the_sign_flip():
    xs = _random_points(77) + [0.0, 1.0, 2.0, INF]
    assert conjugacy_error(lv_diagonalizer(), lv_recurrence, -1, xs) < 1e-10
    assert conjugacy_error(lv_diagonalizer(), lv_recurrence, 1, xs) > 0.1  # not the identity
    T = lv_diagonalizer()
    assert T(0).value == 0.0
    assert T(2).is_infinite


def test_any_valid_intertwiner_is_accepted():
    """The check is about the property, not one canonical matrix:
    the canonical T followed by a scale by 2 (commutes with w -> -w)."""
    T = Mobius(2, 0, 1, -2)  # 2 x/(x - 2)
    assert conjugacy_error(T, lv_recurrence, -1, _random_points(78)) < 1e-10
    assert conjugacy_error(Mobius(1, 0, 1, -3), lv_recurrence, -1, _random_points(78)) > 0.1
