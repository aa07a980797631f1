import cmath
import math
import random

import pytest

from conftest import boundary_d_closed_form
from ivpp import verify
from ivpp.core import INF, ExtendedComplex, Point
from ivpp.ivpp2d import branches
from ivpp.maps import f2d
from ivpp.mobius import (
    Mobius,
    ZeroInvariant,
    boundary_c,
    boundary_cs,
    boundary_d,
    boundary_ds,
    conjugacy_error,
    level_matrix,
    power_matrix,
    scale_coordinate_map,
    x_to_z_map,
)

SQ5 = math.sqrt(5.0)
A_PLUS = -5 + 2 * SQ5
A_MINUS = -5 - 2 * SQ5
B_PLUS = -2 + SQ5
B_MINUS = -2 - SQ5


# -- reduced map -----------------------------------------------------------------


def test_level_matrix_examples():
    assert level_matrix(-3)(2).value == pytest.approx(-5)
    assert level_matrix(-3)(1).is_infinite
    assert level_matrix(-3)(INF).value == pytest.approx(-1)


def test_reduced_orbit_of_zero_at_level_minus_one():
    orbit = [ExtendedComplex(0)]
    for _ in range(4):
        orbit.append(level_matrix(-1)(orbit[-1]))
    assert orbit[1].value == pytest.approx(1)
    assert orbit[2].is_infinite
    assert orbit[3].value == pytest.approx(-1)
    assert orbit[4].chordal(orbit[0]) < 1e-15


def test_reduction_consistency_with_the_full_map():
    """First coordinate of the 2d map on the level x*y = r is the reduced map."""
    rng = random.Random(42)
    m = f2d()
    for _ in range(100):
        r = rng.uniform(-8, -0.1)
        x = rng.uniform(-4, 4)
        if abs(x) < 0.05 or abs(1 - x) < 0.05:
            continue
        full = m.apply(Point([x, r / x]))
        red = level_matrix(r)(x)
        assert full[0].chordal(red) < 1e-12


def test_mobius_rejects_singular_matrices():
    """Singular means ad - bc = 0 for the entries as stored, taken exactly: a small
    determinant is no refusal, although ad - bc in floats reads 0 for power_matrix(0.5, 45)."""
    with pytest.raises(ValueError):
        Mobius(1, 2, 2, 4)
    for f in (x_to_z_map(1e-25), Mobius(1e-7, 0, 0, 1e-7), Mobius(1 + 1e-16j, 1, 1, 1)):
        assert f.inverse()(f(2.0)).chordal(ExtendedComplex(2.0)) < 1e-9
    stepped = INF
    for _ in range(45):
        stepped = level_matrix(0.5)(stepped)
    assert power_matrix(0.5, 45)(INF).chordal(stepped) < 1e-12
    with pytest.raises(ValueError, match="singular"):
        Mobius(1j, 2, 1, -2j)  # ad - bc = 2 - 2


def test_mobius_inverse_law():
    rng = random.Random(13)
    for _ in range(50):
        entries = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)]
        try:
            f = Mobius(*entries)
        except ValueError:
            continue
        x = ExtendedComplex(complex(rng.uniform(-5, 5), rng.uniform(-5, 5)))
        assert f.inverse()(f(x)).chordal(x) < 1e-9


# -- the eigenvalue ratio and the principal branch ----------------------------------


def test_branch_scale_factor_is_the_primitive_root():
    """On every branch of n = 3..6 one step is w -> s*w in the eigencoordinate with
    s = exp(2*pi*i*m/n), and the n-th power of the level matrix is a scalar."""
    rng = random.Random(17)
    xs = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(50)] + [INF, 1.0, -1.0]
    for n in (3, 4, 5, 6):
        for b in branches(n):
            s = cmath.exp(2j * math.pi * b.m / b.n)
            assert conjugacy_error(scale_coordinate_map(b.rho), level_matrix(b.rho), s, xs) < 1e-12
            assert conjugacy_error(scale_coordinate_map(b.rho), level_matrix(b.rho), s * 1j, xs) > 0.1
            pm = power_matrix(b.rho, n)
            assert abs(pm.b) + abs(pm.c) < 1e-9 * abs(pm.a)


def test_principal_branch_signs():
    """sqrt(r) is principal in both charts: positive imaginary on a negative level."""
    for chart in (x_to_z_map, scale_coordinate_map):
        assert chart(-3).b.imag > 0
        assert chart(-3).b.real == 0
        assert chart(-3).b == pytest.approx(math.sqrt(3) * 1j)
        assert chart(4).b == pytest.approx(2)
        assert chart(-3 - 1e-300j).b.imag < 0  # below the cut


def test_the_level_matrix_is_singular_at_r_one():
    """At r = 1 the eigenvalue 1 - sqrt(r) vanishes: M and every positive power
    are singular, and so is every boundary but the m = 0 one."""
    for make in (level_matrix, lambda r: power_matrix(r, 3), lambda r: boundary_d(r, 2)):
        with pytest.raises(ValueError, match="singular"):
            make(1)
    assert boundary_d(1, 0).value == -1


# -- closed-form powers --------------------------------------------------------------


def test_power_matrix_m1_is_twice_the_level_matrix():
    pm = power_matrix(-3, 1)
    assert pm.a == pytest.approx(2)
    assert pm.b == pytest.approx(6)
    assert pm.c == pytest.approx(-2)
    assert pm.d == pytest.approx(2)
    rng = random.Random(19)
    for _ in range(100):
        r = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        pm, lm = power_matrix(r, 1), level_matrix(r)
        for entry in "abcd":
            assert getattr(pm, entry) == pytest.approx(2 * getattr(lm, entry), abs=1e-12)


def test_power_matrix_m0_is_twice_identity():
    pm = power_matrix(-2.5, 0)
    assert pm.a == pytest.approx(2)
    assert pm.b == pytest.approx(0, abs=1e-15)
    assert pm.c == pytest.approx(0, abs=1e-15)
    assert pm.d == pytest.approx(2)


def test_power_matrix_period3_closure_is_scalar():
    pm = power_matrix(-3, 3)
    assert abs(pm.b) < 1e-9 * abs(pm.a)
    assert abs(pm.c) < 1e-9 * abs(pm.a)
    assert pm.a == pytest.approx(pm.d)


def test_power_matrix_rejects_r_zero():
    with pytest.raises(ZeroInvariant):
        power_matrix(0, 2)


def test_projective_power_identity():
    rng = random.Random(11)
    for _ in range(200):
        r = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(r) < 0.1 or abs(r - 1) < 0.1:
            continue
        m = rng.randint(0, 6)
        x = ExtendedComplex(complex(rng.uniform(-4, 4), rng.uniform(-4, 4)))
        via_matrix = power_matrix(r, m)(x)
        stepped = x
        for _ in range(m):
            stepped = level_matrix(r)(stepped)
        assert via_matrix.chordal(stepped) < 1e-9


# -- the x <-> z change ----------------------------------------------------------------


@pytest.mark.parametrize(
    "r,x,expected",
    [
        (-3.0, None, -math.sqrt(3) * 1j),  # None encodes x = infinity
        (-1.0, 0.0, 1j),
        (-1.0 / 3.0, 0.0, (math.sqrt(3) / 3) * 1j),
        (-1.0 / 3.0, 1.0 / 3.0, (math.sqrt(3) / 6) * 1j),
        (A_PLUS, -B_PLUS, 0.5 * cmath.sqrt(A_PLUS) * (SQ5 + 1)),
    ],
)
def test_x_to_z_tabulated_values(r, x, expected):
    got = x_to_z_map(r)(INF if x is None else x)
    assert got.value == pytest.approx(expected, abs=1e-12)


def test_x_to_z_pole_and_inverse():
    assert x_to_z_map(-3)(-1).is_infinite
    rng = random.Random(3)
    for _ in range(50):
        r = complex(rng.uniform(-5, -0.1), rng.uniform(-1, 1))
        x = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        z = x_to_z_map(r)(x)
        back = x_to_z_map(r).inverse()(z)
        assert back.chordal(ExtendedComplex(x)) < 1e-10


# -- boundary formulas -------------------------------------------------------------------


def _reduced_orbit_of_infinity(r: complex, n: int):
    """Independent boundary oracle: iterate (x - r)/(1 - x) from infinity.

    Plain complex arithmetic, no library calls: the first value is the
    limit -1, then ordinary evaluation; a zero denominator yields None
    (the point at infinity).
    """
    values = [None]  # x = infinity
    x = -1.0 + 0j  # image of infinity
    for _ in range(n - 1):
        values.append(x)
        if x == 1:
            x = None
            break
        x = (x - r) / (1 - x)
    return values


@pytest.mark.parametrize("n,k,r", [(3, 1, -3.0), (4, 1, -1.0), (5, 1, A_PLUS), (5, 2, A_MINUS), (6, 1, -1.0 / 3.0)])
def test_boundary_c_matches_the_orbit_of_infinity(n, k, r):
    expect = set()
    for v in _reduced_orbit_of_infinity(r, n):
        expect.add(math.inf if v is None else round(v.real, 9))
    got = set()
    for c in boundary_cs(n, k):
        got.add(c if math.isinf(c) else round(c, 9))
    assert got == expect


def test_boundary_c_examples():
    cs3 = boundary_cs(3)
    finite3 = sorted(c for c in cs3 if math.isfinite(c))
    assert finite3 == pytest.approx([-1.0, 1.0])
    assert cs3[0] == cs3[3] == math.inf
    assert boundary_c(4, 2) == pytest.approx(0.0, abs=1e-15)
    assert all(type(c) is float for c in cs3)
    finite6 = sorted(c for c in boundary_cs(6) if math.isfinite(c))
    assert finite6 == pytest.approx([-1.0, -1 / 3, 0.0, 1 / 3, 1.0])


def test_boundary_c_rejects_non_primitive_roots():
    with pytest.raises(ValueError):
        boundary_c(6, 1, k=2)
    with pytest.raises(ValueError):
        boundary_c(6, 7)


@pytest.mark.parametrize(
    "n,r,m,expected",
    [
        (3, -3.0, 0, -math.sqrt(3) * 1j),
        (6, -1.0 / 3.0, 4, (math.sqrt(3) / 6) * 1j),
        (5, A_PLUS, None, None),  # x = -1 must land at infinity for some m
    ],
)
def test_boundary_d_tabulated(n, r, m, expected):
    if m is None:
        assert any(d.is_infinite for d in boundary_ds(n, r))
    else:
        assert boundary_d(r, m).value == pytest.approx(expected, abs=1e-9)


def test_boundary_d_equals_the_closed_form_on_every_branch_to_n40():
    """The composed z-chart of M^m(inf) is the former closed form within 1e-14
    chordal, infinite exactly where it was, on every branch of n = 3..40, m = 0..n."""
    count = 0
    for n in range(3, 41):
        for b in branches(n):
            infinite = []
            for m in range(n + 1):
                got, want = boundary_d(b.rho, m), boundary_d_closed_form(b.rho, m)
                assert got.is_infinite == want.is_infinite, (n, b.m, m)
                assert got.chordal(want) < 1e-14, (n, b.m, m)
                infinite.append(got.is_infinite)
                count += 1
            assert infinite == [m == 1 for m in range(n + 1)]  # M(inf) = -1, the pole of the z-chart
    assert count == 6798


@pytest.mark.parametrize("n,k,r", [(3, 1, -3.0), (4, 1, -1.0), (5, 1, A_PLUS), (5, 2, A_MINUS), (6, 1, -1.0 / 3.0)])
def test_boundary_d_is_x_to_z_of_the_reflected_boundary(n, k, r):
    """d_m = x_to_z_map(r)(c_{n-m}); as sets the two boundary formulas agree."""
    cs = boundary_cs(n, k)
    ds = boundary_ds(n, r)
    for m in range(n + 1):
        image = x_to_z_map(r)(cs[n - m])
        assert ds[m].chordal(image) < 1e-9
    # set-level agreement
    for d in ds:
        assert min(d.chordal(x_to_z_map(r)(c)) for c in cs) < 1e-9


# -- conjugacy ------------------------------------------------------------------------------


def test_scale_coordinate_conjugates_to_a_pure_scale():
    rng = random.Random(5)
    for _ in range(200):
        r = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(r) < 0.2 or abs(r - 1) < 0.2:
            continue
        x = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        sr = cmath.sqrt(r)
        s = (1 + sr) / (1 - sr)
        assert conjugacy_error(scale_coordinate_map(r), level_matrix(r), s, [x, INF]) < 1e-9


def test_conjugacy_error_is_the_largest_chordal_distance():
    """T(f(x)) against s*T(x), infinity included: the identity conjugates
    x -> 2x to the scale by 2 exactly, and measures the scale by 3 as off by
    the chordal distance of 2x from 3x, largest over the points."""
    identity, double = Mobius(1, 0, 0, 1), Mobius(2, 0, 0, 1)
    xs = [0.0, 1.0, -2.5, INF, 1j]
    assert conjugacy_error(identity, double, 2, xs) == 0.0
    want = max(ExtendedComplex(2 * x).chordal(ExtendedComplex(3 * x)) for x in (1.0, -2.5, 1j))
    assert conjugacy_error(identity, double, 3, xs) == pytest.approx(want, rel=1e-15)
    assert conjugacy_error(identity, double, 3, []) == 0.0


def test_x_to_z_is_not_the_scaling_chart():
    """The tabulated-z chart moves boundaries correctly but is not the
    eigencoordinate: one step is not multiplication by s there."""
    r = -3.0
    s = cmath.exp(2j * math.pi / 3)
    assert conjugacy_error(scale_coordinate_map(r), level_matrix(r), s, [2.0]) < 1e-12
    assert conjugacy_error(x_to_z_map(r), level_matrix(r), s, [2.0]) > 0.1


# -- period-2 exclusion -----------------------------------------------------------------------


def test_exclusion_identity_is_exact():
    rng = random.Random(9)
    for _ in range(200):
        r = complex(rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
        sr = cmath.sqrt(r)
        if abs(1 - sr) < 1e-9:
            continue
        s = (1 + sr) / (1 - sr)
        assert abs(s + 1) == pytest.approx(2 / abs(1 - sr), rel=1e-12)


def test_exclusion_grid_minimum_oracle():
    """Independent grid minimization for R = 10, the rim included: no grid point
    goes below the minimum 2/sqrt(1 + R) that verify check 9 prints, and the
    rim's point r = -R attains it."""
    best, best_r = math.inf, None
    for i in range(1, 41):
        for j in range(72):
            r = cmath.rect(10.0 * i / 40, 2 * math.pi * j / 72)
            sr = cmath.sqrt(r)
            if sr == 1:
                continue
            value = abs((1 + sr) / (1 - sr) + 1)
            if value < best:
                best, best_r = value, r
    assert best >= 2 / math.sqrt(11) * (1 - 1e-12)
    assert best == pytest.approx(2 / math.sqrt(11), rel=1e-12)
    assert best_r == pytest.approx(-10.0, abs=1e-12)


def test_exclusion_large_r_magnitude():
    sr = cmath.sqrt(1e6 + 0j)
    assert abs((1 + sr) / (1 - sr) + 1) == pytest.approx(2.002e-3, rel=1e-3)


def test_the_exclusion_check_prints_the_minimum_per_radius():
    assert verify.check_period2_exclusion() == (
        True,
        "min |s+1| R=10: 0.603, R=100: 0.199, R=1000: 0.0632; CLI refuses period 2",
    )
