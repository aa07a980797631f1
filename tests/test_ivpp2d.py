import functools
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
import sympy

from conftest import gamma_fraction, horner_rounded
from ivpp.ivpp2d import (
    DegenerateBranch,
    _gamma_integer,
    branches,
    gamma_poly,
)
from ivpp.maps import f2d

SQ5 = math.sqrt(5.0)


def test_branch_levels_match_the_surd_values():
    (b3,) = branches(3)
    assert b3.rho == pytest.approx(-3.0, abs=1e-12)
    (b4,) = branches(4)
    assert b4.rho == pytest.approx(-1.0, abs=1e-12)
    (b6,) = branches(6)
    assert b6.rho == pytest.approx(-1.0 / 3.0, abs=1e-12)
    b5 = branches(5)
    assert [b.m for b in b5] == [1, 2]
    assert b5[0].rho == pytest.approx(-5 + 2 * SQ5, abs=1e-12)
    assert b5[1].rho == pytest.approx(-5 - 2 * SQ5, abs=1e-12)


def test_branch_counts_follow_the_totient():
    expected = {3: 1, 4: 1, 5: 2, 6: 1, 7: 3, 8: 2, 9: 3, 12: 2}
    for n, count in expected.items():
        assert len(branches(n)) == count
        assert len(branches(n)) == sympy.totient(n) // 2


def test_branches_reject_period_2():
    with pytest.raises(DegenerateBranch):
        branches(2)


def test_branch_disjointness():
    for n in range(3, 13):
        rhos = [b.rho for b in branches(n)]
        for i in range(len(rhos)):
            for j in range(i + 1, len(rhos)):
                assert abs(rhos[i] - rhos[j]) > 1e-6


@pytest.mark.parametrize("n,expected", [(3, (3, 1)), (4, (1, 1)), (5, (5, 10, 1)), (6, (1, 3))])
def test_gamma_poly_printed_forms(n, expected):
    g = gamma_poly(n)
    assert g.scaled == expected
    assert g.monic[-1] == 1.0
    assert len(g.monic) - 1 == len(branches(n))


@pytest.mark.parametrize("n", [*range(3, 61), 210])
def test_gamma_poly_against_sympy_minimal_polynomials(n):
    """Oracles: sympy's exact minimal polynomial of -tan^2(pi/n) up to n = 12, and for
    every n the product of (r + tan^2(pi m/n)) and its roots at 100 digits."""
    g = gamma_poly(n)
    assert len(g.monic) - 1 == sympy.totient(n) // 2
    assert math.gcd(*g.scaled) == 1 and g.scaled[-1] == g.scale > 0
    assert g.monic == tuple(float(Fraction(c, g.scale)) for c in g.scaled)
    with mpmath.workdps(100):
        tiny = mpmath.mpf(10) ** -80
        roots = [mpmath.tan(mpmath.pi * b.m / n) ** 2 for b in branches(n)]
        product = [mpmath.mpf(1)]
        for t in roots:  # multiply by (r + t)
            product = [a + t * c for a, c in zip([0, *product], [*product, 0])]
        for c, want in zip(g.scaled, product):
            assert abs(mpmath.mpf(c) / g.scale - want) <= tiny * want
        for t in roots:
            terms = [c * (-t) ** k for k, c in enumerate(g.scaled)]
            assert abs(mpmath.fsum(terms)) <= tiny * mpmath.fsum(abs(v) for v in terms)
    if n <= 12:
        r = sympy.Symbol("r")
        exact = sympy.Poly(sympy.minimal_polynomial(-sympy.tan(sympy.pi / n) ** 2, r), r)
        assert [int(c) for c in reversed(exact.all_coeffs())] == list(g.scaled)


def _monic_or_inf(c, scale):
    try:
        return c / scale
    except OverflowError:
        return math.inf


def test_gamma_poly_prints_inf_where_a_monic_coefficient_overflows_a_float():
    """From n = 1031 on, some monic coefficients are past the float range: those,
    and only those, are inf, while the integer form stays exact."""
    g = gamma_poly(1031)
    assert g.scaled == tuple(_gamma_integer(1031)) and g.scale == g.scaled[-1]
    assert g.monic == tuple(_monic_or_inf(c, g.scale) for c in g.scaled)
    assert sum(map(math.isinf, g.monic)) == 24 and len(g.monic) == 516
    assert all(c > 0 for c in g.monic)
    for n in (1039, 1049, 1051):
        scaled = _gamma_integer(n)
        assert Fraction(max(scaled), scaled[-1]) > sys.float_info.max  # the largest monic coefficient
        g_n = gamma_poly(n)
        assert g_n.scaled == tuple(scaled) and math.inf in g_n.monic
    assert g.at(0.0) == 1031  # the exact value: no inf coefficient is read


@pytest.mark.parametrize("p", [1031, 1033, 1039])
def test_prime_gamma_against_the_tangent_product_and_sum(p):
    """For a prime p the roots are -tan^2(pi m/p), m = 1..(p-1)/2, whose squared
    tangents have product p and sum p(p-1)/2: the constant and the next-to-leading
    coefficient of the monic form."""
    g = gamma_poly(p)
    assert len(g.scaled) == (p + 1) // 2
    assert g.scaled[0] == p * g.scale
    assert 2 * g.scaled[-2] == p * (p - 1) * g.scale


@pytest.mark.parametrize("ns", [range(3, 201), [210, 1024, 2048]], ids=["3-200", "210-1024-2048"])
def test_integer_gamma_equals_the_fraction_reference(ns):
    """The primitive integer form, divided by its leading coefficient, is the
    exact monic gamma_n of the Fraction reference."""
    for n in ns:
        scaled = _gamma_integer(n)
        assert [Fraction(c, scaled[-1]) for c in scaled] == gamma_fraction(n), n


def _divide_exactly(num, den):
    """Quotient of ascending integer coefficient lists by a monic divisor; no remainder."""
    num, quot = list(num), [0] * (len(num) - len(den) + 1)
    for i in reversed(range(len(quot))):
        quot[i] = num[i + len(den) - 1]
        for j, c in enumerate(den):
            num[i + j] -= quot[i] * c
    assert not any(num)
    return quot


@functools.lru_cache(maxsize=None)
def _cyclotomic(n):
    """Phi_n, ascending: x^n - 1 divided by Phi_d for every d | n, d < n."""
    phi = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi = _divide_exactly(phi, _cyclotomic(d))
    return tuple(phi)


def _times_one_plus(p, sign):
    """p(s) * (1 + sign*s) on ascending integer coefficients."""
    return [a + sign * b for a, b in zip([*p, 0], [0, *p])]


def test_gamma_poly_is_the_cyclotomic_polynomial_in_tangent_form():
    """Oracle for n = 3..200: x = (1+s)/(1-s) maps the n-th roots of unity but -1 to
    s = i tan(pi m/n), so (1-s)^phi(n) Phi_n((1+s)/(1-s)) is even in s, and as a
    polynomial in r = s^2 a constant multiple of the integer gamma form."""
    for n in range(3, 201):
        phi = _cyclotomic(n)
        deg = len(phi) - 1
        # sum of phi_k (1+s)^k (1-s)^(deg-k), by Horner from the top coefficient
        acc, down = [phi[deg]], [1]
        for c in reversed(phi[:deg]):
            down = _times_one_plus(down, -1)
            acc = [a + c * b for a, b in zip(_times_one_plus(acc, 1), down)]
        assert not any(acc[1::2]), n
        even = acc[0::2]
        g = gamma_poly(n)
        assert deg % 2 == 0 and len(g.monic) - 1 == deg // 2 == len(even) - 1, n
        assert even[-1] != 0 and all(e * g.scaled[-1] == c * even[-1] for e, c in zip(even, g.scaled)), n


def test_root_agreement():
    for n in (3, 4, 5, 6):
        g = gamma_poly(n)
        for b in branches(n):
            assert abs(g.at(b.rho)) < 1e-12 * max(1.0, abs(b.rho)) * 10


LEVELS = [0.0, 0.5, -0.5, -1.0, -2.0, -3.0, 2.0, 1e30, -1e30]


def test_gamma_at_refuses_a_non_finite_r():
    for r in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^r must be finite"):
            gamma_poly(5).at(r)


def test_gamma_at_r_is_the_exact_value_rounded_once():
    """For n = 3..300, gamma_n at each of LEVELS and at the first and the last
    branch level, and for n <= 100 also at every branch level and at +-1e300, is
    the Fraction reference rounded once, +-inf only past the float range.  (The
    cost of +-1e300 grows as the degree squared, so larger n take +-1e30.)
    Horner's rule on the rounded monic form was wrong from n = 113 on."""
    assert gamma_poly(113).at(-1.0) == 2**56
    for n in range(3, 301):
        g, bs = gamma_poly(n), branches(n)
        extra = [1e300, -1e300, *(b.rho for b in bs)] if n <= 100 else [bs[0].rho, bs[-1].rho]
        for r in LEVELS + extra:
            assert g.at(r) == horner_rounded(g.scaled, r, g.scale), (n, r)


def test_period_exactness_50_samples_per_branch():
    rng = random.Random(0xABCD)
    m = f2d()
    for n in (3, 4, 5, 6):
        for b in branches(n):
            done = 0
            while done < 50:
                x = rng.uniform(-3, 3)
                if abs(x) < 0.05:
                    continue
                assert m.detect_period(b.point(x), n, 1e-9) == n
                done += 1


def test_parametrization_preserves_the_level():
    for n in (3, 4, 5, 6):
        for b in branches(n):
            for x in (-2.3, 0.7, 1.9):
                p = b.point(x)
                assert p[0].value * p[1].value == pytest.approx(b.rho, abs=1e-12)


@pytest.mark.parametrize("shift", [1e-9, 1e-11])
def test_acceptance_check_4_fails_on_a_level_moved_off_its_root(monkeypatch, shift):
    """Check 4 reads gamma_n's sign on either side of each branch level: with
    one level of n = 5 moved by a relative 1e-9 or 1e-11, gamma_n has one
    sign on both sides of it, and the check fails."""
    import dataclasses

    from ivpp import verify

    assert verify.check_gamma_polynomials()[0]
    real = verify.branches

    def moved(n):
        return [dataclasses.replace(b, rho=b.rho * (1 + shift)) if (n, b.m) == (5, 2) else b for b in real(n)]

    monkeypatch.setattr(verify, "branches", moved)
    passed, detail = verify.check_gamma_polynomials()
    assert not passed and detail.startswith("n=5 m=2: gamma ")
