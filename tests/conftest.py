"""Shared oracles for the test suite.

The Fraction-based evaluators here are independent of the library's
complex-arithmetic path: expected values in the tests are computed (or
frozen from) these, never from the code under test.
"""

from fractions import Fraction
from typing import Tuple

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


# a window whose cell centres are not round numbers, so every digit of %.17g shows
JITTERED_WINDOW = (-4.0 + 0.0123456789, 4.0 + 0.0123456789, -3.0 - 0.00987654321, 5.0 - 0.00987654321)


def csv_per_cell(header: str, xs, ys, layers) -> bytes:
    """Reference CSV text of the grid outputs, formatted one cell at a time."""
    lines = [header]
    for i in range(len(ys)):
        for j in range(len(xs)):
            values = "".join(f",{int(layer[i, j])}" for layer in layers)
            lines.append(f"{xs[j]:.17g},{ys[i]:.17g}{values}")
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.fixture(scope="session")
def exact_period3_orbit():
    """The rational period-3 orbit through (2, -3/2), iterated exactly."""
    p = (Fraction(2), Fraction(-3, 2))
    orbit = [p]
    for _ in range(3):
        orbit.append(f2d_exact(*orbit[-1]))
    return orbit
