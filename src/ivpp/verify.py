"""The acceptance suite: every deliverable claim as a timed pass/fail check.

``run_all`` executes the whole list (the CLI ``verify`` subcommand and the
test suite both call into here) and each check pins its stated tolerance.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .core import INF, ExtendedComplex, Indeterminate, Point
from .decompose import (
    BOUNDARY_TOL,
    boundaries_analytic,
    boundaries_empirical,
    compare_boundaries,
    decompose,
)
from .ivpp2d import branches, gamma_poly
from .kernel import step
from .lv3d import (
    lv_decompose_period2,
    lv_diagonalizer,
    lv_period2_param,
    lv_recurrence,
)
from .maps import f2d, f3d
from .mobius import (
    boundary_ds,
    conjugacy_error,
    level_matrix,
    period2_exclusion,
    scale_coordinate_map,
    x_to_z_map,
)
from .raster import raster

SQ5 = math.sqrt(5.0)
B_PLUS = -2.0 + SQ5
B_MINUS = -2.0 - SQ5
A_PLUS = -5.0 + 2.0 * SQ5
A_MINUS = -5.0 - 2.0 * SQ5
SQRT_A_PLUS = 1j * math.sqrt(5.0 - 2.0 * SQ5)  # principal branch of sqrt(a_plus)
SQRT_A_MINUS = 1j * math.sqrt(5.0 + 2.0 * SQ5)

# (n, branch index k, level r, x, expected z); x = inf covers both signs of the
# real infinity since they are one projective point.
GOLDEN_Z_TABLE: List[Tuple[int, int, float, object, object]] = [
    (3, 1, -3.0, math.inf, -math.sqrt(3.0) * 1j),
    (3, 1, -3.0, -1.0, INF),
    (3, 1, -3.0, 1.0, 0j),
    (4, 1, -1.0, math.inf, -1j),
    (4, 1, -1.0, -1.0, INF),
    (4, 1, -1.0, 0.0, 1j),
    (4, 1, -1.0, 1.0, 0j),
    (5, 1, A_PLUS, math.inf, -SQRT_A_PLUS),
    (5, 1, A_PLUS, -1.0, INF),
    (5, 1, A_PLUS, -B_PLUS, 0.5 * SQRT_A_PLUS * (SQ5 + 1.0)),
    (5, 1, A_PLUS, B_PLUS, 0.5 * SQRT_A_PLUS * (SQ5 - 1.0)),
    (5, 1, A_PLUS, 1.0, 0j),
    (5, 2, A_MINUS, math.inf, -SQRT_A_MINUS),
    (5, 2, A_MINUS, -1.0, INF),
    (5, 2, A_MINUS, -B_MINUS, -0.5 * SQRT_A_MINUS * (SQ5 - 1.0)),
    (5, 2, A_MINUS, B_MINUS, -0.5 * SQRT_A_MINUS * (SQ5 + 1.0)),
    (5, 2, A_MINUS, 1.0, 0j),
    (6, 1, -1.0 / 3.0, math.inf, -math.sqrt(3.0) / 3.0 * 1j),
    (6, 1, -1.0 / 3.0, -1.0, INF),
    (6, 1, -1.0 / 3.0, -1.0 / 3.0, 2.0 * math.sqrt(3.0) / 3.0 * 1j),
    (6, 1, -1.0 / 3.0, 0.0, math.sqrt(3.0) / 3.0 * 1j),
    (6, 1, -1.0 / 3.0, 1.0 / 3.0, math.sqrt(3.0) / 6.0 * 1j),
    (6, 1, -1.0 / 3.0, 1.0, 0j),
]

EXPECTED_BOUNDARIES = {
    (3, 1): [-1.0, 1.0, math.inf],
    (4, 1): [-1.0, 0.0, 1.0, math.inf],
    (5, 1): [-1.0, -B_PLUS, B_PLUS, 1.0, math.inf],
    (5, 2): [B_MINUS, -1.0, 1.0, -B_MINUS, math.inf],
    (6, 1): [-1.0, -1.0 / 3.0, 0.0, 1.0 / 3.0, 1.0, math.inf],
}

EXPECTED_SIGMA = {
    (3, 1): (2, 3, 1),
    (4, 1): (2, 3, 4, 1),
    (5, 1): (2, 3, 4, 5, 1),
    (5, 2): (3, 4, 5, 1, 2),
    (6, 1): (2, 3, 4, 5, 6, 1),
}

EXPECTED_GAMMA_SCALED = {3: (3, 1), 4: (1, 1), 5: (5, 10, 1), 6: (1, 3)}


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}] {status}  {self.name}  ({self.seconds:.2f}s)  {self.detail}"


def _err_extended(got: ExtendedComplex, expected) -> float:
    if isinstance(expected, ExtendedComplex) and expected.is_infinite:
        return got.chordal(expected)
    if got.is_infinite:
        return 1.0
    return abs(got.value - complex(expected))


def check_appendix_b() -> Tuple[bool, str]:
    t0 = time.perf_counter()
    worst = 0.0
    for n, k, r, x, z in GOLDEN_Z_TABLE:
        for x_signed in ((x, -x) if math.isinf(x) else (x,)):
            got = x_to_z_map(r)(INF if math.isinf(x_signed) else x_signed)
            worst = max(worst, _err_extended(got, z))
        ds = boundary_ds(n, r)
        near = min(_err_extended(d, z) for d in ds)
        worst = max(worst, near)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    return ok, f"max error {worst:.2e}, {elapsed:.3f}s (< 1s)"


def check_interval_tables() -> Tuple[bool, str]:
    worst = 0.0
    for (n, k), expected in EXPECTED_BOUNDARIES.items():
        d = decompose(branches(n)[k - 1], method="analytic")
        if len(d.boundaries) != len(expected):
            return False, f"n={n} branch {k}: {len(d.boundaries)} boundaries, want {len(expected)}"
        for got, want in zip(d.boundaries, expected):
            if math.isinf(want):
                if not math.isinf(got):
                    return False, f"n={n}: missing the boundary at infinity"
            else:
                worst = max(worst, abs(got - want))
    return worst < 1e-9, f"max boundary error {worst:.2e}"


def check_sigma_tables() -> Tuple[bool, str]:
    for (n, k), expected in EXPECTED_SIGMA.items():
        d = decompose(branches(n)[k - 1], method="analytic")
        if d.sigma != expected:
            return False, f"n={n} branch {k}: sigma {d.sigma}, want {expected}"
    return True, "all printed cycle diagrams reproduced"


def check_gamma_polynomials() -> Tuple[bool, str]:
    worst = 0.0
    for n, scaled in EXPECTED_GAMMA_SCALED.items():
        g = gamma_poly(n)
        if g.scaled != scaled:
            return False, f"n={n}: scaled form {g.scaled}, want {scaled}"
        for c_monic, c_int in zip(g.monic, scaled):
            worst = max(worst, abs(c_monic - c_int / g.scale))
    return worst < 1e-9, f"max coefficient error {worst:.2e}"


def check_conjugacy() -> Tuple[bool, str]:
    rng = random.Random(0xC0417)
    worst = 0.0
    count = 0
    while count < 200:
        r = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(r) < 0.2 or abs(r - 1) < 0.2:
            continue
        x = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        sr = cmath.sqrt(r)  # one step scales the eigencoordinate by s = (1 + sr)/(1 - sr)
        worst = max(worst, conjugacy_error(scale_coordinate_map(r), level_matrix(r), (1 + sr) / (1 - sr), [x]))
        count += 1
    return worst < 1e-9, f"max chordal error {worst:.2e} over 200 samples (eigencoordinate)"


def check_boundary_agreement() -> Tuple[bool, str]:
    t0 = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 5, 6):
        for b in branches(n):
            ana = boundaries_analytic(b)
            emp = boundaries_empirical(f2d(), b.coords, n)
            if len(ana) != len(emp):
                return False, f"n={n} m={b.m}: {len(emp)} empirical vs {len(ana)} analytic"
            worst = max(worst, compare_boundaries(ana, emp)[1])
    elapsed = time.perf_counter() - t0
    ok = worst < BOUNDARY_TOL and elapsed < 30.0
    return ok, f"max disagreement {worst:.2e}, {elapsed:.1f}s (< 30s)"


def check_period_exactness() -> Tuple[bool, str]:
    rng = random.Random(0x9E7)
    m2 = f2d()
    for n in (3, 4, 5, 6):
        for b in branches(n):
            done = 0
            while done < 50:
                x = rng.uniform(-3, 3)
                if abs(x) < 0.05:
                    continue
                try:
                    got = m2.detect_period(b.point(x), n, 1e-9)
                except Indeterminate:
                    continue
                if got != n:
                    return False, f"n={n} m={b.m}: period {got} at x={x!r}"
                done += 1
    m3 = f3d()
    done = 0
    while done < 50:
        x = rng.uniform(-3, 3)
        r = rng.uniform(-4, 4)
        if min(abs(x), abs(x - 1)) < 0.05:
            continue
        sign = "+" if done % 2 == 0 else "-"
        got = m3.detect_period(lv_period2_param(x, r, sign), 2, 1e-9)
        if got != 2:
            return False, f"3d period {got} at (x, r) = ({x!r}, {r!r})"
        done += 1
    # generic off-variety points stay aperiodic through n_max = 8
    done = 0
    while done < 50:
        p = Point([complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(2)])
        try:
            got = m2.detect_period(p, 8, 1e-9)
        except Indeterminate:
            continue
        if got is not None:
            return False, f"stray period {got} at generic {p!r}"
        done += 1
    return True, "50 samples per branch exact; 50 generic points aperiodic"


def check_lv_suite() -> Tuple[bool, str]:
    rng = random.Random(0x1717)
    m3 = f3d()
    worst_s = 0.0
    for _ in range(50):
        x = rng.uniform(-3, 3)
        r = rng.uniform(-5, 5)
        if min(abs(x), abs(x - 1)) < 0.05:
            continue
        sign = "+" if rng.random() < 0.5 else "-"
        p = lv_period2_param(x, r, sign)
        rv, sv = m3.invariant_values(p)
        worst_s = max(worst_s, abs(sv + 1), abs(rv - r))
        if m3.detect_period(p, 2, 1e-9) != 2:
            return False, f"no 2-step closure at ({x}, {r}, {sign})"
    if worst_s > 1e-9:
        return False, f"level error {worst_s:.2e}"
    xs = [ExtendedComplex(complex(rng.uniform(-5, 5), rng.uniform(-5, 5))) for _ in range(1000)]
    worst_inv = max(lv_recurrence(lv_recurrence(x)).chordal(x) for x in xs)
    fixed_err = max(lv_recurrence(v).chordal(ExtendedComplex(v)) for v in (0, 2))
    intertwiner = conjugacy_error(lv_diagonalizer(), lv_recurrence, -1, xs)  # T o f o T^-1 = (w -> -w)
    if worst_inv > 1e-10 or fixed_err > 1e-10 or intertwiner > 1e-10:
        return False, f"involution {worst_inv:.2e}, fixed {fixed_err:.2e}, diag {intertwiner:.2e}"
    base = None
    for r_int in range(-5, 6):
        for sign in "+-":
            d = lv_decompose_period2(float(r_int), sign)
            if d.boundaries != (0.0, 1.0, math.inf):
                return False, f"r={r_int} sign {sign}: boundaries {d.boundaries}"
            if base is None:
                base = (d.boundaries, d.sigma)
            elif (d.boundaries, d.sigma) != base:
                return False, f"r-dependence at r={r_int} sign {sign}"
    return True, f"level {worst_s:.1e}, involution {worst_inv:.1e}, boundaries r-independent"


def check_period2_exclusion() -> Tuple[bool, str]:
    report = period2_exclusion((10.0, 100.0, 1000.0))
    if not report.all_positive:
        return False, f"min |s+1| not positive: {report.min_abs}"
    if report.identity_max_dev > 1e-9:
        return False, f"identity deviation {report.identity_max_dev:.2e}"
    from . import cli

    code, _, err = cli.run_captured(["decompose", "--period", "2", "--map", "f2d"])
    if code != 2 or "period 2" not in err:
        return False, f"CLI exit {code}, stderr {err!r}"
    bounds = ", ".join(f"R={int(k)}: {v:.3g}" for k, v in report.min_abs.items())
    return True, f"min |s+1| {bounds}; CLI refuses period 2"


def check_raster_period3() -> Tuple[bool, str]:
    t0 = time.perf_counter()
    m = f2d()
    b = branches(3)[0]
    d = decompose(b, method="analytic")
    R = raster(m, (-4, 4, -4, 4), (800, 800), n_max=8, branch=b)
    elapsed = time.perf_counter() - t0
    mask = R.component > 0
    classes = sorted(int(v) for v in np.unique(R.component[mask]))
    if classes != [1, 2, 3]:
        return False, f"component classes {classes}, want [1, 2, 3]"
    if mask.sum() < 1000:
        return False, f"only {mask.sum()} classified cells"
    xs, _ = R.cells()
    sigma = np.asarray(d.sigma)
    ok = bad = 0
    cols = np.flatnonzero(mask.any(axis=0))  # cells of one column share x
    _, (image_x, _) = step(m, b.coords(xs[cols]))
    for j, x, target in zip(cols, image_x.tolist(), d.classify(image_x).tolist()):
        if not math.isfinite(x):
            continue  # 0/0 or pole column, excluded
        comps = R.component[mask[:, j], j]
        good = int(np.count_nonzero(sigma[comps - 1] == target))
        ok += good
        bad += comps.size - good
    frac = ok / max(1, ok + bad)
    passed = frac >= 0.999 and elapsed < 60.0
    return passed, f"{mask.sum()} cells, successor {frac:.5f}, {elapsed:.1f}s (< 60s)"


ACCEPTANCE: List[Tuple[int, str, Callable[[], Tuple[bool, str]]]] = [
    (1, "appendix-b-golden-z-table", check_appendix_b),
    (2, "interval-tables", check_interval_tables),
    (3, "cycle-permutations", check_sigma_tables),
    (4, "gamma-polynomial-identity", check_gamma_polynomials),
    (5, "conjugacy-property", check_conjugacy),
    (6, "analytic-empirical-boundaries", check_boundary_agreement),
    (7, "period-exactness", check_period_exactness),
    (8, "lotka-volterra-suite", check_lv_suite),
    (9, "period-2-exclusion", check_period2_exclusion),
    (10, "raster-reproduction", check_raster_period3),
]


def run_all(printer=print) -> List[CheckResult]:
    results = []
    for number, name, fn in ACCEPTANCE:
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(number, name, passed, detail, time.perf_counter() - t0))
        if printer:
            printer(results[-1].line())
    return results
