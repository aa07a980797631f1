import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import JITTERED_WINDOW, csv_per_cell, horner_rounded
from ivpp.cli import run_captured
from ivpp.denoms import cell_centers, denominator_zero_curves
from ivpp.ivpp2d import branches
from ivpp.maps import f2d
from ivpp.raster import raster


def test_orbit_json_closed_period3():
    code, out, err = run_captured(
        ["orbit", "--map", "f2d", "--start", "2,-1.5", "--steps", "3"]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["closed"] is True
    assert doc["minimal_period"] == 3
    assert len(doc["points"]) == 4
    assert doc["points"][1][0] == [pytest.approx(-5.0), pytest.approx(0.0)]


def test_orbit_escapes_control_characters_in_the_map_name(tmp_path):
    """A map path with a tab, a newline and U+0001 prints as JSON escapes, so the output parses."""
    from ivpp.maps import F2D_SOURCE

    path = tmp_path / "a\tb\nc\x01.rmap"
    path.write_text(F2D_SOURCE)
    code, out, err = run_captured(["orbit", "--map", str(path), "--start", "1,2", "--steps", "2"])
    assert (code, err) == (0, "")
    assert json.loads(out)["map"] == str(path) and '"map": ' + json.dumps(str(path), ensure_ascii=False) in out


def test_orbit_reduced_map_needs_r():
    code, out, err = run_captured(
        ["orbit", "--map", "f2d-reduced", "--start", "0", "--steps", "4", "--r", "-1"]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["points"][2][0] == "inf"
    assert doc["minimal_period"] == 4


def test_ivpp_subcommand_gamma_table():
    code, out, err = run_captured(["ivpp", "--map", "f2d", "--period", "5"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["scaled"] == [5, 10, 1]
    assert len(doc["branches"]) == 2
    assert doc["branches"][0]["rho"] == pytest.approx(-5 + 2 * math.sqrt(5))


def test_ivpp_subcommand_lv_gamma():
    code, out, err = run_captured(
        ["ivpp", "--map", "f3d", "--period", "2", "--r", "7", "--s", "-1"]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["gamma"] == [pytest.approx(0.0), pytest.approx(0.0)]


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["--period", "5", "--r", "1e200"], "gamma_at_r", "inf"),
        (["--period", "7", "--r", "1e300"], "gamma_at_r", "inf"),
        (["--period", "7", "--r=-1e300"], "gamma_at_r", "-inf"),
        (["--map", "f3d", "--period", "3", "--r", "1e300", "--s", "1"], "gamma", "inf"),
        (["--map", "f3d", "--period", "4", "--r", "1e300", "--s", "1"], "gamma", "inf"),  # 2 + 6r^2
    ],
    ids=["f2d-5", "f2d-7", "f2d-7-negative", "f3d-3", "f3d-4"],
)
def test_ivpp_subcommand_prints_an_infinite_level_condition(argv, key, value):
    code, out, err = run_captured(["ivpp", *argv])
    assert code == 0, err
    assert json.loads(out)[key] == [value, 0]


@pytest.mark.parametrize("n, infinite", [(1031, 24), (2048, 0)])
def test_ivpp_subcommand_prints_the_exact_integer_form_at_large_periods(n, infinite):
    """Monic coefficients past the float range print as "inf"; scaled and scale stay
    exact, and so does the value at the first branch level, where gamma nearly vanishes."""
    from ivpp.ivpp2d import _gamma_integer

    rho = branches(n)[0].rho
    code, out, err = run_captured(["ivpp", "--period", str(n), f"--r={rho!r}"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["scaled"] == _gamma_integer(n) and doc["scale"] == doc["scaled"][-1]
    assert doc["monic"].count("inf") == infinite and len(doc["monic"]) == len(doc["scaled"])
    assert doc["gamma_at_r"] == [horner_rounded(doc["scaled"], rho, doc["scale"]), 0]


EXACT_LEVELS = [0.0, 0.5, -0.5, -1.0, -2.0, -3.0, 2.0, 1e300, -1e300]


def _printed(v):
    """A float as ivpp's JSON reads back: infinities are the strings "inf" and "-inf"."""
    return ("inf" if v > 0 else "-inf") if math.isinf(v) else v


@pytest.mark.parametrize(
    "n, r, value",
    [
        (113, -1.0, 72057594037927936),  # 2^56; Horner on the rounded monic form gave -9964946566059416
        (131, -3.0, -1.361129467683754e39),
        (700, -3.0, 1.7668470647783843e72),
        (751, -3.0, 5.922386521532856e225),
        (1027, -3.0, 5.80865979874134e281),
        (1031, 0.0, 1031),  # the monic form has 24 inf coefficients here
        (1033, -0.5, 1.1726433186326855e91),
        *((1031, r, None) for r in EXACT_LEVELS[1:-2] + [b.rho for b in branches(1031)[::257]]),
    ],
)
def test_ivpp_subcommand_prints_gamma_at_r_exactly(n, r, value):
    """The value at r is the exact one, rounded once, at every accepted period."""
    code, out, err = run_captured(["ivpp", "--period", str(n), f"--r={r!r}"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["gamma_at_r"] == [_printed(horner_rounded(doc["scaled"], r, doc["scale"])), 0]
    assert value is None or doc["gamma_at_r"] == [value, 0]


def _f3d_conditions(r):
    """The f3d level conditions of n = 2, 3, 4 expanded in s, ascending."""
    return {2: [1, 1], 3: [r * r + r + 1, 1 - r, 1], 4: [-(r**3), 3 * r * r + (r + 1) ** 3, -3 * r, 1]}


def test_ivpp_subcommand_prints_the_f3d_level_conditions_exactly():
    """Each printed condition is its exact value at the exact r and s, rounded once."""
    for r in EXACT_LEVELS:
        for n, coeffs in _f3d_conditions(Fraction(r)).items():
            for s in EXACT_LEVELS:
                code, out, err = run_captured(["ivpp", "--map", "f3d", "--period", str(n), f"--r={r!r}", f"--s={s!r}"])
                assert (code, err) == (0, ""), (n, r, s)
                assert json.loads(out)["gamma"] == [_printed(horner_rounded(coeffs, s)), 0], (n, r, s)


def test_decompose_json_matches_the_printed_table():
    code, out, err = run_captured(["decompose", "--map", "f2d", "--period", "3"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["boundaries"][0] == "-inf"
    assert doc["boundaries"][1] == pytest.approx(-1.0)
    assert doc["boundaries"][2] == pytest.approx(1.0)
    assert doc["sigma"] == [2, 3, 1]


def test_decompose_json_is_deterministic():
    a = run_captured(["decompose", "--map", "f2d", "--period", "5", "--branch", "2"])
    b = run_captured(["decompose", "--map", "f2d", "--period", "5", "--branch", "2"])
    assert a == b and a[0] == 0


# the two largest-m branches of large periods: (n, branch index, m)
LARGE_M_BRANCHES = [
    (619, 308, 308), (619, 309, 309), (1031, 514, 514), (1031, 515, 515),
    (2048, 511, 1021), (2048, 512, 1023), (4093, 2045, 2045), (4093, 2046, 2046),
    (4096, 1023, 2045), (4096, 1024, 2047),
]


@pytest.mark.parametrize("n, index, m", LARGE_M_BRANCHES, ids=[f"{n}-m{m}" for n, _, m in LARGE_M_BRANCHES])
def test_analytic_decompose_at_large_periods(n, index, m):
    """rho = -tan²(pi m/n) is 1e5..1e7 here, and the closed form's imaginary
    noise grows with it; the cuts are tan(pi m/n)/tan(pi j m/n), j = 1..n-1
    (0.02..0.2 s per branch)."""
    code, out, err = run_captured(["decompose", "--period", str(n), "--branch", str(index)])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["branch"].endswith(f"m={m}")
    assert doc["rho"] == pytest.approx(-math.tan(math.pi * m / n) ** 2, rel=1e-9)
    want = sorted(math.tan(math.pi * m / n) / math.tan(math.pi * j * m / n) for j in range(1, n))
    got = doc["boundaries"][1:]
    assert got == sorted(got) and len(got) == n - 1
    assert all(abs(g - w) <= 1e-8 * max(1.0, abs(w)) for g, w in zip(got, want))
    orbit, i = [], 1
    for _ in range(n):
        orbit.append(i)
        i = doc["sigma"][i - 1]
    assert i == 1 and len(set(orbit)) == n  # one n-cycle


def test_verify_subcommand_green():
    code, out, err = run_captured(["verify"])
    assert code == 0, out + err
    assert out.count("PASS") == 10
    assert "10/10" in out


def test_decompose_period2_is_refused():
    code, out, err = run_captured(["decompose", "--period", "2", "--map", "f2d"])
    assert code == 2
    assert "period 2" in err


def test_decompose_lv():
    code, out, err = run_captured(
        ["decompose", "--map", "f3d", "--period", "2", "--branch", "-", "--r", "3"]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["boundaries"] == ["-inf", 0, 1]
    assert doc["sigma"] == [2, 1, 3]
    assert doc["tiles"] == 2
    assert doc["convention"] == "right-closed"


@pytest.mark.parametrize("level", [["--r", "1e10"], ["--r", "1e10", "--branch", "-"], ["--r=-1e10"]])
def test_decompose_lv_at_large_levels(level):
    """The pairing does not depend on r, however large."""
    code, out, err = run_captured(["decompose", "--map", "f3d", "--period", "2", *level])
    assert code == 0, err
    assert json.loads(out)["sigma"] == [2, 1, 3]


def test_boundaries_table():
    code, out, err = run_captured(["boundaries", "--map", "f2d", "--period", "4"])
    assert code == 0, err
    assert "analytic" in out and "empirical" in out
    assert "max |diff|" in out
    worst = float(out.strip().splitlines()[-1].split("=")[1])
    assert worst < 1e-7


def test_boundaries_disagreement_exits_1():
    """n = 179, m = 89 is the first branch above the empirical route's stated
    range: its cuts miss by 2.9e-7 on one of size ~6e3.  The whole table is
    printed and the exit is the comparison's 1, while the empirical decompose
    there still gives the analytic sigma."""
    code, out, err = run_captured(["boundaries", "--map", "f2d", "--period", "179", "--branch", "89"])
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 181 and lines[-2].split() == ["178", "inf", "inf", "0.00e+00"]
    assert lines[-1] == "max |diff| = 2.850e-07"
    assert err == "error: 179 empirical vs 179 analytic boundaries, max |diff| 2.850e-07 not below 1e-07\n"
    base = ["decompose", "--period", "179", "--branch", "89"]
    code, out, err = run_captured(base + ["--method", "empirical"])
    assert code == 0, err
    assert json.loads(out)["sigma"] == json.loads(run_captured(base)[1])["sigma"]


def test_boundaries_agree_on_every_branch_to_n30():
    for n in range(3, 31):
        for index in range(1, len(branches(n)) + 1):
            code, out, err = run_captured(["boundaries", "--period", str(n), "--branch", str(index)])
            assert code == 0, (n, index, err)


EMPIRICAL_LARGE = [(1031, 515), (4096, 1), (4096, 512), (4096, 1024)]


@pytest.mark.parametrize("n, index", EMPIRICAL_LARGE, ids=[f"{n}-b{i}" for n, i in EMPIRICAL_LARGE])
def test_empirical_decompose_at_large_periods(n, index):
    """Above the range where every cut is within 1e-7, the empirical cuts
    still give the analytic sigma."""
    base = ["decompose", "--period", str(n), "--branch", str(index)]
    code, out, err = run_captured(base + ["--method", "empirical"])
    assert code == 0, err
    assert json.loads(out)["sigma"] == json.loads(run_captured(base)[1])["sigma"]


def test_boundaries_1d_map():
    code, out, err = run_captured(["boundaries", "--map", "lv-recurrence", "--period", "2"])
    assert code == 0, err
    assert "empirical" in out


def test_parse_roundtrip(tmp_path):
    src = tmp_path / "m.rmap"
    src.write_text("dim 2;\nx' = x*(1-y)/(1-x);\ny' = y*(1-x)/(1-y);\ninv r = x*y;\n")
    code, out, err = run_captured(["parse", str(src)])
    assert code == 0, err
    assert out.startswith("dim 2;")
    assert "inv r" in out


def test_parse_reports_diagnostics(tmp_path):
    src = tmp_path / "bad.rmap"
    src.write_text("dim 2; x' = (x")
    code, out, err = run_captured(["parse", str(src)])
    assert code == 2
    assert "expected" in err


def test_parse_checks_each_invariant_once(tmp_path, monkeypatch):
    """The round trip compares the re-parsed text's components and invariants
    without building a second map: one exact check per ``ivpp parse``, and a
    printed text that parses to another map still exits 1."""
    from ivpp import cli
    from ivpp.core import RationalMap
    from ivpp.dsl import format_map
    from ivpp.maps import f3d

    printed = format_map(f3d())
    src = tmp_path / "m.rmap"
    src.write_text(printed + "inv q = ((1-x)*(1-y)*(1-z))^3;\n")
    checked = []
    check = RationalMap._check_invariants
    monkeypatch.setattr(RationalMap, "_check_invariants", lambda m: (checked.append(m.invariants), check(m)))
    code, out, err = run_captured(["parse", str(src)])
    assert (code, err) == (0, "") and [[name for name, _ in invs] for invs in checked] == [["r", "s", "q"]]
    assert out.startswith(printed) and out[len(printed) :].startswith("inv q = ")
    assert out.count("\n") == printed.count("\n") + 1
    monkeypatch.setattr(cli, "format_map", lambda m: format_map(m).replace("inv q = ", "inv q = 2*"))
    assert run_captured(["parse", str(src)]) == (1, "", "round-trip mismatch\n")


def test_raster_writes_deterministic_pgm(tmp_path):
    args = [
        "raster",
        "--map",
        "f2d",
        "--period",
        "3",
        "--window=-4,4,-4,4",  # = form: the value starts with a dash
        "--res",
        "64x64",
        "-o",
        str(tmp_path / "a.pgm"),
        "--csv",
        str(tmp_path / "a.csv"),
    ]
    code, out, err = run_captured(args)
    assert code == 0, err
    args[-3] = str(tmp_path / "b.pgm")
    args[-1] = str(tmp_path / "b.csv")
    code, out, err = run_captured(args)
    assert code == 0, err
    a = (tmp_path / "a.pgm").read_bytes()
    b = (tmp_path / "b.pgm").read_bytes()
    assert a == b
    assert a.startswith(b"P5\n64 64\n255\n")
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_raster_lv(tmp_path):
    code, out, err = run_captured(
        [
            "raster",
            "--map",
            "f3d",
            "--period",
            "2",
            "--branch",
            "+",
            "--window=-3,3,-4,4",
            "--res",
            "60x40",
            "-o",
            str(tmp_path / "lv.pgm"),
        ]
    )
    assert code == 0, err
    assert (tmp_path / "lv.pgm").read_bytes().startswith(b"P5\n60 40\n255\n")


def test_denoms_pgm(tmp_path):
    code, out, err = run_captured(
        [
            "denoms",
            "--map",
            "f2d",
            "--k-max",
            "3",
            "--window=-4,4,-4,4",
            "--res",
            "50x50",
            "-o",
            str(tmp_path / "d.pgm"),
            "--csv",
            str(tmp_path / "d.csv"),
        ]
    )
    assert code == 0, err
    assert (tmp_path / "d.pgm").read_bytes().startswith(b"P5\n50 50\n255\n")
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[0] == "x,y,first_pole_k"
    assert len(lines) == 1 + 50 * 50


def test_raster_csv_bytes_match_the_per_cell_reference(tmp_path):
    b = branches(3)[0]
    R = raster(f2d(), JITTERED_WINDOW, (37, 23), n_max=8, branch=b)
    window = "--window=" + ",".join(repr(v) for v in JITTERED_WINDOW)
    argv = ["raster", "--period", "3", window, "--res", "37x23", "-o", str(tmp_path / "r.pgm")]
    code, _, err = run_captured(argv + ["--csv", str(tmp_path / "r.csv")])
    assert code == 0, err
    xs, ys = R.cells()
    want = csv_per_cell("x,y,period,component", xs, ys, (R.period, R.component))
    assert (tmp_path / "r.csv").read_bytes() == want


def _pgm_per_cell(grid) -> bytes:
    h, w = grid.shape
    body = bytes(min(255, max(0, int(grid[i, j]))) for i in reversed(range(h)) for j in range(w))
    return f"P5\n{w} {h}\n255\n".encode() + body


def test_pgm_bytes_match_the_per_cell_reference(tmp_path):
    """Both commands write their PGM through raster.write_pgm, with the top row at the largest y."""
    window = "--window=" + ",".join(repr(v) for v in JITTERED_WINDOW)
    zs = denominator_zero_curves(f2d(), 4, JITTERED_WINDOW, (29, 41))
    argv = ["denoms", "--k-max", "4", window, "--res", "29x41", "-o", str(tmp_path / "d.pgm")]
    code, _, err = run_captured(argv)
    assert code == 0, err
    assert (tmp_path / "d.pgm").read_bytes() == _pgm_per_cell(zs.first_pole_depth)
    R = raster(f2d(), JITTERED_WINDOW, (37, 23), n_max=8, tol=0.05)
    argv = ["raster", "--mode", "period", "--tol", "0.05", window, "--res", "37x23"]
    code, _, err = run_captured(argv + ["-o", str(tmp_path / "p.pgm")])
    assert code == 0, err
    assert (tmp_path / "p.pgm").read_bytes() == _pgm_per_cell(R.period)
    assert len(set(R.period.flat)) > 2  # the band tolerance gives a layer of several periods


def test_denoms_csv_bytes_match_the_per_cell_reference(tmp_path):
    zs = denominator_zero_curves(f2d(), 4, JITTERED_WINDOW, (29, 41))
    window = "--window=" + ",".join(repr(v) for v in JITTERED_WINDOW)
    argv = ["denoms", "--k-max", "4", window, "--res", "29x41", "-o", str(tmp_path / "d.pgm")]
    code, _, err = run_captured(argv + ["--csv", str(tmp_path / "d.csv")])
    assert code == 0, err
    xs, ys = cell_centers(JITTERED_WINDOW, (29, 41))
    want = csv_per_cell("x,y,first_pole_k", xs, ys, (zs.first_pole_depth,))
    assert (tmp_path / "d.csv").read_bytes() == want


NON_FINITE_LEVELS = [  # (argv, the refusal naming the flag)
    (["ivpp", "--map", "f3d", "--period", "2", "--r", "nan", "--s", "1"], "--r must be finite, got nan"),
    (["ivpp", "--map", "f3d", "--period", "2", "--r", "inf", "--s", "1"], "--r must be finite, got inf"),
    (["ivpp", "--map", "f3d", "--period", "2", "--r", "1", "--s", "inf"], "--s must be finite, got inf"),
    (["ivpp", "--map", "f3d", "--period", "2", "--r", "1", "--s", "nan"], "--s must be finite, got nan"),
    (["ivpp", "--map", "f3d", "--period", "2", "--r", "1", "--s=-inf"], "--s must be finite, got -inf"),
    (["ivpp", "--map", "f2d", "--period", "5", "--r", "nan"], "--r must be finite, got nan"),
    (["ivpp", "--map", "f2d", "--period", "5", "--r=-inf"], "--r must be finite, got -inf"),
    (["orbit", "--map", "f2d-reduced", "--start", "0", "--steps", "4", "--r", "inf"], "--r must be finite, got inf"),
    (["orbit", "--map", "f2d-reduced", "--start", "0", "--steps", "4", "--r", "nan"], "--r must be finite, got nan"),
    (["decompose", "--map", "f3d", "--period", "2", "--r", "inf"], "--r must be finite, got inf"),
    (["decompose", "--map", "f3d", "--period", "2", "--r", "nan"], "--r must be finite, got nan"),
]


GRID = ["--window=-4,4,-4,4", "--res", "4x4", "-o", "/tmp/x.pgm"]
UNREAD_FLAGS = [  # (argv, the flag that the map or mode never reads)
    (["raster", "--mode", "period", "--period", "99999", *GRID], "--period"),
    (["raster", "--mode", "period", "--period", "0", *GRID], "--period"),
    (["raster", "--map", "f2d", "--stripe", "0.9", *GRID], "--stripe"),
    (["raster", "--mode", "period", "--stripe", "0.25", *GRID], "--stripe"),
    (["orbit", "--map", "f2d", "--start", "1,2", "--steps", "1", "--r", "1"], "--r"),
    (["orbit", "--map", "lv-recurrence", "--start", "1", "--steps", "1", "--r", "1"], "--r"),
    (["ivpp", "--map", "f2d", "--period", "5", "--s", "1"], "--s"),
    (["decompose", "--map", "f2d", "--period", "5", "--r", "1"], "--r"),
    (["decompose", "--map", "f3d", "--period", "2", "--method", "empirical"], "--method"),
    (["boundaries", "--map", "lv-recurrence", "--period", "2", "--branch", "1"], "--branch"),
]


SAME_FILE = [  # -o and --csv naming one file, refused before any work
    ["raster", "--mode", "period", "--window=-1,1,-1,1", "--res", "8x8", "-o", "/tmp/x.pgm", "--csv", "/tmp/x.pgm"],
    ["denoms", "--window=-1,1,-1,1", "--res", "8x8", "-o", "/tmp/x.pgm", "--csv", "/tmp/../tmp//x.pgm"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--map", "f2d", "--period", "3", "--branch", "9"],
        ["decompose", "--period", "5", "--branch", "x"],
        ["boundaries", "--period", "5", "--branch", "1.5"],
        ["raster", "--period", "5", "--branch", "x", "--window=-4,4,-4,4", "--res", "4x4", "-o", "/tmp/x.pgm"],
        ["raster", "--mode", "period", "--branch", "1", "--window=-4,4,-4,4", "--res", "4x4", "-o", "/tmp/x.pgm"],
        ["raster", "--map", "f2d", "--period", "3", "--window", "bad", "--res", "8x8", "-o", "/tmp/x.pgm"],
        ["orbit", "--map", "nosuchmap", "--start", "1,2", "--steps", "1"],
        ["orbit", "--map", "f2d", "--start", "1", "--steps", "2"],
        ["orbit", "--map", "f2d-reduced", "--start", "1", "--steps", "2"],
        ["ivpp", "--map", "f3d", "--period", "2"],
        ["decompose", "--map", "f3d", "--period", "3"],
        ["orbit", "--map", "f2d", "--start", "2,-1.5", "--steps", "0"],
        ["orbit", "--map", "f2d", "--start", "2,-1.5", "--steps", "100001"],
        ["raster", "--mode", "period", "--window=-inf,inf,-1,1", "--res", "4x4", "-o", "/tmp/x.pgm"],
        ["raster", "--mode", "period", "--window=-1e308,1e308,-1,1", "--res", "4x4", "-o", "/tmp/x.pgm"],
        ["denoms", "--window=-inf,inf,-1,1", "--res", "4x4", "-o", "/tmp/x.pgm"],
        ["denoms", "--window=-1e308,1e308,-1,1", "--res", "4x4", "-o", "/tmp/x.pgm"],
        ["denoms", "--window=-1,1,-1,1", "--res", "5000x5000", "-o", "/tmp/x.pgm"],
        ["raster", "--map", "f3d", "--period", "2", "--window=-1,1,-1,1", "--res", "5000x5000",
         "-o", "/tmp/x.pgm"],
        ["ivpp", "--period", "1000000"],
        ["decompose", "--period", "4097"],
        ["boundaries", "--period", "1000000"],
        ["boundaries", "--map", "lv-recurrence", "--period", "0"],
        ["boundaries", "--map", "lv-recurrence", "--period", "-3"],
        ["orbit", "--start", "1,2", "--steps", "3", "--tol", "nan"],
        ["orbit", "--start", "1,2", "--steps", "3", "--tol", "-1"],
        ["raster", "--mode", "period", "--window=-4,4,-4,4", "--res", "4x4", "--tol", "inf", "-o", "/tmp/x.pgm"],
        ["raster", "--mode", "period", "--window=-4,4,-4,4", "--res", "4x4", "--tol", "2", "-o", "/tmp/x.pgm"],
        *(
            ["raster", "--map", "f3d", "--period", "2", "--window=-1,1,-1,1", "--res", "4x4", *bad, "-o", "/tmp/x.pgm"]
            for bad in (
                ["--tol", "2"], ["--tol", "nan"], ["--n-max", "0"], ["--stripe", "-1"], ["--stripe", "nan"],
                ["--branch", "q"],
            )
        ),
        ["decompose", "--map", "f3d", "--period", "2", "--branch", "x"],
        *(argv for argv, _ in NON_FINITE_LEVELS),
        *(argv for argv, _ in UNREAD_FLAGS),
        *SAME_FILE,
    ],
)
def test_usage_errors_exit_2(argv):
    code, out, err = run_captured(argv)
    assert code == 2
    assert err.strip()
    if "--branch" in argv:
        assert "--branch" in err  # the refusal names the flag
    unread = dict((tuple(a), flag) for a, flag in UNREAD_FLAGS).get(tuple(argv))
    if unread is not None:
        assert out == "" and err.startswith(f"error: {unread} ")
    refusal = dict((tuple(a), message) for a, message in NON_FINITE_LEVELS).get(tuple(argv))
    if refusal is not None:
        assert (out, err) == ("", f"error: {refusal}\n")
    if argv in SAME_FILE:
        assert (out, err) == ("", "error: -o and --csv name the same file '/tmp/x.pgm'\n")


def test_two_hard_links_of_one_file_are_refused_as_one_file(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.write_bytes(b"kept")
    os.link(first, second)
    argv = ["denoms", "--window=-1,1,-1,1", "--res", "8x8", "-o", str(first), "--csv", str(second)]
    assert run_captured(argv) == (2, "", f"error: -o and --csv name the same file {str(first)!r}\n")
    assert first.read_bytes() == b"kept"


def test_a_huge_exactly_conserved_invariant_is_accepted_and_printed_back(tmp_path):
    """The identity conserves every invariant, however large its
    coefficients: the exact check has no float range to overflow."""
    src = tmp_path / "m.rmap"
    src.write_text(f"dim 2; x' = x; y' = y; inv r = {'9' * 308}*x + 1;")
    assert run_captured(["parse", str(src)]) == (0, f"dim 2;\nx' = x;\ny' = y;\ninv r = {'9' * 308}*x + 1;\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["ivpp", "--period", "4097"],
        ["ivpp", "--map", "f3d", "--period", "1000000", "--r", "1", "--s", "1"],
        ["decompose", "--period", "1000000", "--method", "empirical"],
        ["decompose", "--map", "f3d", "--period", "4097"],
        ["boundaries", "--period", "4097"],
        ["boundaries", "--map", "lv-recurrence", "--period", "1000000"],
        ["raster", "--period", "4097", "--window=-1,1,-1,1", "--res", "4x4", "-o", "/nonexistent/x.pgm"],
    ],
)
def test_periods_above_the_cap_are_refused_before_any_work(monkeypatch, argv):
    from ivpp import cli, ivpp2d

    def refuse(*args, **kwargs):
        raise AssertionError("reached the period computation")

    for module in (cli, ivpp2d):
        monkeypatch.setattr(module, "branches", refuse)
        monkeypatch.setattr(module, "gamma_poly", refuse)
    monkeypatch.setattr(cli, "lv_gamma", refuse)
    period = argv[argv.index("--period") + 1]
    assert run_captured(argv) == (2, "", f"error: --period must be at most {ivpp2d.PERIOD_MAX}, got {period}\n")


def test_the_period_cap_admits_the_readme_period(tmp_path):
    from ivpp.ivpp2d import PERIOD_MAX

    assert PERIOD_MAX >= 4000  # the README's decompose --period 4000
    code, _, err = run_captured(["decompose", "--period", str(PERIOD_MAX), "-o", str(tmp_path / "d.json")])
    assert code == 0, err


def test_one_parser_per_process_answers_like_fresh_ones():
    from ivpp import cli

    argvs = [
        ["decompose", "--period", "5", "--method", "bogus"],  # argparse refuses: exit 2
        ["decompose", "--period", "5", "--branch", "2"],
        ["boundaries"],  # a missing required option
        ["decompose", "--period", "4", "--method", "empirical"],
    ]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run_captured(argv))
    assert [code for code, _, _ in fresh] == [2, 0, 2, 0]
    cli._build_parser.cache_clear()
    assert [run_captured(argv) for argv in argvs + argvs] == fresh + fresh
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "extra",
    [["--mode", "period", "--tol", "-1"], ["--n-max", "0"], ["--n-max", "40000"]],
)
def test_raster_refuses_out_of_contract_input(tmp_path, extra):
    out = tmp_path / "r.pgm"
    argv = ["raster", "--period", "3", "--window=-1,1,-1,1", "--res", "8x8", "-o", str(out)]
    code, _, err = run_captured(argv + extra)
    assert code == 2
    assert err.startswith("error:")
    assert not out.exists()


def test_user_2d_maps_cannot_borrow_builtin_branches(tmp_path):
    src = tmp_path / "other.rmap"
    src.write_text("dim 2; x' = (x + y)/(1 - x); y' = y;\n")
    for argv in (
        ["decompose", "--map", str(src), "--period", "3"],
        ["boundaries", "--map", str(src), "--period", "3"],
    ):
        code, out, err = run_captured(argv)
        assert code == 2
        assert err.strip()


def test_user_map_decomposition_via_file(tmp_path):
    """A 1d DSL map goes through the empirical boundary machinery."""
    src = tmp_path / "lv.rmap"
    src.write_text("dim 1; x' = -x/(1-x);\n")
    code, out, err = run_captured(["boundaries", "--map", str(src), "--period", "2"])
    assert code == 0, err
    first = out.splitlines()[1].split()[1]
    assert float(first) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "given, absent",
    [(["--map", "f3d", "--period", "2", "--stripe", "0.25"], ["--map", "f3d", "--period", "2"]), (["--period", "3"], [])],
    ids=["stripe", "period"],
)
def test_an_absent_period_or_stripe_takes_its_old_default(tmp_path, given, absent):
    grid = ["--window=-3,3,-5,5", "--res", "16x16", "-o"]
    assert run_captured(["raster", *given, *grid, str(tmp_path / "a.pgm")])[0] == 0
    assert run_captured(["raster", *absent, *grid, str(tmp_path / "b.pgm")])[0] == 0
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_an_overflowing_orbit_exits_1_without_a_traceback(tmp_path):
    path = tmp_path / "square.rmap"
    path.write_text("dim 2; x' = x^2 + y; y' = y;")
    code, out, err = run_captured(["orbit", "--map", str(path), "--start", "1e200,1", "--steps", "1"])
    assert (code, out) == (1, "") and err.startswith("error: ")
    code, out, err = run_captured(["orbit", "--map", str(path), "--start", "1e200,inf", "--steps", "1"])
    assert code == 0, err
    assert json.loads(out)["points"][1] == ["inf", "inf"]


HUGE = "9" * 309  # past the float range, which ends at 1.8e308
HUGE_MAPS = {  # name -> (source, {command: (exit code, stderr)} where not (0, ""))
    "times": (f"dim 1; x' = {HUGE}*x;", {"orbit": (1, "error: evaluation produced NaN\n")}),
    "minus": (f"dim 1; x' = -{HUGE}*x;", {"orbit": (1, "error: evaluation produced NaN\n")}),
    "over": (f"dim 1; x' = x/({HUGE} + x);", {}),
    "plane": (f"dim 2; x' = {HUGE}*x; y' = y;", {"orbit": (1, "error: evaluation produced NaN\n")}),
}


@pytest.mark.parametrize("name", sorted(HUGE_MAPS))
def test_a_coefficient_past_the_float_range_is_infinite_in_every_command(tmp_path, name):
    """A coefficient past the float range parses and prints exactly, and every
    command that evaluates the map runs with it as +-inf: an exit code and at
    most one error line, never a traceback.  inf * (0.5+0j) has a nan
    imaginary part, so the N*x orbits read nan; the 1d orbits do not return."""
    source, failing = HUGE_MAPS[name]
    path = tmp_path / f"{name}.rmap"
    path.write_text(source)
    dim = 2 if name == "plane" else 1
    grid = ["--window=-1,1,-1,1", "--res", "8x8", "-o"]
    commands = {"orbit": ["--start", ",".join(["0.5"] * dim), "--steps", "2"]}
    if dim == 1:
        commands["boundaries"] = ["--period", "3"]
        failing = {"boundaries": (1, "error: sampled points do not return after 3 steps\n"), **failing}
    else:
        commands["raster"] = [*grid, str(tmp_path / "raster.pgm"), "--mode", "period"]
        commands["denoms"] = [*grid, str(tmp_path / "denoms.pgm")]
    for command, argv in commands.items():
        code, out, err = run_captured([command, "--map", str(path), *argv])
        assert (code, err) == failing.get(command, (0, "")), (command, err)
        assert not (code and out)  # a refused run prints nothing
    assert [p.name for p in sorted(tmp_path.glob("*.pgm"))] == ([] if dim == 1 else ["denoms.pgm", "raster.pgm"])
    code, out, err = run_captured(["parse", str(path)])
    assert (code, err) == (0, "") and HUGE in out


def test_a_program_rounds_a_huge_coefficient_to_inf():
    """kernel.step and Polynomial.eval of x' = N*x, N past the float range,
    multiply by inf: on floats inf, nan at 0, -inf; on complex inf+nanj."""
    from ivpp.dsl import parse_map
    from ivpp.kernel import step

    m = parse_map(f"dim 1; x' = {HUGE}*x;")
    dens, (image,) = step(m, [np.array([0.5, 0.0, -2.0])])
    assert image[0] == math.inf and math.isnan(image[1]) and image[2] == -math.inf
    assert dens[0].tolist() == [1.0, 1.0, 1.0]
    value = m.components[0][0].eval([0.5])
    assert value.real == math.inf and math.isnan(value.imag)


def test_the_tolerance_defaults_are_the_library_constants():
    from ivpp.cli import _build_parser
    from ivpp.core import TOL_EQ
    from ivpp.raster import RASTER_TOL

    commands = _build_parser().commands
    assert commands["orbit"].get_default("tol") is TOL_EQ  # the constant itself, not a copy of its value
    assert commands["raster"].get_default("tol") is RASTER_TOL


def test_a_nan_limit_exits_1():
    argv = ["orbit", "--map", "f3d", "--start=-1e154,inf,1.6018347278853194e200+1e308j", "--steps", "1"]
    code, out, err = run_captured(argv)
    assert (code, out) == (1, "") and err.startswith("error: ")


# -- how outputs are written -------------------------------------------------------

OUTPUT_COMMANDS = {  # command -> (its argv before the output flags, the output flags)
    "raster": (["raster", "--period", "3", "--window=-4,4,-4,4", "--res", "24x16"], ["-o", "r.pgm", "--csv", "r.csv"]),
    "denoms": (["denoms", "--k-max", "3", "--window=-4,4,-4,4", "--res", "24x16"], ["-o", "d.pgm", "--csv", "d.csv"]),
    "decompose": (["decompose", "--period", "5"], ["-o", "d.json"]),
}


def _at(flags, folder, null=None):
    """The output flags with each file name put in ``folder``, and the one named ``null`` sent to /dev/null."""
    return [f if f.startswith("-") else os.devnull if f == null else str(folder / f) for f in flags]


@pytest.mark.parametrize("over", ["longer", "shorter"])
@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_an_output_written_over_an_existing_file_equals_a_fresh_one(tmp_path, command, over):
    """Every file is written in place and cut to what was written: no old tail stays."""
    argv, flags = OUTPUT_COMMANDS[command]
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    fresh.mkdir()
    old.mkdir()
    assert run_captured(argv + _at(flags, fresh)) == (0, "", "")
    for name in flags[1::2]:
        size = (fresh / name).stat().st_size
        (old / name).write_bytes(b"\xff" * (2 * size + 7 if over == "longer" else size // 2))
    assert run_captured(argv + _at(flags, old)) == (0, "", "")
    for name in flags[1::2]:
        assert (old / name).read_bytes() == (fresh / name).read_bytes()


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_an_output_to_dev_null_exits_0(tmp_path, command):
    argv, flags = OUTPUT_COMMANDS[command]
    for null in flags[1::2]:  # each output in turn, the others to files
        assert run_captured(argv + _at(flags, tmp_path, null)) == (0, "", "")


FLUSH_FAILS = """
import resource, signal, sys
from ivpp.raster import output

signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG instead
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
try:
    with output(sys.argv[1], "w") as fh:
        fh.write("a" * 5000)  # buffered: the first write to the file is the flush on leaving
except OSError as exc:
    print(exc.errno)
"""


def test_a_failed_flush_still_cuts_the_file(tmp_path):
    """The flush on leaving writes 4096 of 5000 bytes and fails: the file is cut there, with no old tail."""
    import errno

    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 50_000)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", FLUSH_FAILS, str(path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{errno.EFBIG}\n", "")
    assert path.read_bytes() == b"a" * 4096


def _readme_cli_examples():
    """The argv of every ``ivpp`` line in README's CLI block, its comment cut off."""
    import shlex

    block = (Path(__file__).parents[1] / "README.md").read_text().split("\n## CLI\n", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("ivpp ")]


PARSE_CASES = [
    [],
    ["-h"],
    ["raster", "-h"],
    ["nosuch"],
    ["decompose", "--period", "3", "--bogus"],
    ["decompose", "--period", "x"],
    ["raster", "--res", "8x8", "-o", "r.pgm"],  # no --window
    ["decompose", "--per", "3"],  # an abbreviation
    ["decompose", "--period", "3", "extra", "--bogus"],
    ["decompose", "--", "--period", "3"],
    ["--", "decompose", "--period", "3"],
]


def _run_in(directory, monkeypatch, argv, parse=None):
    """(exit code, stdout, stderr, the files written by name and bytes) of argv run in directory."""
    from ivpp import cli

    directory.mkdir()
    (directory / "mymap.rmap").write_text("dim 2;\nx' = y;\ny' = (1+y)/x;\n")
    monkeypatch.chdir(directory)
    with monkeypatch.context() as patch:
        if parse is not None:
            patch.setattr(cli, "_parse", parse)
        result = run_captured(argv)
    return result, {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("argv", _readme_cli_examples() + PARSE_CASES, ids=lambda argv: " ".join(argv) or "none")
def test_one_parse_pass_answers_as_the_top_level_parser(tmp_path, monkeypatch, argv):
    """A command's argv, parsed by that command's own parser, gives the same
    exit code, stdout, stderr and output files as parsing through the
    top-level parser: on every README CLI example, help, usage errors that
    either parser reports, leftover arguments and an abbreviated flag."""
    from ivpp import cli

    want = _run_in(tmp_path / "reference", monkeypatch, argv, lambda argv: cli._build_parser().parse_args(argv))
    assert _run_in(tmp_path / "one-pass", monkeypatch, argv) == want


def test_a_command_takes_one_parse_pass(monkeypatch):
    """parse_known_args runs once for a command's argv (the top-level parser
    ran it, then the command's parser again), and still twice where the
    top-level parser reads the argv."""
    import argparse

    real, passes = argparse.ArgumentParser.parse_known_args, []

    def counting(self, *args, **kwargs):
        passes.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert run_captured(["decompose", "--period", "3"])[0] == 0
    assert passes == ["ivpp decompose"]
    passes.clear()
    assert run_captured(["nosuch"])[0] == 2
    assert passes == ["ivpp"]
