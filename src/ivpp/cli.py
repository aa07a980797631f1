"""Command-line front end.

Subcommands: orbit, ivpp, decompose, boundaries, raster, denoms, parse,
verify.  Exit codes: 0 success, 1 verification/computation failure,
2 usage error (diagnostics go to stderr).  Outputs are deterministic for
fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import List, Optional, Tuple

from . import serialize
from .core import TOL_EQ, Indeterminate, Point, RationalMap
from .decompose import (
    BOUNDARY_TOL,
    NoClosure,
    NotACycle,
    boundaries_analytic,
    boundaries_empirical,
    compare_boundaries,
    decompose,
)
from .denoms import cell_centers, denominator_zero_curves
from .dsl import ParseDiagnostic, format_map, maps_equal, parse_map, parse_source
from .ivpp2d import PERIOD_MAX, branches, gamma_poly
from .lv3d import lv_decompose_period2, lv_gamma
from .maps import BUILTINS, get_map
from .raster import RASTER_TOL, check_period_args, lv_raster, output, raster, write_csv, write_pgm

MAX_ORBIT_STEPS = 100_000


class UsageError(ValueError):
    pass


def _load_map(spec: str, r=None) -> RationalMap:
    if spec in BUILTINS:
        return get_map(spec, r=r)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read map {spec!r}: {exc}") from None
    return parse_map(text)


def _parse_window(text: str) -> Tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("window must be x0,x1,y0,y1")
    x0, x1, y0, y1 = (float(p) for p in parts)
    if not (x0 < x1 and y0 < y1):
        raise UsageError("window must be nonempty")
    return (x0, x1, y0, y1)


def _parse_resolution(text: str) -> Tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise UsageError("resolution must be WxH")
    w, h = int(parts[0]), int(parts[1])
    if w <= 0 or h <= 0:
        raise UsageError("resolution must be positive")
    return (w, h)


def _parse_start(text: str, dim: int) -> Point:
    parts = text.split(",")
    if len(parts) != dim:
        raise UsageError(f"start needs {dim} comma-separated values")
    return Point([complex(p) for p in parts])  # "inf" and "-inf" are the point at infinity


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with output(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_period(n: int) -> None:
    """Refuse a period above the cap before any work on it."""
    if n > PERIOD_MAX:
        raise UsageError(f"--period must be at most {PERIOD_MAX}, got {n}")


def _check_finite(args, *flags: str) -> None:
    """Refuse a non-finite value of any of the named float flags."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{flag} must be finite, got {value}")


def _unread(args, flag: str, where: str) -> None:
    """Refuse a flag, None unless given, that the command never reads here."""
    if getattr(args, flag) is not None:
        raise UsageError(f"--{flag} is not read {where}")


def _f3d_sign(selector: Optional[str]) -> str:
    """The sheet of the 3d map that --branch names: + when absent, else + or -."""
    if selector not in (None, "+", "-"):
        raise UsageError(f"--branch of the 3d map must be + or -, got {selector!r}")
    return selector or "+"


def _pick_branch(n: int, selector: str):
    """The f2d branch that --branch names, an integer 1..len(branches(n))."""
    bs = branches(n)
    try:
        idx = int(selector)
    except ValueError:
        idx = 0
    if not 1 <= idx <= len(bs):
        raise UsageError(f"period {n} has {len(bs)} branch(es); --branch must be 1..{len(bs)}, got {selector!r}")
    return bs[idx - 1]


# -- subcommands ---------------------------------------------------------------


def _cmd_orbit(args) -> int:
    if not 1 <= args.steps <= MAX_ORBIT_STEPS:
        raise UsageError(f"--steps must be 1..{MAX_ORBIT_STEPS}")
    _check_finite(args, "r")
    if args.map != "f2d-reduced":
        _unread(args, "r", "by any map but f2d-reduced")
    m = _load_map(args.map, r=args.r)
    start = _parse_start(args.start, m.dim)
    trace = m.iterate(start, args.steps, tol=args.tol)
    doc = {
        "map": m.name or args.map,
        "steps": args.steps,
        "points": [list(p.coords) for p in trace.points],
        "closed": trace.closed,
        "minimal_period": trace.minimal_period,
    }
    _emit(serialize.dumps(doc), args.output)
    return 0


def _cmd_ivpp(args) -> int:
    _check_period(args.period)
    _check_finite(args, "r", "s")
    if args.map == "f3d":
        if args.r is None or args.s is None:
            raise UsageError("f3d level conditions need --r and --s")
        doc = {"map": "f3d", "period": args.period, "gamma": complex(lv_gamma(args.period, args.r, args.s))}
        _emit(serialize.dumps(doc), args.output)
        return 0
    if args.map != "f2d":
        raise UsageError("period conditions are available for the built-ins f2d and f3d")
    _unread(args, "s", "by the f2d period condition")
    g = gamma_poly(args.period)
    doc = {
        "map": "f2d",
        "period": args.period,
        "monic": list(g.monic),
        "scaled": list(g.scaled),
        "scale": g.scale,
        "branches": [{"m": b.m, "rho": b.rho, "label": b.label} for b in branches(args.period)],
    }
    if args.r is not None:
        doc["gamma_at_r"] = complex(g.at(args.r))
    _emit(serialize.dumps(doc), args.output)
    return 0


def _cmd_decompose(args) -> int:
    _check_period(args.period)
    _check_finite(args, "r")
    if args.map == "f3d":
        if args.period != 2:
            raise UsageError("the 3d map is decomposed at period 2 only")
        if args.method == "empirical":
            raise UsageError("--method empirical is not read by the 3d map, which is decomposed analytically")
        d = lv_decompose_period2(args.r if args.r is not None else 0.0, _f3d_sign(args.branch))
        _emit(serialize.dumps(d.to_json_dict()), args.output)
        return 0
    if args.map != "f2d":
        raise UsageError(
            "decomposition needs a built-in branch parametrization (f2d or f3d); "
            "for 1d maps use the boundaries subcommand"
        )
    _unread(args, "r", "by the f2d decomposition")
    b = _pick_branch(args.period, args.branch or "1")
    d = decompose(b, method=args.method)
    _emit(serialize.dumps(d.to_json_dict()), args.output)
    return 0


def _cmd_boundaries(args) -> int:
    _check_period(args.period)
    m = _load_map(args.map)
    if m.dim == 2:
        if m.name != "f2d":
            raise UsageError(
                "2d boundary comparison needs the f2d branch parametrization; "
                "supply one through the library API for custom maps"
            )
        b = _pick_branch(args.period, args.branch or "1")
        ana = boundaries_analytic(b)
        emp = boundaries_empirical(m, b.coords, args.period)
    elif m.dim == 1:
        _unread(args, "branch", "by a 1d map")
        ana = None
        emp = boundaries_empirical(m, lambda x: (x,), args.period)
    else:
        raise UsageError("boundaries supports 1d and 2d maps")
    if ana is None:
        lines = ["#   empirical"] + [f"{i:<3d} {v:.15g}" for i, v in enumerate(emp)]
        _emit("\n".join(lines) + "\n", args.output)
        return 0
    rows, worst = compare_boundaries(ana, emp)
    lines = ["#   analytic              empirical             |diff|"]
    for i, (u, v, diff) in enumerate(rows):
        cells = ("" if c is None else format(c, ".15g") for c in (u, v))
        lines.append(f"{i:<3d} " + "".join(f"{c:<21} " for c in cells) + f"{diff:.2e}")
    lines.append(f"max |diff| = {worst:.3e}")
    _emit("\n".join(lines) + "\n", args.output)
    if worst < BOUNDARY_TOL:
        return 0
    sys.stderr.write(
        f"error: {len(emp)} empirical vs {len(ana)} analytic boundaries, "
        f"max |diff| {worst:.3e} not below {BOUNDARY_TOL:g}\n"
    )
    return 1


def _cmd_raster(args) -> int:
    window = _parse_window(args.window)
    res = _parse_resolution(args.resolution)
    if args.map == "f3d":
        if args.period != 2:
            raise UsageError("the 3d striped raster is period 2 only")
        check_period_args(args.n_max, args.tol)
        stripe = 0.25 if args.stripe is None else args.stripe
        R = lv_raster(window, res, sign=_f3d_sign(args.branch), stripe_half_width=stripe)
    else:
        _unread(args, "stripe", "by any map but f3d")
        m = _load_map(args.map)
        if args.mode == "component":
            if m.name != "f2d":
                raise UsageError("component rasters need the f2d branches; use --mode period")
            period = 3 if args.period is None else args.period
            _check_period(period)
            b = _pick_branch(period, args.branch or "1")
            R = raster(m, window, res, n_max=args.n_max, tol=args.tol, branch=b)
        else:
            _unread(args, "branch", "by --mode period")
            _unread(args, "period", "by --mode period")
            R = raster(m, window, res, n_max=args.n_max, tol=args.tol)
    R.to_pgm(args.output, "component" if args.mode == "component" else "period")
    if args.csv:
        R.to_csv(args.csv)
    return 0


def _cmd_denoms(args) -> int:
    m = _load_map(args.map)
    window = _parse_window(args.window)
    res = _parse_resolution(args.resolution)
    depth = denominator_zero_curves(m, args.k_max, window, res).first_pole_depth
    write_pgm(args.output, depth)
    if args.csv:
        xs, ys = cell_centers(window, res)
        write_csv(args.csv, "x,y,first_pole_k", xs, ys, (depth,))
    return 0


def _cmd_parse(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    m = parse_map(text)
    normalized = format_map(m)
    if not maps_equal(m, parse_source(normalized)):  # the printed text, without a second check
        sys.stderr.write("round-trip mismatch\n")
        return 1
    _emit(normalized, args.output)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(printer=lambda line: sys.stdout.write(line + "\n"))
    failed = [r for r in results if not r.passed]
    sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return 1 if failed else 0


# -- wiring ---------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state between calls.
    Its ``commands`` attribute maps each command's name to its own parser."""
    top = argparse.ArgumentParser(prog="ivpp", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    top.commands = sub.choices

    def add_common(p, with_map=True):
        if with_map:
            p.add_argument("--map", default="f2d", help="built-in name or a .rmap file")
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("orbit", help="iterate a map and print the trace as JSON")
    add_common(p)
    p.add_argument("--start", required=True, help="comma-separated coordinates")
    p.add_argument("--steps", type=int, required=True, help=f"1..{MAX_ORBIT_STEPS}")
    p.add_argument("--tol", type=float, default=TOL_EQ)
    p.add_argument("--r", type=float, default=None, help="level for f2d-reduced")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("ivpp", help="period conditions and branches")
    add_common(p)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.set_defaults(fn=_cmd_ivpp)

    p = sub.add_parser("decompose", help="component decomposition as JSON")
    add_common(p)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--branch", default=None, help="branch index (2d) or +/- (3d)")
    p.add_argument("--method", choices=("analytic", "empirical"), default="analytic")
    p.add_argument("--r", type=float, default=None, help="slice level for the 3d map")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("boundaries", help="analytic vs empirical boundary table")
    add_common(p)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--branch", default=None)
    p.set_defaults(fn=_cmd_boundaries)

    p = sub.add_parser("raster", help="tiling raster as PGM (and optional CSV)")
    p.add_argument("--map", default="f2d")
    p.add_argument("--period", type=int, default=None, help="default 3; the 3d map needs 2")
    p.add_argument("--branch", default=None)
    p.add_argument("--window", required=True, help="x0,x1,y0,y1")
    p.add_argument("--res", dest="resolution", required=True, help="WxH")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--tol", type=float, default=RASTER_TOL)
    p.add_argument("--mode", choices=("component", "period"), default="component")
    p.add_argument("--stripe", type=float, default=None, help="half-width of 3d level stripes, default 0.25")
    p.add_argument("--csv", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_raster)

    p = sub.add_parser("denoms", help="first-pole-depth layers of map iterates")
    p.add_argument("--map", default="f2d")
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--window", required=True)
    p.add_argument("--res", dest="resolution", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_denoms)

    p = sub.add_parser("parse", help="parse a .rmap file and print the normalized form")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.set_defaults(fn=_cmd_verify)

    return top


# ValueError covers UsageError, SemanticError, DegenerateBranch, UnsupportedPeriod and InfiniteCoordinate
USAGE_ERRORS = (ParseDiagnostic, ValueError, OSError)
COMPUTE_ERRORS = (NotACycle, NoClosure, Indeterminate)


def _parse(argv: List[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, in one argparse pass where argv
    starts with a command: that command's own parser reads the rest, which
    is what the top-level parser hands it, and leftover arguments are
    refused by the top-level parser, as it refuses them.  Anything else (no
    argv, -h, an unknown word) goes through the top-level parser."""
    top = _build_parser()
    command = top.commands.get(argv[0]) if argv else None
    if command is None:
        return top.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        top.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def run(argv: List[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        csv = getattr(args, "csv", None)
        if csv:  # -o's file again, which one would overwrite: by identity where both exist, else by name
            exist = os.path.exists(csv) and os.path.exists(args.output)
            if os.path.samefile(csv, args.output) if exist else os.path.realpath(csv) == os.path.realpath(args.output):
                raise UsageError(f"-o and --csv name the same file {args.output!r}")
        return args.fn(args)
    except COMPUTE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except USAGE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run_captured(argv: List[str]) -> Tuple[int, str, str]:
    """Run a CLI invocation in-process, capturing stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
