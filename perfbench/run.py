#!/usr/bin/env python3
"""The ivpp benchmark: times whole CLI commands and, in a traced run, their layers.

    python3 perfbench/run.py --workload tiles|layers|boundaries --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; it needs only
Python and numpy, and runs ivpp from ``src/`` without building anything.
Each workload runs in its own fresh single-threaded process
(``PYTHONPATH=src``, ``IVPP_THREADS=1``) as a closed loop: one client sends
each command after the previous one has finished.  The seed jitters the
raster windows and shuffles the command order; see ``workloads.py``.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, the set-up time
(median of seven fresh interpreters importing ivpp and building f2d and
f3d); ``wall_s``, the time of one pass (each command's median time over
the passes, summed) and the throughput (grid cells or branches per
second); ``peak_rss_mb``; and ``ok_frac``, the share of the workload's
commands that never failed.  The host's speed drifts by up to 2x over
tens of seconds, so the JSON carries the pass time and throughput scaled
to a reference speed (``adj_wall_s``, ``adj_work_per_s``): a fixed probe
of pure-Python and numpy work that ivpp never runs is timed before every
command, and each command's time is multiplied by the reference time of
the probe part that matches the workload's kind of work over that part's
time (see ``probe_speed``).  The printed lines show both.

``--trace 1`` runs the workload once untraced and once with the layer
wrappers of ``layertrace.py``, each for half the time, and prints the
per-layer metrics (medians over the passes) and the tracing overhead
(traced minus untraced pass time, both at the reference speed).  The last
line of the output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

A command fails when it exits nonzero or its output fails a check.
``correct`` is false when a command exited 0 with a wrong output.
Spans of a traced run are written to ``.perfbench/spans-*.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Why each workload is in the benchmark; the tiles/layers pair puts one
# optimisation's mechanism on each side (the component pass never reads the
# raw period layer, the layers outputs always do).
WHY = {
    "tiles": (
        "component rasters of the paper's tiling figures; grid kernel plus the scalar "
        "snapped-period pass, whose output never reads the period layer"
    ),
    "layers": (
        "outputs that read the raw layers: period rasters of f2d (nearly all 0) and Lyness "
        "(nearly all 5), pole depths, and the CSV write path"
    ),
    "boundaries": (
        "empirical decompose on all 39 branches of n=3..16 against the analytic cuts; "
        "pure scalar Python, no grid kernel"
    ),
}
WORKLOADS = tuple(WHY)
SETUP_RUNS = 11
DEADLINE_S = 170.0  # every run must end within 180 s

PER_LAYER_UNITS = {
    "kernel.period_grid.s": "s",
    "kernel.cells": "count",
    "kernel.useful_frac": "frac",
    "raster.raster.s": "s",
    "raster.component_pass.s": "s",
    "core.detect_period.calls": "count",
    "core.apply.calls": "count",
    "raster.snap_useful_frac": "frac",
    "raster.to_pgm_bytes.s": "s",
    "raster.to_csv.s": "s",
    "raster.bytes_written": "bytes",
    "denoms.zero_curves.s": "s",
    "poly.eval_grid.calls": "count",
    "denoms.curve_bytes": "bytes",
    "decompose.empirical.s": "s",
    "decompose.sigma.s": "s",
    "core.eval_raw.calls": "count",
    "decompose.boundary_recall": "frac",
    "dsl.parse_map.s": "s",
    "maps.get_map.s": "s",
}
SETUP_LAYERS = ("dsl.parse_map.s", "maps.get_map.s")  # measured over one fresh set-up


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        IVPP_THREADS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args, deadline: float) -> dict:
    """Run child.py with ``args``; return its JSON result, killing it at the deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a run")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# seconds of the probe's pure-Python and numpy parts, near their typical times on the 2-CPU Xeon host
PROBE_REF_S = {"python": 0.005, "numpy": 0.012}


def probe_speed(probe, kind: str) -> float:
    """How fast the host ran a probe, relative to the reference, for one kind of work.

    Scalar Python and numpy streaming slow down by different amounts when the
    shared host is busy, so a workload is scaled by the probe part that does
    its kind of work (``Workload.probe``): "python", "numpy", or "both" for
    the geometric mean of the two.
    """
    py, np_ = PROBE_REF_S["python"] / probe[0], PROBE_REF_S["numpy"] / probe[1]
    return {"python": py, "numpy": np_, "both": (py * np_) ** 0.5}[kind]


def command_seconds(result: dict, adjusted: bool = False) -> dict:
    """Each command's median time over its repetitions, one in each pass.

    An adjusted time is scaled to the reference speed by the probe that ran
    just before the command (``probe_speed``).
    """
    reps = defaultdict(list)
    for p in result["passes"]:
        for (key, t), probe in zip(p["times"].items(), p["probes"]):
            reps[key].append(t * probe_speed(probe, result["probe"]) if adjusted else t)
    return {key: statistics.median(ts) for key, ts in reps.items()}


def pass_seconds(result: dict, adjusted: bool = False) -> float:
    """Time of one pass: each command's median time, summed."""
    return sum(command_seconds(result, adjusted).values())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def print_env(result: dict, workload: str, seed: int, seconds: float) -> None:
    env = result["env"]
    print(
        f"# env backend={env['backend']} IVPP_THREADS={env['IVPP_THREADS']} nproc={os.cpu_count()} "
        f"cpu={cpu_model()!r} python={env['python']} numpy={env['numpy']}"
    )
    print(
        f"# workload {workload} seed={seed} seconds={seconds:g}: closed loop, 1 client, "
        f"{len(result['passes'][0]['times'])} commands/pass, "
        f"{len(result['passes'])} whole pass(es), speed probe {result['probe']!r}"
    )
    print(f"# why: {WHY[workload]}")


def print_failures(results) -> None:
    for result in results:
        for key, reason in sorted(result["failures"].items()):
            print(f"# failed: {key}: {reason[:300]}")


def end_to_end(args, deadline: float, workdir: Path):
    run_child(["--setup-only"], deadline)  # warm the file cache and bytecode; not counted
    setups = [run_child(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_RUNS)]
    result = run_child(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--workdir", str(workdir)],
        deadline,
    )
    wall, adj_wall = pass_seconds(result), pass_seconds(result, adjusted=True)
    work = result["work_per_pass"]
    # share of the workload's commands that never failed; runs are whole passes, so this is also
    # 1 - failed / attempted
    ok_frac = 1.0 - len(result["failures"]) / result["commands"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "adj_wall_s": (adj_wall, "s"),
        "adj_work_per_s": (work / adj_wall, "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_frac": (ok_frac, "frac"),
    }
    print_env(result, args.workload, args.seed, args.seconds)
    for key, t in command_seconds(result).items():
        print(f"#   {key:<40} {t:.4f} s")
    unit = result["work_unit"]
    print(f"{'setup_s':<18} {metrics['setup_s'][0]:.4f} s  (median of {SETUP_RUNS} fresh interpreters)")
    print(f"{'wall_s':<18} {wall:.4f} s  (one pass, as measured)")
    print(f"{unit + '_per_s':<18} {work / wall:.6g} {unit}/s  (as measured)")
    print(f"{'adj_wall_s':<18} {adj_wall:.4f} s  (wall_s at the reference speed)")
    print(f"{'adj_work_per_s':<18} {metrics['adj_work_per_s'][0]:.6g} {unit}/s  (at the reference speed)")
    print(f"{'peak_rss_mb':<18} {result['peak_rss_mb']:.1f} MB")
    print(
        f"{'failed_frac':<18} {len(result['failures'])}/{result['commands']} commands = "
        f"{1.0 - ok_frac:.4f}  (reported as ok_frac = {ok_frac:.4f}); "
        f"{result['failed']}/{result['attempted']} runs of them failed"
    )
    print_failures([result])
    return [result], metrics


def per_layer(args, deadline: float, workdir: Path):
    # the untraced and the traced child share the run's time
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds / 2),
              "--workdir", str(workdir)]
    plain = run_child(common, deadline)
    traced = run_child(common + ["--trace"], deadline)
    print_env(traced, args.workload, args.seed, args.seconds)
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in SETUP_LAYERS:
            value = traced["setup_layers"][name]
        else:
            value = statistics.median(p["layers"][name] for p in traced["passes"])
        metrics[name] = (value, unit)
        print(f"{name:<28} {value:.6g} {unit}")
    wall_plain, wall_traced = pass_seconds(plain, True), pass_seconds(traced, True)
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    metrics["trace.overhead_frac"] = ((wall_traced - wall_plain) / wall_plain, "frac")
    print(
        f"{'trace.overhead_s':<28} {wall_traced - wall_plain:.4f} s  "
        f"(traced pass {wall_traced:.4f} s, untraced {wall_plain:.4f} s)"
    )
    print(f"{'trace.overhead_frac':<28} {metrics['trace.overhead_frac'][0]:.4f}")
    print_failures([plain, traced])
    return [plain, traced], metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ivpp" / "cli.py").is_file():
        print(f"error: no ivpp sources under {ROOT / 'src'}; run inside a checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            results, metrics = per_layer(args, deadline, workdir)
        else:
            results, metrics = end_to_end(args, deadline, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = {
        "correct": all(r["wrong_outputs"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
