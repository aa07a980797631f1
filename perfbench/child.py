"""One benchmark process: set up ivpp, then run one workload as a closed loop.

``run.py`` starts this file in a fresh interpreter with ``PYTHONPATH=src``
and ``IVPP_THREADS=1``.  One client sends each CLI command, in process
through ``ivpp.cli``, after the previous one has finished and been
checked.  Only whole passes over the workload's commands run: the first
always, and each further one if, by the longest pass so far, it is
predicted to end nearer to ``--seconds`` than stopping now would.  So a run
measures about ``--seconds``, attempts each command equally often, and its
share of failed commands does not depend on where the time ran out.  Only the
commands are timed; the checks are not.  A short speed probe runs before
each command so that ``run.py`` can scale the times to a reference machine
speed.  The result is one JSON line on stdout.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --workload tiles --seed 1 --seconds 30 [--trace] --workdir DIR
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

np = None  # numpy, bound after set-up so that its import counts in set-up time


def set_up(tracer_wanted: bool):
    """Import ivpp and build the two built-in maps, as every CLI user's process does."""
    import ivpp  # noqa: F401  (imports numpy too)

    tracer = None
    if tracer_wanted:
        import layertrace

        tracer = layertrace.install()
        tracer.enabled = True
    from ivpp import maps

    maps.get_map("f2d")
    maps.get_map("f3d")
    setup_s = time.perf_counter() - SETUP_START
    if tracer is not None:
        tracer.enabled = False
    return setup_s, tracer


_PROBE = None  # the probe's arrays, made on first use


def speed_probe():
    """Seconds of a fixed pure-Python loop and of fixed numpy array streaming, neither ivpp's.

    Run before every command, they follow the machine's speed, which on a
    shared host drifts by up to 2x over tens of seconds.  The numpy part
    streams 8 MiB buffers made once, so it allocates nothing and what the
    program leaves in the process does not move it.
    """
    global _PROBE
    if _PROBE is None:
        x = np.linspace(0.1, 2.0, 1 << 20)
        _PROBE = (x, np.empty_like(x))
    x, buf = _PROBE
    t0 = time.perf_counter()
    acc = 0j
    for i in range(12000):
        acc += complex(i, 1) * (1.5 - 0.25j) / (i + 1.0)
    t1 = time.perf_counter()
    for _ in range(4):
        np.multiply(x, x, out=buf)
        np.divide(x, buf, out=buf)
        np.add(buf, x, out=buf)
    return t1 - t0, time.perf_counter() - t1


def layer_metrics(tracer, workload, request_prefix: str) -> dict:
    """The per-layer numbers of one pass (or of set-up), from its spans and counts."""
    total, own, counts = tracer.take(request_prefix)
    cells = counts["kernel.cells"]
    checks = counts["core.detect_period.calls"]
    return {
        "kernel.period_grid.s": total["kernel.period_grid"],
        "kernel.cells": cells,
        "kernel.useful_frac": counts["kernel.useful_cells"] / cells if cells else 0.0,
        "raster.raster.s": total["raster.raster"],
        "raster.component_pass.s": own["raster.raster"],
        "core.detect_period.calls": checks,
        "core.apply.calls": counts["core.apply.calls"],
        "raster.snap_useful_frac": counts["raster.classified_cells"] / checks if checks else 0.0,
        "raster.to_pgm_bytes.s": total["raster.to_pgm_bytes"],
        "raster.to_csv.s": total["raster.to_csv"],
        "raster.bytes_written": counts["raster.bytes_written"],
        "denoms.zero_curves.s": total["denoms.zero_curves"],
        "poly.eval_grid.calls": counts["poly.eval_grid.calls"],
        "denoms.curve_bytes": counts["denoms.curve_bytes"],
        "decompose.empirical.s": total["decompose.empirical"],
        "decompose.sigma.s": own["decompose.decompose"],
        "core.eval_raw.calls": counts["core.eval_raw.calls"],
        "decompose.boundary_recall": workload.boundary_recall(tracer.empirical)
        if workload is not None
        else 0.0,
        "dsl.parse_map.s": total["dsl.parse_map"],
        "maps.get_map.s": total["maps.get_map"],
    }


def run_workload(args, tracer) -> dict:
    import workloads
    from ivpp import cli, kernel

    rng = random.Random(args.seed)
    workload = workloads.BUILDERS[args.workload](rng, args.workdir)
    setup_layers = layer_metrics(tracer, None, "setup") if tracer else None

    passes, failures = [], {}  # failures: command key -> last reason
    attempted = failed = wrong = 0
    start = time.perf_counter()
    longest = 0.0  # seconds of the longest pass so far
    while not passes or time.perf_counter() - start + longest / 2 <= args.seconds:
        pass_start = time.perf_counter()
        order = list(workload.commands)
        rng.shuffle(order)
        times, probes = {}, []
        for cmd in order:
            probes.append(speed_probe())
            if tracer:
                tracer.request = f"pass{len(passes)}:{cmd.key}"
                tracer.enabled = True
            t0 = time.perf_counter()
            code, _, err = cli.run_captured(cmd.argv)
            times[cmd.key] = time.perf_counter() - t0
            if tracer:
                tracer.enabled = False
            attempted += 1
            if code != 0:
                reason = f"exit {code}: {err.strip()}"
            else:
                try:
                    reason = cmd.check()
                except (OSError, ValueError, KeyError) as exc:
                    reason = f"unreadable output: {exc}"
            if reason is not None:
                failed += 1
                wrong += code == 0
                failures[cmd.key] = reason
        record = {"times": times, "probes": probes}
        if tracer:
            record["layers"] = layer_metrics(tracer, workload, f"pass{len(passes)}:")
            tracer.empirical.clear()
        passes.append(record)
        longest = max(longest, time.perf_counter() - pass_start)

    result = {
        "attempted": attempted,
        "failed": failed,
        "wrong_outputs": wrong,  # exit 0 but an output check failed
        "failures": failures,
        "commands": len(workload.commands),
        "passes": passes,
        "work_per_pass": workload.work_per_pass,
        "work_unit": workload.work_unit,
        "probe": workload.probe,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "backend": kernel.BACKEND,
            "IVPP_THREADS": os.environ.get("IVPP_THREADS"),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    if tracer:
        result["setup_layers"] = setup_layers
        spans_dir = os.path.dirname(os.path.abspath(args.workdir))
        tracer.dump(os.path.join(spans_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--workdir")
    args = ap.parse_args()

    setup_s, tracer = set_up(args.trace)
    global np
    import numpy as np
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(run_workload(args, tracer))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
