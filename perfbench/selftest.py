#!/usr/bin/env python3
"""Self-test of the layer trace: its counts repeat exactly between two traced runs on one seed.

    python3 perfbench/selftest.py [--workload tiles|layers|boundaries] [--seed N]

Runs one traced pass of each chosen workload twice, in two fresh
processes, and compares every per-layer metric that is not a time
(``kernel.cells``, ``core.detect_period.calls``, ``core.eval_raw.calls``,
``decompose.boundary_recall`` and the rest).  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=run.WORKLOADS, action="append")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    counted = [name for name, unit in run.PER_LAYER_UNITS.items() if unit != "s"]
    workdir = run.ROOT / ".perfbench" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for workload in args.workload or run.WORKLOADS:
            child_args = ["--workload", workload, "--seed", str(args.seed), "--seconds", "0",
                          "--workdir", str(workdir), "--trace"]
            first, second = (
                run.run_child(child_args, time.monotonic() + 600)["passes"][0]["layers"]
                for _ in range(2)
            )
            for name in counted:
                same = first[name] == second[name]
                bad += not same
                print(f"{workload:<11} {name:<28} {first[name]!r:>14} {second[name]!r:>14}"
                      f"  {'same' if same else 'DIFFERENT'}")
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("counts repeat exactly" if not bad else f"{bad} counts differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
