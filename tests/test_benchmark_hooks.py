"""The benchmark traces ivpp's layers by wrapping them by name (perfbench/layertrace.py).

Renaming a traced function or method must fail here, not only in a traced
benchmark run; so must renaming, or changing the type of, what the
workloads' output checks call (perfbench/workloads.py).  Every command of
the ``boundaries`` and ``tiles`` workloads must pass, so their ok_frac cannot
drop unseen.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_trace_hooks_install():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    script = "import sys; sys.path.insert(0, 'perfbench'); import layertrace; layertrace.install()"
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


WORKLOAD_SCRIPT = """
import json, random, sys, tempfile
sys.path.insert(0, 'perfbench')
import workloads
with tempfile.TemporaryDirectory() as workdir:
    sizes = {name: len(build(random.Random(0), workdir).commands) for name, build in workloads.BUILDERS.items()}
images = {}
for name, (n, image_class) in (('f2d', workloads._f2d_image_class(3, 1)), ('f3d', workloads._f3d_image_class())):
    for x in (0.5, 1.0, 2.0):
        succ = image_class(x)
        images[f'{name} {x}'] = None if succ is None else [[type(v).__name__, v] for v in map(succ, range(1, n + 1))]
print(json.dumps({'sizes': sizes, 'images': images}))
"""


def test_benchmark_workloads_build_and_check_with_the_library():
    """The workloads' checks call the library as the paper's reference: a map
    step and a branch point (``apply``, ``point``, ``ExtendedComplex``'s
    ``is_infinite`` and ``value``), ``classify`` and ``sigma``.  Building
    every workload and asking both successor rules at x = 0.5, 1 (a pole)
    and 2 must give these answers, of these types."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", WORKLOAD_SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["sizes"] == {"tiles": 5, "layers": 4, "boundaries": 39}
    mid, right = [["bool", False], ["bool", True], ["bool", False]], [["bool", False], ["bool", False], ["bool", True]]
    want = {f"{name} {x}": v for name in ("f2d", "f3d") for x, v in ((0.5, mid), (1.0, None), (2.0, right))}
    assert got["images"] == want


BOUNDARIES_SCRIPT = """
import random, sys, tempfile
sys.path.insert(0, 'perfbench')
import workloads
from ivpp import cli
with tempfile.TemporaryDirectory() as workdir:
    for cmd in workloads.boundaries(random.Random(0), workdir).commands:
        code, _, err = cli.run_captured(cmd.argv)
        reason = err.strip() if code else cmd.check()
        print(cmd.key, 'ok' if reason is None else reason)
"""


def test_benchmark_boundaries_commands_all_pass():
    """Every command of the ``boundaries`` workload, empirical decompose on all
    39 branches of n = 3..16, exits 0 and passes its output check, so the
    workload's ok_frac is 1."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDARIES_SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    results = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    assert len(results) == 39
    assert {key: reason for key, reason in results.items() if reason != "ok"} == {}


TILES_SCRIPT = """
import random, sys, tempfile
sys.path.insert(0, 'perfbench')
import workloads
from ivpp import cli
with tempfile.TemporaryDirectory() as workdir:
    commands = workloads.tiles(random.Random(0), workdir).commands
    for rep in range(2):
        for cmd in commands:
            code, _, err = cli.run_captured(cmd.argv)
            reason = err.strip() if code else cmd.check()
            print(f'{cmd.key}#{rep}', 'ok' if reason is None else reason)
"""


def test_benchmark_tiles_commands_all_pass():
    """Every command of the ``tiles`` workload, the component and striped PGMs
    of the paper's tiling figures, exits 0 and passes its output check, twice:
    the second pass must write each PGM byte for byte as the first (the
    check's repeat digest).  About 1 s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", TILES_SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    results = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    assert len(results) == 10
    assert {key: reason for key, reason in results.items() if reason != "ok"} == {}


TRACED_EMPIRICAL_SCRIPT = """
import json, sys
sys.path.insert(0, 'perfbench')
import layertrace
from ivpp import cli
from ivpp.ivpp2d import branches
tracer = layertrace.install()
tracer.enabled = True
code, _, err = cli.run_captured(['decompose', '--period', '7', '--branch', '2', '--method', 'empirical'])
tracer.enabled = False
doc = {'code': code, 'err': err, 'm': branches(7)[1].m}
doc['empirical'] = [[list(key), [repr(c) for c in cuts]] for key, cuts in tracer.empirical.items()]
print(json.dumps(doc))
"""


def test_the_tracer_holds_the_cuts_of_a_traced_empirical_decompose():
    """The benchmark's ``decompose.boundary_recall`` reads the cuts that the
    tracer takes from ``boundaries_empirical``'s param (its second argument,
    the bound ``branch.coords``).  One empirical decompose run under the
    tracer must leave that branch's cuts there, the analytic ones within
    1e-7, so the recall cannot fall to 0 unseen."""
    import math

    from ivpp.decompose import boundaries_analytic
    from ivpp.ivpp2d import branches

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_EMPIRICAL_SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert (got["code"], got["err"]) == (0, "")
    [(key, cuts)] = got["empirical"]
    assert key == [7, got["m"]]
    want = boundaries_analytic(branches(7)[1])
    cuts = [float(c) for c in cuts]
    assert len(cuts) == len(want) == 7 and math.isinf(cuts[-1])
    assert all(abs(c - w) < 1e-7 for c, w in zip(cuts[:-1], want[:-1]))
