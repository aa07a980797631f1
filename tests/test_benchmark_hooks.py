"""The benchmark traces ivpp's layers by wrapping them by name (perfbench/layertrace.py).

Renaming a traced function or method must fail here, not only in a traced
benchmark run.
"""

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
