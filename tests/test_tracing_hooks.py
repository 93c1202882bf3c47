"""perfbench/tracing.py wraps kinreduce's module attributes by name.  A
refactor that drops or renames one of them must fail here, not only
under ``perfbench/run.py --trace 1``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = sys.argv[1:3]
import tracing
tracing.install(tracing.Recorder())
import kinreduce.reduced_solver as reduced_solver
assert reduced_solver.step.__wrapped__
"""


def test_benchmark_tracer_installs():
    # -B: write no bytecode under perfbench/
    run = subprocess.run(
        [sys.executable, "-B", "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert run.returncode == 0, run.stderr
