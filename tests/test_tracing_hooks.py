"""perfbench/tracing.py wraps kinreduce's module attributes by name.  A
refactor that drops or renames one of them, or that calls a layer
through a reference taken before the tracer replaced it, must fail
here, not only under ``perfbench/run.py --trace 1``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUNS = """
import json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import tracing
recorder = tracing.Recorder()
tracing.install(recorder)
import numpy as np
from kinreduce import (CollisionModel, ConservativeMoment, DistributionField,
                       HermitePerturbation, MomentState, SpatialMesh, maxwellian,
                       truncated_rule)
import kinreduce.cli as cli
import kinreduce.reduced_solver as reduced_solver
import kinreduce.reference_solver as reference_solver
from kinreduce.config import parse_config

assert reduced_solver.step.__wrapped__
grid = truncated_rule(9.0, 64)
mesh = SpatialMesh(cells=4, length=1.0)
rho = 1.0 + 0.1 * np.sin(2 * np.pi * mesh.centers())
f0 = DistributionField(
    rho[:, None] * maxwellian(MomentState(1.0, 0.0, 1.0), grid)[None, :], grid, mesh)
model = CollisionModel(kind="bgk", tau=0.5)
runs = {
    "cm2": lambda: reduced_solver.run_reduced(ConservativeMoment(2), model, f0, 0.01),
    "hermite3": lambda: reduced_solver.run_reduced(HermitePerturbation(3), model, f0, 0.01),
    "reference": lambda: reference_solver.run_reference(model, f0, 0.01),
    "audit": lambda: cli.cmd_audit(parse_config({
        "manifold": {"kind": "conservative_moment", "size": 2},
        "collision": {"kind": "shakhov", "tau": 0.5, "prandtl": 2 / 3},
        "velocity_grid": {"half_width": 9.0, "cells": 64},
        "spatial_mesh": {"cells": 4, "length": 1.0},
        "initial_condition": {"preset": "maxwellian", "rho": 1.0, "u": 0.0, "theta": 1.0},
        "time": {"final": 0.0},
        "audit": {"samples": 8, "max_degree": 4},
    }), Path(sys.argv[3])),
}
seen = {}
for name, run in runs.items():
    first = len(recorder.spans)
    run()
    seen[name] = sorted({span[0] for span in recorder.spans[first:]})
print(json.dumps(seen))
"""

SOLVER_SPANS = {
    "cm2": ("reduced_solver.step", "reduced_solver.rhs", "reduced_solver.speeds",
            "ansatz.recover", "ansatz.project_initial", "kinetic.entropy"),
    "hermite3": ("reduced_solver.step", "reduced_solver.rhs", "ansatz.project_initial",
                 "kinetic.entropy"),
    "reference": ("reference_solver.transport", "reference_solver.relax", "kinetic.entropy"),
    # each audit records its own span, so merging the audits into one call fails here
    "audit": ("stability.hyperbolicity", "stability.speed_audit", "stability.gusc",
              "stability.yong"),
}


def test_benchmark_tracer_installs(tmp_path):
    # -B: write no bytecode under perfbench/
    run = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_RUNS, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    for name, spans in SOLVER_SPANS.items():
        missing = [span for span in spans if span not in seen[name]]
        assert not missing, f"{name}: no spans for {missing}; recorded {seen[name]}"
