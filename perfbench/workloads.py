"""The benchmark's workloads: one scenario config per workload.

Each workload is a scenario JSON document handed to the four CLI
commands.  The seed enters only as ``seeds.audit``, which drives the
audit's random sample points and the Lipschitz sampling of
``estimate``; the solves themselves do not depend on it, so every seed
does the same amount of solver work.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERFBENCH_DIR.parent

# four times the CLI's default, so that an audit lasts about half a
# second: a 0.15 s command is timed too coarsely on a shared machine
AUDIT_SAMPLES = 400


def _demo_smooth_bgk() -> dict:
    # configs/demo_smooth_bgk.json, copied so that an edit of the demo
    # does not change the benchmark
    return {
        "manifold": {"kind": "conservative_moment", "size": 2},
        "collision": {"kind": "bgk", "tau": 0.1},
        "velocity_grid": {"half_width": 9.0, "cells": 64},
        "spatial_mesh": {"cells": 200, "length": 1.0},
        "initial_condition": {"preset": "sine-density", "rho0": 1.0, "amplitude": 0.2,
                              "u": 0.0, "theta": 1.0},
        "time": {"final": 0.5, "cfl": 0.45, "output_interval": 0.05},
        "norms": {"p": 2.0},
    }


def _cm2_bgk_sine() -> dict:
    # the shipped demo scenario, cut at t = 0.05: past the fold
    # crossings (all of the run's cold starts happen before t = 0.02)
    # and at the first output time at which the bound dominates
    doc = _demo_smooth_bgk()
    doc["time"]["final"] = 0.05
    doc["audit"] = {"samples": AUDIT_SAMPLES}
    return doc


def _hermite4_generic() -> dict:
    # generic quasi-linear path: no moment inversion at all; it ends
    # before t ~ 0.068, where the Hermite tail dips below zero and the
    # run fails (see CHANGES.md)
    doc = _demo_smooth_bgk()
    doc["manifold"] = {"kind": "hermite_perturbation", "size": 4}
    doc["spatial_mesh"]["cells"] = 100
    doc["time"] = {"final": 0.05, "cfl": 0.45, "output_interval": 0.005}
    doc["audit"] = {"samples": AUDIT_SAMPLES}
    return doc


def _cm4_shakhov_mix() -> dict:
    # homogeneous relaxation through the Maxwellian fold: the projection
    # of the initial field and its cold starts dominate `reduce`
    return {
        "manifold": {"kind": "conservative_moment", "size": 4},
        "collision": {"kind": "shakhov", "tau": 0.2, "prandtl": 2.0 / 3.0},
        "velocity_grid": {"half_width": 10.0, "cells": 128},
        "spatial_mesh": {"cells": 16, "length": 1.0},
        # unequal halves, so the heat flux is nonzero
        "initial_condition": {"preset": "two-maxwellian-mix",
                              "rho1": 0.7, "u1": -0.6, "theta1": 0.6,
                              "rho2": 0.3, "u2": 1.4, "theta2": 0.5},
        "time": {"final": 0.3, "cfl": 0.45, "output_interval": 0.05},
        "norms": {"p": 2.0},
        "audit": {"samples": 200, "max_degree": 8, "dimension": 3},
    }


WORKLOADS = {
    "cm2_bgk_sine": _cm2_bgk_sine,
    "hermite4_generic": _hermite4_generic,
    "cm4_shakhov_mix": _cm4_shakhov_mix,
}


def scenario(name: str, seed: int) -> dict:
    """The scenario document of workload ``name`` for ``seed``."""
    doc = WORKLOADS[name]()
    doc["seeds"] = {"audit": int(seed) % 2**32}
    return doc
