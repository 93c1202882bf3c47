"""Spans around calls into kinreduce's layers, recorded from outside.

``install`` replaces the module attributes that the callers look up
(``kinreduce.reduced_solver.recover_batch``, ``kinreduce.cli.actual_error``,
...) with wrappers that record one span per call: name, start, end, the
index of the enclosing span, whether the call returned, and a small
count (rows inverted, bytes written).  Spans are kept in memory and
written out by ``Recorder.dump`` when the traced command ends.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, ok, count]
        self._stack = []

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(args)`` gives the span's work count."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, False, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                spans[idx][4] = True
                return result
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
                if count is not None:
                    spans[idx][5] = count(args)

        setattr(owner, attr, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _rows(args):
    # recover_batch(manifold, targets, grid, ...): one row per cell
    return len(np.atleast_2d(args[1]))


def _bytes_written(args):
    return os.path.getsize(args[0]) if os.path.exists(args[0]) else 0


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer."""
    import kinreduce.ansatz as ansatz
    import kinreduce.cli as cli
    import kinreduce.error_estimator as error_estimator
    import kinreduce.io as kio
    import kinreduce.reduced_solver as reduced_solver
    import kinreduce.reference_solver as reference_solver
    import kinreduce.stability as stability

    w = recorder.wrap
    for command in ("reduce", "reference", "estimate", "audit"):
        w(cli, f"cmd_{command}", f"cli.{command}")
    # ansatz: inversions asked for by the solver, and those made inside
    # the ansatz module (the fallback ladder and the initial projection)
    w(reduced_solver, "recover_batch", "ansatz.recover", _rows)
    w(ansatz, "recover_batch", "ansatz.recover_nested", _rows)
    w(ansatz.ConservativeMoment, "cold_start_candidates", "ansatz.cold_start")
    w(reduced_solver, "initial_state", "ansatz.project_initial")
    # reduced solver
    w(reduced_solver, "step", "reduced_solver.step")
    w(reduced_solver, "_cm_speeds", "reduced_solver.speeds")
    w(reduced_solver, "spectral_radius", "reduced_solver.speeds")
    w(reduced_solver, "_cm_rhs", "reduced_solver.rhs")
    w(reduced_solver, "_generic_rhs", "reduced_solver.rhs")
    # projection
    w(reduced_solver, "assemble_coefficients", "projection.assemble")
    w(error_estimator, "residual", "projection.residual")
    # kinetic: per-cell entropy when either solver records a frame
    w(reduced_solver, "entropy_density", "kinetic.entropy")
    w(reference_solver, "entropy_density", "kinetic.entropy")
    # reference solver
    w(reference_solver, "transport_step", "reference_solver.transport")
    w(reference_solver, "relaxation_step", "reference_solver.relax")
    # error estimator
    w(cli, "residual_norm_series", "error_estimator.residual_series")
    w(cli, "lipschitz_estimate", "error_estimator.lipschitz")
    w(error_estimator, "collision_profile", "error_estimator.lipschitz_eval")
    w(cli, "actual_error", "error_estimator.actual_error")
    # stability
    w(cli, "hyperbolicity_audit", "stability.hyperbolicity")
    w(cli, "propagation_speed_audit", "stability.speed_audit")
    w(cli, "linearized_collision_matrix", "stability.gusc")
    w(cli, "gusc_check", "stability.gusc")
    w(cli, "assemble_yong_report", "stability.yong")
    w(stability, "spectral_radius", "stability.spectral_radius")
    # io
    # JSON files carry wall-clock timings, so only the data files' bytes
    # repeat exactly
    w(kio, "write_csv", "io.write", _bytes_written)
    w(kio, "write_snapshots", "io.write", _bytes_written)
    w(kio, "write_json", "io.write")
    w(kio, "read_snapshots", "io.read")
