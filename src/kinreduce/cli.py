"""Batch front door: reduce / reference / audit / estimate.

Exit codes: 0 success (audit failures are *reported*, not fatal),
2 configuration or input mismatch, 3 runtime solver error.
Given identical configs the data outputs are byte-identical across
runs; manifests additionally carry wall-clock timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import io as kio
from .config import ScenarioConfig, load_config, parse_config
from .errors import ConfigurationError, KinReduceError, ParameterError
from .error_estimator import build_error_report
# not called here; they stay module attributes because
# perfbench/tracing.py wraps them by name
from .error_estimator import actual_error, lipschitz_estimate, residual_norm_series  # noqa: F401
from .kinetic import CollisionModel, SpatialMesh
from .reduced_solver import ReducedTrajectory, run_reduced
from .reference_solver import KineticTrajectory, run_reference
from .stability import (
    AuditSample,
    HermiteSpace,
    assemble_yong_report,
    gusc_check,
    hyperbolicity_audit,
    linearized_collision_matrix,
    propagation_speed_audit,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _config_hash(cfg: ScenarioConfig) -> str:
    return kio.sha256_text(json.dumps(cfg.raw, sort_keys=True, separators=(",", ":")))


def cmd_reduce(cfg: ScenarioConfig, out_dir: Path) -> int:
    t0 = _time.perf_counter()
    traj = run_reduced(
        cfg.manifold(),
        cfg.model(),
        cfg.initial_field(),
        cfg.final_time,
        cfl=cfg.cfl,
        output_interval=cfg.output_interval,
    )
    return _write_run(cfg, out_dir, "reduce", traj, traj.omegas, _time.perf_counter() - t0)


def cmd_reference(cfg: ScenarioConfig, out_dir: Path) -> int:
    t0 = _time.perf_counter()
    traj = run_reference(
        cfg.model(),
        cfg.initial_field(),
        cfg.final_time,
        cfl=cfg.cfl,
        output_interval=cfg.output_interval,
    )
    return _write_run(cfg, out_dir, "reference", traj, traj.snapshots,
                      _time.perf_counter() - t0)


def cmd_audit(cfg: ScenarioConfig, out_dir: Path) -> int:
    t0 = _time.perf_counter()
    manifold = cfg.manifold()
    grid = cfg.grid()
    sample = AuditSample(manifold, cfg.audit_samples, grid, seed=cfg.audit_seed)
    hyp = hyperbolicity_audit(sample)
    speed = propagation_speed_audit(sample)

    gusc = {}
    dim = cfg.audit_dimension
    space = HermiteSpace(dim, cfg.audit_max_degree)
    for kind in ("bgk", "shakhov", "esbgk"):
        prandtl = cfg.prandtl
        if kind == "esbgk":
            prandtl = max(prandtl, (dim - 1) / dim + 1e-9)
        model = CollisionModel(kind=kind, tau=cfg.tau, prandtl=prandtl)
        D = linearized_collision_matrix(model, space)
        lam = min(prandtl, 1.0) / cfg.tau if kind != "bgk" else 1.0 / cfg.tau
        if cfg.audit_lambda_claim is not None and kind == cfg.collision_kind:
            lam = cfg.audit_lambda_claim
        rep = gusc_check(D, space.w0_projector(), lam)
        gusc[kind] = {
            "worst_quotient": rep.worst_quotient,
            "lambda_claim": rep.lambda_claim,
            "pass": rep.passed,
            "gwsc_pass": rep.gwsc_passed,
            "kernel_defect": rep.kernel_defect,
        }

    yong = assemble_yong_report(manifold, cfg.model(), grid)
    payload = {
        "hyperbolicity": {
            "samples": hyp.samples,
            "max_asymmetry": hyp.max_asymmetry,
            "pass": hyp.passed,
        },
        "speed": {
            "max_radius": speed.max_radius,
            "L": speed.bound,
            "margin": speed.margin,
            "pass": speed.passed,
        },
        "gusc": gusc,
        "yong": {
            "block_defect": yong.block_defect,
            "block_pass": yong.block_passed,
            "symmetry_defect": yong.symmetry_defect,
            "symmetry_pass": yong.symmetry_passed,
            "dissipativity_constant": yong.dissipativity_constant,
            "dissipativity_pass": yong.dissipativity_passed,
            "gwsc_pass": yong.gwsc_passed,
        },
        "config_sha256": _config_hash(cfg),
        "timings_seconds": {"audit": _time.perf_counter() - t0},
    }
    kio.write_json(out_dir / "stability.json", payload)
    return EXIT_OK


# the snapshot file of each kind of run directory
_FRAMES = {"reduce": "omega_snapshots.bin", "reference": "snapshots.bin"}


def _write_run(cfg, out_dir: Path, kind: str, traj, frames, elapsed: float) -> int:
    """Write the run directory that ``_load_run`` reads: the totals and
    entropy per output time in trajectory.csv, the snapshot ``frames``,
    and manifest.json."""
    labels = [f"c{k}" for k in range(traj.moment_totals.shape[1])]
    rows = [[t, *m, e] for t, m, e in zip(traj.times, traj.moment_totals, traj.entropy)]
    kio.write_csv(out_dir / "trajectory.csv", ["time", *labels, "entropy"], rows)
    kio.write_snapshots(out_dir / _FRAMES[kind], frames, traj.grid.half_width, traj.mesh.dx)
    chash = _config_hash(cfg)
    kio.write_json(out_dir / "manifest.json", {
        "config": cfg.raw,
        "config_sha256": chash,
        "outputs": {
            name: {"sha256": kio.sha256_file(out_dir / name), "config_sha256": chash}
            for name in ("trajectory.csv", _FRAMES[kind])
        },
        "timings_seconds": {"solve": elapsed},
        "kind": kind,
        "times": [format(t, ".17g") for t in traj.times],
        "mesh": {"cells": traj.mesh.cells, "length": traj.mesh.length},
        "velocity_grid": {"half_width": traj.grid.half_width, "nodes": len(traj.grid)},
    })
    return EXIT_OK


def _load_run(run_dir: Path, kind: str):
    """Manifest, scenario and snapshot frames of a ``reduce`` or
    ``reference`` run.  The frames must match the manifest: one per
    output time, one row per mesh cell, one column per manifold
    parameter (reduce) or velocity node (reference), and the header's
    half width and dx."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("kind") != kind:
        raise ParameterError(f"{run_dir} does not hold {kind} outputs")
    cfg = parse_config(manifest["config"])
    mesh, vgrid = manifest["mesh"], manifest["velocity_grid"]
    path = run_dir / _FRAMES[kind]
    cols = cfg.manifold().dim if kind == "reduce" else vgrid["nodes"]
    frames, half_width, dx = kio.read_snapshots(path)
    shape = (len(manifest["times"]), mesh["cells"], cols)
    if frames.shape != shape:
        raise ParameterError(
            f"{path} holds (frames, rows, columns) = {frames.shape}, "
            f"its manifest describes {shape}"
        )
    if half_width != vgrid["half_width"] or dx != mesh["length"] / mesh["cells"]:
        raise ParameterError(
            f"{path} has half width {half_width} and dx {dx}, its manifest "
            f"describes {vgrid['half_width']} and {mesh['length'] / mesh['cells']}"
        )
    return manifest, cfg, frames


def cmd_estimate(reduce_dir: Path, ref_dir: Path, out_dir: Path) -> int:
    red_man, red_cfg, omegas = _load_run(reduce_dir, "reduce")
    ref_man, ref_cfg, snaps = _load_run(ref_dir, "reference")
    if red_man["mesh"] != ref_man["mesh"] or red_man["velocity_grid"] != ref_man["velocity_grid"]:
        raise ParameterError("reduce/reference manifests describe different grids")
    # a finer reference run may change cfl, and the manifold, norms,
    # seeds and audit sections do not enter the reference at all
    for section, red, ref in (
        ("collision", red_cfg.model(), ref_cfg.model()),
        ("initial_condition", (red_cfg.ic_preset, red_cfg.ic_params),
         (ref_cfg.ic_preset, ref_cfg.ic_params)),
    ):
        if red != ref:
            raise ParameterError(
                f"reduce/reference runs describe different scenarios: "
                f"{section} {red} against {ref}")
    times_red = np.array([float(t) for t in red_man["times"]])
    times_ref = np.array([float(t) for t in ref_man["times"]])
    if times_red.shape != times_ref.shape or not np.allclose(
        times_red, times_ref, rtol=0.0, atol=1e-10
    ):
        raise ParameterError("reduce/reference output times do not match")

    grid = red_cfg.grid()
    mesh = SpatialMesh(cells=red_man["mesh"]["cells"], length=red_man["mesh"]["length"])
    model = red_cfg.model()
    traj = ReducedTrajectory(
        manifold=red_cfg.manifold(),
        grid=grid,
        mesh=mesh,
        times=times_red,
        omegas=omegas,
        moment_totals=np.zeros((times_red.size, 1)),
        entropy=np.zeros(times_red.size),
        model=model,
    )
    ref = KineticTrajectory(
        grid=grid,
        mesh=mesh,
        times=times_ref,
        snapshots=snaps,
        moment_totals=np.zeros((times_ref.size, 1)),
        entropy=np.zeros(times_ref.size),
    )
    rep = build_error_report(traj, ref, model, red_cfg.p, seed=red_cfg.audit_seed)

    kio.write_csv(
        out_dir / "error.csv",
        ["time", "residual_norm", "bound", "actual", "ratio"],
        zip(rep.times, rep.residual_norms, rep.bound, rep.actual, rep.ratio),
    )
    kio.write_json(
        out_dir / "error_summary.json",
        {
            "p": rep.p,
            "lipschitz": rep.lipschitz,
            "lipschitz_kind": "empirical",
            "bound_final": float(rep.bound[-1]),
            "actual_final": float(rep.actual[-1]),
            "dominated": not rep.violated,
            "reduce_config_sha256": red_man["config_sha256"],
            "reference_config_sha256": ref_man["config_sha256"],
        },
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kinreduce",
        description="reduced kinetic moment models: runs, audits and error bounds",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("reduce", "integrate the reduced moment system"),
        ("reference", "integrate the discrete-velocity reference solver"),
        ("audit", "run the stability audits"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", required=True, help="output directory")
    p = sub.add_parser("estimate", help="a posteriori error report from two runs")
    p.add_argument("--reduce-dir", required=True, help="directory with reduce outputs")
    p.add_argument("--reference-dir", required=True, help="directory with reference outputs")
    p.add_argument("--out", required=True, help="output directory")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "estimate":
            reduce_dir = Path(args.reduce_dir)
            ref_dir = Path(args.reference_dir)
            for d in (reduce_dir, ref_dir):
                if not (d / "manifest.json").is_file():
                    print(f"error: missing manifest in {d}", file=sys.stderr)
                    return EXIT_CONFIG
            try:
                return cmd_estimate(reduce_dir, ref_dir, out_dir)
            except (ParameterError, ConfigurationError, OSError, KeyError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        cfg = load_config(args.config)
        if args.command == "reduce":
            return cmd_reduce(cfg, out_dir)
        if args.command == "reference":
            return cmd_reference(cfg, out_dir)
        return cmd_audit(cfg, out_dir)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KinReduceError as exc:
        where = []
        if getattr(exc, "cell", None) is not None:
            where.append(f"cell {exc.cell}")
        if getattr(exc, "time", None) is not None:
            where.append(f"t = {exc.time:.6g}")
        at = f" ({', '.join(where)})" if where else ""
        print(f"runtime error{at}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
