"""Scenario configuration: a strict JSON document.

All quantities are nondimensional.  Unknown keys are rejected at every
level so that typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ansatz import ConservativeMoment, EntropyClosure, HermitePerturbation, Manifold
from .errors import ConfigurationError
from .kinetic import CollisionModel, DistributionField, MomentState, SpatialMesh, maxwellian
from .quadrature import QuadratureRule, truncated_rule

__all__ = ["ScenarioConfig", "load_config", "parse_config"]

_IC_PRESETS = ("maxwellian", "sine-density", "two-maxwellian-mix")


@dataclass(frozen=True)
class ScenarioConfig:
    manifold_kind: str
    manifold_size: int
    collision_kind: str
    tau: float
    prandtl: float
    half_width: float
    velocity_cells: int
    space_cells: int
    length: float
    ic_preset: str
    ic_params: dict
    final_time: float
    cfl: float
    output_interval: float
    p: float
    audit_seed: int
    audit_samples: int
    audit_max_degree: int
    audit_dimension: int
    audit_lambda_claim: float | None
    raw: dict = field(repr=False, default_factory=dict)

    def manifold(self) -> Manifold:
        if self.manifold_kind == "conservative_moment":
            return ConservativeMoment(self.manifold_size)
        if self.manifold_kind == "hermite_perturbation":
            return HermitePerturbation(self.manifold_size)
        return EntropyClosure(self.manifold_size)

    def model(self) -> CollisionModel:
        return CollisionModel(kind=self.collision_kind, tau=self.tau, prandtl=self.prandtl)

    def grid(self) -> QuadratureRule:
        return truncated_rule(self.half_width, self.velocity_cells)

    def mesh(self) -> SpatialMesh:
        return SpatialMesh(cells=self.space_cells, length=self.length)

    def initial_field(self) -> DistributionField:
        grid = self.grid()
        mesh = self.mesh()
        x = mesh.centers()
        p = self.ic_params
        if self.ic_preset == "maxwellian":
            row = maxwellian(
                MomentState(rho=p["rho"], u=p["u"], theta=p["theta"]), grid
            )
            vals = np.tile(row, (mesh.cells, 1))
        elif self.ic_preset == "sine-density":
            rho = p["rho0"] * (1.0 + p["amplitude"] * np.sin(2.0 * np.pi * x / mesh.length))
            if np.any(rho <= 0.0):
                raise ConfigurationError("sine-density amplitude makes density nonpositive")
            c = grid.nodes[None, :] - p["u"]
            vals = rho[:, None] / np.sqrt(2.0 * np.pi * p["theta"]) * np.exp(
                -c * c / (2.0 * p["theta"])
            )
        else:  # two-maxwellian-mix
            m1 = maxwellian(MomentState(rho=p["rho1"], u=p["u1"], theta=p["theta1"]), grid)
            m2 = maxwellian(MomentState(rho=p["rho2"], u=p["u2"], theta=p["theta2"]), grid)
            vals = np.tile(m1 + m2, (mesh.cells, 1))
        return DistributionField(vals, grid, mesh)


def _require_keys(section: dict, allowed: dict, where: str):
    """allowed maps key -> required flag."""
    for key in section:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {where}.{key}")
    for key, required in allowed.items():
        if required and key not in section:
            raise ConfigurationError(f"missing key {where}.{key}")


def _section(doc: dict, key: str) -> dict:
    """The section ``doc[key]``, {} when absent; it must be an object."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigurationError(f"{key} must be a JSON object")
    return section


def _number(section, key, where, lo=None, hi=None, integer=False, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigurationError(f"missing key {where}.{key}")
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigurationError(f"{where}.{key} must be a number, got {val!r}")
    try:
        finite = np.isfinite(float(val))
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ConfigurationError(f"{where}.{key} must be finite, got {val!r}")
    if integer and int(val) != val:
        raise ConfigurationError(f"{where}.{key} must be an integer, got {val!r}")
    if lo is not None and val < lo:
        raise ConfigurationError(f"{where}.{key} = {val} is below the minimum {lo}")
    if hi is not None and val > hi:
        raise ConfigurationError(f"{where}.{key} = {val} exceeds the maximum {hi}")
    return int(val) if integer else float(val)


def parse_config(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("configuration must be a JSON object")
    _require_keys(
        doc,
        {
            "manifold": True,
            "collision": True,
            "velocity_grid": True,
            "spatial_mesh": True,
            "initial_condition": True,
            "time": True,
            "norms": False,
            "seeds": False,
            "audit": False,
        },
        "config",
    )

    man = _section(doc, "manifold")
    _require_keys(man, {"kind": True, "size": True}, "manifold")
    kind = man["kind"]
    if kind not in ("conservative_moment", "hermite_perturbation", "entropy_closure"):
        raise ConfigurationError(f"unknown manifold kind {kind!r}")
    lo = {"conservative_moment": 0, "hermite_perturbation": 2, "entropy_closure": 1}[kind]
    hi = {"conservative_moment": 10, "hermite_perturbation": 10, "entropy_closure": 7}[kind]
    size = _number(man, "size", "manifold", lo=lo, hi=hi, integer=True)

    col = _section(doc, "collision")
    _require_keys(col, {"kind": True, "tau": True, "prandtl": False}, "collision")
    ckind = col["kind"]
    if ckind not in ("bgk", "shakhov", "esbgk"):
        raise ConfigurationError(f"unknown collision kind {ckind!r}")
    tau = _number(col, "tau", "collision", lo=np.finfo(float).tiny)
    prandtl = _number(col, "prandtl", "collision", lo=1e-12, default=1.0)

    vg = _section(doc, "velocity_grid")
    _require_keys(vg, {"half_width": True, "cells": True}, "velocity_grid")
    half_width = _number(vg, "half_width", "velocity_grid", lo=1e-12)
    vcells = _number(vg, "cells", "velocity_grid", lo=1, hi=4096, integer=True)

    sm = _section(doc, "spatial_mesh")
    _require_keys(sm, {"cells": True, "length": True, "periodic": False}, "spatial_mesh")
    scells = _number(sm, "cells", "spatial_mesh", lo=1, hi=100000, integer=True)
    length = _number(sm, "length", "spatial_mesh", lo=1e-12)
    if sm.get("periodic", True) is not True:
        raise ConfigurationError("spatial_mesh.periodic must be true (only periodic meshes)")

    ic = _section(doc, "initial_condition")
    if "preset" not in ic:
        raise ConfigurationError("missing key initial_condition.preset")
    preset = ic["preset"]
    if preset not in _IC_PRESETS:
        raise ConfigurationError(f"unknown initial-condition preset {preset!r}")
    param_spec = {
        "maxwellian": {"rho": (1e-12, None), "u": (None, None), "theta": (1e-12, None)},
        "sine-density": {
            "rho0": (1e-12, None),
            "amplitude": (0.0, 0.999),
            "u": (None, None),
            "theta": (1e-12, None),
        },
        "two-maxwellian-mix": {
            "rho1": (1e-12, None),
            "u1": (None, None),
            "theta1": (1e-12, None),
            "rho2": (1e-12, None),
            "u2": (None, None),
            "theta2": (1e-12, None),
        },
    }[preset]
    allowed = {"preset": True, **{k: True for k in param_spec}}
    _require_keys(ic, allowed, "initial_condition")
    ic_params = {
        k: _number(ic, k, "initial_condition", lo=bounds[0], hi=bounds[1])
        for k, bounds in param_spec.items()
    }

    tm = _section(doc, "time")
    _require_keys(tm, {"final": True, "cfl": False, "output_interval": False}, "time")
    final = _number(tm, "final", "time", lo=0.0)
    cfl = _number(tm, "cfl", "time", lo=1e-6, hi=0.999, default=0.45)
    out_int = _number(
        tm, "output_interval", "time", lo=1e-12, default=max(final, 1e-12)
    )

    norms = _section(doc, "norms")
    _require_keys(norms, {"p": False}, "norms")
    p = _number(norms, "p", "norms", lo=1.0 + 1e-9, hi=64.0, default=2.0)

    seeds = _section(doc, "seeds")
    _require_keys(seeds, {"audit": False}, "seeds")
    audit_seed = _number(seeds, "audit", "seeds", lo=0, integer=True, default=0)

    audit = _section(doc, "audit")
    _require_keys(
        audit,
        {"samples": False, "max_degree": False, "dimension": False, "lambda_claim": False},
        "audit",
    )
    audit_samples = _number(audit, "samples", "audit", lo=1, hi=10000, integer=True, default=100)
    audit_degree = _number(audit, "max_degree", "audit", lo=2, hi=12, integer=True, default=6)
    audit_dim = _number(audit, "dimension", "audit", lo=1, hi=3, integer=True, default=1)
    lam = audit.get("lambda_claim")
    if lam is not None:
        lam = _number(audit, "lambda_claim", "audit", lo=0.0)

    return ScenarioConfig(
        manifold_kind=kind,
        manifold_size=size,
        collision_kind=ckind,
        tau=tau,
        prandtl=prandtl,
        half_width=half_width,
        velocity_cells=vcells,
        space_cells=scells,
        length=length,
        ic_preset=preset,
        ic_params=ic_params,
        final_time=final,
        cfl=cfl,
        output_interval=out_int,
        p=p,
        audit_seed=audit_seed,
        audit_samples=audit_samples,
        audit_max_degree=audit_degree,
        audit_dimension=audit_dim,
        audit_lambda_claim=lam,
        raw=doc,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer over Python's digit limit
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)
