"""Discrete-velocity reference solver for the full kinetic equation.

Transport is first-order upwind per velocity node (monotone and
positivity preserving under the CFL bound); relaxation uses the exact
exponential update for BGK, whose conserved moments freeze the target,
and a two-stage explicit RK2 for Shakhov/ES-BGK.  A full run applies
Strang splitting: half relaxation, transport, half relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .kinetic import (
    CollisionModel,
    DistributionField,
    _target_batch,
    collision_rate,
    entropy_density,
)
from .quadrature import QuadratureRule

__all__ = [
    "KineticState",
    "KineticTrajectory",
    "transport_step",
    "relaxation_step",
    "run_reference",
]


@dataclass
class KineticState:
    f: DistributionField
    time: float = 0.0


@dataclass
class KineticTrajectory:
    grid: QuadratureRule
    mesh: object
    times: np.ndarray
    snapshots: np.ndarray       # (n_times, cells, nodes)
    moment_totals: np.ndarray   # (n_times, 3)
    entropy: np.ndarray


def transport_step(state: KineticState, dt: float) -> KineticState:
    """Upwind transport: downwind difference for xi < 0, upwind for
    xi > 0, periodic wrap.  Requires dt <= dx / max|xi|."""
    f = state.f
    xi = f.grid.nodes
    dx = f.mesh.dx
    vmax = np.abs(xi).max()
    if dt * vmax > dx * (1.0 + 1e-12):
        raise ParameterError(
            f"CFL violation: dt = {dt} exceeds dx/|xi|max = {dx / vmax}"
        )
    vals = f.values
    nu = dt / dx * xi  # per-node Courant numbers
    pos = nu > 0.0
    neg = nu < 0.0
    new = vals.copy()
    upwind = vals - np.roll(vals, 1, axis=0)
    downwind = np.roll(vals, -1, axis=0) - vals
    new[:, pos] -= nu[pos][None, :] * upwind[:, pos]
    new[:, neg] -= nu[neg][None, :] * downwind[:, neg]
    out = DistributionField(new, f.grid, f.mesh)
    return KineticState(out, state.time + dt)


def relaxation_step(state: KineticState, model: CollisionModel, dt: float) -> KineticState:
    """Exact exponential relaxation for BGK; explicit RK2 otherwise."""
    f = state.f
    vals = f.values
    grid = f.grid
    if model.kind == "bgk":
        feq = _target_batch(model, vals, grid)
        decay = np.exp(-dt / model.tau)
        new = feq + (vals - feq) * decay
    else:
        rate = collision_rate(model)

        def rhs(v):
            return rate * (_target_batch(model, v, grid) - v)

        k1 = rhs(vals)
        mid = vals + dt * k1
        new = vals + 0.5 * dt * (k1 + rhs(mid))
    new = np.maximum(new, 0.0)
    out = DistributionField(new, grid, f.mesh)
    return KineticState(out, state.time + dt)


def run_reference(
    model: CollisionModel | None,
    f0: DistributionField,
    final_time: float,
    cfl: float = 0.45,
    output_interval: float | None = None,
) -> KineticTrajectory:
    """Strang-split integration recording f snapshots, conserved
    totals and entropy at the output cadence."""
    if not 0.0 < cfl <= 1.0:
        raise ParameterError(f"cfl must lie in (0, 1], got {cfl}")
    grid, mesh = f0.grid, f0.mesh
    vmax = np.abs(grid.nodes).max()
    dt_cfl = cfl * mesh.dx / vmax
    if output_interval is None:
        output_interval = final_time if final_time > 0 else 1.0

    state = KineticState(f0.copy(), 0.0)
    xi = grid.nodes
    xiPw = np.stack([np.ones_like(xi), xi, xi * xi]) * grid.weights

    def record(st):
        totals = mesh.dx * (st.f.values @ xiPw.T).sum(axis=0)
        ent = mesh.dx * float(np.add.reduce(entropy_density(st.f.values, grid)))
        return totals, ent

    times = [0.0]
    snaps = [state.f.values.copy()]
    totals, ent = record(state)
    mom = [totals]
    ents = [ent]

    next_out = output_interval
    eps = 1e-12 * max(final_time, 1.0)
    while state.time < final_time - eps:
        target = min(next_out, final_time)
        # land exactly on the output time with uniform substeps
        n_sub = max(1, int(np.ceil((target - state.time) / dt_cfl - 1e-12)))
        dt = (target - state.time) / n_sub
        for _ in range(n_sub):
            t0 = state.time
            if model is not None:
                state = relaxation_step(state, model, 0.5 * dt)
            state = transport_step(state, dt)
            if model is not None:
                state = relaxation_step(state, model, 0.5 * dt)
            state.time = t0 + dt
        totals, ent = record(state)
        times.append(state.time)
        snaps.append(state.f.values.copy())
        mom.append(totals)
        ents.append(ent)
        if abs(target - next_out) < eps:
            next_out += output_interval
    return KineticTrajectory(
        grid=grid,
        mesh=mesh,
        times=np.array(times),
        snapshots=np.array(snaps),
        moment_totals=np.array(mom),
        entropy=np.array(ents),
    )
