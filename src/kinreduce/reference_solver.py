"""Discrete-velocity reference solver for the full kinetic equation.

Transport is first-order upwind per velocity node (monotone and
positivity preserving under the CFL bound).  Relaxation is solved
exactly in time for all three collision models: it freezes rho, u and
theta, so the BGK target is fixed (as the ES-BGK one, which in d = 1 is
the Maxwellian relaxed at rate Pr/tau), and the Shakhov target is
affine in a heat flux that decays as exp(-Pr t/tau).

A run applies Strang splitting, half relaxation, transport, half
relaxation, per substep.  The exact relaxations compose, so the two
half relaxations that meet between substeps are one full relaxation,
and an output interval of n substeps is R(dt/2) T R(dt) T ... R(dt) T
R(dt/2): n + 1 relaxations, and a Strang-complete state at every output
time.  The substeps write into two arrays they reuse in turn, and a
relaxation computes in the run's work arrays, so no substep allocates a
field-sized array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StepError
from .kinetic import (
    CollisionModel,
    DistributionField,
    _target_batch,
    collision_rate,
    entropy_density,
    march,
)
from .quadrature import QuadratureRule, moments
from .workspace import WorkArrays

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


def transport_step(state: KineticState, dt: float, out: np.ndarray | None = None) -> KineticState:
    """Upwind transport: downwind difference for xi < 0, upwind for
    xi > 0, periodic wrap.  Requires 0 <= dt <= dx / max|xi|.  The new
    values are written into ``out`` when given: an array of the field's
    shape that does not overlap it."""
    f = state.f
    xi = f.grid.nodes
    dx = f.mesh.dx
    vmax = np.abs(xi).max()
    if not dt >= 0.0:
        raise ParameterError(f"time step must be nonnegative, got {dt}")
    if dt * vmax > dx * (1.0 + 1e-12):
        raise ParameterError(
            f"CFL violation: dt = {dt} exceeds dx/|xi|max = {dx / vmax}"
        )
    vals = f.values
    # the nodes increase: columns [0, neg) move left, [pos, n) right
    neg = int(np.searchsorted(xi, 0.0, side="left"))
    pos = int(np.searchsorted(xi, 0.0, side="right"))
    diff = np.empty_like(vals) if out is None else out
    # upwind f_i - f_{i-1} and downwind f_{i+1} - f_i, periodic
    np.subtract(vals[1:, pos:], vals[:-1, pos:], out=diff[1:, pos:])
    np.subtract(vals[0, pos:], vals[-1, pos:], out=diff[0, pos:])
    np.subtract(vals[1:, :neg], vals[:-1, :neg], out=diff[:-1, :neg])
    np.subtract(vals[0, :neg], vals[-1, :neg], out=diff[-1, :neg])
    diff[:, neg:pos] = 0.0
    diff *= dt / dx * xi  # per-node Courant numbers
    new = np.subtract(vals, diff, out=diff)
    return KineticState(DistributionField(new, f.grid, f.mesh), state.time + dt)


def relaxation_step(
    state: KineticState, model: CollisionModel, dt: float, out: np.ndarray | None = None,
    work: WorkArrays | None = None,
) -> KineticState:
    """The exact relaxation f + (1 - exp(-h)) (T - f), h =
    ``collision_rate(model) * dt``, clipped at zero and written into
    ``out`` when given (as for ``transport_step``), with ``work`` as work
    space.  rho, u and theta stay frozen, so T is the Maxwellian for BGK
    and ES-BGK; Shakhov's q decays as q0 exp(-Pr h), and its T is the
    Shakhov target at q0 exp(-h) phi1((1 - Pr) h) / phi1(-h)."""
    f = state.f
    vals = f.values
    h = collision_rate(model) * dt
    scale = 1.0
    if model.kind == "shakhov":
        scale = np.exp(-h) * _phi1((1.0 - model.prandtl) * h) / _phi1(-h)
    # f + (1 - exp(-h)) (T - f), in the target's buffer
    new = _target_batch(model, vals, f.grid, out, work, heat_flux_scale=scale)
    new -= vals
    new *= -np.expm1(-h)
    new += vals
    np.maximum(new, 0.0, out=new)
    return KineticState(DistributionField(new, f.grid, f.mesh), state.time + dt)


def _phi1(x: float) -> float:
    """expm1(x) / x, and 1 at x = 0."""
    return np.expm1(x) / x if x else 1.0


def run_reference(
    model: CollisionModel | None,
    f0: DistributionField,
    final_time: float,
    cfl: float = 0.45,
    output_interval: float | None = None,
) -> KineticTrajectory:
    """Strang-split integration recording f snapshots, conserved
    totals and entropy at the output cadence of ``kinetic.march``."""
    if not 0.0 < cfl <= 1.0:
        raise ParameterError(f"cfl must lie in (0, 1], got {cfl}")
    grid, mesh = f0.grid, f0.mesh
    dt_cfl = cfl * mesh.dx / np.abs(grid.nodes).max()
    times, snaps, totals, entropy = [], [], [], []

    spare, work = np.empty_like(f0.values), WorkArrays()

    def advance(state, target):
        nonlocal spare
        # land exactly on the output time with uniform substeps
        n_sub = max(1, int(np.ceil((target - state.time) / dt_cfl - 1e-12)))
        dt = (target - state.time) / n_sub
        # each step writes into the array the state does not hold
        try:
            for i in range(n_sub):
                t0 = state.time
                if model is not None and i == 0:
                    state, spare = (relaxation_step(state, model, 0.5 * dt, spare, work),
                                    state.f.values)
                state, spare = transport_step(state, dt, out=spare), state.f.values
                if model is not None:
                    h = dt if i < n_sub - 1 else 0.5 * dt
                    state, spare = relaxation_step(state, model, h, spare, work), state.f.values
                state.time = t0 + dt
        except StepError as exc:
            exc.time = t0
            raise
        return state

    def record(state):
        vals = state.f.values
        times.append(state.time)
        snaps.append(vals.copy())
        totals.append(mesh.dx * moments(vals, grid, 2).sum(axis=0))
        entropy.append(mesh.dx * float(np.add.reduce(entropy_density(vals, grid))))

    march(KineticState(f0.copy(), 0.0), final_time, output_interval, advance, record)
    return KineticTrajectory(
        grid=grid,
        mesh=mesh,
        times=np.array(times),
        snapshots=np.array(snaps),
        moment_totals=np.array(totals),
        entropy=np.array(entropy),
    )
