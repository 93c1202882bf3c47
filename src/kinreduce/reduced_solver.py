"""Time integration of the reduced system on a periodic 1D mesh.

For ``ConservativeMoment`` the update is in conservative form: the raw
moments c_0..c_{N+2} are global coordinates and obey balanced laws
d_t c_k + d_x F_k = s_k with F_k = c_{k+1} for k < N+2, a closure flux
F_{N+2} = int xi^{N+3} f_hat for the top moment, and s_k the moment of
the collision operator (zero for k <= 2 by collision invariance).
Fluxes are differenced with a local Lax-Friedrichs scheme and advanced
by SSP-RK2; parameters are recovered per cell by damped Newton.

Other manifolds use the quasi-linear form
A0(omega) d_t omega + A1(omega) d_x omega = Q(omega)
with central differences plus Rusanov-type dissipation; A0, A1 and Q
are assembled for all cells in one batched pass per stage.

Propagation speeds come from the symmetric-definite pencil
A1 x = lambda A0 x; on the truncated grid they never exceed the
velocity bound L.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .ansatz import AnsatzPoint, ConservativeMoment, Manifold, recover_batch
from .errors import (
    BlowUpError,
    DegenerateChartError,
    InversionError,
    RealizabilityError,
    StepError,
)
from .kinetic import (
    CollisionModel,
    DistributionField,
    SpatialMesh,
    _target_batch,
    collision_rate,
    entropy_density,
)
# assemble_coefficients is not called here; it stays a module attribute
# because perfbench/tracing.py wraps it by name
from .projection import _solve_spd, assemble_coefficients, coefficients_batch  # noqa: F401
from .quadrature import QuadratureRule

__all__ = [
    "ReducedState",
    "ReducedTrajectory",
    "spectral_radius",
    "initial_state",
    "step",
    "run_reduced",
]

_SPEED_BLOWUP = 1e6


def spectral_radius(p: AnsatzPoint, grid: QuadratureRule) -> float:
    """Maximum |lambda| of the generalized eigenproblem A1 x = lambda A0 x."""
    coef = coefficients_batch(p.manifold, p.omega, None, grid)
    try:
        lam = scipy.linalg.eigh(coef.a1[0], coef.a0[0], eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        raise DegenerateChartError(f"pencil solve failed: {exc}") from exc
    return float(np.abs(lam).max())


def _pencil_radius_batch(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Speeds of the pencil V x = lambda M x for stacked SPD M."""
    L = np.linalg.cholesky(M)
    Y = np.linalg.solve(L, V)
    Z = np.linalg.solve(L, np.swapaxes(Y, -1, -2))
    lam = np.linalg.eigvalsh(0.5 * (Z + np.swapaxes(Z, -1, -2)))
    return np.abs(lam).max(axis=-1)


@dataclass
class ReducedState:
    """Per-cell parameters (and, for the conservative path, the moment
    coordinates that are the authoritative state)."""

    manifold: Manifold
    grid: QuadratureRule
    mesh: SpatialMesh
    time: float
    omegas: np.ndarray
    moments: np.ndarray | None = None

    def points(self) -> list[AnsatzPoint]:
        return [AnsatzPoint(self.manifold, w) for w in self.omegas]


@dataclass
class ReducedTrajectory:
    manifold: Manifold
    grid: QuadratureRule
    mesh: SpatialMesh
    times: np.ndarray
    omegas: np.ndarray          # (n_times, cells, dim)
    moment_totals: np.ndarray   # (n_times, n_recorded_moments)
    entropy: np.ndarray         # (n_times,)
    model: CollisionModel | None = None
    moment_labels: list[str] = field(default_factory=list)


def initial_state(
    manifold: Manifold, f0: DistributionField
) -> ReducedState:
    """Project an initial kinetic field onto the manifold."""
    from .ansatz import project_initial

    points = project_initial(manifold, f0)
    omegas = np.stack([p.omega for p in points])
    moments = None
    if isinstance(manifold, ConservativeMoment):
        # the conservative state is the moment vector itself
        xi = f0.grid.nodes
        powers = np.stack([xi**k for k in range(manifold.n_moments)])
        moments = f0.values @ (powers * f0.grid.weights).T
    return ReducedState(manifold, f0.grid, f0.mesh, 0.0, omegas, moments)


def _warm_starts(manifold, omega_prev, grid):
    """Warm starts for the next Newton solve.  Rows sitting numerically
    on the chart's rank-deficient ridge (all alphas ~ 0) are nudged off
    it: Newton cannot leave the ridge because the Jacobian is singular
    there, while a generic nearby start converges quadratically."""
    warm = omega_prev.copy()
    N = manifold.degree
    if N == 0:
        return warm
    span = max(grid.half_width, 1.0)
    scales = span ** -np.arange(1, N + 1)
    alpha0 = np.maximum(np.abs(warm[:, 0]), 1e-300)
    on_ridge = np.all(
        np.abs(warm[:, 1 : N + 1]) <= 1e-9 * alpha0[:, None] * scales[None, :], axis=1
    )
    if on_ridge.any():
        warm[on_ridge, 1 : N + 1] += 3e-2 * alpha0[on_ridge, None] * scales[None, :]
    return warm


def _cm_recover(manifold, C, grid, omega_prev):
    """Batch Newton with a retry of the failed rows from the
    neighbouring cell's warm start (Newton basins are continuous along
    smooth fields).  Signed polynomial factors are admitted: the
    conservative update consumes only integrals of f, and smooth runs
    ride along the realizability boundary."""
    warm = _warm_starts(manifold, omega_prev, grid)
    try:
        return recover_batch(manifold, C, grid, omega0=warm, require_nonnegative=False)
    except InversionError as exc:
        omegas, rows = exc.omega, exc.rows
    try:
        omegas[rows] = recover_batch(manifold, C[rows], grid,
                                     omega0=warm[(rows - 1) % C.shape[0]],
                                     require_nonnegative=False)
    except InversionError as exc:
        i = int(rows[exc.rows[0]])
        raise StepError(
            f"parameter recovery failed at cell {i}: no chart point matches "
            f"the moments {C[i].tolist()}", cell=i) from exc
    return omegas


def _cm_speeds(manifold, omegas, grid):
    M, V = manifold.moment_frame_grams_batch(omegas, grid)
    return _pencil_radius_batch(M, V)


def _cm_rhs(manifold, model, grid, mesh, C, omegas, speeds):
    """Semi-discrete right-hand side of the balanced-law update."""
    K = manifold.n_moments
    vals = manifold.values_batch(omegas, grid.nodes)
    top_flux = vals @ (grid.nodes**K * grid.weights)
    F = np.empty_like(C)
    F[:, :-1] = C[:, 1:]
    F[:, -1] = top_flux

    if model is not None:
        targets = _target_batch(model, vals, grid)
        xiPw = np.stack([grid.nodes**k for k in range(K)]) * grid.weights
        target_mom = targets @ xiPw.T
        source = collision_rate(model) * (target_mom - C)
    else:
        source = 0.0

    # local Lax-Friedrichs interface fluxes, periodic wrap
    C_r = np.roll(C, -1, axis=0)
    F_r = np.roll(F, -1, axis=0)
    a_iface = np.maximum(speeds, np.roll(speeds, -1))[:, None]
    F_half = 0.5 * (F + F_r) - 0.5 * a_iface * (C_r - C)
    div = (F_half - np.roll(F_half, 1, axis=0)) / mesh.dx
    return -div + source


def _cm_step(state: ReducedState, model, cfl, dt_cap):
    manifold, grid, mesh = state.manifold, state.grid, state.mesh
    C = state.moments
    omegas = _cm_recover(manifold, C, grid, state.omegas)
    speeds = _cm_speeds(manifold, omegas, grid)
    smax = float(speeds.max())
    if smax > _SPEED_BLOWUP:
        raise BlowUpError(f"propagation speed {smax:.3e} exceeds blow-up guard",
                          time=state.time)
    dt = cfl * mesh.dx / smax
    if dt_cap is not None:
        dt = min(dt, dt_cap)

    r1 = _cm_rhs(manifold, model, grid, mesh, C, omegas, speeds)
    C1 = C + dt * r1
    omegas1 = _cm_recover(manifold, C1, grid, omegas)
    r2 = _cm_rhs(manifold, model, grid, mesh, C1, omegas1, speeds)
    C_new = 0.5 * C + 0.5 * (C1 + dt * r2)
    omegas_new = _cm_recover(manifold, C_new, grid, omegas1)
    return ReducedState(manifold, grid, mesh, state.time + dt, omegas_new, C_new), smax


def _generic_coefficients(manifold, model, grid, omegas):
    """A0, A1 and Q of every cell in one batched assembly; a failing
    cell becomes a StepError that names it."""
    try:
        return coefficients_batch(manifold, omegas, model, grid)
    except (RealizabilityError, DegenerateChartError) as exc:
        i = exc.row
        raise StepError(f"{exc} (parameters {omegas[i].tolist()})", cell=i) from exc


def _generic_rhs(mesh, omegas, coef, speeds):
    """Central differences plus Rusanov-type dissipation, with the
    coefficients ``coef`` assembled at ``omegas``."""
    dx = mesh.dx
    grad = (np.roll(omegas, -1, axis=0) - np.roll(omegas, 1, axis=0)) / (2.0 * dx)
    lap = (np.roll(omegas, -1, axis=0) - 2.0 * omegas + np.roll(omegas, 1, axis=0)) / dx
    a_loc = np.maximum(np.maximum(speeds, np.roll(speeds, -1)), np.roll(speeds, 1))
    b = coef.q - np.einsum("mkl,ml->mk", coef.a1, grad)
    # A0 passed its Cholesky test in the assembly
    return _solve_spd(coef.a0, b) + 0.5 * a_loc[:, None] * lap


def _generic_step(state: ReducedState, model, cfl, dt_cap):
    manifold, grid, mesh = state.manifold, state.grid, state.mesh
    omegas = state.omegas
    # one assembly at omega gives both the speeds and the first stage
    coef = _generic_coefficients(manifold, model, grid, omegas)
    speeds = _pencil_radius_batch(coef.a0, coef.a1)
    smax = float(speeds.max())
    if smax > _SPEED_BLOWUP:
        raise BlowUpError(f"propagation speed {smax:.3e} exceeds blow-up guard",
                          time=state.time)
    dt = cfl * mesh.dx / smax
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    r1 = _generic_rhs(mesh, omegas, coef, speeds)
    w1 = omegas + dt * r1
    r2 = _generic_rhs(mesh, w1, _generic_coefficients(manifold, model, grid, w1), speeds)
    w_new = 0.5 * omegas + 0.5 * (w1 + dt * r2)
    return ReducedState(manifold, grid, mesh, state.time + dt, w_new, None), smax


def step(
    state: ReducedState,
    model: CollisionModel | None,
    cfl: float,
    dt_cap: float | None = None,
) -> ReducedState:
    """One SSP-RK2 step with dt = cfl * dx / max propagation speed."""
    if not 0.0 < cfl < 1.0:
        raise StepError(f"cfl must lie in (0, 1), got {cfl}")
    if isinstance(state.manifold, ConservativeMoment):
        new, _ = _cm_step(state, model, cfl, dt_cap)
    else:
        new, _ = _generic_step(state, model, cfl, dt_cap)
    return new


def _record(state: ReducedState, n_mom: int):
    manifold, grid, mesh = state.manifold, state.grid, state.mesh
    vals = manifold.values_batch(state.omegas, grid.nodes)
    # parameter recovery admits negative round-off at 1e-12 relative
    vals = np.maximum(vals, 0.0)
    if state.moments is not None:
        totals = mesh.dx * state.moments.sum(axis=0)
    else:
        xiPw = np.stack([grid.nodes**k for k in range(n_mom)]) * grid.weights
        totals = mesh.dx * (vals @ xiPw.T).sum(axis=0)
    ent = mesh.dx * float(np.add.reduce(entropy_density(vals, grid)))
    return totals, ent


def run_reduced(
    manifold: Manifold,
    model: CollisionModel | None,
    f0: DistributionField,
    final_time: float,
    cfl: float = 0.45,
    output_interval: float | None = None,
    dt_cap: float | None = None,
) -> ReducedTrajectory:
    """Integrate to ``final_time`` recording conserved-quantity totals
    and entropy at the output cadence."""
    state = initial_state(manifold, f0)
    if isinstance(manifold, ConservativeMoment):
        n_mom = manifold.n_moments
    else:
        n_mom = 3
    if output_interval is None:
        output_interval = final_time if final_time > 0 else 1.0

    out_times = [state.time]
    out_omegas = [state.omegas.copy()]
    totals, ent = _record(state, n_mom)
    out_totals = [totals]
    out_entropy = [ent]

    next_out = output_interval
    eps = 1e-12 * max(final_time, 1.0)
    while state.time < final_time - eps:
        target = min(next_out, final_time)
        cap = target - state.time
        if dt_cap is not None:
            cap = min(cap, dt_cap)
        try:
            state = step(state, model, cfl, dt_cap=cap)
        except StepError as exc:
            exc.time = state.time
            raise
        if state.time >= target - eps:
            totals, ent = _record(state, n_mom)
            out_times.append(state.time)
            out_omegas.append(state.omegas.copy())
            out_totals.append(totals)
            out_entropy.append(ent)
            if abs(target - next_out) < eps:
                next_out += output_interval
    labels = [f"c{k}" for k in range(n_mom)]
    return ReducedTrajectory(
        manifold=manifold,
        grid=state.grid,
        mesh=state.mesh,
        times=np.array(out_times),
        omegas=np.array(out_omegas),
        moment_totals=np.array(out_totals),
        entropy=np.array(out_entropy),
        model=model,
        moment_labels=labels,
    )
