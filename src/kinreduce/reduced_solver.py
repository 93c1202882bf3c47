"""Time integration of the reduced system on a periodic 1D mesh.

Every step is one SSP-RK2 step (``_ssp_rk2``) with dt = cfl * dx / max
speed.  A path gives it coordinates U, a closure ``closure(U, prev)``,
the speeds of the step-start closure and ``rhs(U, aux, speeds)``.

``ConservativeMoment`` advances the raw moments c_0..c_{N+2}, global
coordinates with balanced laws d_t c_k + d_x F_k = s_k: F_k = c_{k+1}
for k < N+2, F_{N+2} = int xi^{N+3} f_hat, and s_k the collision
moments (zero for k <= 2).  Its closure is the batched Newton recovery
``_cm_recover``, its speeds ``_cm_speeds`` and its rhs the local
Lax-Friedrichs ``_cm_rhs``; a last recovery gives the new parameters.
Each recovery hands its result's moment jet on to the next, so after the
first step the step-start recovery only checks the residuals.
Other manifolds advance omega in A0(omega) d_t omega + A1(omega) d_x
omega = Q(omega): the closure ``_generic_coefficients`` assembles A0,
A1 and Q of all cells in one batched pass, the step-start assembly
also gives the speeds, and ``_generic_rhs`` takes central differences
plus Rusanov-type dissipation.  Speeds come from the symmetric-definite
pencil A1 x = lambda A0 x and never exceed the velocity bound L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzPoint, ConservativeMoment, Manifold, _moment_jet, recover_batch
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
    march,
)
# assemble_coefficients is not called here; it stays a module attribute
# because perfbench/tracing.py wraps it by name
from .projection import (_solve_spd, assemble_coefficients, coefficients_batch,  # noqa: F401
                         project_initial)
from .quadrature import QuadratureRule
from .workspace import WorkArrays, take

__all__ = [
    "ReducedState",
    "ReducedTrajectory",
    "StepWork",
    "spectral_radius",
    "initial_state",
    "step",
    "run_reduced",
]

_SPEED_BLOWUP = 1e6


def spectral_radius(p: AnsatzPoint, grid: QuadratureRule) -> float:
    """Maximum |lambda| of the generalized eigenproblem A1 x = lambda A0 x:
    the one-row view of ``_pencil_radius_batch``."""
    coef = coefficients_batch(p.manifold, p.omega, None, grid)
    try:
        return float(_pencil_radius_batch(coef.a0, coef.a1)[0])
    except np.linalg.LinAlgError as exc:
        raise DegenerateChartError(f"pencil solve failed: {exc}") from exc


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
    coordinates that are the authoritative state, and the moment jet of omegas)."""

    manifold: Manifold
    grid: QuadratureRule
    mesh: SpatialMesh
    time: float
    omegas: np.ndarray
    moments: np.ndarray | None = None
    jet: tuple[np.ndarray, np.ndarray] | None = None


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


class StepWork(WorkArrays):
    """What a run reuses in every step: the work arrays of its node
    passes, and the xi tables of its moment sums, built once.

    ``moment_weights`` holds xi^k w on the nodes for the recorded
    moments, k < N + 3 for ConservativeMoment(N) and k < 3 otherwise;
    ``flux_weights`` holds xi^(N+3) w, the closure flux's row
    (ConservativeMoment only)."""

    def __init__(self, manifold: Manifold, grid: QuadratureRule):
        super().__init__()
        xi = grid.nodes
        cm = isinstance(manifold, ConservativeMoment)
        n_mom = manifold.n_moments if cm else 3
        self.moment_weights = np.stack([xi**k for k in range(n_mom)]) * grid.weights
        self.flux_weights = xi**manifold.n_moments * grid.weights if cm else None


def initial_state(
    manifold: Manifold, f0: DistributionField
) -> ReducedState:
    """Project an initial kinetic field onto the manifold."""
    omegas = project_initial(manifold, f0)
    moments = None
    if isinstance(manifold, ConservativeMoment):
        # the conservative state is the moment vector itself
        moments = f0.values @ StepWork(manifold, f0.grid).moment_weights.T
    return ReducedState(manifold, f0.grid, f0.mesh, 0.0, omegas, moments)


def _warm_starts(manifold, omega_prev, grid):
    """Warm starts for the next Newton solve.  Rows sitting numerically
    on the chart's rank-deficient ridge (all alphas ~ 0) are nudged off
    it: Newton cannot leave the ridge because the Jacobian is singular
    there, while a generic nearby start converges quadratically.
    Returns the starts and which rows were nudged."""
    warm = omega_prev.copy()
    N = manifold.degree
    if N == 0:
        return warm, np.zeros(len(warm), dtype=bool)
    span = max(grid.half_width, 1.0)
    scales = span ** -np.arange(1, N + 1)
    alpha0 = np.maximum(np.abs(warm[:, 0]), 1e-300)
    on_ridge = np.all(
        np.abs(warm[:, 1 : N + 1]) <= 1e-9 * alpha0[:, None] * scales[None, :], axis=1
    )
    if on_ridge.any():
        warm[on_ridge, 1 : N + 1] += 3e-2 * alpha0[on_ridge, None] * scales[None, :]
    return warm, on_ridge


def _cm_recover(manifold, C, grid, omega_prev, jet=None, work=None):
    """Batch Newton from the previous parameters and their moment jet
    (when known) to the new parameters and theirs; a row that no rung of
    the fallback ladder recovers becomes a StepError naming its cell.
    Signed polynomial factors are admitted: the conservative update
    consumes only integrals of f, and smooth runs ride along the
    realizability boundary."""
    warm, moved = _warm_starts(manifold, omega_prev, grid)
    if jet is not None and moved.any():  # the nudged rows need a fresh jet
        jet = jet[0].copy(), jet[1].copy()
        jet[0][moved], jet[1][moved] = _moment_jet(manifold, warm[moved], grid, work)
    try:
        return recover_batch(manifold, C, grid, omega0=warm, require_nonnegative=False,
                             work=work, jet0=jet, return_jet=True)
    except InversionError as exc:
        i = int(exc.rows[0])
        raise StepError(
            f"parameter recovery failed at cell {i}: no chart point matches "
            f"the moments {C[i].tolist()}", cell=i) from exc


def _cm_speeds(manifold, omegas, grid, work=None):
    M, V = manifold.moment_frame_grams_batch(omegas, grid, work)
    return _pencil_radius_batch(M, V)


def _cm_rhs(manifold, model, grid, mesh, C, omegas, speeds, work=None):
    """Semi-discrete right-hand side of the balanced-law update; ``work``
    is the run's ``StepWork`` (a new one when None)."""
    if work is None:
        work = StepWork(manifold, grid)
    vals = manifold.values_batch(omegas, grid.nodes, work)
    top_flux = vals @ work.flux_weights
    F = np.empty_like(C)
    F[:, :-1] = C[:, 1:]
    F[:, -1] = top_flux

    if model is not None:
        targets = _target_batch(model, vals, grid, take(work, "profile", vals.shape), work)
        target_mom = targets @ work.moment_weights.T
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


def _generic_coefficients(manifold, model, grid, omegas, work=None):
    """A0, A1 and Q of every cell in one batched assembly; a failing
    cell becomes a StepError that names it."""
    try:
        return coefficients_batch(manifold, omegas, model, grid, work=work)
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


def _ssp_rk2(state, U, prev, cfl, dt_cap, closure, speeds_of, rhs):
    """One SSP-RK2 step of dU/dt = rhs(U, closure(U, prev), speeds), the
    speeds taken from the step-start closure only; the stage-1 closure
    gets the step-start one as ``prev``.  Returns the new U, the closure
    at the middle stage (a warm start for one at the new U) and dt."""
    aux = closure(U, prev)
    speeds = speeds_of(aux)
    smax = float(speeds.max())
    if smax > _SPEED_BLOWUP:
        raise BlowUpError(f"propagation speed {smax:.3e} exceeds blow-up guard",
                          time=state.time)
    dt = cfl * state.mesh.dx / smax
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    U1 = U + dt * rhs(U, aux, speeds)
    aux1 = closure(U1, aux)
    return 0.5 * U + 0.5 * (U1 + dt * rhs(U1, aux1, speeds)), aux1, dt


def step(
    state: ReducedState,
    model: CollisionModel | None,
    cfl: float,
    dt_cap: float | None = None,
    work: StepWork | None = None,
) -> ReducedState:
    """One SSP-RK2 step, in the moments for ConservativeMoment and in
    omega otherwise.  ``work`` is the run's ``StepWork``, which every
    stage computes in; without one the step makes its own."""
    if not 0.0 < cfl < 1.0:
        raise StepError(f"cfl must lie in (0, 1), got {cfl}")
    manifold, grid, mesh = state.manifold, state.grid, state.mesh
    if work is None:
        work = StepWork(manifold, grid)
    # the lambdas look the stage kernels up when called, so that
    # perfbench/tracing.py can wrap them by name; the CM closure is the
    # parameters and their moment jet
    if isinstance(manifold, ConservativeMoment):
        C, aux1, dt = _ssp_rk2(
            state, state.moments, (state.omegas, state.jet), cfl, dt_cap,
            lambda C, prev: _cm_recover(manifold, C, grid, *prev, work=work),
            lambda aux: _cm_speeds(manifold, aux[0], grid, work),
            lambda C, aux, s: _cm_rhs(manifold, model, grid, mesh, C, aux[0], s, work))
        omegas, jet = _cm_recover(manifold, C, grid, *aux1, work=work)
    else:
        omegas, _, dt = _ssp_rk2(
            state, state.omegas, None, cfl, dt_cap,
            lambda w, _: _generic_coefficients(manifold, model, grid, w, work),
            lambda coef: _pencil_radius_batch(coef.a0, coef.a1),
            lambda w, coef, s: _generic_rhs(mesh, w, coef, s))
        C = jet = None
    return ReducedState(manifold, grid, mesh, state.time + dt, omegas, C, jet)


def _record(state: ReducedState, work: StepWork):
    manifold, grid, mesh = state.manifold, state.grid, state.mesh
    vals = manifold.values_batch(state.omegas, grid.nodes, work)
    # not round-off alone: the CM recovery admits signed factors, and on
    # the demo this clip drops dips down to -8% of the cell maximum on up
    # to 69 of 200 cells (ROADMAP item 9)
    np.maximum(vals, 0.0, out=vals)
    if state.moments is not None:
        totals = mesh.dx * state.moments.sum(axis=0)
    else:
        totals = mesh.dx * (vals @ work.moment_weights.T).sum(axis=0)
    eta = entropy_density(vals, grid, take(work, "profile", vals.shape))
    ent = mesh.dx * float(np.add.reduce(eta))
    return totals, ent


def run_reduced(
    manifold: Manifold,
    model: CollisionModel | None,
    f0: DistributionField,
    final_time: float,
    cfl: float = 0.45,
    output_interval: float | None = None,
) -> ReducedTrajectory:
    """Integrate to ``final_time`` recording conserved-quantity totals
    and entropy at the output cadence of ``kinetic.march``.  The run
    owns one ``StepWork`` for all of its steps and records."""
    work = StepWork(manifold, f0.grid)
    times, omegas, totals, entropy = [], [], [], []

    def advance(state, target):
        try:
            return step(state, model, cfl, dt_cap=target - state.time, work=work)
        except StepError as exc:
            exc.time = state.time
            raise

    def record(state):
        tot, ent = _record(state, work)
        times.append(state.time)
        omegas.append(state.omegas)
        totals.append(tot)
        entropy.append(ent)

    march(initial_state(manifold, f0), final_time, output_interval, advance, record)
    return ReducedTrajectory(
        manifold=manifold,
        grid=f0.grid,
        mesh=f0.mesh,
        times=np.array(times),
        omegas=np.array(omegas),
        moment_totals=np.array(totals),
        entropy=np.array(entropy),
        model=model,
    )
