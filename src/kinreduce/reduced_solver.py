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
first step the step-start recovery only checks the residuals.  The rhs
takes the closure flux and the collision moments from Gaussian power
sums (``_cm_closure``), so, where the grid resolves the Gaussians, a
step makes no pass over the velocity nodes: only ``initial_state`` and
the records (``_record``) evaluate f on them.
Other manifolds advance omega in A0(omega) d_t omega + A1(omega) d_x
omega = Q(omega): the closure ``_generic_coefficients`` assembles A0,
A1 and Q of all cells at once, the step-start assembly also gives the
speeds, and ``_generic_rhs`` takes central differences plus
Rusanov-type dissipation.  For HermitePerturbation the assembly comes
from Gaussian power sums as well (``projection._hp_coefficients``), so
its step makes no pass over the velocity nodes either.  Speeds come
from the symmetric-definite pencil A1 x = lambda A0 x and never exceed
the velocity bound L.

Both paths advance signed ansatzes between output times; the sign of
f_hat enters only the entropy, which ``_record`` evaluates.  There a
state that is not ConservativeMoment obeys the sign rule
(``ansatz._sign_rule``): a cell whose ansatz dips below zero is a
StepError naming the lowest such cell and the output time.
ConservativeMoment records clip f at zero instead (ROADMAP item 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import (AnsatzPoint, ConservativeMoment, Manifold, _frame_power_sums, _moment_jet,
                     _sign_rule, recover_batch)
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
    _shift,
    collision_rate,
    entropy_density,
    march,
    _target_moments,
)
# assemble_coefficients is not called here; it stays a module attribute
# because perfbench/tracing.py wraps it by name
from .projection import (_by_row, _rows_last, _solve_spd, _substitute,  # noqa: F401
                         _symmetrize, assemble_coefficients, coefficients_batch,
                         project_initial)
from .quadrature import QuadratureRule, moments
from .workspace import WorkArrays, take

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
    """Maximum |lambda| of the generalized eigenproblem A1 x = lambda A0 x:
    the one-row view of ``_pencil_radius_batch``."""
    coef = coefficients_batch(p.manifold, p.omega, None, grid)
    try:
        return float(_pencil_radius_batch(coef.a0, coef.a1, coef.chol)[0])
    except np.linalg.LinAlgError as exc:
        raise DegenerateChartError(f"pencil solve failed: {exc}") from exc


def _pencil_radius_batch(M: np.ndarray, V: np.ndarray, chol: np.ndarray | None = None,
                         work: WorkArrays | None = None) -> np.ndarray:
    """Speeds of the pencil V x = lambda M x for stacked SPD M, shapes (m,
    d, d): the largest |lambda| of Z = L^-1 (L^-1 V)^T, the eigenvalues
    of its symmetric part, with M = L L^T.  ``chol`` is the stack of
    factors L when the caller has it; both triangular solves are
    ``projection._substitute``, rows last."""
    if chol is None:
        chol = np.linalg.cholesky(M)
    L = _rows_last(chol, work, "substitute.chol")
    Y = _substitute(L, _rows_last(V, work, "pencil.y"), work=work)
    # solved in place on the transposed view, Y holds Z^T
    _substitute(L, Y.swapaxes(0, 1), work=work)
    lam = np.linalg.eigvalsh(_symmetrize(np.moveaxis(Y, -1, 0)))
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


def initial_state(
    manifold: Manifold, f0: DistributionField
) -> ReducedState:
    """Project an initial kinetic field onto the manifold."""
    omegas = project_initial(manifold, f0)
    C = None
    if isinstance(manifold, ConservativeMoment):
        # the conservative state is the moment vector itself
        C = moments(f0.values, f0.grid, manifold.n_moments - 1)
    return ReducedState(manifold, f0.grid, f0.mesh, 0.0, omegas, C)


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
    return _pencil_radius_batch(M, V, work=work)


def _cm_closure(manifold, model, grid, omegas, work=None):
    """The closure flux int xi^(N+3) f_hat of stacked chart points and,
    given a collision model, the moments T_0..T_{N+2} of their collision
    targets (None without one), shapes (m,) and (m, N + 3), from the
    Gaussian power sums P_j (``_frame_power_sums`` in the identity
    frame) alone.

    The moments of f_hat are c_k = sum_j alpha_j P_{j+k}(u, theta),
    summed over j from 0.0 as in ``_moment_jet``; the target's follow
    from c_0..c_3 (``kinetic._target_moments``), a row whose density or
    temperature is not positive raising StepError.  Every operation is
    elementwise over the rows."""
    N, K = manifold.degree, manifold.n_moments
    alpha, u, theta = manifold.split(omegas)
    P = _frame_power_sums(0.0, 1.0, u, theta, grid, N + K, work)
    # alpha_j P_{j+k}, k = 0..N+3, rows last; the sum over j is outer to
    # the contiguous rows, so sequential
    terms = np.take(P.T, np.arange(N + 1)[:, None] + np.arange(K + 1), axis=0)
    terms *= np.ascontiguousarray(alpha.T)[:, None, :]
    c = np.add.reduce(terms, axis=0, initial=0.0)
    if model is None:
        return c[K], None
    T = _target_moments(model, c, lambda u, theta, top: _frame_power_sums(
        0.0, 1.0, u, theta, grid, top, work).T, K - 1)
    return c[K], T.T


def _cm_rhs(manifold, model, grid, mesh, C, omegas, speeds, work=None):
    """Semi-discrete right-hand side of the balanced-law update, with
    ``work`` as work space: the closure flux and the collision source
    from ``_cm_closure``, with no pass over the velocity nodes where the
    grid resolves the Gaussians."""
    top, targets = _cm_closure(manifold, model, grid, omegas, work)
    F = np.empty_like(C)
    F[:, :-1] = C[:, 1:]
    F[:, -1] = top
    source = 0.0 if targets is None else collision_rate(model) * (targets - C)

    # local Lax-Friedrichs interface fluxes, periodic wrap
    C_r = _shift(C, 1)
    F_r = _shift(F, 1)
    a_iface = np.maximum(speeds, _shift(speeds, 1))[:, None]
    F_half = 0.5 * (F + F_r) - 0.5 * a_iface * (C_r - C)
    div = (F_half - _shift(F_half, -1)) / mesh.dx
    return -div + source


def _generic_coefficients(manifold, model, grid, omegas, work=None):
    """A0, A1 and Q of every cell in one batched assembly; a failing
    cell becomes a StepError that names it."""
    try:
        return coefficients_batch(manifold, omegas, model, grid, work=work)
    except (RealizabilityError, DegenerateChartError) as exc:
        i = exc.row
        raise StepError(f"{exc} (parameters {omegas[i].tolist()})", cell=i) from exc


def _generic_rhs(mesh, omegas, coef, speeds, work=None):
    """Central differences plus Rusanov-type dissipation, with the
    coefficients ``coef`` assembled at ``omegas``: A0^-1 (Q - A1 grad)
    by substitution against the factor of A0 that the assembly's SPD
    test kept (``coef.chol``), with ``work`` as work space."""
    dx = mesh.dx
    right, left = _shift(omegas, 1), _shift(omegas, -1)
    grad = (right - left) / (2.0 * dx)
    lap = (right - 2.0 * omegas + left) / dx
    a_loc = np.maximum(np.maximum(speeds, _shift(speeds, 1)), _shift(speeds, -1))
    b = coef.q - np.einsum("mkl,ml->mk", coef.a1, grad)
    return _solve_spd(coef.a0, b, coef.chol, work) + 0.5 * a_loc[:, None] * lap


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
    work: WorkArrays | None = None,
) -> ReducedState:
    """One SSP-RK2 step, in the moments for ConservativeMoment and in
    omega otherwise.  Every stage computes in ``work``, the run's work
    arrays; without them the step makes its own."""
    if not 0.0 < cfl < 1.0:
        raise StepError(f"cfl must lie in (0, 1), got {cfl}")
    manifold, grid, mesh = state.manifold, state.grid, state.mesh
    if work is None:
        work = WorkArrays()
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
            lambda coef: _pencil_radius_batch(coef.a0, coef.a1, coef.chol, work),
            lambda w, coef, s: _generic_rhs(mesh, w, coef, s, work))
        C = jet = None
    return ReducedState(manifold, grid, mesh, state.time + dt, omegas, C, jet)


def _record(state: ReducedState, work: WorkArrays):
    """The conserved-quantity totals and the entropy of a recorded state,
    from f_hat on the nodes: the one place a step's ansatz meets its
    sign.  A state that is not ConservativeMoment obeys the sign rule
    (``ansatz._sign_rule``): round-off negatives are clipped, and a cell
    that dips below zero raises StepError naming the lowest such cell
    and the state's time."""
    manifold, grid, mesh = state.manifold, state.grid, state.mesh
    vals = manifold.values_batch(state.omegas, grid.nodes, work)
    if isinstance(manifold, ConservativeMoment):
        # not round-off alone: the CM recovery admits signed factors, and
        # on the demo this clip drops dips down to -8% of the cell maximum
        # on up to 69 of 200 cells (ROADMAP item 9)
        np.maximum(vals, 0.0, out=vals)
        totals = mesh.dx * state.moments.sum(axis=0)
    else:
        try:
            _by_row(lambda v: _sign_rule(v, out=v), vals)
        except RealizabilityError as exc:
            i = exc.row
            raise StepError(f"{exc} (parameters {state.omegas[i].tolist()})", cell=i,
                            time=state.time) from exc
        totals = mesh.dx * moments(vals, grid, 2).sum(axis=0)
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
    owns one ``WorkArrays`` for all of its steps and records."""
    work = WorkArrays()
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
