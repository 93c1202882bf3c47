"""Distribution fields, macroscopic moments, BGK-family collision
operators, entropy functionals, the diagonal-Hessian flux criterion and
the output cadence both solvers march by.

Everything is one-dimensional in both space and ordinate velocity; the
Shakhov/ES-BGK formulas are the d-dimensional ones specialized with
d + 2 -> 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import ParameterError, RealizabilityError, StepError
from .quadrature import QuadratureRule, integrate, moments
from .workspace import WorkArrays, centered, take

__all__ = [
    "POSITIVITY_FLOOR",
    "SpatialMesh",
    "DistributionField",
    "MomentState",
    "CollisionModel",
    "collision_invariants",
    "moments_of_profile",
    "maxwellian",
    "entropy",
    "entropy_density",
    "entropy_production",
    "march",
    "FluxCheckResult",
    "flux_existence_check",
]

# eta(f) = f log f - f and eta''(f) = 1/f are singular at 0; values are
# floored here before logarithms so quadratures stay finite without
# measurably altering moments.
POSITIVITY_FLOOR = 1e-300


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform periodic 1D mesh."""

    cells: int
    length: float

    def __post_init__(self):
        if self.cells < 1:
            raise ParameterError("mesh needs at least one cell")
        if self.length <= 0.0:
            raise ParameterError("mesh length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.cells

    def centers(self) -> np.ndarray:
        return (np.arange(self.cells) + 0.5) * self.dx


@dataclass
class DistributionField:
    """f(xi; x) sampled on (space cell, velocity node)."""

    values: np.ndarray
    grid: QuadratureRule
    mesh: SpatialMesh

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.cells, len(self.grid)):
            raise ParameterError(
                f"field shape {self.values.shape} does not match "
                f"(cells, nodes) = ({self.mesh.cells}, {len(self.grid)})"
            )
        # min and max see every NaN and Inf without a temporary mask
        lo, hi = self.values.min(), self.values.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            self._reject(~np.isfinite(self.values), "contains NaN/Inf")
        if lo < 0.0:
            self._reject(self.values < 0.0, "has negative values")

    def _reject(self, bad: np.ndarray, what: str):
        row = int(np.flatnonzero(bad.any(axis=1))[0])
        err = RealizabilityError(f"distribution field {what} in cell {row}")
        err.row = row
        raise err

    def copy(self) -> "DistributionField":
        return DistributionField(self.values.copy(), self.grid, self.mesh)


@dataclass(frozen=True)
class MomentState:
    """(rho, u, theta, q); in d=1 the pressure equals theta for any
    distribution, so it has no field of its own."""

    rho: float
    u: float
    theta: float
    heat_flux: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0.0):
            raise RealizabilityError(f"density must be positive, got {self.rho}")
        if not (np.isfinite(self.theta) and self.theta > 0.0):
            raise RealizabilityError(f"temperature must be positive, got {self.theta}")


_COLLISION_KINDS = ("bgk", "shakhov", "esbgk")


@dataclass(frozen=True)
class CollisionModel:
    """Relaxation collision model: BGK, Shakhov or ES-BGK."""

    kind: str
    tau: float
    prandtl: float = 1.0

    def __post_init__(self):
        kind = self.kind.lower()
        object.__setattr__(self, "kind", kind)
        if kind not in _COLLISION_KINDS:
            raise ParameterError(f"unknown collision kind {self.kind!r}")
        if self.tau <= 0.0:
            raise ParameterError(f"relaxation time must be positive, got {self.tau}")
        if kind != "bgk" and self.prandtl <= 0.0:
            raise ParameterError(f"Prandtl number must be positive, got {self.prandtl}")


def collision_invariants(grid: QuadratureRule) -> np.ndarray:
    """The collision-invariant basis {1, xi, xi^2} sampled on the grid:
    a writable copy of the leading rows of ``grid.xi_powers``."""
    return grid.xi_powers(2).copy()


def moments_of_profile(values: np.ndarray, grid: QuadratureRule) -> MomentState:
    """Macroscopic moments of a single velocity profile: the one-row
    view of ``_moments_of_values``."""
    vals = np.asarray(values, dtype=float)[None]
    with np.errstate(divide="ignore", invalid="ignore"):
        rho, u, theta, q = (float(m[0]) for m in _moments_of_values(vals, grid))
    if rho <= 0.0:
        raise RealizabilityError(f"computed density {rho} is not positive")
    if theta <= 0.0:
        raise RealizabilityError(f"computed temperature {theta} is not positive")
    return MomentState(rho=rho, u=u, theta=theta, heat_flux=q)


def maxwellian(m: MomentState, grid: QuadratureRule) -> np.ndarray:
    """rho (2 pi theta)^{-1/2} exp(-(xi-u)^2 / (2 theta)) on the nodes."""
    c = grid.nodes - m.u
    return m.rho / np.sqrt(2.0 * np.pi * m.theta) * np.exp(-c * c / (2.0 * m.theta))


def collision_rate(model: CollisionModel) -> float:
    """Prefactor of (target - f): 1/tau, except Pr/tau for ES-BGK."""
    if model.kind == "esbgk":
        return model.prandtl / model.tau
    return 1.0 / model.tau


def _moments_of_values(vals: np.ndarray, grid: QuadratureRule, out=None, heat_flux=True,
                       work: WorkArrays | None = None):
    """Vectorized (rho, u, theta, q) of stacked velocity profiles; q is
    None unless ``heat_flux``.  ``out``, an array of the shape of
    ``vals``, and ``work`` are used as work space in place of new arrays."""
    rho, u = moments(vals, grid, 1).T
    u /= rho
    c = centered(grid.nodes, u, out)
    q = None
    if heat_flux:
        c3 = np.multiply(c, c, out=take(work, "kin.scratch", c.shape))  # c * c * c * vals
        c3 *= c
        c3 *= vals
        q = integrate(c3, grid) / rho
    # c * c * vals, in place
    c *= c
    c *= vals
    theta = integrate(c, grid) / rho
    return rho, u, theta, q


def _target_batch(model: CollisionModel, vals: np.ndarray, grid: QuadratureRule, out=None,
                  work: WorkArrays | None = None, heat_flux_scale: float = 1.0):
    """Collision targets for stacked profiles (d=1 formulas; Shakhov's at
    the heat flux times ``heat_flux_scale``), written into ``out`` when
    given (an array of the shape of ``vals`` that does not overlap it),
    with ``work`` as work space.  A row whose density or temperature is
    not positive raises StepError naming the lowest such row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rho, u, theta, q = _moments_of_values(
            vals, grid, out, heat_flux=model.kind == "shakhov", work=work)
    if np.any(rho <= 0.0) or np.any(theta <= 0.0):
        bad = int(np.flatnonzero((rho <= 0.0) | (theta <= 0.0))[0])
        raise StepError("unrealizable moments during collision evaluation", cell=bad)
    if q is not None:
        q *= heat_flux_scale
    return _target_of_moments(model, rho, u, theta, q, grid, out, work)


def _target_of_moments(model: CollisionModel, rho, u, theta, q, grid: QuadratureRule, out=None,
                       work: WorkArrays | None = None):
    """Collision targets from stacked moments (rho, u, theta, q) (d=1
    formulas), written into ``out`` when given, with ``work`` as work space."""
    th = theta[:, None]
    c = centered(grid.nodes, u, out)
    factor = None
    if model.kind == "shakhov":
        # 1 + (1 - Pr) q c / (3 theta^2) * (c * c / (2 theta) - 1.5)
        factor = np.multiply((1.0 - model.prandtl) * q[:, None], c,
                             out=take(work, "kin.factor", c.shape))
        factor /= 3.0 * th**2
        poly = np.multiply(c, c, out=take(work, "kin.scratch", c.shape))
        poly /= 2.0 * th
        poly -= 1.5
        factor *= poly
        factor += 1.0
    # rho (2 pi theta)^(-1/2) exp(-c^2 / (2 theta)), in place over c
    feq = c
    feq *= c
    feq /= 2.0 * th
    np.negative(feq, out=feq)
    np.exp(feq, out=feq)
    feq *= rho[:, None] / np.sqrt(2.0 * np.pi * th)
    if factor is not None:
        feq *= factor
    # BGK; ES-BGK degenerates to the Maxwellian in d=1 (pressure = theta)
    return feq


def _target_moments(model: CollisionModel, c: np.ndarray, power_sums, top: int) -> np.ndarray:
    """The moments 0..top of the collision targets of distributions with
    moments c_0..c_3 (rows last, c[k] the k-th moments), shape (top + 1,
    rows), from Gaussian power sums alone.  The moments are taken in one
    frame x, raw (x = xi) or shifted and scaled, and
    ``power_sums(mean, var, k)`` gives, rows last, that frame's power
    sums 0..k of exp(-(x - mean)^2 / (2 var)).

    The target has the density c_0, the mean u_f = c_1 / c_0, and the
    second and third central moments theta_f and q of the distribution
    divided by c_0; a row whose density or temperature is not positive
    raises StepError naming the lowest such row.  Its moments are
    c_0 (2 pi theta_f)^(-1/2) times sums of the power sums at (u_f,
    theta_f): the Maxwellian's (BGK, and ES-BGK in d = 1), plus
    Shakhov's heat-flux term.  Every operation is elementwise over the
    rows."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = c[0]
        u = c[1] / rho
        theta = (c[2] - 2.0 * u * c[1] + u * u * c[0]) / rho
    if np.any(rho <= 0.0) or np.any(theta <= 0.0):
        bad = int(np.flatnonzero((rho <= 0.0) | (theta <= 0.0))[0])
        raise StepError("unrealizable moments during collision evaluation", cell=bad)
    shakhov = model.kind == "shakhov"
    P = power_sums(u, theta, top + 3 * shakhov)
    T = P[: top + 1]
    if shakhov:
        q = (c[3] - 3.0 * u * c[2] + 3.0 * u * u * c[1] - u * u * u * c[0]) / rho
        # sum w x^k (x - u)^i G for i = 1, 2, 3 by differences
        e1 = P[1:] - u * P[:-1]
        e2 = e1[1:] - u * e1[:-1]
        e3 = e2[1:] - u * e2[:-1]
        # (1 - Pr) q / (3 theta^2) * ((x - u)^3 / (2 theta) - 1.5 (x - u))
        T = T + (1.0 - model.prandtl) * q / (3.0 * theta**2) * (e3 / (2.0 * theta)
                                                                - 1.5 * e1[: top + 1])
    return T * (rho / np.sqrt(2.0 * np.pi * theta))


def _collision_rows(model: CollisionModel, vals: np.ndarray, grid: QuadratureRule, out=None,
                    work: WorkArrays | None = None):
    """Q[f] for stacked profiles, written into ``out`` when given (as
    ``_target_batch``'s), with ``work`` as work space; nonpositive
    collision moments raise RealizabilityError for the lowest such row."""
    try:
        q = _target_batch(model, vals, grid, out, work)
    except StepError as exc:
        err = RealizabilityError(str(exc))
        err.row = exc.cell
        raise err from None
    # collision_rate(model) * (targets - vals)
    q -= vals
    q *= collision_rate(model)
    return q


def collision_profile(model: CollisionModel, values: np.ndarray, grid: QuadratureRule) -> np.ndarray:
    """Q[f] for a single velocity profile: the one-row view of ``_collision_rows``."""
    return _collision_rows(model, np.asarray(values, dtype=float)[None], grid)[0]


def _target_linearization(model: CollisionModel, rho, u, theta, grid: QuadratureRule):
    """The collision target linearized at the Maxwellian (rho, u, theta)
    on the grid: DT, shape (n, 4), its partials in (rho, u, theta, q),
    and Dm, shape (4, n), the derivative of the quadrature moments
    (rho, u, theta, q) of f.  The linearized operator is
    ``L h = collision_rate(model) * (DT @ (Dm @ h) - h)``."""
    c = grid.nodes - u
    feq = maxwellian(MomentState(rho=rho, u=u, theta=theta), grid)
    d_q = np.zeros_like(c)
    if model.kind == "shakhov":
        # BGK and ES-BGK (d = 1) targets do not depend on q
        d_q = (1.0 - model.prandtl) * feq * c / (3.0 * theta**2) * (c * c / (2.0 * theta) - 1.5)
    DT = np.stack(
        [feq / rho, feq * c / theta, feq * (c * c - theta) / (2.0 * theta**2), d_q], axis=1
    )
    Dm = np.stack([np.ones_like(c), c, c * c - theta, c * (c * c - 3.0 * theta)])
    Dm[1:] /= rho
    return DT, Dm * grid.weights


def entropy_density(values: np.ndarray, grid: QuadratureRule, out: np.ndarray | None = None):
    """Integral of f log f - f over the ordinate, with 0 log 0 := 0: a
    float for one profile, one value per row for stacked profiles.
    ``out``, an array of the shape of ``values`` that does not overlap
    it, is used as work space in place of a new array."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != grid.nodes.shape:
        raise ParameterError(
            f"profile length {values.shape[-1:]} does not match rule nodes {grid.nodes.shape}"
        )
    # fmin skips NaN, as the comparison does
    if values.size and np.fmin.reduce(values, axis=None) < 0.0:
        raise RealizabilityError("entropy requires a nonnegative profile")
    # f log f - f where f > 0, else 0
    eta = np.maximum(values, POSITIVITY_FLOOR, out=out)
    np.log(eta, out=eta)
    eta *= values
    eta -= values
    np.copyto(eta, 0.0, where=~(values > 0.0))
    return integrate(eta, grid)


def entropy(f: DistributionField) -> float:
    """Sum over cells of dx * integral(f log f - f)."""
    return float(np.add.reduce(f.mesh.dx * entropy_density(f.values, f.grid)))


def entropy_production(f: DistributionField, model: CollisionModel, cell: int) -> float:
    """S(f) = integral of log(f) Q[f]; nonpositive by the H-theorem."""
    values = f.values[cell]
    q = collision_profile(model, values, f.grid)
    logf = np.log(np.maximum(values, POSITIVITY_FLOOR))
    return integrate(logf * q, f.grid)


def march(state, final_time: float, output_interval: float | None, advance, record) -> None:
    """The output cadence shared by both solvers: ``record(state)`` at
    t = 0, at every multiple of ``output_interval`` and at ``final_time``.

    ``advance(state, target)`` returns a later state whose ``time`` does
    not pass ``target``; a time within ``1e-12 * max(final_time, 1)`` of
    an output time counts as landing on it.  ``output_interval``
    defaults to ``final_time`` (1 when that is 0)."""
    if output_interval is None:
        output_interval = final_time if final_time > 0 else 1.0
    if not output_interval > 0.0:
        raise ParameterError(f"output interval must be positive, got {output_interval}")
    record(state)
    next_out = output_interval
    eps = 1e-12 * max(final_time, 1.0)
    while state.time < final_time - eps:
        target = min(next_out, final_time)
        state = advance(state, target)
        if state.time >= target - eps:
            record(state)
            if abs(target - next_out) < eps:
                next_out += output_interval


@dataclass(frozen=True)
class FluxCheckResult:
    passed: bool
    worst_cross: float
    threshold: float
    witness: tuple[np.ndarray, np.ndarray] | None = None


def _bump(n_nodes: int, lo: int, hi: int) -> np.ndarray:
    """Smooth bump supported on node indices [lo, hi)."""
    h = np.zeros(n_nodes)
    t = np.linspace(0.0, np.pi, hi - lo)
    h[lo:hi] = np.sin(t) ** 2
    return h


def flux_existence_check(
    c,
    f: np.ndarray,
    trials: int,
    grid: QuadratureRule,
    seed: int = 0,
) -> FluxCheckResult:
    """Test whether the functional ``c`` can possess a flux.

    A quantity has a flux only if its second derivative acts like a
    multiplication operator, so cross second differences along
    disjoint-support bumps must vanish.  ``c`` maps a velocity profile
    (array aligned with the grid) to a float.  The bumps need a grid of
    at least 8 nodes.
    """
    if trials < 1:
        raise ParameterError("need at least one trial pair")
    f = np.asarray(f, dtype=float)
    if f.shape != grid.nodes.shape:
        raise ParameterError(
            f"profile shape {f.shape} does not match rule nodes {grid.nodes.shape}")
    n = f.size
    if n < 8:
        raise ParameterError(f"the flux check needs at least 8 velocity nodes, got {n}")
    step = 1e-4 * (np.abs(f).max() or 1.0)
    rng = default_rng(seed)

    def second_cross(h1, h2):
        # symmetric 4-point stencil: O(h^2) clean, no first-order bias
        return (
            c(f + step * h1 + step * h2)
            - c(f + step * h1 - step * h2)
            - c(f - step * h1 + step * h2)
            + c(f - step * h1 - step * h2)
        ) / (4.0 * step * step)

    tol = 1e-6
    worst = 0.0
    witness = None
    width = max(3, n // 8)
    for _ in range(trials):
        lo1 = int(rng.integers(0, n // 2 - width))
        lo2 = int(rng.integers(n // 2, n - width))
        h1 = _bump(n, lo1, lo1 + width)
        h2 = _bump(n, lo2, lo2 + width)
        cross = abs(second_cross(h1, h2))
        diag = abs(second_cross(h1, h1))
        bound = tol * (1.0 + diag)
        if cross > worst:
            worst = cross
        if cross > bound and witness is None:
            witness = (h1, h2)
    return FluxCheckResult(
        passed=witness is None, worst_cross=worst, threshold=tol, witness=witness
    )
