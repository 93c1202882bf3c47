"""Distribution fields, macroscopic moments, BGK-family collision
operators, entropy functionals and the diagonal-Hessian flux criterion.

Everything is one-dimensional in both space and ordinate velocity; the
Shakhov/ES-BGK formulas are the d-dimensional ones specialized with
d + 2 -> 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RealizabilityError, StepError
from .quadrature import QuadratureRule, integrate

__all__ = [
    "POSITIVITY_FLOOR",
    "SpatialMesh",
    "DistributionField",
    "MomentState",
    "CollisionModel",
    "collision_invariants",
    "compute_moments",
    "moments_of_profile",
    "maxwellian",
    "collision_target",
    "collision_apply",
    "entropy",
    "entropy_density",
    "entropy_production",
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
    periodic: bool = True

    def __post_init__(self):
        if self.cells < 1:
            raise ParameterError("mesh needs at least one cell")
        if self.length <= 0.0:
            raise ParameterError("mesh length must be positive")
        if not self.periodic:
            raise ParameterError("only periodic meshes are supported")

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
        if not np.all(np.isfinite(self.values)):
            raise RealizabilityError("distribution field contains NaN/Inf")
        if np.any(self.values < 0.0):
            raise RealizabilityError("distribution field has negative values")

    def copy(self) -> "DistributionField":
        return DistributionField(self.values.copy(), self.grid, self.mesh)


@dataclass(frozen=True)
class MomentState:
    """(rho, u, theta, P, q); for d=1 the pressure equals theta for any
    distribution, so ``pressure`` defaults from ``theta``."""

    rho: float
    u: float
    theta: float
    pressure: float | None = None
    heat_flux: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0.0):
            raise RealizabilityError(f"density must be positive, got {self.rho}")
        if not (np.isfinite(self.theta) and self.theta > 0.0):
            raise RealizabilityError(f"temperature must be positive, got {self.theta}")
        if self.pressure is None:
            object.__setattr__(self, "pressure", self.theta)
        elif self.pressure <= 0.0:
            raise RealizabilityError(f"pressure must be positive, got {self.pressure}")


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
    """The collision-invariant basis {1, xi, xi^2} sampled on the grid."""
    xi = grid.nodes
    return np.stack([np.ones_like(xi), xi, xi * xi])


def moments_of_profile(values: np.ndarray, grid: QuadratureRule) -> MomentState:
    """Macroscopic moments of a single velocity profile."""
    values = np.asarray(values, dtype=float)
    xi = grid.nodes
    rho = integrate(values, grid)
    if rho <= 0.0:
        raise RealizabilityError(f"computed density {rho} is not positive")
    u = integrate(xi * values, grid) / rho
    c = xi - u
    theta = integrate(c * c * values, grid) / rho
    if theta <= 0.0:
        raise RealizabilityError(f"computed temperature {theta} is not positive")
    q = integrate(c * c * c * values, grid) / rho
    return MomentState(rho=rho, u=u, theta=theta, pressure=theta, heat_flux=q)


def compute_moments(f: DistributionField, cell: int) -> MomentState:
    """Moments of the profile at one space cell via the grid's rule."""
    return moments_of_profile(f.values[cell], f.grid)


def maxwellian(m: MomentState, grid: QuadratureRule) -> np.ndarray:
    """rho (2 pi theta)^{-1/2} exp(-(xi-u)^2 / (2 theta)) on the nodes."""
    c = grid.nodes - m.u
    return m.rho / np.sqrt(2.0 * np.pi * m.theta) * np.exp(-c * c / (2.0 * m.theta))


def collision_target(model: CollisionModel, m: MomentState, grid: QuadratureRule) -> np.ndarray:
    """Relaxation target: f_eq (BGK), f_S (Shakhov) or f_G (ES-BGK)."""
    if model.kind == "bgk":
        return maxwellian(m, grid)
    if model.kind == "shakhov":
        c = grid.nodes - m.u
        factor = 1.0 + (1.0 - model.prandtl) * m.heat_flux * c / (3.0 * m.theta**2) * (
            c * c / (2.0 * m.theta) - 1.5
        )
        return maxwellian(m, grid) * factor
    # ES-BGK with scalar Lambda; in d=1 the pressure equals theta so the
    # target degenerates to the Maxwellian, but the formula is kept
    # general for externally supplied moment states.
    lam = m.theta / model.prandtl + (1.0 - 1.0 / model.prandtl) * m.pressure
    if lam <= 0.0:
        raise RealizabilityError(f"ES-BGK covariance Lambda = {lam} is not positive")
    c = grid.nodes - m.u
    return m.rho / np.sqrt(2.0 * np.pi * lam) * np.exp(-c * c / (2.0 * lam))


def collision_rate(model: CollisionModel) -> float:
    """Prefactor of (target - f): 1/tau, except Pr/tau for ES-BGK."""
    if model.kind == "esbgk":
        return model.prandtl / model.tau
    return 1.0 / model.tau


def collision_profile(model: CollisionModel, values: np.ndarray, grid: QuadratureRule) -> np.ndarray:
    """Q[f] for a single velocity profile."""
    m = moments_of_profile(values, grid)
    return collision_rate(model) * (collision_target(model, m, grid) - values)


def _moments_of_values(vals: np.ndarray, grid: QuadratureRule):
    """Vectorized (rho, u, theta, q) of stacked velocity profiles."""
    wts = grid.weights
    xi = grid.nodes
    rho = vals @ wts
    u = (vals @ (xi * wts)) / rho
    c = xi[None, :] - u[:, None]
    theta = np.einsum("mn,mn->m", vals, c * c * wts[None, :]) / rho
    q = np.einsum("mn,mn->m", vals, c * c * c * wts[None, :]) / rho
    return rho, u, theta, q


def _target_batch(model: CollisionModel, vals: np.ndarray, grid: QuadratureRule):
    """Collision targets for stacked profiles (d=1 formulas).  A row whose
    density or temperature is not positive raises StepError naming the
    lowest such row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rho, u, theta, q = _moments_of_values(vals, grid)
    if np.any(rho <= 0.0) or np.any(theta <= 0.0):
        bad = int(np.flatnonzero((rho <= 0.0) | (theta <= 0.0))[0])
        raise StepError("unrealizable moments during collision evaluation", cell=bad)
    c = grid.nodes[None, :] - u[:, None]
    th = theta[:, None]
    feq = rho[:, None] / np.sqrt(2.0 * np.pi * th) * np.exp(-c * c / (2.0 * th))
    if model.kind == "shakhov":
        factor = 1.0 + (1.0 - model.prandtl) * q[:, None] * c / (3.0 * th**2) * (
            c * c / (2.0 * th) - 1.5
        )
        return feq * factor
    # BGK; ES-BGK degenerates to the Maxwellian in d=1 (pressure = theta)
    return feq


def collision_apply(model: CollisionModel, f: DistributionField, cell: int) -> np.ndarray:
    """Q[f] at one space cell."""
    return collision_profile(model, f.values[cell], f.grid)


def entropy_density(values: np.ndarray, grid: QuadratureRule):
    """Integral of f log f - f over the ordinate, with 0 log 0 := 0: a
    float for one profile, one value per row for stacked profiles."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != grid.nodes.shape:
        raise ParameterError(
            f"profile length {values.shape[-1:]} does not match rule nodes {grid.nodes.shape}"
        )
    if np.any(values < 0.0):
        raise RealizabilityError("entropy requires a nonnegative profile")
    eta = np.where(
        values > 0.0,
        values * np.log(np.maximum(values, POSITIVITY_FLOOR)) - values,
        0.0,
    )
    # a row sum in the same order as ``integrate``'s
    out = np.add.reduce(eta * grid.weights, axis=-1)
    return float(out) if out.ndim == 0 else out


def entropy(f: DistributionField) -> float:
    """Sum over cells of dx * integral(f log f - f)."""
    return float(np.add.reduce(f.mesh.dx * entropy_density(f.values, f.grid)))


def entropy_production(f: DistributionField, model: CollisionModel, cell: int) -> float:
    """S(f) = integral of log(f) Q[f]; nonpositive by the H-theorem."""
    values = f.values[cell]
    q = collision_apply(model, f, cell)
    logf = np.log(np.maximum(values, POSITIVITY_FLOOR))
    return integrate(logf * q, f.grid)


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
    (array aligned with the grid) to a float.
    """
    if trials < 1:
        raise ParameterError("need at least one trial pair")
    f = np.asarray(f, dtype=float)
    n = f.size
    step = 1e-4 * (np.abs(f).max() or 1.0)
    rng = np.random.default_rng(seed)

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
