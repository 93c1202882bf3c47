"""A posteriori error machinery: residual norms along a reduced
trajectory, an empirical Lipschitz constant for the collision operator,
the Groenwall-type bound

    |df|_p(T) <= |df|_p(0) + int_0^T e^{L_Q (T - s)} |R(s)|_p ds,

and the measured reduced-vs-reference error it must dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .ansatz import hermite_polynomial
from .errors import DegenerateChartError, ParameterError, RealizabilityError, StepError
from .kinetic import (
    CollisionModel,
    MomentState,
    _collision_rows,
    _moments_of_values,
    maxwellian,
)
# collision_profile is not called here; it stays a module attribute
# because perfbench/tracing.py wraps it by name
from .kinetic import collision_profile  # noqa: F401
# residual is not called here; it stays a module attribute because
# perfbench/tracing.py wraps it by name
from .projection import residual, residual_batch  # noqa: F401
from .quadrature import QuadratureRule, integrate
from .reduced_solver import ReducedTrajectory
from .reference_solver import KineticTrajectory

__all__ = [
    "ErrorReport",
    "field_norm",
    "residual_norm_series",
    "lipschitz_estimate",
    "gronwall_bound",
    "actual_error",
    "build_error_report",
]

_LIPSCHITZ_SAFETY = 1.5
# size of a Lipschitz perturbation relative to its base profile's peak
_PERTURBATION_SCALE = 0.1


@dataclass
class ErrorReport:
    times: np.ndarray
    residual_norms: np.ndarray
    lipschitz: float
    bound: np.ndarray
    actual: np.ndarray
    p: float = 2.0
    ratio: np.ndarray = field(init=False)
    violated: bool = field(init=False)

    def __post_init__(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            self.ratio = np.where(self.actual > 0.0, self.bound / self.actual, np.inf)
        # NaN in either series counts as a violation
        self.violated = not bool(np.all(self.actual <= self.bound * (1.0 + 1e-12)))


def field_norm(values: np.ndarray, grid: QuadratureRule, dx: float, p: float) -> float:
    """(sum_cells dx * int |v|^p dxi)^(1/p) for stacked profiles."""
    if not 1.0 < p < np.inf:
        raise ParameterError(f"norm exponent must lie in (1, inf), got {p}")
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return float((dx * np.add.reduce(integrate(np.abs(values) ** p, grid))) ** (1.0 / p))


def _central_gradient(omegas: np.ndarray, dx: float) -> np.ndarray:
    return (np.roll(omegas, -1, axis=0) - np.roll(omegas, 1, axis=0)) / (2.0 * dx)


def residual_norm_series(traj: ReducedTrajectory, model, p: float = 2.0) -> np.ndarray:
    """Residual norm at each recorded time, with parameter gradients by
    periodic central differences: one batched residual per time.  A
    cell whose residual fails becomes a StepError naming the cell and
    the time."""
    dx = traj.mesh.dx
    out = np.empty(traj.times.size)
    for t in range(traj.times.size):
        omegas = traj.omegas[t]
        grads = _central_gradient(omegas, dx)
        try:
            rows = residual_batch(traj.manifold, omegas, grads, model, traj.grid)
        except (RealizabilityError, DegenerateChartError) as exc:
            i = exc.row
            raise StepError(f"{exc} (parameters {omegas[i].tolist()})",
                            cell=i, time=float(traj.times[t])) from exc
        out[t] = field_norm(rows, traj.grid, dx, p)
    return out


def lipschitz_estimate(
    model: CollisionModel,
    sample_moments: list[MomentState],
    grid: QuadratureRule,
    p: float = 2.0,
    pairs_per_sample: int = 8,
    seed: int = 0,
) -> float:
    """Empirical Lipschitz constant of the collision operator.

    Maximizes int |f1-f2|^{p-1} |Q[f1]-Q[f2]| / int |f1-f2|^p over
    sampled pairs (f_hat + eps*h, f_hat) and returns the maximum with a
    1.5x safety factor.  Moment-preserving perturbations reproduce the
    BGK quotient 1/tau exactly; general perturbations probe the
    nonlinearity of the target.  Every profile of every pair goes
    through one batched collision-target evaluation.
    """
    if not 1.0 < p < np.inf:
        raise ParameterError(f"norm exponent must lie in (1, inf), got {p}")
    rng = default_rng(seed)
    xi = grid.nodes
    bases, perts = [], []
    for m in sample_moments:
        base = maxwellian(m, grid)
        w = (xi - m.u) / np.sqrt(m.theta)
        modes = np.array([base * hermite_polynomial(k, w) for k in (3, 4, 5)])
        for _ in range(pairs_per_sample):
            matched = rng.normal(size=len(modes)) @ modes
            bumps = np.exp(-((w - rng.uniform(-2.0, 2.0)) ** 2) / 0.5) * base
            perts += [matched, bumps]
        bases.append(base)
    if not perts:
        return 0.0
    owner = np.repeat(np.arange(len(bases)), 2 * pairs_per_sample)
    h = np.array(perts)
    base = np.array(bases)[owner]
    scale = np.abs(h).max(axis=1, keepdims=True)
    # a zero perturbation leaves f1 = base, whose pair is dropped below
    delta = _PERTURBATION_SCALE * h / np.where(scale == 0.0, 1.0, scale)
    f1 = np.maximum(base + delta * base.max(axis=1, keepdims=True), 0.0)
    d = f1 - base
    profiles = np.concatenate([bases, f1])
    q = _collision_rows(model, profiles, grid)
    dq = q[len(bases):] - q[owner]
    denom = integrate(np.abs(d) ** p, grid)
    numer = integrate(np.abs(d) ** (p - 1.0) * np.abs(dq), grid)
    live = denom > 0.0
    worst = float((numer[live] / denom[live]).max(initial=0.0))
    return _LIPSCHITZ_SAFETY * worst


def gronwall_bound(
    delta0: float,
    times: np.ndarray,
    residual_norms: np.ndarray,
    lipschitz: float,
) -> np.ndarray:
    """Trapezoidal evaluation of the convolution bound at the output
    times; the initial error enters uninflated."""
    if lipschitz < 0.0:
        raise ParameterError(f"Lipschitz constant must be >= 0, got {lipschitz}")
    if delta0 < 0.0:
        raise ParameterError("initial error must be >= 0")
    times = np.asarray(times, dtype=float)
    residual_norms = np.asarray(residual_norms, dtype=float)
    if times.shape != residual_norms.shape:
        raise ParameterError("times and residual series must align")
    bound = np.empty_like(times)
    for i, T in enumerate(times):
        kernel = np.exp(lipschitz * (T - times[: i + 1])) * residual_norms[: i + 1]
        steps = np.diff(times[: i + 1])
        bound[i] = delta0 + float(
            np.add.reduce(0.5 * (kernel[1:] + kernel[:-1]) * steps)
        )
    return bound


def actual_error(
    reduced: ReducedTrajectory,
    reference: KineticTrajectory,
    p: float = 2.0,
) -> np.ndarray:
    """|f_hat - f|_p at each shared output time (meshes must match)."""
    if reduced.times.shape != reference.times.shape or not np.allclose(
        reduced.times, reference.times, rtol=0.0, atol=1e-10
    ):
        raise ParameterError("output times do not match")
    if len(reduced.grid) != len(reference.grid) or not np.array_equal(
        reduced.grid.nodes, reference.grid.nodes
    ):
        raise ParameterError("velocity grids do not match")
    if reduced.mesh.cells != reference.mesh.cells or not np.isclose(
        reduced.mesh.dx, reference.mesh.dx
    ):
        raise ParameterError("spatial meshes do not match")
    out = np.empty(reduced.times.size)
    for t in range(reduced.times.size):
        vals = reduced.manifold.values_batch(reduced.omegas[t], reduced.grid.nodes)
        out[t] = field_norm(
            vals - reference.snapshots[t], reduced.grid, reduced.mesh.dx, p
        )
    return out


def build_error_report(
    reduced: ReducedTrajectory,
    reference: KineticTrajectory,
    model: CollisionModel,
    p: float = 2.0,
    seed: int = 0,
) -> ErrorReport:
    """End-to-end a posteriori report for a matched pair of runs.

    The Lipschitz constant is estimated locally around the trajectory
    tube and labeled empirical: its samples are the moments of the
    run's own cell 0 at the first, middle and last output times.
    """
    res = residual_norm_series(reduced, model, p)
    frames = [0, reduced.times.size // 2, reduced.times.size - 1]
    vals = reduced.manifold.values_batch(reduced.omegas[frames, 0], reduced.grid.nodes)
    rho, u, theta, _ = _moments_of_values(vals, reduced.grid)
    samples = [MomentState(rho=r, u=v, theta=th) for r, v, th in zip(rho, u, theta)]
    lip = lipschitz_estimate(model, samples, grid=reduced.grid, p=p, seed=seed)
    act = actual_error(reduced, reference, p)
    bound = gronwall_bound(act[0], reduced.times, res, lip)
    return ErrorReport(
        times=reduced.times.copy(),
        residual_norms=res,
        lipschitz=lip,
        bound=bound,
        actual=act,
        p=p,
    )
