"""Reduced-system coefficient assembly and the tangent-space projector.

The reduced dynamics reads A0(omega) d_t omega + A1(omega) d_x omega =
Q(omega) with A0_kl = g(b_k, b_l), A1_kl = g(b_k, xi b_l) and
Q_k = g(b_k, Q[f_hat]), where g is the manifold's weighted-L2 metric
and b_k the tangent basis.  A0 is the symmetrizer: SPD by Gram
positivity, with A1 symmetric, which certifies hyperbolicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ansatz import AnsatzPoint, evaluate, metric_weight, tangent_basis
from .errors import DegenerateChartError
from .kinetic import CollisionModel, collision_profile
from .quadrature import QuadratureRule

__all__ = [
    "ReducedCoefficients",
    "gram_matrix",
    "flux_matrix",
    "reduced_source",
    "assemble_coefficients",
    "tangent_projection",
    "residual",
]


def _symmetrize(m: np.ndarray) -> np.ndarray:
    # quadrature is symmetric analytically, round-off is not
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class ReducedCoefficients:
    """Dense coefficients (A0, A1, Q) of the reduced system at one point."""

    a0: np.ndarray
    a1: np.ndarray
    q: np.ndarray


def _basis_and_weight(p: AnsatzPoint, grid: QuadratureRule):
    basis = tangent_basis(p, grid).columns
    w = metric_weight(p, grid).weight
    return basis, w * grid.weights


def _projection_frame(p: AnsatzPoint, grid: QuadratureRule):
    """Frame spanning the tangent space, for projector assembly.

    The (alpha, u, theta) chart of ConservativeMoment loses rank at
    Maxwellian points while the tangent space itself stays
    (N+3)-dimensional: the Gaussian times monomials frame spans it
    everywhere and keeps the Gram a well-conditioned Hankel matrix, so
    projections use it."""
    from .ansatz import ConservativeMoment

    if isinstance(p.manifold, ConservativeMoment):
        basis = p.manifold.monomial_basis(p.omega, grid.nodes)
        w = metric_weight(p, grid).weight
        return basis, w * grid.weights
    return _basis_and_weight(p, grid)


def gram_matrix(p: AnsatzPoint, grid: QuadratureRule) -> np.ndarray:
    """A0_kl = g(b_k, b_l); raises if the chart is degenerate there."""
    basis, mu = _basis_and_weight(p, grid)
    a0 = _symmetrize(np.einsum("kn,n,ln->kl", basis, mu, basis))
    try:
        scipy.linalg.cholesky(a0, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise DegenerateChartError(f"Gram matrix not SPD: {exc}") from exc
    return a0


def flux_matrix(p: AnsatzPoint, grid: QuadratureRule) -> np.ndarray:
    """A1_kl = g(b_k, xi b_l), symmetrized."""
    basis, mu = _basis_and_weight(p, grid)
    return _symmetrize(np.einsum("kn,n,ln->kl", basis, mu * grid.nodes, basis))


def flux_asymmetry(p: AnsatzPoint, grid: QuadratureRule) -> float:
    """Pre-symmetrization defect |A1 - A1^T|_inf / |A1|_inf."""
    basis, mu = _basis_and_weight(p, grid)
    raw = np.einsum("kn,n,ln->kl", basis, mu * grid.nodes, basis)
    denom = np.abs(raw).max()
    if denom == 0.0:
        return 0.0
    return float(np.abs(raw - raw.T).max() / denom)


def reduced_source(p: AnsatzPoint, model: CollisionModel, grid: QuadratureRule) -> np.ndarray:
    """Q_k = g(b_k, Q[f_hat])."""
    basis, mu = _basis_and_weight(p, grid)
    q_vals = collision_profile(model, evaluate(p, grid), grid)
    return basis @ (q_vals * mu)


def assemble_coefficients(
    p: AnsatzPoint, model: CollisionModel, grid: QuadratureRule
) -> ReducedCoefficients:
    basis, mu = _basis_and_weight(p, grid)
    a0 = _symmetrize(np.einsum("kn,n,ln->kl", basis, mu, basis))
    a1 = _symmetrize(np.einsum("kn,n,ln->kl", basis, mu * grid.nodes, basis))
    q_vals = collision_profile(model, evaluate(p, grid), grid)
    return ReducedCoefficients(a0=a0, a1=a1, q=basis @ (q_vals * mu))


def _solve_spd(a0: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        cho = scipy.linalg.cho_factor(a0, lower=True)
    except scipy.linalg.LinAlgError:
        raise DegenerateChartError("Gram matrix not SPD") from None
    return scipy.linalg.cho_solve(cho, rhs)


def tangent_projection(p: AnsatzPoint, h: np.ndarray, grid: QuadratureRule):
    """Metric-orthogonal projection of a velocity profile onto the
    tangent space: returns (coefficients, projected profile).

    Coefficients are w.r.t. the projection frame (the monomial frame
    for ConservativeMoment, the chart basis otherwise)."""
    basis, mu = _projection_frame(p, grid)
    a0 = _symmetrize(np.einsum("kn,n,ln->kl", basis, mu, basis))
    rhs = basis @ (np.asarray(h, dtype=float) * mu)
    coeff = _solve_spd(a0, rhs)
    return coeff, coeff @ basis


def residual(
    p: AnsatzPoint,
    domega_dx: np.ndarray,
    model: CollisionModel | None,
    grid: QuadratureRule,
) -> np.ndarray:
    """Model-reduction residual R = (I - P)(xi * d_x f_hat - Q[f_hat]).

    ``domega_dx`` is the spatial gradient of the parameters at this
    point; pass ``model=None`` to drop the collision term.
    """
    chart = tangent_basis(p, grid).columns
    domega_dx = np.asarray(domega_dx, dtype=float)
    transport = grid.nodes * (domega_dx @ chart)
    if model is not None:
        # raw (possibly boundary-riding) values: the collision term uses
        # the same signed integrals as the solver
        source = collision_profile(model, p.manifold.values(p.omega, grid.nodes), grid)
    else:
        source = 0.0
    h = transport - source
    basis, mu = _projection_frame(p, grid)
    a0 = _symmetrize(np.einsum("kn,n,ln->kl", basis, mu, basis))
    coeff = _solve_spd(a0, basis @ (h * mu))
    return h - coeff @ basis
