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

from .ansatz import AnsatzPoint, ConservativeMoment, Manifold, evaluate_batch, tangent_basis
from .errors import (
    DegenerateChartError,
    KinReduceError,
    ParameterError,
    RealizabilityError,
    StepError,
)
from .kinetic import CollisionModel, _target_batch, collision_profile, collision_rate
from .quadrature import QuadratureRule

__all__ = [
    "ReducedCoefficients",
    "coefficients_batch",
    "gram_matrix",
    "flux_matrix",
    "reduced_source",
    "assemble_coefficients",
    "tangent_projection",
    "residual",
]


def _symmetrize(m: np.ndarray) -> np.ndarray:
    # quadrature is symmetric analytically, round-off is not
    return 0.5 * (m + np.swapaxes(m, -1, -2))


@dataclass(frozen=True)
class ReducedCoefficients:
    """Dense coefficients (A0, A1, Q) of the reduced system at one point,
    shapes (d, d), (d, d), (d,), or stacked over m points, shapes
    (m, d, d), (m, d, d), (m, d)."""

    a0: np.ndarray
    a1: np.ndarray
    q: np.ndarray


def _frame(manifold: Manifold, omegas: np.ndarray, grid: QuadratureRule):
    """Chart tangent bases b_k, shape (m, d, n), and the metric-weighted
    quadrature weights, shape (m, n)."""
    basis = manifold.tangent_batch(omegas, grid.nodes)
    return basis, manifold.weight_batch(omegas, grid.nodes) * grid.weights


def _grams(basis: np.ndarray, mu: np.ndarray, xi: np.ndarray):
    """g(b_k, b_l) and g(b_k, xi b_l) for every row, not symmetrized."""
    basis_t = np.swapaxes(basis, -1, -2)
    weighted = basis * mu[:, None, :]
    return weighted @ basis_t, (weighted * xi) @ basis_t


def _check_spd(a0: np.ndarray) -> None:
    try:
        np.linalg.cholesky(a0)
    except np.linalg.LinAlgError as exc:
        raise DegenerateChartError(f"Gram matrix not SPD: {exc}") from None


def _by_row(rule, stack: np.ndarray):
    """``rule(stack)``; when it raises a typed error, the error of the
    lowest row of the stack that fails on its own, with ``row`` set."""
    try:
        return rule(stack)
    except KinReduceError:
        for i in range(stack.shape[0]):
            try:
                rule(stack[i : i + 1])
            except KinReduceError as exc:
                exc.row = i
                raise exc from None
        raise


def coefficients_batch(
    manifold: Manifold,
    omegas: np.ndarray,
    model: CollisionModel | None,
    grid: QuadratureRule,
    check_spd: bool = True,
) -> ReducedCoefficients:
    """A0, A1 and Q at every row of a stack of parameters ``omegas``,
    shape (m, d); Q is zero when ``model`` is None.

    Every row obeys the rules of a single point, in its order:
    ``check_params``, the metric-weight overflow guard, ``evaluate``'s
    sign rule and positive collision moments (only Q evaluates f) and,
    with ``check_spd``, a Cholesky test of A0.  The first rule that
    fails raises its typed error for its lowest failing row, with
    ``row`` set to that row."""
    omegas = np.atleast_2d(np.asarray(omegas, dtype=float))
    if omegas.ndim != 2 or omegas.shape[1] != manifold.dim:
        raise ParameterError(
            f"omegas have shape {omegas.shape}, manifold dimension is {manifold.dim}"
        )
    _by_row(manifold.check_params, omegas)
    basis, mu = _by_row(lambda w: _frame(manifold, w, grid), omegas)
    a0, a1 = (_symmetrize(g) for g in _grams(basis, mu, grid.nodes))
    if model is None:
        q = np.zeros(omegas.shape)
    else:
        vals = _by_row(lambda w: evaluate_batch(manifold, w, grid), omegas)
        try:
            targets = _target_batch(model, vals, grid)
        except StepError as exc:
            err = RealizabilityError(str(exc))
            err.row = exc.cell
            raise err from None
        q_vals = collision_rate(model) * (targets - vals)
        q = np.einsum("mkn,mn->mk", basis, q_vals * mu)
    if check_spd:
        _by_row(_check_spd, a0)
    return ReducedCoefficients(a0, a1, q)


def assemble_coefficients(
    p: AnsatzPoint,
    model: CollisionModel | None,
    grid: QuadratureRule,
    check_spd: bool = False,
) -> ReducedCoefficients:
    """(A0, A1, Q) at one point: the one-row view of ``coefficients_batch``.
    A0 is tested only with ``check_spd``: at chart-degenerate points A0
    is singular while A1 and Q still exist."""
    c = coefficients_batch(p.manifold, p.omega, model, grid, check_spd)
    return ReducedCoefficients(a0=c.a0[0], a1=c.a1[0], q=c.q[0])


def gram_matrix(p: AnsatzPoint, grid: QuadratureRule) -> np.ndarray:
    """A0_kl = g(b_k, b_l); raises if the chart is degenerate there."""
    return assemble_coefficients(p, None, grid, check_spd=True).a0


def flux_matrix(p: AnsatzPoint, grid: QuadratureRule) -> np.ndarray:
    """A1_kl = g(b_k, xi b_l), symmetrized."""
    return assemble_coefficients(p, None, grid).a1


def reduced_source(p: AnsatzPoint, model: CollisionModel, grid: QuadratureRule) -> np.ndarray:
    """Q_k = g(b_k, Q[f_hat])."""
    return assemble_coefficients(p, model, grid).q


def flux_asymmetry(p: AnsatzPoint, grid: QuadratureRule) -> float:
    """Pre-symmetrization defect |A1 - A1^T|_inf / |A1|_inf."""
    basis, mu = _frame(p.manifold, p.omega, grid)
    raw = _grams(basis, mu, grid.nodes)[1][0]
    denom = np.abs(raw).max()
    if denom == 0.0:
        return 0.0
    return float(np.abs(raw - raw.T).max() / denom)


def _projection_frame(p: AnsatzPoint, grid: QuadratureRule):
    """Frame spanning the tangent space, for projector assembly.

    The (alpha, u, theta) chart of ConservativeMoment loses rank at
    Maxwellian points while the tangent space itself stays
    (N+3)-dimensional: the Gaussian times monomials frame spans it
    everywhere and keeps the Gram a well-conditioned Hankel matrix, so
    projections use it."""
    manifold = p.manifold
    mu = manifold.weight(p.omega, grid.nodes) * grid.weights
    if isinstance(manifold, ConservativeMoment):
        return manifold.monomial_basis(p.omega, grid.nodes), mu
    return manifold.tangent(p.omega, grid.nodes), mu


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
    return h - tangent_projection(p, h, grid)[1]
