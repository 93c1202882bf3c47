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

from .ansatz import AnsatzPoint, ConservativeMoment, Manifold, _sign_rule
from .errors import (
    DegenerateChartError,
    KinReduceError,
    ParameterError,
    RealizabilityError,
    StepError,
)
from .kinetic import CollisionModel, _target_batch, collision_rate
from .quadrature import QuadratureRule

__all__ = [
    "ReducedCoefficients",
    "coefficients_batch",
    "gram_matrix",
    "flux_matrix",
    "reduced_source",
    "assemble_coefficients",
    "tangent_projection",
    "residual_batch",
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


def _metric(manifold: Manifold, omegas: np.ndarray, grid: QuadratureRule) -> np.ndarray:
    """Metric-weighted quadrature weights, one row per omega, with the
    weight's overflow guard applied row by row."""
    return _by_row(lambda w: manifold.weight_batch(w, grid.nodes), omegas) * grid.weights


def _grams(basis: np.ndarray, mu: np.ndarray, xi: np.ndarray):
    """g(b_k, b_l) and g(b_k, xi b_l) for every row, not symmetrized."""
    basis_t = np.swapaxes(basis, -1, -2)
    weighted = basis * mu[:, None, :]
    return weighted @ basis_t, (weighted * xi) @ basis_t


def _cholesky(a0: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(a0)
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


def _solve_spd(a0: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """a0 x = rhs by a Cholesky factorization, for one matrix or a stack
    of them; a matrix that is not SPD raises DegenerateChartError, for a
    stack the lowest such row's."""
    chol = _by_row(_cholesky, a0) if a0.ndim > 2 else _cholesky(a0)
    y = np.linalg.solve(chol, rhs[..., None])
    return np.linalg.solve(np.swapaxes(chol, -1, -2), y)[..., 0]


def _collision_rows(model: CollisionModel, vals: np.ndarray, grid: QuadratureRule):
    """Q[f] for stacked profiles; nonpositive collision moments raise
    RealizabilityError for the lowest such row."""
    try:
        targets = _target_batch(model, vals, grid)
    except StepError as exc:
        err = RealizabilityError(str(exc))
        err.row = exc.cell
        raise err from None
    return collision_rate(model) * (targets - vals)


def _stack(manifold: Manifold, omegas) -> np.ndarray:
    omegas = np.atleast_2d(np.asarray(omegas, dtype=float))
    if omegas.ndim != 2 or omegas.shape[1] != manifold.dim:
        raise ParameterError(
            f"omegas have shape {omegas.shape}, manifold dimension is {manifold.dim}"
        )
    return omegas


def _jet(manifold: Manifold, omegas: np.ndarray, grid: QuadratureRule):
    """f and the chart tangent bases on the nodes from one evaluation,
    after ``check_params``; both rules name their lowest failing row."""
    _by_row(manifold.check_params, omegas)
    return _by_row(lambda w: manifold.jet_batch(w, grid.nodes), omegas)


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
    omegas = _stack(manifold, omegas)
    f, basis = _jet(manifold, omegas, grid)
    mu = _metric(manifold, omegas, grid)
    a0, a1 = (_symmetrize(g) for g in _grams(basis, mu, grid.nodes))
    if model is None:
        q = np.zeros(omegas.shape)
    else:
        vals = _by_row(_sign_rule, f)
        q = np.einsum("mkn,mn->mk", basis, _collision_rows(model, vals, grid) * mu)
    if check_spd:
        _by_row(_cholesky, a0)
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
    basis = p.manifold.tangent_batch(p.omega, grid.nodes)
    raw = _grams(basis, _metric(p.manifold, p.omega[None], grid), grid.nodes)[1][0]
    denom = np.abs(raw).max()
    if denom == 0.0:
        return 0.0
    return float(np.abs(raw - raw.T).max() / denom)


def _projection_frame(manifold: Manifold, chart: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Frames spanning the tangent spaces, for projector assembly, from
    the chart bases ``chart``.

    The (alpha, u, theta) chart of ConservativeMoment loses rank at
    Maxwellian points while the tangent space itself stays
    (N+3)-dimensional: the Gaussian times monomials frame spans it
    everywhere and keeps the Gram a well-conditioned Hankel matrix, so
    projections use it."""
    if isinstance(manifold, ConservativeMoment):
        # the chart's first direction is the Gaussian factor itself
        powers = np.stack([xi**k for k in range(manifold.n_moments)])
        return chart[:, :1, :] * powers
    return chart


def _project(frame: np.ndarray, mu: np.ndarray, h: np.ndarray):
    """Metric-orthogonal projections of stacked profiles ``h`` (m, n) onto
    the spans of ``frame`` (m, k, n): (coefficients, projected profiles)."""
    weighted = frame * mu[:, None, :]
    gram = _symmetrize(weighted @ np.swapaxes(frame, -1, -2))
    coeff = _solve_spd(gram, (weighted @ h[..., None])[..., 0])
    return coeff, (coeff[:, None, :] @ frame)[:, 0, :]


def tangent_projection(p: AnsatzPoint, h: np.ndarray, grid: QuadratureRule):
    """Metric-orthogonal projection of a velocity profile onto the
    tangent space: returns (coefficients, projected profile).

    Coefficients are w.r.t. the projection frame (the monomial frame
    for ConservativeMoment, the chart basis otherwise)."""
    chart = p.manifold.tangent_batch(p.omega, grid.nodes)
    frame = _projection_frame(p.manifold, chart, grid.nodes)
    mu = _metric(p.manifold, p.omega[None], grid)
    coeff, ph = _project(frame, mu, np.asarray(h, dtype=float)[None])
    return coeff[0], ph[0]


def residual_batch(
    manifold: Manifold,
    omegas: np.ndarray,
    grads: np.ndarray,
    model: CollisionModel | None,
    grid: QuadratureRule,
) -> np.ndarray:
    """Model-reduction residuals R = (I - P)(xi * d_x f_hat - Q[f_hat]) at
    every row of a stack of parameters ``omegas``, shape (m, d), with
    spatial parameter gradients ``grads``, shape (m, d); returns the
    residual profiles, shape (m, n).  ``model=None`` drops the collision
    term.

    Every row obeys the rules of a single point, in its order:
    ``check_params``, positive collision moments of the raw (unclipped)
    f, the metric-weight overflow guard and an SPD projection Gram.  The
    first rule that fails raises its typed error for its lowest failing
    row, with ``row`` set to that row."""
    omegas = _stack(manifold, omegas)
    grads = np.atleast_2d(np.asarray(grads, dtype=float))
    if grads.shape != omegas.shape:
        raise ParameterError(
            f"gradients have shape {grads.shape}, parameters {omegas.shape}"
        )
    f, chart = _jet(manifold, omegas, grid)
    h = grid.nodes * (grads[:, None, :] @ chart)[:, 0, :]
    if model is not None:
        # raw (possibly boundary-riding) values: the collision term uses
        # the same signed integrals as the solver
        h = h - _collision_rows(model, f, grid)
    mu = _metric(manifold, omegas, grid)
    return h - _project(_projection_frame(manifold, chart, grid.nodes), mu, h)[1]


def residual(
    p: AnsatzPoint,
    domega_dx: np.ndarray,
    model: CollisionModel | None,
    grid: QuadratureRule,
) -> np.ndarray:
    """Model-reduction residual at one point: the one-row view of
    ``residual_batch``.  ``domega_dx`` is the spatial gradient of the
    parameters at this point."""
    return residual_batch(p.manifold, p.omega, domega_dx, model, grid)[0]
