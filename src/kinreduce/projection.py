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
from .errors import DegenerateChartError, KinReduceError, ParameterError
from .kinetic import CollisionModel, _collision_rows
from .quadrature import QuadratureRule
from .workspace import WorkArrays, take

__all__ = [
    "ReducedCoefficients",
    "coefficients_batch",
    "assemble_coefficients",
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


def _metric(manifold: Manifold, omegas: np.ndarray, grid: QuadratureRule,
            work: WorkArrays | None = None) -> np.ndarray:
    """Metric-weighted quadrature weights, one row per omega, with the
    weight's overflow guard applied row by row."""
    mu = _by_row(lambda w: manifold.weight_batch(w, grid.nodes, work), omegas)
    mu *= grid.weights
    return mu


def _grams(basis: np.ndarray, mu: np.ndarray, xi: np.ndarray, work: WorkArrays | None = None):
    """g(b_k, b_l) and g(b_k, xi b_l) for every row, not symmetrized."""
    basis_t = np.swapaxes(basis, -1, -2)
    weighted = np.multiply(basis, mu[:, None, :], out=take(work, "grams", basis.shape))
    a0 = weighted @ basis_t
    # (basis * mu) * xi
    weighted *= xi
    return a0, weighted @ basis_t


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


def _stack(manifold: Manifold, omegas) -> np.ndarray:
    omegas = np.atleast_2d(np.asarray(omegas, dtype=float))
    if omegas.ndim != 2 or omegas.shape[1] != manifold.dim:
        raise ParameterError(
            f"omegas have shape {omegas.shape}, manifold dimension is {manifold.dim}"
        )
    return omegas


def _jet(manifold: Manifold, omegas: np.ndarray, grid: QuadratureRule,
         work: WorkArrays | None = None):
    """f and the chart tangent bases on the nodes from one evaluation,
    after ``check_params``; both rules name their lowest failing row."""
    _by_row(manifold.check_params, omegas)
    return _by_row(lambda w: manifold.jet_batch(w, grid.nodes, work), omegas)


def coefficients_batch(
    manifold: Manifold,
    omegas: np.ndarray,
    model: CollisionModel | None,
    grid: QuadratureRule,
    check_spd: bool = True,
    work: WorkArrays | None = None,
) -> ReducedCoefficients:
    """A0, A1 and Q at every row of a stack of parameters ``omegas``,
    shape (m, d); Q is zero when ``model`` is None.  ``work`` holds the
    work arrays of the node passes; the results are new arrays.

    Every row obeys the rules of a single point, in its order:
    ``check_params``, the metric-weight overflow guard, the ansatz sign
    rule (``_sign_rule``) and positive collision moments (only Q
    evaluates f) and, with ``check_spd``, a Cholesky test of A0.  The
    first rule that fails raises its typed error for its lowest failing
    row, with ``row`` set to that row."""
    omegas = _stack(manifold, omegas)
    f, basis = _jet(manifold, omegas, grid, work)
    mu = _metric(manifold, omegas, grid, work)
    a0, a1 = (_symmetrize(g) for g in _grams(basis, mu, grid.nodes, work))
    if model is None:
        q = np.zeros(omegas.shape)
    else:
        # f is spent: the clip goes in place
        vals = _by_row(lambda v: _sign_rule(v, out=v), f)
        rows = _collision_rows(model, vals, grid, take(work, "profile", vals.shape))
        rows *= mu
        q = np.einsum("mkn,mn->mk", basis, rows)
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


def _raw_grams(manifold: Manifold, omegas: np.ndarray, grid: QuadratureRule):
    """A0 and A1 at every row of ``omegas``, not symmetrized."""
    return _grams(_jet(manifold, omegas, grid)[1], _metric(manifold, omegas, grid), grid.nodes)


def _asymmetry(a1: np.ndarray) -> np.ndarray:
    """|A1 - A1^T|_inf / |A1|_inf of each matrix of a stack, 0 where A1 vanishes."""
    denom = np.abs(a1).max(axis=(-2, -1))
    defect = np.abs(a1 - np.swapaxes(a1, -1, -2)).max(axis=(-2, -1))
    return np.divide(defect, denom, out=np.zeros_like(defect), where=denom != 0.0)


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
