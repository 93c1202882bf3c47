"""Reduced-system coefficient assembly, the tangent-space projector and
the metric-orthogonal projection of an initial field onto a manifold.

The reduced dynamics reads A0(omega) d_t omega + A1(omega) d_x omega =
Q(omega) with A0_kl = g(b_k, b_l), A1_kl = g(b_k, xi b_l) and
Q_k = g(b_k, Q[f_hat]), where g is the manifold's weighted-L2 metric
and b_k the tangent basis.  A0 is the symmetrizer: SPD by Gram
positivity, with A1 symmetric, which certifies hyperbolicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import (AnsatzPoint, ConservativeMoment, EntropyClosure, Manifold, _gaussian_fit,
                     _newton, _sign_rule, _solve_candidates)
from .errors import (DegenerateChartError, InversionError, KinReduceError, ParameterError,
                     RealizabilityError)
from .kinetic import CollisionModel, DistributionField, _collision_rows
from .quadrature import QuadratureRule
from .workspace import WorkArrays, take

__all__ = [
    "ReducedCoefficients",
    "coefficients_batch",
    "assemble_coefficients",
    "residual_batch",
    "residual",
    "project_initial",
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
        rows = _collision_rows(model, vals, grid, take(work, "profile", vals.shape), work)
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


def project_initial(manifold: Manifold, f0: DistributionField) -> np.ndarray:
    """Metric-orthogonal projection of an initial field onto the
    manifold: the stacked parameters, one row per space cell.

    For ConservativeMoment the metric weight cancels the Gaussian in the
    tangent directions, so the conditions reduce to literal moment
    matching (``_nearest_preimage``); the other manifolds solve the
    orthogonality conditions by Gauss-Newton (``_chart_projection``).
    """
    if isinstance(manifold, ConservativeMoment):
        return _nearest_preimage(manifold, f0)
    return _chart_projection(manifold, f0)


def _sq_distances(manifold: Manifold, omegas, f0_vals, grid: QuadratureRule) -> np.ndarray:
    """Squared L2 distances from the ansatz at each row to ``f0_vals``."""
    return ((manifold.values_batch(omegas, grid.nodes) - f0_vals) ** 2) @ grid.weights


def _nearest_preimage(manifold: ConservativeMoment, f0: DistributionField) -> np.ndarray:
    """Each cell's realizable chart point with f0's raw moments
    c_0..c_{N+2}.  The moment map is two-to-one over part of the chart,
    so with the data in hand the preimage nearest f0 in L2 is canonical:
    Newton from the variable-projection guess, and, unless that lands
    on f0 itself, from every resultant-scan cold start, all in one
    batch; ties keep the earlier (the guess, then scan order)."""
    grid = f0.grid
    targets = f0.values @ (grid.xi_powers(manifold.n_moments - 1) * grid.weights).T
    bad = np.flatnonzero(~_gaussian_fit(targets)[2])
    if bad.size:
        raise RealizabilityError(f"cell {bad[0]}: moments {targets[bad[0]].tolist()} have no "
                                 "positive density and temperature")
    omegas, ok, _, _ = _newton(manifold, targets, manifold.initial_guess(targets, grid), grid)
    dist = _sq_distances(manifold, omegas, f0.values, grid)
    dist[~(ok & np.isfinite(dist))] = np.inf
    rows = np.flatnonzero(~(dist <= 1e-18 * np.maximum((f0.values**2) @ grid.weights, 1e-300)))
    cands = manifold.cold_start_candidates(targets[rows], grid) if rows.size else []
    if any(cands):
        sol, sol_ok, owner, _ = _solve_candidates(manifold, targets[rows], cands, grid)
        d = _sq_distances(manifold, sol, f0.values[rows[owner]], grid)
        d[~(sol_ok & np.isfinite(d))] = np.inf
        # per row the first nearest cold start, where it beats the guess
        nearest = np.full(rows.size, np.inf)
        np.minimum.at(nearest, owner, d)
        hit = np.flatnonzero((d == nearest[owner]) & (d < dist[rows[owner]]))
        j, first = np.unique(owner[hit], return_index=True)
        omegas[rows[j]] = sol[hit[first]]
        dist[rows[j]] = d[hit[first]]
    failed = np.flatnonzero(dist == np.inf)
    if failed.size:
        raise InversionError(f"cell {failed[0]}: initial projection failed, no realizable chart "
                             f"point matches the moments {targets[failed[0]].tolist()}",
                             rows=failed, omega=omegas)
    return omegas


def _orthogonality(manifold: Manifold, omegas, f0_vals, grid: QuadratureRule):
    """The residuals r_k = g(f0 - f_hat, b_k) of the orthogonality
    conditions at every row, and the chart bases, metric and
    differences f0 - f_hat they come from."""
    f, chart = _jet(manifold, omegas, grid)
    mu = _metric(manifold, omegas, grid)
    h = f0_vals - f
    return ((chart * mu[:, None, :]) @ h[..., None])[..., 0], chart, mu, h


def _passing_rows(rule, rows: np.ndarray):
    """``rule`` of the index array ``rows`` for the rows that pass it
    alone: (their mask, ``rule``'s arrays stacked over them, or None).
    A block that raises a typed error is halved, so a failing row
    rejects only itself."""
    try:
        return np.ones(rows.size, dtype=bool), rule(rows)
    except KinReduceError:
        if rows.size == 1:
            return np.zeros(1, dtype=bool), None
    halves = [_passing_rows(rule, half) for half in np.array_split(rows, 2)]
    found = [out for _, out in halves if out is not None]
    return (np.concatenate([ok for ok, _ in halves]),
            tuple(map(np.concatenate, zip(*found))) if found else None)


def _chart_projection(manifold: Manifold, f0: DistributionField) -> np.ndarray:
    """Damped Gauss-Newton on g(f0 - f_hat, b_k) = 0, every cell in one
    batch, from each cell's Maxwellian.  The step A0^-1 r is the
    coefficient part of ``_project`` of f0 - f_hat, the exact Newton
    step where f_hat = f0; each row halves its own step until |r|
    falls.  A row converges at max|r_k| <= 1e-11 (1 + rho)."""
    grid, vals = f0.grid, f0.values
    # each cell's sums as one row, in the order of a lone row's
    rho = np.add.reduce(vals * grid.weights, axis=1)
    if (rho <= 0.0).any():
        raise RealizabilityError(f"cell {np.flatnonzero(rho <= 0.0)[0]}: vanishing density")
    u = np.add.reduce(grid.nodes * vals * grid.weights, axis=1) / rho
    theta = np.add.reduce((grid.nodes - u[:, None]) ** 2 * vals * grid.weights, axis=1) / rho
    if (theta <= 0.0).any():
        raise RealizabilityError(f"cell {np.flatnonzero(theta <= 0.0)[0]}: nonpositive temperature")
    if isinstance(manifold, EntropyClosure) and manifold.n < 3:
        omegas = np.zeros((rho.size, manifold.dim))
        omegas[:, 0] = np.log(np.maximum(rho / (2.0 * grid.half_width), 1e-12))
    else:
        omegas = manifold.equilibrium_params(rho, u, theta)
    tol = 1e-11 * (1.0 + rho)
    r, *at = _orthogonality(manifold, omegas, vals, grid)
    for _ in range(50):
        live = np.flatnonzero(~(np.abs(r).max(axis=1) <= tol))
        if live.size == 0:
            break
        step = _project(*(a[live] for a in at))[0]
        best = np.linalg.norm(r[live], axis=1)
        left = np.arange(live.size)  # rows of ``live`` without an accepted level
        for s in 0.5 ** np.arange(13):
            cand = omegas[live[left]] + s * step[left]
            ok, out = _passing_rows(
                lambda j: _orthogonality(manifold, cand[j], vals[live[left[j]]], grid),
                np.arange(left.size))
            if out is not None:
                with np.errstate(over="ignore"):  # an overflowing |r| is inf: rejected
                    won = np.linalg.norm(out[0], axis=1) < best[left[ok]]
                dest = live[left[ok][won]]
                omegas[dest] = cand[ok][won]
                for a, new in zip([r, *at], out):
                    a[dest] = new[won]
                left = np.setdiff1d(left, left[ok][won])
            if left.size == 0:
                break
        else:
            raise InversionError(f"cell {live[left[0]]}: initial projection stalled, no damped "
                                 "Gauss-Newton step reduces the orthogonality residual",
                                 rows=live[left], omega=omegas)
    else:
        raise InversionError(f"cell {live[0]}: initial projection did not converge in 50 "
                             "iterations", rows=live, omega=omegas)
    try:
        _by_row(_sign_rule, manifold.values_batch(omegas, grid.nodes))
    except RealizabilityError as exc:
        raise RealizabilityError(f"cell {exc.row}: initial projection: {exc}") from None
    return omegas
