import dataclasses
import hashlib
import os
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kinreduce import (
    AnsatzPoint,
    CollisionModel,
    ConfigurationError,
    ConservativeMoment,
    EntropyClosure,
    HermitePerturbation,
    InversionError,
    MomentState,
    ParameterError,
    RealizabilityError,
    SpatialMesh,
    DistributionField,
    integrate,
    maxwellian,
    project_initial,
    truncated_rule,
)
import kinreduce.ansatz as ansatz
from kinreduce.ansatz import (
    _frame_power_sums,
    _moment_jet,
    _newton,
    _ridge_jitters,
    _sign_rule,
    recover_batch,
)
from kinreduce.kinetic import _target_batch
from kinreduce.projection import _solve_spd, coefficients_batch
from kinreduce.quadrature import moments
from kinreduce.reduced_solver import _cm_closure, _pencil_radius_batch
from kinreduce.workspace import WorkArrays

MANIFOLDS = [ConservativeMoment(2), HermitePerturbation(3), EntropyClosure(4)]


def finite_difference_tangent(manifold, omega, xi, k):
    h = 1e-6 * max(abs(omega[k]), 1.0)
    wp, wm = omega.copy(), omega.copy()
    wp[k] += h
    wm[k] -= h
    return (manifold.values_batch(wp, xi)[0] - manifold.values_batch(wm, xi)[0]) / (2 * h)


class TestEvaluate:
    def test_conservative_moment_at_origin(self, grid):
        vals = ConservativeMoment(0).values_batch(np.array([1.0, 0.0, 1.0]), grid.nodes)[0]
        k = np.argmin(np.abs(grid.nodes))
        assert vals[k] == pytest.approx(np.exp(-grid.nodes[k] ** 2 / 2), rel=1e-14)

    def test_entropy_closure_maxwellian(self, grid):
        alpha = np.array([-0.5 * np.log(2 * np.pi), 0.0, -0.5])
        want = maxwellian(MomentState(rho=1.0, u=0.0, theta=1.0), grid)
        vals = EntropyClosure(3).values_batch(alpha, grid.nodes)[0]
        assert vals == pytest.approx(want, rel=1e-12)

    def test_hermite_zero_alphas_is_maxwellian(self, grid):
        hp = HermitePerturbation(3)
        omega = hp.equilibrium_params(1.3, 0.2, 0.9)
        want = maxwellian(MomentState(rho=1.3, u=0.2, theta=0.9), grid)
        assert hp.values_batch(omega, grid.nodes)[0] == pytest.approx(want, rel=1e-12)

    def test_negativity_raises(self, grid):
        vals = ConservativeMoment(1).values_batch(np.array([0.0, 1.0, 0.0, 1.0]), grid.nodes)
        with pytest.raises(RealizabilityError):
            _sign_rule(vals)


class TestTangentBasis:
    def test_alpha_direction_value(self, grid):
        b = ConservativeMoment(0).jet_batch(np.array([1.0, 0.0, 1.0]), grid.nodes)[1][0]
        k = np.argmin(np.abs(grid.nodes - 2.0))
        assert b[0, k] == pytest.approx(np.exp(-grid.nodes[k] ** 2 / 2), rel=1e-14)

    def test_u_direction_matches_finite_difference(self, grid):
        cm = ConservativeMoment(0)
        omega = np.array([1.0, 0.0, 1.0])
        b = cm.jet_batch(omega, grid.nodes)[1][0]
        want = grid.nodes * np.exp(-grid.nodes**2 / 2)
        assert b[1] == pytest.approx(want, rel=1e-13)
        fd = finite_difference_tangent(cm, omega, grid.nodes, 1)
        assert np.abs(b[1] - fd).max() < 1e-7

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=lambda m: m.name)
    def test_all_directions_match_finite_differences(self, manifold, wide_grid, rng):
        omegas = np.stack([manifold.sample_batch(rng, wide_grid, 1)[0] for _ in range(5)])
        for omega, basis in zip(omegas, manifold.jet_batch(omegas, wide_grid.nodes)[1]):
            for k in range(manifold.dim):
                fd = finite_difference_tangent(manifold, omega, wide_grid.nodes, k)
                denom = np.abs(fd).max() + 1e-300
                assert np.abs(basis[k] - fd).max() / denom < 1e-6

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6])
    def test_gram_rank_full(self, degree, wide_grid, rng):
        # Cholesky success as the rank oracle
        cm = ConservativeMoment(degree)
        omegas = np.stack([cm.sample_batch(rng, wide_grid, 1)[0] for _ in range(5)])
        basis = cm.jet_batch(omegas, wide_grid.nodes)[1]
        mu = cm.weight_batch(omegas, wide_grid.nodes) * wide_grid.weights
        grams = np.einsum("mkn,mn,mln->mkl", basis, mu, basis)
        for gram in grams:
            scipy.linalg.cholesky(0.5 * (gram + gram.T), lower=True)

    def test_conservative_span_is_gaussian_times_monomials(self, grid, rng):
        # the chart basis must span Gaussian * {1, xi, ..., xi^(N+2)}
        cm = ConservativeMoment(2)
        p = AnsatzPoint(cm, cm.sample_batch(rng, grid, 1)[0])
        chart = cm.jet_batch(p.omega, grid.nodes)[1][0]
        u, theta = p.omega[-2], p.omega[-1]
        gauss = np.exp(-(grid.nodes - u) ** 2 / (2.0 * theta))
        frame = np.stack([gauss * grid.nodes**k for k in range(cm.n_moments)])
        coef, res, rank, _ = np.linalg.lstsq(frame.T, chart.T, rcond=None)
        recon = coef.T @ frame
        assert np.abs(recon - chart).max() < 1e-9 * np.abs(chart).max()
        assert rank == cm.dim


class TestMetricWeight:
    def test_conservative_moment_at_origin(self, grid):
        w = ConservativeMoment(0).weight_batch(np.array([0.7, 0.0, 1.0]), grid.nodes)[0]
        k = np.argmin(np.abs(grid.nodes))
        assert w[k] == pytest.approx(np.exp(grid.nodes[k] ** 2 / 2), rel=1e-14)

    def test_entropy_closure_inverse_density(self, grid):
        alpha = np.array([-0.5 * np.log(2 * np.pi), 0.0, -0.5])
        w = EntropyClosure(3).weight_batch(alpha, grid.nodes)[0]
        k = np.argmin(np.abs(grid.nodes))
        f0 = maxwellian(MomentState(rho=1.0, u=0.0, theta=1.0), grid)[k]
        assert w[k] == pytest.approx(1.0 / f0, rel=1e-12)
        assert w[k] == pytest.approx(np.sqrt(2 * np.pi), rel=5e-4)

    def test_weight_times_density_constant_at_maxwellian_point(self, grid):
        cm, omega = ConservativeMoment(2), np.array([0.6, 0.0, 0.0, 0.1, 1.0])
        prod = cm.weight_batch(omega, grid.nodes)[0] * cm.values_batch(omega, grid.nodes)[0]
        assert np.abs(prod - prod[0]).max() < 1e-12 * abs(prod[0])

    def test_overflow_guard(self):
        grid = truncated_rule(60.0, 16)
        with pytest.raises(ConfigurationError):
            ConservativeMoment(0).weight_batch(np.array([1.0, 0.0, 1.0]), grid.nodes)


class TestRecoverBatch:
    def test_standard_maxwellian_moments(self, grid):
        cm = ConservativeMoment(0)
        omega = recover_batch(cm, np.array([1.0, 0.0, 1.0]), grid)[0]
        assert omega == pytest.approx(
            [1 / np.sqrt(2 * np.pi), 0.0, 1.0], abs=1e-11
        )

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_roundtrip(self, degree, wide_grid):
        # the moment map is two-to-one over part of the chart, so a cold
        # inversion may return the other exact preimage: the moment-level
        # identity is what the bijection-to-moments contract pins down
        cm = ConservativeMoment(degree)
        rng = np.random.default_rng(100 + degree)
        omegas = np.stack([cm.sample_batch(rng, wide_grid, 1)[0] for _ in range(10)])
        C = cm.raw_moments_batch(omegas, wide_grid)
        for c in C:
            back = recover_batch(cm, c, wide_grid)
            c_back = cm.raw_moments_batch(back, wide_grid)[0]
            assert np.abs(c_back - c).max() <= 1e-11 * (1 + np.abs(c)).max()

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_warm_roundtrip_stays_on_branch(self, degree, wide_grid):
        cm = ConservativeMoment(degree)
        rng = np.random.default_rng(200 + degree)
        for _ in range(10):
            p = AnsatzPoint(cm, cm.sample_batch(rng, wide_grid, 1)[0])
            c = cm.raw_moments_batch(p.omega[None, :], wide_grid)
            guess = p.omega * (1 + 1e-4) + 1e-5
            back = recover_batch(cm, c, wide_grid, omega0=guess[None, :])[0]
            assert np.abs(back - p.omega).max() < 1e-9 * (1 + np.abs(p.omega).max())

    @pytest.mark.parametrize("shape", [(2, 5), (1, 4), (3,)])
    def test_start_of_the_wrong_shape(self, grid, shape):
        cm = ConservativeMoment(2)
        C = cm.raw_moments_batch(cm.equilibrium_params(np.ones(1), 0.0, 1.0), grid)
        with pytest.raises(ParameterError, match="omega0 has shape"):
            recover_batch(cm, C, grid, omega0=np.ones(shape))

    def test_non_finite_start_row_is_named(self, grid):
        cm = ConservativeMoment(2)
        omegas = cm.equilibrium_params(np.ones(3), np.zeros(3), np.ones(3))
        C = cm.raw_moments_batch(omegas, grid)
        omegas[1, 3] = np.nan
        with pytest.raises(ParameterError, match="omega0 row 1 is not finite"):
            recover_batch(cm, C, grid, omega0=omegas)

    @pytest.mark.parametrize("kernel", ["initial_guess", "cold_start_candidates"])
    @pytest.mark.parametrize("width", [4, 6])
    def test_cold_starts_of_the_wrong_width(self, grid, kernel, width):
        cm = ConservativeMoment(2)
        with pytest.raises(ParameterError, match="expected rows of 5 moments"):
            getattr(cm, kernel)(np.ones((2, width)), grid)

    @pytest.mark.parametrize("degree, rule, first, second", [
        (4, (9.0, 64), (0.23225353809271898, 1.4017180454151696, 0.9957232318940847),
         (0.6209344085012061, -1.8306900207499655, 0.46500084706385497)),
        (3, (10.0, 128), (0.339946467039713, 1.449440512795431, 0.6918328033425838),
         (0.22412431764918478, -1.6930119687991954, 0.3597945765475896)),
    ])
    def test_far_trial_points_fail_quietly(self, degree, rule, first, second):
        # Newton's line search tries points whose jets overflow; under
        # the suite's warnings-as-errors a leaked RuntimeWarning would
        # surface instead of the typed error
        grid = truncated_rule(*rule)
        cm = ConservativeMoment(degree)
        f = maxwellian(MomentState(*first), grid) + maxwellian(MomentState(*second), grid)
        C = moments(f[None, :], grid, cm.n_moments - 1)
        with pytest.raises(InversionError):
            recover_batch(cm, C, grid)

    def test_negative_second_moment_is_unrealizable(self, grid):
        with pytest.raises(RealizabilityError):
            recover_batch(ConservativeMoment(0), np.array([1.0, 0.0, -1.0]), grid)

    def test_batch_recovery_of_maxwellian_targets(self, grid):
        cm = ConservativeMoment(2)
        f = maxwellian(MomentState(rho=1.3, u=0.2, theta=0.9), grid)
        xi = grid.nodes
        c = np.stack([xi**k for k in range(5)]) @ (f * grid.weights)
        omega = recover_batch(cm, c[None, :], grid)[0]
        assert np.abs(omega[1:3]).max() < 1e-8  # pure-Gaussian representation


class TestProjectInitial:
    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=lambda m: m.name)
    def test_fixed_point(self, manifold, wide_grid, rng):
        p = AnsatzPoint(manifold, manifold.sample_batch(rng, wide_grid, 1)[0])
        f0 = DistributionField(
            manifold.values_batch(p.omega, wide_grid.nodes), wide_grid, SpatialMesh(1, 1.0)
        )
        q = project_initial(manifold, f0)[0]
        assert np.abs(q - p.omega).max() < 1e-9 * (1 + np.abs(p.omega).max())

    def test_maxwellian_projects_to_pure_gaussian(self, grid):
        f = maxwellian(MomentState(rho=1.0, u=0.1, theta=1.0), grid)
        f0 = DistributionField(f[None, :], grid, SpatialMesh(1, 1.0))
        for degree in (2, 4):
            q = project_initial(ConservativeMoment(degree), f0)[0]
            assert np.abs(q[1 : degree + 1]).max() < 1e-8

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=lambda m: m.name)
    def test_metric_orthogonality(self, manifold, grid):
        # amplitude small enough that the Hermite-manifold projection
        # stays positive over the whole truncated window
        base = maxwellian(MomentState(rho=1.0, u=0.0, theta=1.0), grid)
        f = base * (1 + 0.006 * np.sin(2.2 * grid.nodes) * np.exp(-grid.nodes**2 / 8))
        f0 = DistributionField(f[None, :], grid, SpatialMesh(1, 1.0))
        q = project_initial(manifold, f0)
        vals, basis = (a[0] for a in manifold.jet_batch(q, grid.nodes))
        w = manifold.weight_batch(q, grid.nodes)[0]
        diff = f - vals
        norm = float(np.abs(f) @ grid.weights)
        for k in range(manifold.dim):
            assert abs(integrate(diff * basis[k] * w, grid)) <= 1e-8 * norm

    def test_bimodal_residual_shrinks_with_degree(self, grid):
        m1 = MomentState(rho=0.6, u=-0.9, theta=0.5)
        m2 = MomentState(rho=0.6, u=0.9, theta=0.5)
        f = maxwellian(m1, grid) + maxwellian(m2, grid)
        f0 = DistributionField(f[None, :], grid, SpatialMesh(1, 1.0))
        norms = {}
        for degree in (0, 4):
            q = project_initial(ConservativeMoment(degree), f0)
            diff = f - ConservativeMoment(degree).values_batch(q, grid.nodes)[0]
            # compare both fits in one fixed reference metric
            w_ref = np.exp(grid.nodes**2 / 2.0)
            norms[degree] = np.sqrt(integrate(diff * diff * w_ref, grid))
        assert norms[4] < norms[0]


def two_maxwellian(grid, rho1, u1, theta1, rho2, u2, theta2):
    return maxwellian(MomentState(rho1, u1, theta1), grid) + maxwellian(
        MomentState(rho2, u2, theta2), grid
    )


def per_row_alphas(cm, u, theta, c, grid):
    """Reference: the alphas matching c_0..c_N with (u, theta) frozen,
    for one row."""
    N = cm.degree
    # the power sums of the kernel: the ridge amplifies any other
    # rounding of them
    pw = _frame_power_sums(0.0, 1.0, np.array([u]), np.array([theta]), grid, 2 * N)[0]
    k = np.arange(N + 1)
    return np.linalg.solve(pw[k[:, None] + k[None, :]], c[: N + 1])


def per_row_initial_guess(cm, c, grid):
    """Reference: the Gaussian-fit cold start of one row, u = c1/c0 and
    theta = c2/c0 - u^2 with the alphas that match c_0..c_N there."""
    u0 = float(c[1] / c[0])
    th0 = float(c[2] / c[0] - u0 * u0)
    return np.concatenate([per_row_alphas(cm, u0, th0, c, grid), [u0, th0]])


def per_row_cold_starts(cm, c, grid):
    """Reference: the resultant-scan candidates of one row, bracket by
    bracket."""
    N = cm.degree
    u0 = float(c[1] / c[0])
    th0 = float(c[2] / c[0] - u0 * u0)
    s = np.sqrt(th0)
    ch = [sum(comb(i, k) * (-u0) ** (i - k) * c[k] for k in range(i + 1)) / s**i
          for i in range(N + 3)]

    def gamma(mu, m):
        return np.array([(-1) ** j * factorial(m) / (factorial(j) * factorial(m - 2 * j) * 2**j)
                         * mu[m - 2 * j] for j in range(m // 2 + 1)])

    def central(up):
        return [sum(comb(i, k) * np.atleast_1d(-up) ** (i - k) * ch[k] for k in range(i + 1))[0]
                for i in range(N + 3)]

    def resultant(up):
        a, b = gamma(central(up), N + 1), gamma(central(up), N + 2)
        p, q = a.size - 1, b.size - 1
        S = np.zeros((p + q, p + q))
        for i in range(q):
            S[i, i : i + p + 1] = a[::-1]
        for i in range(p):
            S[q + i, i : i + q + 1] = b[::-1]
        return np.linalg.det(S)

    us = np.linspace(-5.0, 5.0, 801)
    vals = np.array([resultant(up) for up in us])
    roots = []
    for i in range(us.size - 1):
        a, b, fa = us[i], us[i + 1], vals[i]
        if np.isfinite(fa) and np.isfinite(vals[i + 1]) and np.sign(fa) != np.sign(vals[i + 1]):
            for _ in range(80):
                fm = resultant(0.5 * (a + b))
                if np.sign(fm) == np.sign(fa):
                    a, fa = 0.5 * (a + b), fm
                else:
                    b = 0.5 * (a + b)
            roots.append(0.5 * (a + b))
    for i in range(1, us.size - 1):
        if abs(vals[i]) < abs(vals[i - 1]) and abs(vals[i]) <= abs(vals[i + 1]):
            a, b = us[i - 1], us[i + 1]
            for _ in range(60):
                m1, m2 = a + (b - a) / 3.0, b - (b - a) / 3.0
                if abs(resultant(m1)) < abs(resultant(m2)):
                    b = m2
                else:
                    a = m1
            roots.append(0.5 * (a + b))
    out = []
    for up in roots:
        acoef = np.trim_zeros(gamma(central(up), N + 1), "b")
        if acoef.size <= 1:
            continue
        for th in np.polynomial.polynomial.polyroots(acoef):
            if abs(th.imag) <= 1e-7 * max(1.0, abs(th.real)) and th.real > 1e-8:
                u, theta = u0 + s * up, th0 * float(th.real)
                out.append(np.concatenate([per_row_alphas(cm, u, theta, c, grid), [u, theta]]))
    return out


def per_row_ridge_jitters(cm, omega, grid):
    """Reference: the four ridge-jitter restarts of one iterate, alpha
    by alpha."""
    alpha0 = omega[0] if omega[0] != 0.0 else 1.0
    deltas = alpha0 * 3e-2 / max(grid.half_width, 1.0) ** np.arange(1, cm.degree + 1)
    out = []
    for signs in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        cand = omega.copy()
        for k in range(1, cm.degree + 1):
            cand[k] += signs[(k - 1) % 2] * deltas[k - 1]
        out.append(cand)
    return np.stack(out)


def per_row_newton(cm, c, omega, grid, seen=None):
    """Reference: ``ansatz._newton`` on one row as a plain loop (full
    step, then halvings until one improves the residual, a
    pseudo-inverse step when none does, frozen when that fails too).
    ``seen`` collects "halving", "retry" and "frozen" when the row
    takes them."""
    scale = 1.0 + np.abs(c)
    seen = set() if seen is None else seen

    def jet(x):
        cx, Jx = _moment_jet(cm, x[None, :], grid)
        return cx[0], Jx[0]

    def norm(v):  # a sum of squares, as the batch's row norms take it
        return np.sqrt(np.sum(v * v))

    def pinv_step(J, r):
        with np.errstate(over="ignore", invalid="ignore"):
            return -(np.linalg.pinv(J, rcond=1e-10) @ r)

    def line_search(x, step, best):
        for level in 0.5 ** np.arange(13):
            cand = x + level * step
            if not (np.isfinite(cand).all() and cand[-1] > 0.0):
                continue
            c_t, J_t = jet(cand)
            if norm((c_t - c) / scale) < best:
                if level < 1.0:
                    seen.add("halving")
                return cand, c_t, J_t
        return None

    x = omega.copy()
    cx, Jx = jet(x)
    for _ in range(50):
        if (np.abs(cx - c) / scale).max() <= 1e-11:
            break
        r = cx - c
        try:
            step = np.linalg.solve(Jx, -r)
        except np.linalg.LinAlgError:
            step = np.full_like(r, np.nan)
        if not np.isfinite(step).all() or np.abs(step).max() > 1e8 * (1.0 + np.abs(x).max()):
            step = pinv_step(Jx, r)
        best = norm(r / scale)
        found = line_search(x, step, best)
        if found is None:
            seen.add("retry")
            found = line_search(x, pinv_step(Jx, r), best)
        if found is None:
            seen.add("frozen")
            break
        x, cx, Jx = found
    return x, (np.abs(cx - c) / scale).max() <= 1e-11


class TestBatchedLadder:
    """Every rung of the inversion ladder is one batched solve; a row's
    result must not depend on the rows it is batched with."""

    @pytest.fixture(scope="class")
    def mixed_batch(self, grid):
        """Rows that start converged, rows that need the ridge jitters
        and rows that need the cold starts, three of each, sorted by
        running the rungs on each row alone."""
        cm = ConservativeMoment(2)
        rng = np.random.default_rng(7)
        kinds = {"converged": [], "jitter": [], "cold": []}
        for trial in range(90):
            p = cm.sample_batch(rng, grid, 1)[0]
            c = cm.raw_moments_batch(p[None, :], grid)
            warm = p.copy()
            if trial % 3 == 1:
                warm[1:3] = 0.0  # on the chart's rank-deficient ridge
            elif trial % 3 == 2:
                warm = p * (1.0 + 0.3 * rng.normal(size=p.size))
            om, ok, err, _ = _newton(cm, c, warm[None, :].copy(), grid,
                                     require_nonnegative=False)
            if err[0] <= 1e-11 and trial % 3 == 0:
                kind = "converged"
            elif ok[0]:
                continue
            else:
                jit = _ridge_jitters(cm, om, grid)[0]
                _, jok, _, _ = _newton(
                    cm, np.repeat(c, 4, axis=0), jit, grid, require_nonnegative=False
                )
                kind = "jitter" if jok.any() else "cold"
            kinds[kind].append((c[0], warm))
        assert all(len(rows) >= 3 for rows in kinds.values())
        picked = [row for rows in zip(*kinds.values()) for row in rows][:9]
        return cm, np.stack([c for c, _ in picked]), np.stack([w for _, w in picked])

    def test_rows_match_the_row_by_row_ladder(self, mixed_batch, grid):
        """The batched rungs give each row what one-row solves give it."""
        cm, C, W = mixed_batch
        batch = recover_batch(cm, C, grid, omega0=W, require_nonnegative=False)

        def one_row(i, start):
            sol, ok, _, _ = _newton(cm, C[i : i + 1], start[None, :].copy(), grid,
                                    require_nonnegative=False)
            return sol[0], ok[0]

        want, ok = np.empty_like(W), np.zeros(len(C), dtype=bool)
        for i in range(len(C)):
            want[i], ok[i] = one_row(i, W[i])
        rungs = []
        for i in np.flatnonzero(~ok):
            # jitters: the solution closest to the stalled iterate ...
            runs = [one_row(i, start) for start in _ridge_jitters(cm, want[i, None], grid)[0]]
            solved = [s for s, s_ok in runs if s_ok]
            if solved:
                want[i] = min(solved, key=lambda s: np.linalg.norm(s - want[i]))
                rungs.append("jitter")
                continue
            # ... else the first cold start that converges
            for cand in cm.cold_start_candidates(C[i : i + 1], grid)[1]:
                s, s_ok = one_row(i, cand)
                if s_ok:
                    want[i] = s
                    rungs.append("cold")
                    break
            else:
                pytest.fail(f"row {i} has no preimage")
        assert ok.sum() >= 3 and {"jitter", "cold"} <= set(rungs)
        assert np.array_equal(batch, want)
        c_back = cm.raw_moments_batch(batch, grid)
        assert np.abs(c_back - C).max() <= 1e-11 * (1 + np.abs(C)).max()

    def test_newton_rows_match_the_row_by_row_loop(self, mixed_batch, grid):
        """Batched Newton gives each row the bits of the plain one-row
        loop, from the batch's warm starts and from the ridge jitters:
        rows that halve their step, retry and freeze included."""
        cm, C, W = mixed_batch
        jit = _ridge_jitters(cm, W, grid).reshape(-1, cm.dim)
        seen = set()
        for targets, start in ((C, W), (np.repeat(C, 4, axis=0), jit)):
            got, ok, _, _ = _newton(cm, targets, start.copy(), grid, require_nonnegative=False)
            for i in range(len(targets)):
                want, want_ok = per_row_newton(cm, targets[i], start[i], grid, seen)
                assert same_bits(got[i], want) and ok[i] == want_ok, i
        assert seen == {"halving", "retry", "frozen"}

    def test_line_search_takes_two_jets_per_damped_round(self, mixed_batch, grid, monkeypatch):
        """A Newton round evaluates the moment jet twice, the full step
        and then every halving in one batch, and twice more when the
        pseudo-inverse retry runs; the stalled jitter rows halve and
        retry."""
        cm, C, W = mixed_batch
        events = []
        for name in ("_solve_rows", "_moment_jet"):
            kernel = getattr(ansatz, name)
            monkeypatch.setattr(ansatz, name,
                                lambda *a, _k=kernel, _n=name: events.append(_n) or _k(*a))
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv",
                            lambda *a, **k: events.append("pinv") or pinv(*a, **k))
        # rows 1, 4 and 7 are the jitter rows, which stall from their warm start
        _newton(cm, C[1::3], W[1::3].copy(), grid, require_nonnegative=False)
        rounds = " ".join(events).split("_solve_rows")[1:]
        jets = [r.count("_moment_jet") for r in rounds]
        retried = ["_moment_jet pinv" in r for r in rounds]
        assert all(n <= (4 if again else 2) for n, again in zip(jets, retried))
        assert 2 in jets and any(retried)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_ridge_jitters_match_the_row_by_row_loop(self, degree, grid):
        cm = ConservativeMoment(degree)
        omegas = cm.sample_batch(np.random.default_rng(degree), grid, 5)
        omegas[1, 0] = 0.0  # alpha_0 = 0 takes the unit scale
        omegas[2, 1 : degree + 1] = 0.0  # on the ridge
        jitters = _ridge_jitters(cm, omegas, grid)
        assert jitters.shape == (5, 4, cm.dim)
        for got, omega in zip(jitters, omegas):
            assert same_bits(got, per_row_ridge_jitters(cm, omega, grid))

    def test_cold_starts_refine_in_sixty_resultant_calls(self, mixed_batch, grid, monkeypatch):
        """The bisection and the ternary refinement share one resultant
        evaluation per step, and the bisection ends once every bracket
        is stationary."""
        cm, C, _ = mixed_batch
        calls = []
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda S: calls.append(len(S)) or det(S))
        cm.cold_start_candidates(C, grid)
        scan_chunks = -(-len(C) // ansatz._SCAN_CHUNK_ROWS)
        assert calls[scan_chunks:] and len(calls) - scan_chunks <= 60

    def test_rows_do_not_depend_on_the_batch(self, mixed_batch, grid, monkeypatch):
        """Reordering, splitting or re-chunking the batch changes no bit
        of any row, through every rung of the ladder."""
        cm, C, W = mixed_batch

        def solve(rows):
            return recover_batch(cm, C[rows], grid, omega0=W[rows], require_nonnegative=False)

        rows = np.arange(len(C))
        whole = solve(rows)
        assert np.array_equal(solve(rows[::-1]), whole[::-1])
        for size in (1, 2, 4):
            parts = [solve(rows[lo : lo + size]) for lo in range(0, len(C), size)]
            assert np.array_equal(np.concatenate(parts), whole)
        for pass_rows in (1, 7):
            monkeypatch.setattr(ansatz, "_NODE_PASS_ROWS", pass_rows)
            assert np.array_equal(solve(rows), whole)
        for points in (1, 13):
            monkeypatch.setattr(ansatz, "_TRIAL_POINTS", points)
            assert np.array_equal(solve(rows), whole)

    def test_recovery_evaluates_no_node_profiles(self, mixed_batch, grid, monkeypatch):
        """Newton and its ladder work on Gaussian power sums alone: with
        the sign rule off, a 32-row batch through every rung evaluates
        no profile or tangent basis on the nodes."""
        cm, C, W = mixed_batch
        calls = []
        for name in ("values_batch", "jet_batch"):
            kernel = getattr(ConservativeMoment, name)
            monkeypatch.setattr(
                ConservativeMoment, name,
                lambda self, *a, _k=kernel, _n=name: calls.append(_n) or _k(self, *a),
            )
        rows = np.resize(np.arange(len(C)), 32)
        recover_batch(cm, C[rows], grid, omega0=W[rows], require_nonnegative=False)
        assert calls == []

    def test_handed_on_jet_changes_no_bit(self, mixed_batch, grid):
        """A recovery returns the jet of the rows it returns, and the
        next recovery from those rows, given that jet, returns what it
        returns without it, through every rung of the ladder."""
        cm, C, W = mixed_batch
        omega, jet = recover_batch(cm, C, grid, omega0=W, require_nonnegative=False,
                                   return_jet=True)
        assert same_bits(omega, recover_batch(cm, C, grid, omega0=W, require_nonnegative=False))
        for got, want in zip(jet, _moment_jet(cm, omega, grid)):
            assert same_bits(got, want)
        # the next stage's moments, and moments that send rows down the
        # ladder again (the starts of the first recovery)
        for targets in (C * (1.0 + 1e-3 * np.cos(np.arange(C.size)).reshape(C.shape)), C):
            for start in (omega, W):
                start_jet = _moment_jet(cm, start, grid)
                given = recover_batch(cm, targets, grid, omega0=start, require_nonnegative=False,
                                      jet0=start_jet, return_jet=True)
                fresh = recover_batch(cm, targets, grid, omega0=start,
                                      require_nonnegative=False, return_jet=True)
                assert same_bits(given[0], fresh[0])
                for a, b in zip(given[1], fresh[1]):
                    assert same_bits(a, b)
                assert same_bits(start_jet[0], _moment_jet(cm, start, grid)[0])

    def test_no_rung_after_the_cold_starts(self, mixed_batch, grid, monkeypatch):
        """The cold starts are the last rung: with the candidates
        withheld, exactly the rows that reach them fail, and no row
        falls back on the Gaussian-fit guess."""
        cm, C, W = mixed_batch
        want = recover_batch(cm, C, grid, omega0=W, require_nonnegative=False)
        seen = []
        guess = ConservativeMoment.initial_guess
        monkeypatch.setattr(ConservativeMoment, "initial_guess",
                            lambda self, T, g: seen.append(T.copy()) or guess(self, T, g))
        # the batch's cold rows all converge from a resultant candidate
        assert same_bits(recover_batch(cm, C, grid, omega0=W, require_nonnegative=False), want)
        assert seen == []

        def reaches_cold_starts(i):
            om, ok, _, _ = _newton(cm, C[i : i + 1], W[i : i + 1].copy(), grid,
                                   require_nonnegative=False)
            jitters = _ridge_jitters(cm, om, grid)[0]
            _, jok, _, _ = _newton(cm, np.repeat(C[i : i + 1], 4, axis=0), jitters, grid,
                                   require_nonnegative=False)
            return not ok[0] and not jok.any()

        cold = [i for i in range(len(C)) if reaches_cold_starts(i)]
        assert len(cold) >= 3
        monkeypatch.setattr(ConservativeMoment, "cold_start_candidates",
                            lambda self, T, g: (np.empty(0, dtype=int), np.empty((0, self.dim))))
        with pytest.raises(InversionError) as info:
            recover_batch(cm, C, grid, omega0=W, require_nonnegative=False)
        assert info.value.rows.tolist() == cold and seen == []
        others = np.setdiff1d(np.arange(len(C)), cold)
        assert same_bits(info.value.omega[others], want[others])

    def test_cold_starts_are_the_same_bits_in_any_batch(self, mixed_batch, grid):
        """What lets a row's cold starts be computed once and shared:
        a row gets the same bits alone as in a batch."""
        cm, C, _ = mixed_batch
        owner, stacked = cm.cold_start_candidates(C, grid)
        guesses = cm.initial_guess(C, grid)
        for i in range(len(C)):
            alone_owner, alone = cm.cold_start_candidates(C[i : i + 1], grid)
            assert alone_owner.tolist() == [0] * len(alone)
            assert same_bits(alone, stacked[owner == i])
            assert same_bits(cm.initial_guess(C[i : i + 1], grid)[0], guesses[i])

    @pytest.mark.parametrize("degree", [2, 4])
    def test_cold_start_candidates_per_row(self, degree, wide_grid):
        cm = ConservativeMoment(degree)
        rng = np.random.default_rng(300 + degree)
        rows = [cm.raw_moments_batch(cm.sample_batch(rng, wide_grid, 1)[0][None, :], wide_grid)[0]
                for _ in range(3)]
        mix = two_maxwellian(wide_grid, 0.7, -0.6, 0.6, 0.3, 1.4, 0.5)
        rows.append(np.stack([wide_grid.nodes**k for k in range(degree + 3)])
                    @ (mix * wide_grid.weights))
        C = np.stack(rows)
        owner, stacked = cm.cold_start_candidates(C, wide_grid)
        # grouped by row, in ascending order
        assert stacked.shape == (owner.size, cm.dim) and np.all(np.diff(owner) >= 0)
        for i in range(C.shape[0]):
            alone = cm.cold_start_candidates(C[i : i + 1], wide_grid)[1]
            loop = per_row_cold_starts(cm, C[i], wide_grid)
            assert len(alone) == len(loop) == len(stacked[owner == i]) >= 1
            for a, b, c in zip(alone, loop, stacked[owner == i]):
                assert np.abs(a - c).max() <= 1e-12 * (1 + np.abs(a).max())
                assert np.abs(b - c).max() <= 1e-12 * (1 + np.abs(b).max())
        # the Gaussian-fit guess, not among the candidates
        guesses = cm.initial_guess(C, wide_grid)
        for i in range(C.shape[0]):
            loop = per_row_initial_guess(cm, C[i], wide_grid)
            assert np.abs(loop - guesses[i]).max() <= 1e-12 * (1 + np.abs(loop).max())

    def test_a_row_without_cold_starts(self, grid):
        """The resultant scan finds no candidate for this CM(2) row: an
        empty stack of starts, also on a grid where no row takes the
        power-sum recurrence."""
        from kinreduce import gauss_hermite_rule

        C = np.array([[1.0, -0.9920820669768249, 1.2554065350707653, 1.7359870779714335,
                       -2.5489033781570702]])
        for rule in (grid, gauss_hermite_rule(40)):
            owner, starts = ConservativeMoment(2).cold_start_candidates(C, rule)
            assert owner.shape == (0,) and starts.shape == (0, 5)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_cold_starts_of_no_rows(self, degree, grid):
        cm = ConservativeMoment(degree)
        C = np.empty((0, cm.n_moments))
        owner, starts = cm.cold_start_candidates(C, grid)
        assert owner.shape == (0,) and starts.shape == (0, cm.dim)
        assert cm.initial_guess(C, grid).shape == (0, cm.dim)

    def test_unmatched_row_is_named(self, grid):
        # no realizable degree-2 point has the moments of this mixture
        cm = ConservativeMoment(2)
        rng = np.random.default_rng(11)
        good = [cm.raw_moments_batch(cm.sample_batch(rng, grid, 1)[0][None, :], grid)[0]
                for _ in range(3)]
        mix = two_maxwellian(grid, 0.5, -2.0, 0.6, 0.5, 2.0, 0.6)
        bad = np.stack([grid.nodes**k for k in range(5)]) @ (mix * grid.weights)
        C = np.stack([good[0], good[1], bad, good[2]])
        with pytest.raises(InversionError) as info:
            recover_batch(cm, C, grid)
        assert info.value.rows.tolist() == [2]
        msg = str(info.value)
        assert "row 2" in msg and not any(f"row {i}" in msg for i in (0, 1, 3))

    def test_unrealizable_fit_row_is_named(self, grid):
        cm = ConservativeMoment(2)
        C = np.array([[1.0, 0.0, 1.0, 0.0, 3.0]] * 4)
        C[1, 2] = -0.5  # negative implied temperature
        with pytest.raises(RealizabilityError) as info:
            recover_batch(cm, C, grid)
        msg = str(info.value)
        assert "row 1" in msg and not any(f"row {i}" in msg for i in (0, 2, 3))

    def test_project_initial_computes_each_cold_start_once(self, monkeypatch):
        """``project_initial`` computes each row's candidates and guess
        at most once."""
        grid = truncated_rule(10.0, 128)
        cm = ConservativeMoment(4)
        f = np.stack([
            two_maxwellian(grid, 0.7, -0.6, 0.6, 0.3, u2, 0.5) for u2 in (1.0, 1.2, 1.4, 1.6)
        ])
        field = DistributionField(f, grid, SpatialMesh(4, 1.0))
        want = project_initial(cm, field)
        seen = {"cold_start_candidates": [], "initial_guess": []}
        for name, rows in seen.items():
            kernel = getattr(ConservativeMoment, name)
            monkeypatch.setattr(
                ConservativeMoment, name,
                lambda self, T, g, _k=kernel, _r=rows: _r.extend(map(tuple, T)) or _k(self, T, g))
        assert same_bits(project_initial(cm, field), want)
        for rows in seen.values():
            assert rows and len(set(rows)) == len(rows)

    def test_project_initial_cells_are_independent(self):
        grid = truncated_rule(10.0, 128)
        cm = ConservativeMoment(4)
        f = np.stack([
            two_maxwellian(grid, 0.7, -0.6, 0.6, 0.3, u2, 0.5) for u2 in (1.0, 1.2, 1.4, 1.6)
        ])
        together = project_initial(cm, DistributionField(f, grid, SpatialMesh(4, 1.0)))
        for i in range(f.shape[0]):
            alone = project_initial(
                cm, DistributionField(f[i : i + 1], grid, SpatialMesh(1, 1.0))
            )[0]
            assert np.abs(together[i] - alone).max() <= 1e-12


class TestHermiteInvariants:
    def test_mass_is_rho_for_any_alphas(self, wide_grid, rng):
        hp = HermitePerturbation(4)
        omegas = np.stack([hp.sample_batch(rng, wide_grid, 1)[0] for _ in range(20)])
        for omega, vals in zip(omegas, hp.values_batch(omegas, wide_grid.nodes)):
            mass = integrate(vals, wide_grid)
            assert mass == pytest.approx(omega[0], abs=1e-10 * (1 + omega[0]))


class TestSampling:
    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=lambda m: m.name)
    def test_samples_are_valid(self, manifold, wide_grid):
        rng = np.random.default_rng(5)
        omegas = np.stack([manifold.sample_batch(rng, wide_grid, 1)[0] for _ in range(20)])
        assert np.all(manifold.values_batch(omegas, wide_grid.nodes) >= 0.0)


class TestJet:
    @pytest.mark.parametrize(
        "manifold",
        [HermitePerturbation(3), HermitePerturbation(4), ConservativeMoment(2), EntropyClosure(4)],
        ids=lambda m: m.name,
    )
    def test_values_and_basis_from_one_evaluation(self, manifold, wide_grid, rng):
        omegas = np.stack([manifold.sample_batch(rng, wide_grid, 1)[0] for _ in range(300)])
        f, basis = manifold.jet_batch(omegas, wide_grid.nodes)
        assert np.array_equal(f, manifold.values_batch(omegas, wide_grid.nodes))
        assert np.array_equal(basis, manifold.jet_batch(omegas, wide_grid.nodes)[1])
        assert basis.shape == (300, manifold.dim, len(wide_grid))


class TestMomentJet:
    @pytest.mark.parametrize("degree", [0, 2, 4])
    @pytest.mark.parametrize("half_width, cells", [(9.0, 64), (10.0, 128)])
    def test_matches_the_node_sums(self, degree, half_width, cells):
        """Moments and chart Jacobian from the Gaussian power sums agree
        with the node sums of ``values_batch`` and ``jet_batch``,
        on and off the chart's ridge (alpha_1..N = 0), for |u| up to 2."""
        grid = truncated_rule(half_width, cells)
        cm = ConservativeMoment(degree)
        rng = np.random.default_rng(40 + degree)
        omegas = [cm.sample_batch(rng, grid, 1, u_range=(-2.0, 2.0))[0] for _ in range(8)]
        omegas += [cm.equilibrium_params(rho, u, theta)
                   for rho, u, theta in ((1.0, -2.0, 0.5), (0.7, 2.0, 1.4), (1.3, 0.3, 0.9))]
        omegas = np.stack(omegas)
        xiPw = np.stack([grid.nodes**k for k in range(cm.n_moments)]) * grid.weights
        c, J = _moment_jet(cm, omegas, grid)
        c_ref = cm.values_batch(omegas, grid.nodes) @ xiPw.T
        J_ref = np.einsum("kn,mdn->mkd", xiPw, cm.jet_batch(omegas, grid.nodes)[1])
        assert np.all(np.abs(c - c_ref).max(axis=1) <= 1e-13 * np.abs(c_ref).max(axis=1))
        assert np.all(
            np.abs(J - J_ref).max(axis=(1, 2)) <= 1e-13 * np.abs(J_ref).max(axis=(1, 2))
        )


def same_bits(a, b):
    """Equal to the last bit, signed zeros and NaNs included."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("shift", [0, 1])
def test_hankel_is_the_sliding_window_view(shift):
    """``_hankel`` is the read-only view of numpy's sliding window, with
    its strides, of contiguous and of rows-last sums; too few sums for
    the matrices raise."""
    from numpy.lib.stride_tricks import sliding_window_view

    rows_first = np.arange(60.0).reshape(5, 12)
    for powers in (rows_first, np.ascontiguousarray(rows_first.T).T):
        want = sliding_window_view(powers[:, shift:], 5, axis=1)[:, :5]
        got = ansatz._hankel(powers, 5, shift)
        assert got.strides == want.strides and np.array_equal(got, want)
        assert np.shares_memory(got, powers) and not got.flags.writeable
    with pytest.raises(ParameterError, match="need 13 sums"):
        ansatz._hankel(rows_first, 7, shift)


def loop_gauss_power_sums(u, theta, grid, top):
    """Reference: the node pass of ``ansatz._frame_power_sums`` in the
    identity frame, one power at a time, each a new array: the Gaussian
    factor exp((xi - u)^2 / -(2 theta)) times xi^j by repeated
    products, each row summed against the weights in numpy's own einsum
    loop."""
    out = np.empty((u.size, top + 1))
    for lo in range(0, u.size, 128):
        rows = slice(lo, lo + 128)
        c = grid.nodes[None, :] - u[rows, None]
        g = np.exp(c * c / (-2.0 * theta[rows, None]))
        for j in range(top + 1):
            out[rows, j] = np.einsum("mn,n->m", g, grid.weights)
            g = g * grid.nodes
    return out


def integral_power_sums(u, theta, rule, top):
    """Reference: sum_n w_n xi_n^j G(xi_n; u, theta), j = 0..top, each
    row summed pairwise (``loop_frame_power_sums`` in the identity
    frame): on a 32 times finer rule, the stand-in for the integral
    over [-L, L], whose own rounding stays near 1e-15 of the sums'
    scale, where a sequential sum over its nodes drifts to 1e-14."""
    return loop_frame_power_sums(np.zeros(u.size), np.ones(u.size), u, theta, rule, top)[0]


def loop_moment_jet(cm, omegas, P):
    """Reference: ``ansatz._moment_jet`` as a loop over the polynomial
    degree, as it was written before it gathered the power sums, on
    given power sums P of the rows, shape (m, 2N + 5)."""
    N, K = cm.degree, cm.n_moments
    alpha, u, theta = cm.split(omegas)
    k = np.arange(K)
    u, theta = u[:, None], theta[:, None]
    J = np.empty((omegas.shape[0], K, cm.dim))
    c = d_u = d_theta = 0.0
    for j in range(N + 1):
        p0, p1, p2 = P[:, j + k], P[:, j + k + 1], P[:, j + k + 2]
        J[:, :, j] = p0
        e1 = p1 - u * p0
        c = c + alpha[:, j, None] * p0
        d_u = d_u + alpha[:, j, None] * e1
        d_theta = d_theta + alpha[:, j, None] * ((p2 - u * p1) - u * e1)
    J[:, :, -2] = d_u / theta
    J[:, :, -1] = d_theta / (2.0 * theta * theta)
    return c, J


def power_sum_scale(u, theta, grid, top):
    """sum_n w_n |xi_n|^j G(xi_n; u, theta), j = 0..top: the size of the
    terms each power sum adds up, against which its rounding counts."""
    gauss = np.exp(-((grid.nodes[None, :] - u[:, None]) ** 2) / (2.0 * theta[:, None]))
    return (gauss * grid.weights) @ (np.abs(grid.nodes)[:, None] ** np.arange(top + 1))


def resolved(theta, grid):
    """The rows whose power sums take the recurrence: the grid resolves
    their Gaussian, sqrt(theta) >= 2h, and it is no wider than L/2."""
    L = grid.half_width
    return (theta >= (4.0 * L / grid.cells) ** 2) & (theta <= 0.25 * L * L)


class TestOnePassJet:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_matches_the_loop(self, degree, wide_grid):
        """Sampled points (300 rows, more than one node pass), points on
        the ridge, points whose u is a node (c = +-0 there), all-zero
        alphas of either sign, and two points whose Gaussian the grid
        does not resolve.  Those two take the node pass to the bit.  The
        others are the integral over [-L, L], for which a 32 times finer
        rule stands in, to 1e-14 of sum w |xi|^j G (measured: 9.1e-16
        against the pairwise sums of ``integral_power_sums``; the node
        pass is up to 1.9e-12 off it, at the nodes near -L).
        Given the same power sums, the jet is the loop's to the bit."""
        grid = wide_grid
        cm = ConservativeMoment(degree)
        rng = np.random.default_rng(70 + degree)
        omegas = [cm.sample_batch(rng, grid, 300, u_range=(-2.0, 2.0))]
        omegas.append(cm.equilibrium_params(np.array([1.0, 0.7, 1.3]), np.array([-2.0, 0.0, 2.0]),
                                            np.array([0.5, 1.0, 1.4])))
        at_node = cm.sample_batch(rng, grid, 4)
        at_node[:, -2] = grid.nodes[[20, 31, 32, 45]]
        omegas.append(at_node)
        zeros = np.tile(cm.equilibrium_params(1.0, 0.3, 0.9), (2, 1))
        zeros[0, : degree + 1] = 0.0
        zeros[1, : degree + 1] = -0.0
        omegas.append(zeros)
        omegas.append(cm.equilibrium_params(np.array([1.0, 0.8]), np.array([0.2, -0.5]),
                                            np.array([0.1, 0.29])))
        omegas = np.concatenate(omegas)
        u, theta = omegas[:, -2], omegas[:, -1]
        fine = resolved(theta, grid)
        assert (~fine).sum() == 2
        finer = truncated_rule(grid.half_width, 32 * grid.cells)
        for top in (2 * degree + 4, 13):
            got = _frame_power_sums(0.0, 1.0, u, theta, grid, top)
            assert same_bits(got[~fine], loop_gauss_power_sums(u[~fine], theta[~fine], grid, top))
            integral = integral_power_sums(u[fine], theta[fine], finer, top)
            scale = power_sum_scale(u[fine], theta[fine], grid, top)
            assert np.all(np.abs(got[fine] - integral) <= 1e-14 * scale)
        P = _frame_power_sums(0.0, 1.0, u, theta, grid, 2 * degree + 4)
        got, want = _moment_jet(cm, omegas, grid), loop_moment_jet(cm, omegas, P)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert not np.signbit(got[0][-4:-2]).any()
        # one row at a time, and a stale work array, give the same bits
        work = WorkArrays()
        _moment_jet(cm, omegas[::-1] + 0.1, grid, work)
        for i in (0, 301, 305, len(omegas) - 1):
            c, J = _moment_jet(cm, omegas[i : i + 1], grid, work)
            assert same_bits(c[0], want[0][i]) and same_bits(J[0], want[1][i])

    @pytest.mark.parametrize("half_width, cells, departure",
                             [(9.0, 64, 4e-14), (10.0, 128, 1e-14), (8.5, 48, 5e-13)])
    def test_recurrence_is_the_integral(self, half_width, cells, departure):
        """Resolved rows from just above sqrt(theta) = 2h up to theta = 11,
        u in [-3, 3], so that tails reach +-L, and j <= 13.  The
        recurrence is the integral over [-L, L] to 2.5e-14 of
        sum w |xi|^j G, with a 32 times finer rule standing in for the
        integral (measured: 1.0e-14, 4.1e-15 and 2.3e-14 on the three
        grids, all at j = 13; 2.1e-15 for j <= 8).  The recurrence and
        the node pass differ by up to ``departure`` (measured: 3.5e-14,
        4.1e-15 and 4.1e-13), the node pass's quadrature error: it is
        3.5e-14, 1.8e-15 and 4.1e-13 off the integral.  On L = 8.5 with
        48 cells, at sigma = 3h and u = +-2, the node pass is 5.8e-14 off
        and the recurrence 4.5e-16.

        Rows wider than L/2, up to sqrt(theta) = 3.5 L, take the node pass
        to the bit, where the upward recurrence would cancel (it was 1e-3
        off at sqrt(theta) = sqrt(1000) on L = 9).  They are the integral
        to 5e-14, or to ``departure`` where the node pass's own error is
        larger (measured: 2.3e-14, 1.6e-15 and 2.3e-13)."""
        grid = truncated_rule(half_width, cells)
        h = 2.0 * half_width / cells
        sigma = np.geomspace(2.0 * h, np.sqrt(11.0), 30)
        sigma[0] = 2.0 * h * (1.0 + 1e-12)
        u, sigma = (a.ravel() for a in np.meshgrid(np.linspace(-3.0, 3.0, 25), sigma))
        u, sigma = np.append(u, [2.0, -2.0]), np.append(sigma, [3.0 * h, 3.0 * h])
        wide_sigma = np.geomspace(0.5 * half_width, 3.5 * half_width, 8)
        wide_sigma[0] *= 1.0 + 1e-12
        wide_u, wide_sigma = (a.ravel() for a in np.meshgrid(np.linspace(-3.0, 3.0, 7),
                                                              wide_sigma))
        u, theta = np.append(u, wide_u), np.append(sigma, wide_sigma) ** 2
        wide = np.arange(u.size) >= sigma.size
        assert np.array_equal(resolved(theta, grid), ~wide)
        got = _frame_power_sums(0.0, 1.0, u, theta, grid, 13)
        scale = power_sum_scale(u, theta, grid, 13)
        integral = integral_power_sums(u, theta, truncated_rule(half_width, 32 * cells), 13)
        node = loop_gauss_power_sums(u, theta, grid, 13)
        assert np.all(np.abs(got - integral)[~wide] <= 2.5e-14 * scale[~wide])
        assert np.all(np.abs(got - node)[~wide] <= departure * scale[~wide])
        assert same_bits(got[wide], node[wide])
        assert np.all(np.abs(got - integral)[wide] <= max(5e-14, departure) * scale[wide])

    def test_no_erf_beyond_its_last_digit(self, grid, monkeypatch):
        """erf is 1.0 in double from 5.9216 on: the recurrence calls it
        only for the ends closer than 5.93 standard deviations to u."""
        assert ansatz.erf(ansatz._ERF_ONE) == 1.0
        args = []
        monkeypatch.setattr(ansatz, "erf", lambda x: args.append(x) or 1.0)
        u, theta = np.array([0.0, 3.0, 0.0]), np.array([1.0, 1.0, 2.5])
        _frame_power_sums(0.0, 1.0, u, theta, grid, 4)
        # (L - u) of the second and third rows, then (L + u) of the third
        assert np.allclose(args, [6.0 / np.sqrt(2.0), 9.0 / np.sqrt(5.0), 9.0 / np.sqrt(5.0)])

    def test_jet_does_not_depend_on_the_blas_kernel(self):
        """300 sampled CM(2) rows of the demo grid, and 40 more whose
        Gaussian the grid does not resolve (sqrt(theta) < 2h, the node
        pass): the jet computed under OpenBLAS's Prescott kernels has
        the bytes of the one computed here.  No row's jet makes a BLAS
        call."""
        script = (
            "import hashlib, numpy as np\n"
            "from kinreduce import ConservativeMoment, truncated_rule\n"
            "from kinreduce.ansatz import _moment_jet\n"
            "grid, cm = truncated_rule(9.0, 64), ConservativeMoment(2)\n"
            "omegas = cm.sample_batch(np.random.default_rng(21), grid, 300)\n"
            "narrow = cm.sample_batch(np.random.default_rng(23), grid, 40)\n"
            "narrow[:, -1] *= 0.1 / narrow[:, -1].max()\n"
            "omegas = np.concatenate([omegas, narrow])\n"
            "c, J = _moment_jet(cm, omegas, grid)\n"
            "print(hashlib.sha256(c.tobytes() + J.tobytes()).hexdigest())\n"
        )
        src = str(Path(ansatz.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        grid, cm = truncated_rule(9.0, 64), ConservativeMoment(2)
        narrow = cm.sample_batch(np.random.default_rng(23), grid, 40)
        narrow[:, -1] *= 0.1 / narrow[:, -1].max()
        assert not resolved(narrow[:, -1], grid).any()
        omegas = np.concatenate([cm.sample_batch(np.random.default_rng(21), grid, 300), narrow])
        c, J = _moment_jet(cm, omegas, grid)
        assert run.stdout.strip() == hashlib.sha256(c.tobytes() + J.tobytes()).hexdigest()


def loop_frame_power_sums(center, scale, mean, var, grid, top):
    """Reference: sum_n w_n x_n^j g(x_n) with x = (xi - center) / scale and
    g(x) = exp(-(x - mean)^2 / (2 var)), one j at a time, and the sums
    of |x|^j g, against which their rounding counts."""
    x = (grid.nodes[None, :] - center[:, None]) / scale[:, None]
    g = np.exp(-((x - mean[:, None]) ** 2) / (2.0 * var[:, None])) * grid.weights
    sums, sizes = np.empty((2, len(x), top + 1))
    for j in range(top + 1):
        sums[:, j], sizes[:, j] = g.sum(axis=1), np.abs(g).sum(axis=1)
        g *= x
    return sums, sizes


class TestFramePowerSums:
    @pytest.mark.parametrize("half_width, cells, departure",
                             [(9.0, 64, 2e-13), (10.0, 128, 1e-14), (8.5, 48, 3e-12)])
    def test_recurrence_is_the_integral(self, half_width, cells, departure, hp_frames):
        """Resolved rows, sqrt(theta) from just above 2h to 1.5, and
        j <= 17.  The recurrence is the integral over [-L, L] to 1e-14
        of sum w |x|^j g, a 32 times finer rule standing in for it
        (measured: 1.4e-15, 1.3e-15 and 1.6e-15 on the three grids).
        The recurrence and the node pass differ by up to ``departure``
        (measured: 1.3e-13, 1.3e-15 and 1.5e-12), the node pass's own
        quadrature error."""
        grid = truncated_rule(half_width, cells)
        h = 2.0 * half_width / cells
        sigma = np.geomspace(2.0 * h, 1.5, 8)
        sigma[0] = 2.0 * h * (1.0 + 1e-12)
        center, scale, mean, var = hp_frames(sigma)
        assert resolved(scale**2 * var, grid).all()
        got = _frame_power_sums(center, scale, mean, var, grid, 17)
        node, size = loop_frame_power_sums(center, scale, mean, var, grid, 17)
        integral, _ = loop_frame_power_sums(center, scale, mean, var,
                                            truncated_rule(half_width, 32 * cells), 17)
        assert np.all(np.abs(got - integral) <= 1e-14 * size)
        assert np.all(np.abs(got - node) <= departure * size)

    def test_unresolved_rows_take_the_node_pass(self, grid, hp_frames):
        """Rows with sqrt(theta) < 2h, alone and mixed with resolved
        ones, on the composite rule and on a Gauss-Hermite rule, where
        every row takes the node pass."""
        from kinreduce import gauss_hermite_rule

        h = 2.0 * grid.half_width / grid.cells
        center, scale, mean, var = hp_frames(np.array([0.9 * h, 1.9 * h, 3.0 * h]))
        for rule in (grid, gauss_hermite_rule(40)):
            got = _frame_power_sums(center, scale, mean, var, rule, 9)
            want, size = loop_frame_power_sums(center, scale, mean, var, rule, 9)
            fine = resolved(scale**2 * var, rule) if rule.cells else np.zeros(len(var), bool)
            assert np.all(np.abs(got - want)[~fine] <= 1e-14 * size[~fine])

    def test_no_rows_on_any_grid(self, grid):
        """An empty batch returns (0, top + 1) sums on every grid, also
        where no row could take the recurrence, and so does an empty
        moment inversion."""
        from kinreduce import gauss_hermite_rule

        none = np.empty(0)
        for rule in (gauss_hermite_rule(40), grid):
            assert recover_batch(ConservativeMoment(2), np.empty((0, 5)), rule).shape == (0, 5)
            assert _frame_power_sums(0.0, 1.0, none, none, rule, 6).shape == (0, 7)
            assert _frame_power_sums(none, none, none, none, rule, 6).shape == (0, 7)


class TestBatchInvariance:
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data())
    def test_a_row_does_not_depend_on_its_batch(self, data, grid):
        """A row of the power sums, of the moment jet, of the recovery, of
        the velocity integrals, of the collision targets, of the CM
        closure flux and target moments, of HermitePerturbation's A0, A1
        and Q, of the solves against A0 and of the pencil speeds of both
        manifolds has the same bits alone, in a batch and permuted.  The
        temperatures lie on both sides of sqrt(theta) = 2h, where the
        power sums change kernel."""
        cm = ConservativeMoment(2)
        two_h = 4.0 * grid.half_width / grid.cells
        n = data.draw(st.integers(2, 6))
        unit = st.floats(-1.0, 1.0)
        draws = data.draw(st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.one_of(st.floats(0.7, 1.4), st.just(1.0)),
                      unit, unit, unit), min_size=n, max_size=n))
        order = np.array(data.draw(st.permutations(range(n))))
        u, f, b1, b2, d = (np.array(col) for col in zip(*draws))
        theta = (two_h * f) ** 2
        omega = cm.equilibrium_params(np.ones(n), u, theta)
        omega[:, 1] = 0.3 * b1 * omega[:, 0]
        omega[:, 2] = 0.1 * b2 * omega[:, 0]
        targets = _moment_jet(cm, omega, grid)[0]
        warm = omega.copy()
        warm[:, :3] *= 1.0 + 0.05 * d[:, None]
        warm[:, 3] += 0.1 * d
        warm[:, 4] *= 1.0 + 0.1 * d
        # the CM closure's collision targets need each row's density and
        # temperature positive; signed factors can break that, and such a
        # batch raises StepError whatever its order
        c = _moment_jet(cm, warm, grid)[0]
        assume(np.all(c[:, 0] > 0.0) and np.all(c[:, 0] * c[:, 2] > c[:, 1] ** 2))
        profiles = np.abs(cm.values_batch(warm, grid.nodes))
        shakhov = CollisionModel(kind="shakhov", tau=0.1, prandtl=2.0 / 3.0)
        # HermitePerturbation(4) at the same (u, theta), each free alpha_k
        # within 0.2 / max|He_k(w)| on the nodes, so f stays positive
        hp = HermitePerturbation(4)
        hp_omega = hp.equilibrium_params(1.0 + 0.2 * d, u, theta)
        he = ansatz.hermite_polynomials(4, (grid.nodes - u[:, None]) / np.sqrt(theta)[:, None])
        hp_omega[:, 3] = 0.2 * b1 / np.abs(he[3]).max(axis=1)
        hp_omega[:, 4] = 0.2 * b2 / np.abs(he[4]).max(axis=1)
        hp_coef = coefficients_batch(hp, hp_omega, shakhov, grid)

        def solve(rows):
            try:
                return recover_batch(cm, targets[rows], grid, omega0=warm[rows],
                                     require_nonnegative=False), np.zeros(rows.size, dtype=bool)
            except InversionError as exc:
                failed = np.zeros(rows.size, dtype=bool)
                failed[exc.rows] = True
                return exc.omega, failed

        kernels = [
            lambda rows: (_frame_power_sums(0.0, 1.0, warm[rows, 3], warm[rows, 4], grid, 8),),
            lambda rows: _moment_jet(cm, warm[rows], grid),
            solve,
            lambda rows: (integrate(profiles[rows], grid), moments(profiles[rows], grid, 4),
                          _target_batch(shakhov, profiles[rows], grid)),
            lambda rows: _cm_closure(cm, shakhov, grid, warm[rows]),
            lambda rows: dataclasses.astuple(coefficients_batch(hp, hp_omega[rows], shakhov, grid)),
            lambda rows: (_solve_spd(hp_coef.a0[rows], hp_coef.q[rows]),),
            lambda rows: (_pencil_radius_batch(hp_coef.a0[rows], hp_coef.a1[rows]),),
            lambda rows: (_pencil_radius_batch(*cm.moment_frame_grams_batch(warm[rows], grid)),),
        ]
        for kernel in kernels:
            whole = kernel(np.arange(n))
            assert all(same_bits(a[order], b) for a, b in zip(whole, kernel(order)))
            for i in range(n):
                assert all(same_bits(a[i : i + 1], b) for a, b in zip(whole, kernel(np.array([i]))))


def polynomial_object_sample(cm, rng, grid):
    """``ConservativeMoment.sample`` as written with numpy.polynomial
    objects, before it moved to coefficient arrays: the reference for
    the sampler's draws."""
    for _ in range(500):
        rho = rng.uniform(0.5, 2.0)
        u = rng.uniform(-1.0, 1.0)
        theta = rng.uniform(0.5, 1.5)
        omega = cm.equilibrium_params(rho, u, theta)
        if cm.degree > 0:
            s = 2.5 * np.sqrt(theta)
            beta = rng.uniform(-0.3, 0.3, size=cm.degree) * 3.0 ** (-np.arange(cm.degree))
            if abs(beta[-1]) < 0.05 * 3.0 ** (1 - cm.degree):
                continue
            z = np.polynomial.Polynomial([-u / s, 1.0 / s])
            p = np.polynomial.Polynomial([1.0, *beta])(z)
            if p(grid.nodes).min() <= 1e-4:
                continue
            coeffs = p.coef
            if coeffs.size < cm.degree + 1:
                coeffs = np.pad(coeffs, (0, cm.degree + 1 - coeffs.size))
            omega[: cm.degree + 1] = omega[0] * coeffs
        return omega
    raise RuntimeError("no sample")


def per_point_sample(manifold, rng, grid, **ranges):
    """The per-point samplers as they were before ``sample_batch``: one
    rejection attempt at a time, a point after at most 500 attempts.
    The reference for the stacked draws."""
    rho_lo, rho_hi = ranges.get("rho_range", (0.5, 2.0))
    u_lo, u_hi = ranges.get("u_range", (-1.0, 1.0))
    th_lo, th_hi = ranges.get("theta_range", (0.5, 1.5))
    if isinstance(manifold, EntropyClosure):
        n_extra = max(manifold.n - 3, 1)
        rho = rng.uniform(rho_lo, rho_hi)
        u = rng.uniform(u_lo, u_hi)
        theta = rng.uniform(th_lo, th_hi)
        omega = manifold.equilibrium_params(rho, u, theta)
        for p in range(3, manifold.n):
            cap = 0.3 / (n_extra * np.abs(grid.nodes**p).max())
            omega[p] = rng.uniform(-cap, cap)
        return omega
    for _ in range(500):
        rho = rng.uniform(rho_lo, rho_hi)
        u = rng.uniform(u_lo, u_hi)
        theta = rng.uniform(th_lo, th_hi)
        omega = manifold.equilibrium_params(rho, u, theta)
        if isinstance(manifold, HermitePerturbation):
            n_free = manifold.degree - 2
            w = (grid.nodes - u) / np.sqrt(theta)
            for j, k in enumerate(range(3, manifold.degree + 1)):
                cap = 0.4 / (n_free * np.abs(ansatz.hermite_polynomial(k, w)).max())
                omega[3 + j] = rng.uniform(-cap, cap)
            if manifold.values_batch(omega, grid.nodes).min() > 0.0:
                return omega
            continue
        if manifold.degree > 0:
            s = 2.5 * np.sqrt(theta)
            beta = rng.uniform(-0.3, 0.3, size=manifold.degree) * 3.0 ** (
                -np.arange(manifold.degree)
            )
            if abs(beta[-1]) < 0.05 * 3.0 ** (1 - manifold.degree):
                continue
            z = np.array([-u / s, 1.0 / s])
            coeffs = np.array([beta[-1]])
            for b in (1.0, *beta)[-2::-1]:
                coeffs = np.polynomial.polynomial.polyadd(
                    b, np.polynomial.polynomial.polymul(coeffs, z)
                )
            if np.polynomial.polynomial.polyval(grid.nodes, coeffs).min() <= 1e-4:
                continue
            if coeffs.size < manifold.degree + 1:
                coeffs = np.pad(coeffs, (0, manifold.degree + 1 - coeffs.size))
            omega[: manifold.degree + 1] = omega[0] * coeffs
        return omega
    raise RuntimeError("no sample")


class TestConservativeMomentSampler:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_draws_match_the_polynomial_object_sampler(self, degree, wide_grid):
        cm = ConservativeMoment(degree)
        for seed in (0, 1, 7):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            got = np.stack([cm.sample_batch(r1, wide_grid, 1)[0] for _ in range(60)])
            want = np.stack([polynomial_object_sample(cm, r2, wide_grid) for _ in range(60)])
            assert np.array_equal(got, want)


SAMPLERS = (
    [ConservativeMoment(n) for n in range(5)]
    + [HermitePerturbation(n) for n in (3, 4, 5)]
    + [EntropyClosure(n) for n in (3, 4, 5)]
)


class TestSampleBatch:
    @pytest.mark.parametrize("ranges", [{}, {"u_range": (-2, 2)}], ids=["default", "u2"])
    @pytest.mark.parametrize("manifold", SAMPLERS, ids=lambda m: m.name)
    def test_matches_the_per_point_loop(self, manifold, ranges, grid):
        """Same points, same order, same generator state afterwards as
        drawing one point at a time."""
        counts = (1, 60, 300)
        for seed in (0, 1, 7, 42):
            ref = np.random.default_rng(seed)
            want, states = [], {}
            for i in range(1, counts[-1] + 1):
                want.append(per_point_sample(manifold, ref, grid, **ranges))
                if i in counts:
                    states[i] = ref.bit_generator.state
            for count in counts:
                rng = np.random.default_rng(seed)
                got = manifold.sample_batch(rng, grid, count, **ranges)
                assert got.shape == (count, manifold.dim)
                assert np.array_equal(got, np.stack(want[:count]))
                assert rng.bit_generator.state == states[count]

    @pytest.mark.parametrize("manifold", SAMPLERS[2:9:3], ids=lambda m: m.name)
    def test_unknown_range_keyword_is_rejected(self, manifold, grid):
        with pytest.raises(ParameterError, match="u_rnage"):
            manifold.sample_batch(np.random.default_rng(0), grid, 3, u_rnage=(-2.0, 2.0))

    def test_exhausted_sampler_is_a_configuration_error(self):
        # no degree-1 polynomial 1 + beta z stays positive on [-100, 100]
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError) as info:
            ConservativeMoment(1).sample_batch(rng, truncated_rule(100.0, 64), 5)
        msg = str(info.value)
        assert "conservative_moment(N=1)" in msg and "half width 100.0" in msg
        assert "theta_range=(0.5, 1.5)" in msg
