from math import comb, factorial

import numpy as np
import pytest
import scipy.linalg

from kinreduce import (
    AnsatzPoint,
    ConfigurationError,
    ConservativeMoment,
    EntropyClosure,
    HermitePerturbation,
    InversionError,
    MomentState,
    RealizabilityError,
    SpatialMesh,
    DistributionField,
    evaluate,
    integrate,
    maxwellian,
    metric_weight,
    params_from_moments,
    project_initial,
    sample_valid_point,
    tangent_basis,
    truncated_rule,
)
from kinreduce.ansatz import _newton, _ridge_jitters, recover_batch

MANIFOLDS = [ConservativeMoment(2), HermitePerturbation(3), EntropyClosure(4)]


def finite_difference_tangent(manifold, omega, xi, k):
    h = 1e-6 * max(abs(omega[k]), 1.0)
    wp, wm = omega.copy(), omega.copy()
    wp[k] += h
    wm[k] -= h
    return (manifold.values(wp, xi) - manifold.values(wm, xi)) / (2 * h)


class TestEvaluate:
    def test_conservative_moment_at_origin(self, grid):
        p = AnsatzPoint(ConservativeMoment(0), np.array([1.0, 0.0, 1.0]))
        vals = evaluate(p, grid)
        k = np.argmin(np.abs(grid.nodes))
        assert vals[k] == pytest.approx(np.exp(-grid.nodes[k] ** 2 / 2), rel=1e-14)

    def test_entropy_closure_maxwellian(self, grid):
        alpha = np.array([-0.5 * np.log(2 * np.pi), 0.0, -0.5])
        p = AnsatzPoint(EntropyClosure(3), alpha)
        want = maxwellian(MomentState(rho=1.0, u=0.0, theta=1.0), grid)
        assert evaluate(p, grid) == pytest.approx(want, rel=1e-12)

    def test_hermite_zero_alphas_is_maxwellian(self, grid):
        hp = HermitePerturbation(3)
        p = AnsatzPoint(hp, hp.equilibrium_params(1.3, 0.2, 0.9))
        want = maxwellian(MomentState(rho=1.3, u=0.2, theta=0.9), grid)
        assert evaluate(p, grid) == pytest.approx(want, rel=1e-12)

    def test_negativity_raises(self, grid):
        p = AnsatzPoint(ConservativeMoment(1), np.array([0.0, 1.0, 0.0, 1.0]))
        with pytest.raises(RealizabilityError):
            evaluate(p, grid)


class TestTangentBasis:
    def test_alpha_direction_value(self, grid):
        p = AnsatzPoint(ConservativeMoment(0), np.array([1.0, 0.0, 1.0]))
        b = tangent_basis(p, grid).columns
        k = np.argmin(np.abs(grid.nodes - 2.0))
        assert b[0, k] == pytest.approx(np.exp(-grid.nodes[k] ** 2 / 2), rel=1e-14)

    def test_u_direction_matches_finite_difference(self, grid):
        cm = ConservativeMoment(0)
        omega = np.array([1.0, 0.0, 1.0])
        b = tangent_basis(AnsatzPoint(cm, omega), grid).columns
        want = grid.nodes * np.exp(-grid.nodes**2 / 2)
        assert b[1] == pytest.approx(want, rel=1e-13)
        fd = finite_difference_tangent(cm, omega, grid.nodes, 1)
        assert np.abs(b[1] - fd).max() < 1e-7

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=lambda m: m.name)
    def test_all_directions_match_finite_differences(self, manifold, wide_grid, rng):
        for _ in range(5):
            p = sample_valid_point(manifold, rng, wide_grid)
            basis = tangent_basis(p, wide_grid).columns
            for k in range(manifold.dim):
                fd = finite_difference_tangent(manifold, p.omega, wide_grid.nodes, k)
                denom = np.abs(fd).max() + 1e-300
                assert np.abs(basis[k] - fd).max() / denom < 1e-6

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6])
    def test_gram_rank_full(self, degree, wide_grid, rng):
        # Cholesky success as the rank oracle
        cm = ConservativeMoment(degree)
        for _ in range(5):
            p = sample_valid_point(cm, rng, wide_grid)
            basis = tangent_basis(p, wide_grid).columns
            w = metric_weight(p, wide_grid).weight
            gram = np.einsum("kn,n,ln->kl", basis, w * wide_grid.weights, basis)
            scipy.linalg.cholesky(0.5 * (gram + gram.T), lower=True)

    def test_conservative_span_is_gaussian_times_monomials(self, grid, rng):
        # the chart basis must span Gaussian * {1, xi, ..., xi^(N+2)}
        cm = ConservativeMoment(2)
        p = sample_valid_point(cm, rng, grid)
        chart = tangent_basis(p, grid).columns
        frame = cm.monomial_basis(p.omega, grid.nodes)
        coef, res, rank, _ = np.linalg.lstsq(frame.T, chart.T, rcond=None)
        recon = coef.T @ frame
        assert np.abs(recon - chart).max() < 1e-9 * np.abs(chart).max()
        assert rank == cm.dim


class TestMetricWeight:
    def test_conservative_moment_at_origin(self, grid):
        p = AnsatzPoint(ConservativeMoment(0), np.array([0.7, 0.0, 1.0]))
        w = metric_weight(p, grid).weight
        k = np.argmin(np.abs(grid.nodes))
        assert w[k] == pytest.approx(np.exp(grid.nodes[k] ** 2 / 2), rel=1e-14)

    def test_entropy_closure_inverse_density(self, grid):
        alpha = np.array([-0.5 * np.log(2 * np.pi), 0.0, -0.5])
        p = AnsatzPoint(EntropyClosure(3), alpha)
        w = metric_weight(p, grid).weight
        k = np.argmin(np.abs(grid.nodes))
        f0 = maxwellian(MomentState(rho=1.0, u=0.0, theta=1.0), grid)[k]
        assert w[k] == pytest.approx(1.0 / f0, rel=1e-12)
        assert w[k] == pytest.approx(np.sqrt(2 * np.pi), rel=5e-4)

    def test_weight_times_density_constant_at_maxwellian_point(self, grid):
        p = AnsatzPoint(ConservativeMoment(2), np.array([0.6, 0.0, 0.0, 0.1, 1.0]))
        w = metric_weight(p, grid).weight
        prod = w * evaluate(p, grid)
        assert np.abs(prod - prod[0]).max() < 1e-12 * abs(prod[0])

    def test_overflow_guard(self):
        grid = truncated_rule(60.0, 16)
        p = AnsatzPoint(ConservativeMoment(0), np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            metric_weight(p, grid)


class TestParamsFromMoments:
    def test_standard_maxwellian_moments(self, grid):
        cm = ConservativeMoment(0)
        p = params_from_moments(cm, np.array([1.0, 0.0, 1.0]), grid)
        assert p.omega == pytest.approx(
            [1 / np.sqrt(2 * np.pi), 0.0, 1.0], abs=1e-11
        )

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_roundtrip(self, degree, wide_grid):
        # the moment map is two-to-one over part of the chart, so a cold
        # inversion may return the other exact preimage: the moment-level
        # identity is what the bijection-to-moments contract pins down
        cm = ConservativeMoment(degree)
        rng = np.random.default_rng(100 + degree)
        for _ in range(10):
            p = sample_valid_point(cm, rng, wide_grid)
            c = cm.raw_moments_batch(p.omega[None, :], wide_grid)[0]
            back = params_from_moments(cm, c, wide_grid)
            c_back = cm.raw_moments_batch(back.omega[None, :], wide_grid)[0]
            assert np.abs(c_back - c).max() <= 1e-11 * (1 + np.abs(c)).max()

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_warm_roundtrip_stays_on_branch(self, degree, wide_grid):
        cm = ConservativeMoment(degree)
        rng = np.random.default_rng(200 + degree)
        for _ in range(10):
            p = sample_valid_point(cm, rng, wide_grid)
            c = cm.raw_moments_batch(p.omega[None, :], wide_grid)
            guess = p.omega * (1 + 1e-4) + 1e-5
            back = recover_batch(cm, c, wide_grid, omega0=guess[None, :])[0]
            assert np.abs(back - p.omega).max() < 1e-9 * (1 + np.abs(p.omega).max())

    def test_negative_second_moment_is_unrealizable(self, grid):
        with pytest.raises(RealizabilityError):
            params_from_moments(ConservativeMoment(0), np.array([1.0, 0.0, -1.0]), grid)

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
        p = sample_valid_point(manifold, rng, wide_grid)
        f0 = DistributionField(
            evaluate(p, wide_grid)[None, :], wide_grid, SpatialMesh(1, 1.0)
        )
        q = project_initial(manifold, f0)[0]
        assert np.abs(q.omega - p.omega).max() < 1e-9 * (1 + np.abs(p.omega).max())

    def test_maxwellian_projects_to_pure_gaussian(self, grid):
        f = maxwellian(MomentState(rho=1.0, u=0.1, theta=1.0), grid)
        f0 = DistributionField(f[None, :], grid, SpatialMesh(1, 1.0))
        for degree in (2, 4):
            q = project_initial(ConservativeMoment(degree), f0)[0]
            assert np.abs(q.omega[1 : degree + 1]).max() < 1e-8

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=lambda m: m.name)
    def test_metric_orthogonality(self, manifold, grid):
        # amplitude small enough that the Hermite-manifold projection
        # stays positive over the whole truncated window
        base = maxwellian(MomentState(rho=1.0, u=0.0, theta=1.0), grid)
        f = base * (1 + 0.006 * np.sin(2.2 * grid.nodes) * np.exp(-grid.nodes**2 / 8))
        f0 = DistributionField(f[None, :], grid, SpatialMesh(1, 1.0))
        q = project_initial(manifold, f0)[0]
        basis = tangent_basis(q, grid).columns
        w = metric_weight(q, grid).weight
        diff = f - evaluate(q, grid)
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
            q = project_initial(ConservativeMoment(degree), f0)[0]
            diff = f - ConservativeMoment(degree).values(q.omega, grid.nodes)
            # compare both fits in one fixed reference metric
            w_ref = np.exp(grid.nodes**2 / 2.0)
            norms[degree] = np.sqrt(integrate(diff * diff * w_ref, grid))
        assert norms[4] < norms[0]


def two_maxwellian(grid, rho1, u1, theta1, rho2, u2, theta2):
    return maxwellian(MomentState(rho1, u1, theta1), grid) + maxwellian(
        MomentState(rho2, u2, theta2), grid
    )


def per_row_varpro(cm, u, theta, c, grid):
    """Reference: the alphas matching c_0..c_N with (u, theta) frozen,
    and the residual on the two remaining moments, for one row."""
    N = cm.degree
    pw = np.empty(2 * N + 3)
    acc = np.exp(-((grid.nodes - u) ** 2) / (2.0 * theta)) * grid.weights
    for j in range(pw.size):
        pw[j] = np.add.reduce(acc)
        acc = acc * grid.nodes
    k = np.arange(N + 1)
    alpha = np.linalg.solve(pw[k[:, None] + k[None, :]], c[: N + 1])
    rows = pw[np.array([N + 1, N + 2])[:, None] + k[None, :]]
    return alpha, rows @ alpha - c[N + 1 :]


def per_row_initial_guess(cm, c, grid):
    """Reference: the variable-projection cold start of one row, as a
    plain loop (scan, then damped Newton with a halving line search)."""
    N, L = cm.degree, grid.half_width
    u0 = float(c[1] / c[0])
    th0 = float(c[2] / c[0] - u0 * u0)
    scale2 = 1.0 + np.abs(c[N + 1 :])

    def objective(x):
        return np.linalg.norm(per_row_varpro(cm, x[0], x[1], c, grid)[1] / scale2)

    best = np.array([u0, th0])
    best_val = objective(best)
    if best_val > 1e-13:
        for du in np.linspace(-0.9, 0.9, 7) * np.sqrt(th0):
            for fth in np.geomspace(0.45, 2.2, 7):
                cand = np.array([u0 + du, th0 * fth])
                if -L < cand[0] < L and objective(cand) < best_val:
                    best, best_val = cand, objective(cand)
    x = best
    for _ in range(60):
        r2 = per_row_varpro(cm, x[0], x[1], c, grid)[1]
        if np.abs(r2 / scale2).max() < 1e-13:
            break
        J = np.empty((2, 2))
        for d in range(2):
            h = 1e-6 * max(abs(x[d]), 1e-3)
            xp, xm = x.copy(), x.copy()
            xp[d] += h
            xm[d] -= h
            J[:, d] = (per_row_varpro(cm, xp[0], xp[1], c, grid)[1]
                       - per_row_varpro(cm, xm[0], xm[1], c, grid)[1]) / (2.0 * h)
        step = np.linalg.solve(J, -r2)
        base = np.linalg.norm(r2 / scale2)
        for s in 0.5 ** np.arange(25):
            cand = x + s * step
            if -L < cand[0] < L and 1e-8 < cand[1] < (2.0 * L) ** 2 and objective(cand) < base:
                x = cand
                break
        else:
            break
    alpha = per_row_varpro(cm, x[0], x[1], c, grid)[0]
    return np.concatenate([alpha, x])


def per_row_cold_starts(cm, c, grid):
    """Reference: the resultant-scan candidates of one row, bracket by
    bracket, then the variable-projection guess."""
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
                out.append(np.concatenate([per_row_varpro(cm, u, theta, c, grid)[0], [u, theta]]))
    return out + [per_row_initial_guess(cm, c, grid)]


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
            p = cm.sample(rng, grid)
            c = cm.raw_moments_batch(p[None, :], grid)
            warm = p.copy()
            if trial % 3 == 1:
                warm[1:3] = 0.0  # on the chart's rank-deficient ridge
            elif trial % 3 == 2:
                warm = p * (1.0 + 0.3 * rng.normal(size=p.size))
            om, ok, err = _newton(cm, c, warm[None, :].copy(), grid, require_nonnegative=False)
            if err[0] <= 1e-11 and trial % 3 == 0:
                kind = "converged"
            elif ok[0]:
                continue
            else:
                jit = np.array(list(_ridge_jitters(cm, om[0], grid)))
                _, jok, _ = _newton(
                    cm, np.repeat(c, 4, axis=0), jit, grid, require_nonnegative=False
                )
                kind = "jitter" if jok.any() else "cold"
            kinds[kind].append((c[0], warm))
        assert all(len(rows) >= 3 for rows in kinds.values())
        picked = [row for rows in zip(*kinds.values()) for row in rows][:9]
        return cm, np.stack([c for c, _ in picked]), np.stack([w for _, w in picked])

    def test_rows_match_the_row_by_row_ladder(self, mixed_batch, grid):
        """The batched rungs give each row what one-row solves give it.

        The first Newton stage runs on the whole batch in both: a row
        stalled on the ridge stalls where round-off in the batch's
        residual products takes it, which depends on the batch."""
        cm, C, W = mixed_batch
        batch = recover_batch(cm, C, grid, omega0=W, require_nonnegative=False)

        def one_row(i, start):
            sol, ok, _ = _newton(cm, C[i : i + 1], start[None, :].copy(), grid,
                                 require_nonnegative=False)
            return sol[0], ok[0]

        want, ok, _ = _newton(cm, C, W.copy(), grid, require_nonnegative=False)
        rungs = []
        for i in np.flatnonzero(~ok):
            # jitters: the solution closest to the stalled iterate ...
            runs = [one_row(i, start) for start in _ridge_jitters(cm, want[i], grid)]
            solved = [s for s, s_ok in runs if s_ok]
            if solved:
                want[i] = min(solved, key=lambda s: np.linalg.norm(s - want[i]))
                rungs.append("jitter")
                continue
            # ... else the first cold start that converges
            for cand in cm.cold_start_candidates(C[i : i + 1], grid)[0]:
                s, s_ok = one_row(i, cand)
                if s_ok:
                    want[i] = s
                    rungs.append("cold")
                    break
            else:
                pytest.fail(f"row {i} has no preimage")
        assert ok.sum() >= 3 and {"jitter", "cold"} <= set(rungs)
        assert np.abs(batch - want).max() <= 1e-12
        c_back = cm.raw_moments_batch(batch, grid)
        assert np.abs(c_back - C).max() <= 1e-11 * (1 + np.abs(C)).max()

    @pytest.mark.parametrize("degree", [2, 4])
    def test_cold_start_candidates_per_row(self, degree, wide_grid):
        cm = ConservativeMoment(degree)
        rng = np.random.default_rng(300 + degree)
        rows = [cm.raw_moments_batch(cm.sample(rng, wide_grid)[None, :], wide_grid)[0]
                for _ in range(3)]
        mix = two_maxwellian(wide_grid, 0.7, -0.6, 0.6, 0.3, 1.4, 0.5)
        rows.append(np.stack([wide_grid.nodes**k for k in range(degree + 3)])
                    @ (mix * wide_grid.weights))
        C = np.stack(rows)
        stacked = cm.cold_start_candidates(C, wide_grid)
        assert len(stacked) == C.shape[0]
        for i in range(C.shape[0]):
            alone = cm.cold_start_candidates(C[i : i + 1], wide_grid)[0]
            loop = per_row_cold_starts(cm, C[i], wide_grid)
            assert len(alone) == len(loop) == len(stacked[i]) >= 2
            for a, b, c in zip(alone, loop, stacked[i]):
                assert np.abs(a - c).max() <= 1e-12 * (1 + np.abs(a).max())
                assert np.abs(b - c).max() <= 1e-12 * (1 + np.abs(b).max())

    def test_unmatched_row_is_named(self, grid):
        # no realizable degree-2 point has the moments of this mixture
        cm = ConservativeMoment(2)
        rng = np.random.default_rng(11)
        good = [cm.raw_moments_batch(cm.sample(rng, grid)[None, :], grid)[0] for _ in range(3)]
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
            assert np.abs(together[i].omega - alone.omega).max() <= 1e-12


class TestHermiteInvariants:
    def test_mass_is_rho_for_any_alphas(self, wide_grid, rng):
        hp = HermitePerturbation(4)
        for _ in range(20):
            p = sample_valid_point(hp, rng, wide_grid)
            mass = integrate(evaluate(p, wide_grid), wide_grid)
            assert mass == pytest.approx(p.omega[0], abs=1e-10 * (1 + p.omega[0]))


class TestSampling:
    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=lambda m: m.name)
    def test_samples_are_valid(self, manifold, wide_grid):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = sample_valid_point(manifold, rng, wide_grid)
            vals = evaluate(p, wide_grid)
            assert np.all(vals >= 0.0)


class TestJet:
    @pytest.mark.parametrize(
        "manifold",
        [HermitePerturbation(3), HermitePerturbation(4), ConservativeMoment(2), EntropyClosure(4)],
        ids=lambda m: m.name,
    )
    def test_values_and_basis_from_one_evaluation(self, manifold, wide_grid, rng):
        omegas = np.stack([sample_valid_point(manifold, rng, wide_grid).omega for _ in range(300)])
        f, basis = manifold.jet_batch(omegas, wide_grid.nodes)
        assert np.array_equal(f, manifold.values_batch(omegas, wide_grid.nodes))
        assert np.array_equal(basis, manifold.tangent_batch(omegas, wide_grid.nodes))
        assert basis.shape == (300, manifold.dim, len(wide_grid))


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


class TestConservativeMomentSampler:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_draws_match_the_polynomial_object_sampler(self, degree, wide_grid):
        cm = ConservativeMoment(degree)
        for seed in (0, 1, 7):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            got = np.stack([cm.sample(r1, wide_grid) for _ in range(60)])
            want = np.stack([polynomial_object_sample(cm, r2, wide_grid) for _ in range(60)])
            assert np.array_equal(got, want)
