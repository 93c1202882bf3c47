from math import comb, factorial

import numpy as np
import pytest
import scipy.linalg

from kinreduce import (
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
    sample_valid_point,
    truncated_rule,
)
import kinreduce.ansatz as ansatz
from kinreduce.ansatz import (
    _gauss_power_sums,
    _moment_jet,
    _newton,
    _ridge_jitters,
    _sign_rule,
    recover_batch,
)
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
        omegas = np.stack([sample_valid_point(manifold, rng, wide_grid).omega for _ in range(5)])
        for omega, basis in zip(omegas, manifold.jet_batch(omegas, wide_grid.nodes)[1]):
            for k in range(manifold.dim):
                fd = finite_difference_tangent(manifold, omega, wide_grid.nodes, k)
                denom = np.abs(fd).max() + 1e-300
                assert np.abs(basis[k] - fd).max() / denom < 1e-6

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6])
    def test_gram_rank_full(self, degree, wide_grid, rng):
        # Cholesky success as the rank oracle
        cm = ConservativeMoment(degree)
        omegas = np.stack([sample_valid_point(cm, rng, wide_grid).omega for _ in range(5)])
        basis = cm.jet_batch(omegas, wide_grid.nodes)[1]
        mu = cm.weight_batch(omegas, wide_grid.nodes) * wide_grid.weights
        grams = np.einsum("mkn,mn,mln->mkl", basis, mu, basis)
        for gram in grams:
            scipy.linalg.cholesky(0.5 * (gram + gram.T), lower=True)

    def test_conservative_span_is_gaussian_times_monomials(self, grid, rng):
        # the chart basis must span Gaussian * {1, xi, ..., xi^(N+2)}
        cm = ConservativeMoment(2)
        p = sample_valid_point(cm, rng, grid)
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
        omegas = np.stack([sample_valid_point(cm, rng, wide_grid).omega for _ in range(10)])
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
            p = sample_valid_point(cm, rng, wide_grid)
            c = cm.raw_moments_batch(p.omega[None, :], wide_grid)
            guess = p.omega * (1 + 1e-4) + 1e-5
            back = recover_batch(cm, c, wide_grid, omega0=guess[None, :])[0]
            assert np.abs(back - p.omega).max() < 1e-9 * (1 + np.abs(p.omega).max())

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
        p = sample_valid_point(manifold, rng, wide_grid)
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


def per_row_varpro(cm, u, theta, c, grid):
    """Reference: the alphas matching c_0..c_N with (u, theta) frozen,
    and the residual on the two remaining moments, for one row."""
    N = cm.degree
    xp = [np.ones_like(grid.nodes)]
    for _ in range(2 * N + 2):
        xp.append(xp[-1] * grid.nodes)
    acc = np.exp(-((grid.nodes - u) ** 2) / (2.0 * theta)) * grid.weights
    # one product against the transposed power table, as the kernel
    # takes it: the ridge amplifies any other summation order
    pw = acc @ np.stack(xp).T
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
                out.append(np.concatenate([per_row_varpro(cm, u, theta, c, grid)[0], [u, theta]]))
    return out


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
                jit = np.array(list(_ridge_jitters(cm, om[0], grid)))
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
            runs = [one_row(i, start) for start in _ridge_jitters(cm, want[i], grid)]
            solved = [s for s, s_ok in runs if s_ok]
            if solved:
                want[i] = min(solved, key=lambda s: np.linalg.norm(s - want[i]))
                rungs.append("jitter")
                continue
            # ... else the first cold start that converges, the
            # variable-projection guess last
            for cand in (cm.cold_start_candidates(C[i : i + 1], grid)[0]
                         + [cm.initial_guess(C[i : i + 1], grid)[0]]):
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

    def test_recovery_evaluates_no_node_profiles(self, mixed_batch, grid, monkeypatch):
        """Newton and its ladder work on Gaussian power sums alone: with
        the sign rule off, a 32-row batch through every rung evaluates
        no profile or tangent basis on the nodes."""
        cm, C, W = mixed_batch
        calls = []
        for name in ("values_batch", "tangent_batch"):
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

    def test_guess_only_for_rows_whose_candidates_fail(self, mixed_batch, grid, monkeypatch):
        """The variable-projection guess is computed only for the rows
        whose resultant candidates all fail; with the candidates withheld
        those rows still recover through it."""
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
            jitters = np.array(list(_ridge_jitters(cm, om[0], grid)))
            _, jok, _, _ = _newton(cm, np.repeat(C[i : i + 1], 4, axis=0), jitters, grid,
                                   require_nonnegative=False)
            return not ok[0] and not jok.any()

        cold = [i for i in range(len(C)) if reaches_cold_starts(i)]
        assert len(cold) >= 3
        monkeypatch.setattr(ConservativeMoment, "cold_start_candidates",
                            lambda self, T, g: [[] for _ in T])
        omega = recover_batch(cm, C, grid, omega0=W, require_nonnegative=False)
        assert len(seen) == 1 and same_bits(seen[0], C[cold])
        c_back = cm.raw_moments_batch(omega[cold], grid)
        assert np.abs(c_back - C[cold]).max() <= 1e-11 * (1 + np.abs(C)).max()
        others = np.setdiff1d(np.arange(len(C)), cold)
        assert same_bits(omega[others], want[others])

    def test_cold_starts_are_the_same_bits_in_any_batch(self, mixed_batch, grid):
        """What lets a row's cold starts be computed once and shared:
        a row gets the same bits alone as in a batch."""
        cm, C, _ = mixed_batch
        stacked = cm.cold_start_candidates(C, grid)
        guesses = cm.initial_guess(C, grid)
        for i in range(len(C)):
            alone = cm.cold_start_candidates(C[i : i + 1], grid)[0]
            assert len(alone) == len(stacked[i])
            assert all(same_bits(a, b) for a, b in zip(alone, stacked[i]))
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
        stacked = cm.cold_start_candidates(C, wide_grid)
        assert len(stacked) == C.shape[0]
        for i in range(C.shape[0]):
            alone = cm.cold_start_candidates(C[i : i + 1], wide_grid)[0]
            loop = per_row_cold_starts(cm, C[i], wide_grid)
            assert len(alone) == len(loop) == len(stacked[i]) >= 1
            for a, b, c in zip(alone, loop, stacked[i]):
                assert np.abs(a - c).max() <= 1e-12 * (1 + np.abs(a).max())
                assert np.abs(b - c).max() <= 1e-12 * (1 + np.abs(b).max())
        # the variable-projection guess, no longer among the candidates
        guesses = cm.initial_guess(C, wide_grid)
        for i in range(C.shape[0]):
            loop = per_row_initial_guess(cm, C[i], wide_grid)
            assert np.abs(loop - guesses[i]).max() <= 1e-12 * (1 + np.abs(loop).max())

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
        omegas = np.stack([sample_valid_point(hp, rng, wide_grid).omega for _ in range(20)])
        for omega, vals in zip(omegas, hp.values_batch(omegas, wide_grid.nodes)):
            mass = integrate(vals, wide_grid)
            assert mass == pytest.approx(omega[0], abs=1e-10 * (1 + omega[0]))


class TestSampling:
    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=lambda m: m.name)
    def test_samples_are_valid(self, manifold, wide_grid):
        rng = np.random.default_rng(5)
        omegas = np.stack([sample_valid_point(manifold, rng, wide_grid).omega for _ in range(20)])
        assert np.all(manifold.values_batch(omegas, wide_grid.nodes) >= 0.0)


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


class TestMomentJet:
    @pytest.mark.parametrize("degree", [0, 2, 4])
    @pytest.mark.parametrize("half_width, cells", [(9.0, 64), (10.0, 128)])
    def test_matches_the_node_sums(self, degree, half_width, cells):
        """Moments and chart Jacobian from the Gaussian power sums agree
        with the node sums of ``values_batch`` and ``tangent_batch``,
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
        J_ref = np.einsum("kn,mdn->mkd", xiPw, cm.tangent_batch(omegas, grid.nodes))
        assert np.all(np.abs(c - c_ref).max(axis=1) <= 1e-13 * np.abs(c_ref).max(axis=1))
        assert np.all(
            np.abs(J - J_ref).max(axis=(1, 2)) <= 1e-13 * np.abs(J_ref).max(axis=(1, 2))
        )


def same_bits(a, b):
    """Equal to the last bit, signed zeros and NaNs included."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def loop_gauss_power_sums(u, theta, grid, top):
    """Reference: ``ansatz._gauss_power_sums`` as it computed the
    Gaussian factor before, exp((-c) * c / (2 theta))."""
    X = grid.xi_powers(top).T
    out = np.empty((u.size, top + 1))
    for lo in range(0, u.size, 128):
        rows = slice(lo, lo + 128)
        c = grid.nodes[None, :] - u[rows, None]
        acc = np.negative(c)
        acc *= c
        acc /= 2.0 * theta[rows, None]
        np.exp(acc, out=acc)
        acc *= grid.weights[None, :]
        np.matmul(acc[:, None, :], X, out=out[rows, None, :])
    return out


def loop_moment_jet(cm, omegas, grid):
    """Reference: ``ansatz._moment_jet`` as a loop over the polynomial
    degree, as it was written before it gathered the power sums."""
    N, K = cm.degree, cm.n_moments
    alpha, u, theta = cm.split(omegas)
    P = loop_gauss_power_sums(u, theta, grid, 2 * N + 4)
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


class TestOnePassJet:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_bit_identical_to_the_loop(self, degree, wide_grid):
        """Sampled points (300 rows, more than one node pass), points on
        the ridge, points whose u is a node (c = +-0 there), and
        all-zero alphas of either sign."""
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
        omegas = np.concatenate(omegas)
        u, theta = omegas[:, -2], omegas[:, -1]
        for top in (2 * degree + 4, 13):
            assert same_bits(_gauss_power_sums(u, theta, grid, top),
                             loop_gauss_power_sums(u, theta, grid, top))
        got, want = _moment_jet(cm, omegas, grid), loop_moment_jet(cm, omegas, grid)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert not np.signbit(got[0][-2:]).any()
        # one row at a time, and a stale work array, give the same bits
        work = WorkArrays()
        _moment_jet(cm, omegas[::-1] + 0.1, grid, work)
        rows = [_moment_jet(cm, omegas[i : i + 1], grid, work) for i in (0, 301, 305)]
        for i, (c, J) in zip((0, 301, 305), rows):
            assert same_bits(c[0], want[0][i]) and same_bits(J[0], want[1][i])


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
