from math import factorial

import numpy as np
import pytest

from kinreduce import (
    AuditSample,
    CollisionModel,
    ConservativeMoment,
    EntropyClosure,
    HermitePerturbation,
    HermiteSpace,
    ParameterError,
    assemble_yong_report,
    gusc_check,
    hyperbolicity_audit,
    linearized_collision_matrix,
    maxwellian,
    propagation_speed_audit,
    sample_valid_point,
    truncated_rule,
    yong_conditions_check,
)


class TestHermiteSpace:
    @pytest.mark.parametrize("d,K", [(1, 4), (1, 6), (2, 4), (3, 2), (3, 4)])
    def test_orthonormality(self, d, K):
        space = HermiteSpace(d, K)
        assert space.orthonormality_defect <= 1e-10

    @pytest.mark.parametrize("d,K", [(1, 6), (2, 4), (3, 8)])
    def test_basis_matches_the_per_function_build(self, d, K):
        # one Hermite stack per axis gives the bits of one recurrence
        # per basis function and axis
        from kinreduce.ansatz import hermite_polynomial

        space = HermiteSpace(d, K)
        want = np.empty_like(space.basis)
        for row, k in enumerate(space.indices):
            vals = np.ones(space.w_nodes.shape[0])
            for axis, kj in enumerate(k):
                vals = vals * hermite_polynomial(kj, space.w_nodes[:, axis])
            want[row] = vals / np.sqrt(np.prod([factorial(kj) for kj in k]))
        assert np.array_equal(space.basis, want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_collision_subspaces_orthogonal_to_w0(self, d):
        space = HermiteSpace(d, 4)
        w0 = space.w0_vectors()
        for other in (space.w1_vectors(), space.w2_vectors()):
            for v in other:
                for u in w0:
                    assert abs(u @ v) <= 1e-10 * max(
                        np.linalg.norm(u) * np.linalg.norm(v), 1.0
                    )

    def test_w2_empty_in_one_dimension(self):
        assert HermiteSpace(1, 4).w2_vectors().shape[0] == 0


class TestLinearizedSpectra:
    def test_bgk_projector_spectrum(self):
        # (1/tau)(P0 - I): eigenvalue 0 on W0 (dim 3), -1/tau elsewhere
        space = HermiteSpace(1, 4)
        D = linearized_collision_matrix(CollisionModel("bgk", tau=2.0), space)
        ev = np.sort(np.linalg.eigvalsh(D))
        assert ev == pytest.approx([-0.5, -0.5, 0.0, 0.0, 0.0], abs=1e-8)

    def test_shakhov_heat_flux_mode(self):
        space = HermiteSpace(1, 4)
        D = linearized_collision_matrix(
            CollisionModel("shakhov", tau=1.0, prandtl=2 / 3), space
        )
        ev = np.sort(np.linalg.eigvalsh(D))
        assert ev == pytest.approx([-1.0, -2 / 3, 0.0, 0.0, 0.0], abs=1e-8)

    def test_esbgk_stress_modes_relax_at_one_over_tau(self):
        # trace-free stress obeys d(sigma)/dt = -sigma/tau for the
        # ellipsoidal model, matching the projector combination
        # (Pr/tau)(P0 + (1 - 1/Pr) P2 - I) on W2
        space = HermiteSpace(3, 2)
        D = linearized_collision_matrix(
            CollisionModel("esbgk", tau=1.0, prandtl=2 / 3), space
        )
        ev = np.sort(np.linalg.eigvalsh(D))
        want = np.concatenate([np.full(5, -1.0), np.zeros(5)])
        assert ev == pytest.approx(want, abs=1e-8)

    def test_esbgk_heat_flux_modes_give_prandtl(self):
        space = HermiteSpace(3, 3)
        D = linearized_collision_matrix(
            CollisionModel("esbgk", tau=1.0, prandtl=2 / 3), space
        )
        distinct = sorted(set(np.round(np.linalg.eigvalsh(D), 8)))
        assert distinct == pytest.approx([-1.0, -2 / 3, 0.0], abs=1e-8)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind,tau,prandtl",
        [("bgk", 0.7, 1.0), ("shakhov", 0.9, 2 / 3), ("esbgk", 1.3, 0.8)],
    )
    def test_projector_predictions_all_dimensions(self, d, kind, tau, prandtl):
        K = 6 if d < 3 else 4
        space = HermiteSpace(d, K)
        model = CollisionModel(kind, tau=tau, prandtl=prandtl)
        D = linearized_collision_matrix(model, space)
        assert np.abs(D - D.T).max() <= 1e-10
        p0 = space.w0_projector()
        p1 = space.projector(space.w1_vectors())
        p2 = space.projector(space.w2_vectors())
        eye = np.eye(space.n_basis)
        if kind == "bgk":
            want = (p0 - eye) / tau
        elif kind == "shakhov":
            want = (p0 + (1 - prandtl) * p1 - eye) / tau
        else:
            want = prandtl / tau * (p0 + (1 - 1 / prandtl) * p2 - eye)
        assert np.abs(D - 0.5 * (want + want.T)).max() <= 1e-8

    def test_esbgk_prandtl_range(self):
        space = HermiteSpace(3, 2)
        with pytest.raises(ParameterError):
            linearized_collision_matrix(
                CollisionModel("esbgk", tau=1.0, prandtl=0.5), space
            )


class TestGuscCheck:
    def test_bgk_unit_tau(self):
        space = HermiteSpace(1, 4)
        D = linearized_collision_matrix(CollisionModel("bgk", tau=1.0), space)
        rep = gusc_check(D, space.w0_projector(), 1.0)
        assert rep.worst_quotient == pytest.approx(-1.0, abs=1e-8)
        assert rep.passed

    def test_shakhov_sharp_bound(self):
        space = HermiteSpace(1, 4)
        D = linearized_collision_matrix(
            CollisionModel("shakhov", tau=1.0, prandtl=2 / 3), space
        )
        p0 = space.w0_projector()
        rep = gusc_check(D, p0, 2 / 3)
        assert rep.worst_quotient == pytest.approx(-2 / 3, abs=1e-8)
        assert rep.passed
        assert not gusc_check(D, p0, 0.7).passed

    def test_kernel_structure(self):
        space = HermiteSpace(1, 5)
        D = linearized_collision_matrix(CollisionModel("bgk", tau=0.8), space)
        rep = gusc_check(D, space.w0_projector(), 1.0 / 0.8)
        assert rep.kernel_defect <= 1e-10
        assert rep.gwsc_passed


MODELS = [("bgk", 1.0), ("shakhov", 2 / 3), ("esbgk", 0.8)]


def _central_jacobian(fun, x):
    """Central differences of ``fun`` at ``x`` with h_j = 1e-6 max(|x_j|, 1)."""
    cols = []
    for j in range(x.size):
        h = 1e-6 * max(abs(x[j]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((fun(xp) - fun(xm)) / (2.0 * h))
    return np.stack(cols, axis=1)


class TestYongConditions:
    def test_zero_source_passes_weak_form(self):
        n = 5
        rng = np.random.default_rng(0)
        m = rng.normal(size=(n, n))
        a0 = m @ m.T + n * np.eye(n)
        sym = rng.normal(size=(n, n))
        a1 = np.linalg.solve(a0, 0.5 * (sym + sym.T))  # a0 a1 symmetric
        qu = np.zeros((n, n))
        eq = np.eye(n)[:, :2]
        rep = yong_conditions_check(a0, a1, qu, eq)
        assert rep.block_passed and rep.symmetry_passed and rep.gwsc_passed

    def test_equilibrium_basis_spanning_the_space(self):
        # the equilibrium manifolds (ConservativeMoment(0),
        # EntropyClosure(3)): an empty complement, so no constant
        n = 3
        rng = np.random.default_rng(1)
        m = rng.normal(size=(n, n))
        a0 = m @ m.T + n * np.eye(n)
        sym = rng.normal(size=(n, n))
        a1 = np.linalg.solve(a0, 0.5 * (sym + sym.T))
        rep = yong_conditions_check(a0, a1, np.zeros((n, n)), rng.normal(size=(n, n)))
        assert rep.block_passed and rep.symmetry_passed and rep.gwsc_passed
        assert rep.dissipativity_passed and rep.dissipativity_constant is None

    def test_reduced_bgk_dissipativity_constant(self, grid):
        tau = 0.5
        rep = assemble_yong_report(
            ConservativeMoment(2), CollisionModel("bgk", tau=tau), grid
        )
        assert rep.block_passed and rep.symmetry_passed
        assert rep.dissipativity_constant == pytest.approx(1.0 / tau, rel=0.1)
        assert rep.dissipativity_passed and rep.gwsc_passed

    @pytest.mark.parametrize(
        "manifold", [HermitePerturbation(3), EntropyClosure(4)], ids=lambda m: m.name
    )
    def test_other_manifolds_pass(self, grid, manifold):
        rep = assemble_yong_report(manifold, CollisionModel("bgk", tau=1.0), grid)
        assert rep.block_passed and rep.symmetry_passed and rep.dissipativity_passed

    def test_asymmetric_flux_matrix_fails(self, grid):
        tau = 1.0
        from kinreduce.stability import _cm_yong_inputs

        a0, a1, qu, eq = _cm_yong_inputs(
            ConservativeMoment(2), CollisionModel("bgk", tau=tau), grid, 1.0, 0.0, 1.0
        )
        bad = a1.copy()
        bad[0, 1] += 1e-3
        rep = yong_conditions_check(a0, bad, qu, eq)
        assert not rep.symmetry_passed
        defect = np.abs(a0 @ bad - bad.T @ a0).max()
        assert rep.symmetry_defect == pytest.approx(defect, rel=1e-12)
        assert defect == pytest.approx(1e-3 * np.abs(a0[:, 0]).max(), rel=1.0)

    @pytest.mark.parametrize("kind,prandtl", MODELS)
    @pytest.mark.parametrize("degree", [2, 4])
    def test_cm_inputs_match_central_differences(self, grid, degree, kind, prandtl):
        # reference: central differences of the moment-space source
        from kinreduce import MomentState
        from kinreduce.kinetic import _target_of_moments, collision_rate
        from kinreduce.stability import _cm_yong_inputs

        manifold = ConservativeMoment(degree)
        model = CollisionModel(kind, tau=0.5, prandtl=prandtl)
        K = manifold.n_moments
        xiP = np.stack([grid.nodes**k for k in range(K)])

        def source(cvec):
            rho_ = cvec[0]
            u_ = cvec[1] / rho_
            th_ = cvec[2] / rho_ - u_ * u_
            q_ = (
                cvec[3] - 3.0 * u_ * cvec[2] + 3.0 * u_**2 * cvec[1] - u_**3 * cvec[0]
            ) / rho_
            tgt = _target_of_moments(
                model, *(np.array([v]) for v in (rho_, u_, th_, q_)), grid
            )[0]
            return collision_rate(model) * (xiP @ (tgt * grid.weights) - cvec)

        a0, a1, qu, eq = _cm_yong_inputs(manifold, model, grid, 1.1, 0.2, 0.9)
        base = xiP @ (maxwellian(MomentState(1.1, 0.2, 0.9), grid) * grid.weights)
        want = _central_jacobian(source, base)
        assert np.abs(qu - want).max() <= 1e-8 * np.abs(want).max()
        assert np.abs(qu @ eq).max() <= 1e-12 * np.abs(qu).max()

    @pytest.mark.parametrize("kind,prandtl", MODELS)
    @pytest.mark.parametrize(
        "manifold", [HermitePerturbation(3), EntropyClosure(4)], ids=lambda m: m.name
    )
    def test_chart_inputs_match_central_differences(self, grid, manifold, kind, prandtl):
        # reference: central differences of A0^-1 Q, one point at a time
        import scipy.linalg

        from kinreduce import AnsatzPoint
        from kinreduce.projection import _solve_spd, assemble_coefficients
        from kinreduce.stability import _chart_yong_inputs

        model = CollisionModel(kind, tau=0.5, prandtl=prandtl)

        def rhs(w):
            c = assemble_coefficients(AnsatzPoint(manifold, w), model, grid, check_spd=True)
            return scipy.linalg.solve(c.a0, c.q, assume_a="pos")

        omega = manifold.equilibrium_params(1.1, 0.2, 0.9)
        coef = assemble_coefficients(AnsatzPoint(manifold, omega), None, grid, check_spd=True)
        a0, a1, qu, eq = _chart_yong_inputs(manifold, model, grid, 1.1, 0.2, 0.9)
        assert np.array_equal(a0, coef.a0)
        assert np.array_equal(a1, _solve_spd(coef.a0, coef.a1.T).T)
        want_a1 = scipy.linalg.solve(coef.a0, coef.a1, assume_a="pos")
        assert np.abs(a1 - want_a1).max() <= 1e-12 * np.abs(want_a1).max()
        want = _central_jacobian(rhs, omega)
        assert np.abs(qu - want).max() <= 1e-8 * np.abs(want).max()
        assert np.abs(qu @ eq).max() <= 1e-12 * np.abs(qu).max()

    @pytest.mark.parametrize("kind,prandtl", MODELS)
    @pytest.mark.parametrize(
        "manifold",
        [ConservativeMoment(2), ConservativeMoment(4), HermitePerturbation(3),
         HermitePerturbation(4), EntropyClosure(4)],
        ids=lambda m: m.name,
    )
    def test_certificate_holds_off_the_rest_state(self, grid, manifold, kind, prandtl):
        tau = 0.1
        model = CollisionModel(kind, tau=tau, prandtl=prandtl)
        rep = assemble_yong_report(manifold, model, grid, 1.1, 0.2, 0.9)
        assert rep.block_passed and rep.symmetry_passed
        assert rep.dissipativity_passed and rep.gwsc_passed
        # the slowest relaxation: the heat-flux mode at Pr/tau under
        # Shakhov, every mode at Pr/tau under ES-BGK (d = 1)
        slowest = 1.0 / tau if kind == "bgk" else prandtl / tau
        assert rep.dissipativity_constant == pytest.approx(slowest, rel=1e-9)
        # |J| >= c, since c is minus the largest Rayleigh quotient of the
        # complement block of J; so this bound is the tighter one
        assert rep.block_defect <= 1e-12 * max(rep.dissipativity_constant, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            yong_conditions_check(
                np.eye(3), np.eye(3), np.zeros((4, 4)), np.eye(3)[:, :1]
            )


class TestSpeedAudit:
    def test_all_manifolds_pass(self, wide_grid):
        for manifold in (ConservativeMoment(2), HermitePerturbation(3), EntropyClosure(4)):
            rep = propagation_speed_audit(AuditSample(manifold, 30, wide_grid, seed=12))
            assert rep.passed and rep.margin > 0.0

    @pytest.mark.parametrize(
        "manifold", [ConservativeMoment(4), HermitePerturbation(3)], ids=lambda m: m.name
    )
    def test_takes_the_solvers_speeds(self, manifold, wide_grid):
        # 150 samples take two passes of the audit
        from kinreduce.projection import coefficients_batch
        from kinreduce.reduced_solver import _cm_speeds, _pencil_radius_batch

        rng = np.random.default_rng(5)
        omegas = np.stack([sample_valid_point(manifold, rng, wide_grid).omega for _ in range(150)])
        if isinstance(manifold, ConservativeMoment):
            speeds = _cm_speeds(manifold, omegas, wide_grid)
        else:
            coef = coefficients_batch(manifold, omegas, None, wide_grid)
            speeds = _pencil_radius_batch(coef.a0, coef.a1)
        rep = propagation_speed_audit(AuditSample(manifold, 150, wide_grid, seed=5))
        assert rep.samples == 150
        assert rep.max_radius == pytest.approx(speeds.max(), rel=1e-14)

    def test_theta_scaling_of_radius(self):
        from kinreduce import AnsatzPoint, spectral_radius

        grid = truncated_rule(18.0, 128)
        cm = ConservativeMoment(0)
        r1 = spectral_radius(
            AnsatzPoint(cm, np.array([1 / np.sqrt(2 * np.pi), 0.0, 1.0])), grid
        )
        r4 = spectral_radius(
            AnsatzPoint(cm, np.array([1 / np.sqrt(8 * np.pi), 0.0, 4.0])), grid
        )
        assert r4 / r1 == pytest.approx(2.0, rel=1e-6)
        assert r4 <= grid.half_width

    def test_constructed_violation_reported(self, wide_grid):
        # a claimed bound below the attained radius must be flagged
        rep = propagation_speed_audit(
            AuditSample(ConservativeMoment(0), 20, wide_grid, seed=4), bound=1.0
        )
        assert not rep.passed
        assert rep.margin < 0.0


class TestHyperbolicityAudit:
    def test_random_points_pass(self, wide_grid):
        for manifold in (ConservativeMoment(4), HermitePerturbation(3), EntropyClosure(4)):
            rep = hyperbolicity_audit(AuditSample(manifold, 30, wide_grid, seed=9))
            assert rep.passed
            assert rep.max_asymmetry <= 1e-10

    @pytest.mark.parametrize(
        "manifold",
        [ConservativeMoment(2), ConservativeMoment(4), HermitePerturbation(3),
         HermitePerturbation(4), EntropyClosure(4)],
        ids=lambda m: m.name,
    )
    def test_matches_per_point_loop(self, manifold, wide_grid):
        # 150 samples take two passes of the audit
        from kinreduce.projection import _asymmetry, _raw_grams, coefficients_batch

        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(150):
            omega = sample_valid_point(manifold, rng, wide_grid).omega[None]
            coefficients_batch(manifold, omega, None, wide_grid)  # raises unless Cholesky succeeds
            worst = max(worst, float(_asymmetry(_raw_grams(manifold, omega, wide_grid)[1])[0]))
        rep = hyperbolicity_audit(AuditSample(manifold, 150, wide_grid, seed=3))
        assert rep.samples == 150
        assert rep.max_asymmetry == worst
        assert rep.cholesky_ok and rep.passed

    def test_singular_gram_is_reported_not_raised(self, wide_grid, degenerate_cell):
        degenerate_cell(cell=7, cells=30)
        rep = hyperbolicity_audit(AuditSample(HermitePerturbation(3), 30, wide_grid, seed=9))
        assert rep.cholesky_ok is False
        assert rep.passed is False

    @pytest.mark.parametrize("audit", [hyperbolicity_audit, propagation_speed_audit])
    def test_no_samples_rejected(self, audit, wide_grid):
        with pytest.raises(ParameterError):
            audit(AuditSample(ConservativeMoment(2), 0, wide_grid))
