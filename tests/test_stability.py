import numpy as np
import pytest

from kinreduce import (
    CollisionModel,
    ConfigurationError,
    ConservativeMoment,
    EntropyClosure,
    HermitePerturbation,
    HermiteSpace,
    ParameterError,
    assemble_yong_report,
    gusc_check,
    hyperbolicity_audit,
    linearized_collision_matrix,
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

    def test_insufficient_quadrature_rejected(self):
        with pytest.raises(ConfigurationError):
            HermiteSpace(1, 6, quad_points=5)

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

    def test_metric_scaling_leaves_verdict_unchanged(self):
        model = CollisionModel("shakhov", tau=1.0, prandtl=2 / 3)
        verdicts = []
        for scale in (1.0, 13.7):
            space = HermiteSpace(1, 4, metric_scale=scale)
            D = linearized_collision_matrix(model, space)
            rep = gusc_check(D, space.w0_projector(), 2 / 3)
            verdicts.append((rep.passed, round(rep.worst_quotient, 10)))
        assert verdicts[0] == verdicts[1]


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

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            yong_conditions_check(
                np.eye(3), np.eye(3), np.zeros((4, 4)), np.eye(3)[:, :1]
            )


class TestSpeedAudit:
    def test_all_manifolds_pass(self, wide_grid):
        for manifold in (ConservativeMoment(2), HermitePerturbation(3), EntropyClosure(4)):
            rep = propagation_speed_audit(manifold, 30, wide_grid, seed=12)
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
        rep = propagation_speed_audit(manifold, 150, wide_grid, seed=5)
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
            ConservativeMoment(0), 20, wide_grid, seed=4, bound=1.0
        )
        assert not rep.passed
        assert rep.margin < 0.0


class TestHyperbolicityAudit:
    def test_random_points_pass(self, wide_grid):
        for manifold in (ConservativeMoment(4), HermitePerturbation(3), EntropyClosure(4)):
            rep = hyperbolicity_audit(manifold, 30, wide_grid, seed=9)
            assert rep.passed
            assert rep.max_asymmetry <= 1e-10
