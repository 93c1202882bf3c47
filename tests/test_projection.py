import numpy as np
import pytest

from kinreduce import (
    AnsatzPoint,
    CollisionModel,
    ConservativeMoment,
    DegenerateChartError,
    EntropyClosure,
    HermitePerturbation,
    ParameterError,
    RealizabilityError,
    assemble_coefficients,
    flux_matrix,
    gram_matrix,
    integrate,
    maxwellian,
    metric_weight,
    reduced_source,
    residual,
    sample_valid_point,
    tangent_basis,
    tangent_projection,
)
from kinreduce.kinetic import moments_of_profile
from kinreduce.error_estimator import field_norm, residual_norm
from kinreduce.projection import _solve_spd, coefficients_batch, flux_asymmetry, residual_batch

SQRT_2PI = np.sqrt(2 * np.pi)
MANIFOLDS = [ConservativeMoment(2), HermitePerturbation(3), EntropyClosure(4)]


def gaussian_tangent_profile(p, grid, rng):
    """Random smooth profile inside the metric's weighted-L2 space."""
    from kinreduce.ansatz import ConservativeMoment as _CM, HermitePerturbation as _HP

    omega = p.omega
    if isinstance(p.manifold, (_CM, _HP)):
        u, theta = omega[-2], omega[-1]
        if isinstance(p.manifold, _HP):
            u, theta = omega[1], omega[2]
    else:
        u, theta = 0.0, 1.0
    w = (grid.nodes - u) / np.sqrt(theta)
    poly = np.polynomial.polynomial.polyval(w, rng.normal(size=6))
    return poly * np.exp(-0.5 * w * w)


class TestGramMatrix:
    def test_reference_matrix_order_zero(self, grid):
        p = AnsatzPoint(ConservativeMoment(0), np.array([1.0, 0.0, 1.0]))
        a0 = gram_matrix(p, grid)
        want = SQRT_2PI * np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.75]])
        assert a0 == pytest.approx(want, abs=1e-12)

    def test_positive_definite(self, wide_grid, rng):
        for manifold in MANIFOLDS:
            p = sample_valid_point(manifold, rng, wide_grid)
            a0 = gram_matrix(p, wide_grid)
            for _ in range(100):
                x = rng.normal(size=manifold.dim)
                assert x @ a0 @ x > 0.0

    def test_alpha0_scaling(self, grid):
        cm = ConservativeMoment(0)
        a = gram_matrix(AnsatzPoint(cm, np.array([1.0, 0.0, 1.0])), grid)
        b = gram_matrix(AnsatzPoint(cm, np.array([2.0, 0.0, 1.0])), grid)
        # d/du scales with alpha0, d/dalpha0 does not
        assert b[1, 1] == pytest.approx(4 * a[1, 1], rel=1e-13)
        assert b[0, 0] == pytest.approx(a[0, 0], rel=1e-13)


class TestFluxMatrix:
    def test_reference_entries_order_zero(self, grid):
        p = AnsatzPoint(ConservativeMoment(0), np.array([1.0, 0.0, 1.0]))
        a1 = flux_matrix(p, grid)
        assert a1[0, 1] == pytest.approx(SQRT_2PI, abs=1e-12)  # int xi^2 e^{-xi^2/2}
        assert a1[0, 0] == pytest.approx(0.0, abs=1e-13)  # odd integrand

    def test_symmetry(self, wide_grid, rng):
        for manifold in MANIFOLDS:
            p = sample_valid_point(manifold, rng, wide_grid)
            a1 = flux_matrix(p, wide_grid)
            assert np.abs(a1 - a1.T).max() == 0.0
            assert flux_asymmetry(p, wide_grid) <= 1e-13


class TestReducedSource:
    def test_equilibrium_vanishes(self, grid, bgk):
        p = AnsatzPoint(
            ConservativeMoment(2), np.array([1 / SQRT_2PI, 0.0, 0.0, 0.0, 1.0])
        )
        q = reduced_source(p, bgk, grid)
        assert np.abs(q).max() < 1e-11

    def test_weight_cancellation_identity(self, wide_grid, rng):
        # w * b_k = xi^k exactly for the alpha directions
        cm = ConservativeMoment(3)
        p = sample_valid_point(cm, rng, wide_grid)
        basis = tangent_basis(p, wide_grid).columns
        w = metric_weight(p, wide_grid).weight
        for k in range(cm.degree + 1):
            target = wide_grid.nodes**k
            scale = np.abs(target).max() + 1.0
            assert np.abs(w * basis[k] - target).max() <= 1e-14 * scale

    def test_alpha_components_match_direct_quadrature(self, wide_grid, rng, bgk):
        cm = ConservativeMoment(2)
        p = sample_valid_point(cm, rng, wide_grid)
        q = reduced_source(p, bgk, wide_grid)
        f = cm.values(p.omega, wide_grid.nodes)
        feq = maxwellian(moments_of_profile(f, wide_grid), wide_grid)
        for k in range(cm.degree + 1):
            direct = integrate(wide_grid.nodes**k * (feq - f) / bgk.tau, wide_grid)
            assert q[k] == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_tau_scaling(self, wide_grid, rng):
        p = sample_valid_point(ConservativeMoment(2), rng, wide_grid)
        q1 = reduced_source(p, CollisionModel(kind="bgk", tau=0.3), wide_grid)
        q2 = reduced_source(p, CollisionModel(kind="bgk", tau=0.6), wide_grid)
        assert q1 == pytest.approx(2 * q2, rel=1e-13)


class TestTangentProjection:
    def test_projection_fixes_frame_columns(self, wide_grid, rng):
        cm = ConservativeMoment(2)
        p = sample_valid_point(cm, rng, wide_grid)
        h = cm.monomial_basis(p.omega, wide_grid.nodes)[2]  # xi^2 * Gaussian
        coeff, ph = tangent_projection(p, h, wide_grid)
        assert np.abs(ph - h).max() <= 1e-12 * np.abs(h).max()
        unit = np.zeros(cm.dim)
        unit[2] = 1.0
        assert coeff == pytest.approx(unit, abs=1e-12)

    def test_projection_fixes_chart_columns(self, wide_grid, rng):
        hp = HermitePerturbation(3)
        p = sample_valid_point(hp, rng, wide_grid)
        h = tangent_basis(p, wide_grid).columns[3]
        coeff, ph = tangent_projection(p, h, wide_grid)
        assert np.abs(ph - h).max() <= 1e-10 * np.abs(h).max()

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=lambda m: m.name)
    def test_idempotence_and_orthogonality(self, manifold, wide_grid, rng):
        for _ in range(20):
            p = sample_valid_point(manifold, rng, wide_grid)
            h = gaussian_tangent_profile(p, wide_grid, rng)
            _, ph = tangent_projection(p, h, wide_grid)
            _, pph = tangent_projection(p, ph, wide_grid)
            scale = np.abs(h).max()
            assert np.abs(pph - ph).max() <= 1e-10 * scale
            basis = tangent_basis(p, wide_grid).columns
            w = metric_weight(p, wide_grid).weight
            hnorm = np.sqrt(integrate(h * h * w, wide_grid))
            for k in range(manifold.dim):
                bnorm = np.sqrt(integrate(basis[k] ** 2 * w, wide_grid))
                err = integrate((h - ph) * basis[k] * w, wide_grid)
                assert abs(err) <= 1e-10 * hnorm * bnorm

    def test_flux_moments_are_representable(self, wide_grid, rng):
        # xi^k * Gaussian lies in the span for k <= N+2, so the moment
        # functionals have metric representatives and fluxes exist
        cm = ConservativeMoment(2)
        p = sample_valid_point(cm, rng, wide_grid)
        frame = cm.monomial_basis(p.omega, wide_grid.nodes)
        for k in range(cm.n_moments):
            _, ph = tangent_projection(p, frame[k], wide_grid)
            assert np.abs(ph - frame[k]).max() <= 1e-11 * np.abs(frame[k]).max()


class TestResidual:
    def test_homogeneous_equilibrium_vanishes(self, grid, bgk):
        p = AnsatzPoint(
            ConservativeMoment(2), np.array([1 / SQRT_2PI, 0.0, 0.0, 0.0, 1.0])
        )
        r = residual(p, np.zeros(5), bgk, grid)
        assert np.abs(r).max() <= 1e-12

    def test_orthogonal_to_tangent_space(self, wide_grid, rng, bgk):
        cm = ConservativeMoment(2)
        p = sample_valid_point(cm, rng, wide_grid)
        grad = rng.normal(size=cm.dim) * 0.1
        r = residual(p, grad, bgk, wide_grid)
        basis = tangent_basis(p, wide_grid).columns
        w = metric_weight(p, wide_grid).weight
        rnorm = np.sqrt(integrate(r * r * w, wide_grid)) + 1e-300
        for k in range(cm.dim):
            bnorm = np.sqrt(integrate(basis[k] ** 2 * w, wide_grid))
            assert abs(integrate(r * basis[k] * w, wide_grid)) <= 1e-10 * rnorm * bnorm

    def test_pure_alpha0_gradient_is_in_span(self, grid):
        # xi * e^{-xi^2/2} is the u-direction at this point, so the
        # transport of a pure alpha_0 gradient projects to zero; this is
        # why the tangent space is enlarged to degree N+2
        cm = ConservativeMoment(0)
        p = AnsatzPoint(cm, np.array([1.0, 0.0, 1.0]))
        grad = np.array([0.003, 0.0, 0.0])  # d alpha_0 / dx only
        r = residual(p, grad, None, grid)
        assert np.abs(r).max() <= 1e-12


class TestSolveSpd:
    def test_indefinite_gram_is_degenerate_chart(self):
        with pytest.raises(DegenerateChartError, match="not SPD") as info:
            _solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
        assert "regularize" not in str(info.value)


MODELS = [
    None,
    CollisionModel(kind="bgk", tau=0.5),
    CollisionModel(kind="shakhov", tau=0.3, prandtl=2.0 / 3.0),
    CollisionModel(kind="esbgk", tau=0.4, prandtl=2.0 / 3.0),
]


class TestCoefficientsBatch:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind if m else "none")
    @pytest.mark.parametrize(
        "manifold",
        [HermitePerturbation(3), HermitePerturbation(4), EntropyClosure(4), ConservativeMoment(2)],
        ids=lambda m: m.name,
    )
    def test_matches_per_point_loop(self, manifold, model, wide_grid, rng, reference_coefficients):
        omegas = np.stack([sample_valid_point(manifold, rng, wide_grid).omega for _ in range(9)])
        got = coefficients_batch(manifold, omegas, model, wide_grid)
        assert got.a0.shape == got.a1.shape == (9, manifold.dim, manifold.dim)
        assert got.q.shape == (9, manifold.dim)
        for i, omega in enumerate(omegas):
            a0, a1, q, q_scale = reference_coefficients(manifold, omega, model, wide_grid)
            assert np.abs(got.a0[i] - a0).max() <= 1e-12 * np.abs(a0).max()
            assert np.abs(got.a1[i] - a1).max() <= 1e-12 * np.abs(a1).max()
            assert np.abs(got.q[i] - q).max() <= 1e-12 * q_scale
            if model is None:
                assert not got.q[i].any()

    def test_one_row_views_are_rows_of_the_stack(self, wide_grid, rng, bgk):
        hp = HermitePerturbation(4)
        omegas = np.stack([sample_valid_point(hp, rng, wide_grid).omega for _ in range(5)])
        stack = coefficients_batch(hp, omegas, bgk, wide_grid)
        for i, omega in enumerate(omegas):
            p = AnsatzPoint(hp, omega)
            one = assemble_coefficients(p, bgk, wide_grid)
            assert np.array_equal(one.a0, stack.a0[i])
            assert np.array_equal(one.a1, stack.a1[i])
            assert np.array_equal(gram_matrix(p, wide_grid), stack.a0[i])
            assert np.array_equal(flux_matrix(p, wide_grid), stack.a1[i])
            # the collision moments are matrix-vector products whose
            # rounding depends on the rows batched together
            scale = np.abs(stack.q[i]).max()
            assert np.abs(one.q - stack.q[i]).max() <= 1e-12 * scale
            assert np.abs(reduced_source(p, bgk, wide_grid) - stack.q[i]).max() <= 1e-12 * scale

    def test_negative_tails_name_the_lower_row(self, grid, bgk):
        hp = HermitePerturbation(4)
        omegas = np.tile(hp.equilibrium_params(1.0, 0.0, 1.0), (7, 1))
        omegas[5, 4] = -0.02
        omegas[2, 4] = -0.01  # 1 - 0.01 He_4(w) < 0 for |w| > 3.3
        with pytest.raises(RealizabilityError, match="ansatz evaluates to") as info:
            coefficients_batch(hp, omegas, bgk, grid)
        assert info.value.row == 2
        with pytest.raises(RealizabilityError) as info:
            coefficients_batch(hp, omegas[3:], bgk, grid)
        assert info.value.row == 2
        # the sign rule belongs to Q: without a model nothing evaluates f
        coefficients_batch(hp, omegas, None, grid)

    def test_failing_parameters_name_the_lowest_row(self, grid):
        hp = HermitePerturbation(3)
        omegas = np.tile(hp.equilibrium_params(1.0, 0.0, 1.0), (4, 1))
        omegas[3, 2] = -1.0
        omegas[1, 0] = 0.0
        with pytest.raises(RealizabilityError, match="rho > 0") as info:
            coefficients_batch(hp, omegas, None, grid)
        assert info.value.row == 1

    def test_degenerate_chart(self, grid, bgk):
        # ConservativeMoment's chart loses rank at Maxwellians: A0 is
        # singular there while A1 and Q still exist
        cm = ConservativeMoment(2)
        maxw = np.array([1 / SQRT_2PI, 0.0, 0.0, 0.0, 1.0])
        omegas = np.stack([[1.0, 0.1, 0.05, 0.0, 1.0], maxw, maxw])
        with pytest.raises(DegenerateChartError, match="not SPD") as info:
            coefficients_batch(cm, omegas, bgk, grid)
        assert info.value.row == 1
        p = AnsatzPoint(cm, maxw)
        with pytest.raises(DegenerateChartError, match="not SPD"):
            gram_matrix(p, grid)
        assert np.isfinite(assemble_coefficients(p, bgk, grid).a0).all()
        assert np.isfinite(flux_matrix(p, grid)).all()
        assert np.abs(reduced_source(p, bgk, grid)).max() < 1e-11

    def test_shape_is_checked(self, grid):
        with pytest.raises(ParameterError):
            coefficients_batch(HermitePerturbation(4), np.ones((3, 4)), None, grid)


class TestResidualBatch:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind if m else "none")
    @pytest.mark.parametrize(
        "manifold",
        [HermitePerturbation(3), HermitePerturbation(4), EntropyClosure(4),
         ConservativeMoment(2), ConservativeMoment(4)],
        ids=lambda m: m.name,
    )
    def test_matches_per_point_loop(self, manifold, model, wide_grid, rng, reference_residual):
        omegas = np.stack([sample_valid_point(manifold, rng, wide_grid).omega for _ in range(9)])
        grads = 0.1 * rng.normal(size=omegas.shape) * (1.0 + np.abs(omegas))
        got = residual_batch(manifold, omegas, grads, model, wide_grid)
        assert got.shape == (9, len(wide_grid))
        for i in range(9):
            want, scale = reference_residual(manifold, omegas[i], grads[i], model, wide_grid)
            assert np.abs(got[i] - want).max() <= 1e-12 * scale

    def test_views_are_rows_of_the_stack(self, wide_grid, rng, bgk):
        hp = HermitePerturbation(4)
        omegas = np.stack([sample_valid_point(hp, rng, wide_grid).omega for _ in range(5)])
        grads = 0.1 * rng.normal(size=omegas.shape)
        stack = residual_batch(hp, omegas, grads, bgk, wide_grid)
        for i, omega in enumerate(omegas):
            one = residual(AnsatzPoint(hp, omega), grads[i], bgk, wide_grid)
            # stacked products round differently from one-row ones
            assert np.abs(one - stack[i]).max() <= 1e-12 * np.abs(stack[i]).max()
        points = [AnsatzPoint(hp, w) for w in omegas]
        norm = residual_norm(points, grads, bgk, wide_grid, dx=0.1)
        assert norm == pytest.approx(field_norm(stack, wide_grid, 0.1, 2.0), rel=1e-12)

    def test_failing_rules_name_the_lowest_row(self, grid, bgk):
        cm = ConservativeMoment(2)
        omegas = np.tile([1 / SQRT_2PI, 0.0, 0.0, 0.0, 1.0], (6, 1))
        grads = np.zeros_like(omegas)
        omegas[4, 0] = -omegas[4, 0]  # f < 0: no positive density for Q
        omegas[2, 0] = -omegas[2, 0]
        with pytest.raises(RealizabilityError, match="unrealizable moments") as info:
            residual_batch(cm, omegas, grads, bgk, grid)
        assert info.value.row == 2
        # check_params comes first; without a model f has no moments to check
        omegas[3, -1] = -1.0
        with pytest.raises(RealizabilityError, match="theta > 0") as info:
            residual_batch(cm, omegas, grads, bgk, grid)
        assert info.value.row == 3
        assert np.isfinite(residual_batch(cm, omegas[:3], grads[:3], None, grid)).all()

    def test_singular_gram_is_typed(self, grid, degenerate_cell):
        hp = HermitePerturbation(4)
        omegas = np.tile(hp.equilibrium_params(1.0, 0.0, 1.0), (6, 1))
        degenerate_cell(4, cells=6)
        with pytest.raises(DegenerateChartError, match="not SPD") as info:
            residual_batch(hp, omegas, np.zeros_like(omegas), None, grid)
        assert info.value.row == 4

    def test_shapes_are_checked(self, grid):
        hp = HermitePerturbation(4)
        omegas = np.tile(hp.equilibrium_params(1.0, 0.0, 1.0), (3, 1))
        with pytest.raises(ParameterError):
            residual_batch(hp, omegas, np.zeros((2, 5)), None, grid)
        with pytest.raises(ParameterError):
            residual_batch(hp, omegas[:, :4], np.zeros((3, 4)), None, grid)
