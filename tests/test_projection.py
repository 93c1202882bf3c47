import numpy as np
import pytest

from kinreduce import (
    AnsatzPoint,
    CollisionModel,
    ConfigurationError,
    ConservativeMoment,
    DegenerateChartError,
    EntropyClosure,
    HermitePerturbation,
    ParameterError,
    RealizabilityError,
    assemble_coefficients,
    integrate,
    maxwellian,
    residual,
    truncated_rule,
)
from kinreduce.ansatz import _dips_negative
from kinreduce.kinetic import _collision_rows, collision_rate, moments_of_profile
from kinreduce.projection import (
    _asymmetry,
    _jet,
    _metric,
    _node_coefficients,
    _project,
    _projection_frame,
    _raw_grams,
    _solve_spd,
    coefficients_batch,
    residual_batch,
)

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


def frame_and_metric(manifold, omegas, grid):
    """The projection frames and the metric-weighted quadrature weights
    at stacked ``omegas``, as ``residual_batch`` assembles them."""
    omegas = np.atleast_2d(omegas)
    chart = manifold.jet_batch(omegas, grid.nodes)[1]
    return _projection_frame(manifold, chart, grid), _metric(manifold, omegas, grid)


class TestGramMatrix:
    def test_reference_matrix_order_zero(self, grid):
        a0 = coefficients_batch(ConservativeMoment(0), np.array([1.0, 0.0, 1.0]), None, grid).a0[0]
        want = SQRT_2PI * np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.75]])
        assert a0 == pytest.approx(want, abs=1e-12)

    def test_positive_definite(self, wide_grid, rng):
        for manifold in MANIFOLDS:
            p = AnsatzPoint(manifold, manifold.sample_batch(rng, wide_grid, 1)[0])
            a0 = coefficients_batch(manifold, p.omega, None, wide_grid).a0[0]
            for _ in range(100):
                x = rng.normal(size=manifold.dim)
                assert x @ a0 @ x > 0.0

    def test_alpha0_scaling(self, grid):
        omegas = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 1.0]])
        a, b = coefficients_batch(ConservativeMoment(0), omegas, None, grid).a0
        # d/du scales with alpha0, d/dalpha0 does not
        assert b[1, 1] == pytest.approx(4 * a[1, 1], rel=1e-13)
        assert b[0, 0] == pytest.approx(a[0, 0], rel=1e-13)


class TestFluxMatrix:
    def test_reference_entries_order_zero(self, grid):
        a1 = coefficients_batch(ConservativeMoment(0), np.array([1.0, 0.0, 1.0]), None, grid).a1[0]
        assert a1[0, 1] == pytest.approx(SQRT_2PI, abs=1e-12)  # int xi^2 e^{-xi^2/2}
        assert a1[0, 0] == pytest.approx(0.0, abs=1e-13)  # odd integrand

    def test_symmetry(self, wide_grid, rng):
        for manifold in MANIFOLDS:
            p = AnsatzPoint(manifold, manifold.sample_batch(rng, wide_grid, 1)[0])
            a1 = coefficients_batch(manifold, p.omega, None, wide_grid).a1[0]
            assert np.abs(a1 - a1.T).max() == 0.0
            assert _asymmetry(_raw_grams(manifold, p.omega[None], wide_grid)[1])[0] <= 1e-13


class TestReducedSource:
    def test_equilibrium_vanishes(self, grid, bgk):
        # a chart-degenerate point: A0 is singular, Q still exists
        maxw = np.array([1 / SQRT_2PI, 0.0, 0.0, 0.0, 1.0])
        q = coefficients_batch(ConservativeMoment(2), maxw, bgk, grid, check_spd=False).q[0]
        assert np.abs(q).max() < 1e-11

    def test_weight_cancellation_identity(self, wide_grid, rng):
        # w * b_k = xi^k exactly for the alpha directions
        cm = ConservativeMoment(3)
        p = AnsatzPoint(cm, cm.sample_batch(rng, wide_grid, 1)[0])
        basis = cm.jet_batch(p.omega, wide_grid.nodes)[1][0]
        w = cm.weight_batch(p.omega, wide_grid.nodes)[0]
        for k in range(cm.degree + 1):
            target = wide_grid.nodes**k
            scale = np.abs(target).max() + 1.0
            assert np.abs(w * basis[k] - target).max() <= 1e-14 * scale

    def test_alpha_components_match_direct_quadrature(self, wide_grid, rng, bgk):
        cm = ConservativeMoment(2)
        p = AnsatzPoint(cm, cm.sample_batch(rng, wide_grid, 1)[0])
        q = coefficients_batch(cm, p.omega, bgk, wide_grid).q[0]
        f = cm.values_batch(p.omega, wide_grid.nodes)[0]
        feq = maxwellian(moments_of_profile(f, wide_grid), wide_grid)
        for k in range(cm.degree + 1):
            direct = integrate(wide_grid.nodes**k * (feq - f) / bgk.tau, wide_grid)
            assert q[k] == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_tau_scaling(self, wide_grid, rng):
        cm = ConservativeMoment(2)
        p = AnsatzPoint(cm, cm.sample_batch(rng, wide_grid, 1)[0])
        q1 = coefficients_batch(cm, p.omega, CollisionModel(kind="bgk", tau=0.3), wide_grid).q
        q2 = coefficients_batch(cm, p.omega, CollisionModel(kind="bgk", tau=0.6), wide_grid).q
        assert q1 == pytest.approx(2 * q2, rel=1e-13)


class TestTangentProjection:
    def test_projection_fixes_frame_columns(self, wide_grid, rng):
        cm = ConservativeMoment(2)
        p = AnsatzPoint(cm, cm.sample_batch(rng, wide_grid, 1)[0])
        frame, mu = frame_and_metric(cm, p.omega, wide_grid)
        h = frame[:, 2]  # xi^2 * Gaussian
        coeff, ph = _project(frame, mu, h)
        assert np.abs(ph - h).max() <= 1e-12 * np.abs(h).max()
        unit = np.zeros(cm.dim)
        unit[2] = 1.0
        assert coeff[0] == pytest.approx(unit, abs=1e-12)

    def test_projection_fixes_chart_columns(self, wide_grid, rng):
        hp = HermitePerturbation(3)
        p = AnsatzPoint(hp, hp.sample_batch(rng, wide_grid, 1)[0])
        frame, mu = frame_and_metric(hp, p.omega, wide_grid)
        h = frame[:, 3]  # the chart is the projection frame
        _, ph = _project(frame, mu, h)
        assert np.abs(ph - h).max() <= 1e-10 * np.abs(h).max()

    @pytest.mark.parametrize("manifold", MANIFOLDS, ids=lambda m: m.name)
    def test_idempotence_and_orthogonality(self, manifold, wide_grid, rng):
        omegas, hs = [], []
        for _ in range(20):
            p = AnsatzPoint(manifold, manifold.sample_batch(rng, wide_grid, 1)[0])
            omegas.append(p.omega)
            hs.append(gaussian_tangent_profile(p, wide_grid, rng))
        omegas, hs = np.stack(omegas), np.stack(hs)
        frame, mu = frame_and_metric(manifold, omegas, wide_grid)
        _, phs = _project(frame, mu, hs)
        _, pphs = _project(frame, mu, phs)
        charts = manifold.jet_batch(omegas, wide_grid.nodes)[1]
        weights = manifold.weight_batch(omegas, wide_grid.nodes)
        for h, ph, pph, basis, w in zip(hs, phs, pphs, charts, weights):
            scale = np.abs(h).max()
            assert np.abs(pph - ph).max() <= 1e-10 * scale
            hnorm = np.sqrt(integrate(h * h * w, wide_grid))
            for k in range(manifold.dim):
                bnorm = np.sqrt(integrate(basis[k] ** 2 * w, wide_grid))
                err = integrate((h - ph) * basis[k] * w, wide_grid)
                assert abs(err) <= 1e-10 * hnorm * bnorm

    def test_flux_moments_are_representable(self, wide_grid, rng):
        # xi^k * Gaussian lies in the span for k <= N+2, so the moment
        # functionals have metric representatives and fluxes exist
        cm = ConservativeMoment(2)
        p = AnsatzPoint(cm, cm.sample_batch(rng, wide_grid, 1)[0])
        frame, mu = frame_and_metric(cm, p.omega, wide_grid)
        K = cm.n_moments
        _, ph = _project(np.repeat(frame, K, axis=0), np.repeat(mu, K, axis=0), frame[0])
        for k in range(K):
            assert np.abs(ph[k] - frame[0, k]).max() <= 1e-11 * np.abs(frame[0, k]).max()


class TestResidual:
    def test_homogeneous_equilibrium_vanishes(self, grid, bgk):
        p = AnsatzPoint(
            ConservativeMoment(2), np.array([1 / SQRT_2PI, 0.0, 0.0, 0.0, 1.0])
        )
        r = residual(p, np.zeros(5), bgk, grid)
        assert np.abs(r).max() <= 1e-12

    def test_orthogonal_to_tangent_space(self, wide_grid, rng, bgk):
        cm = ConservativeMoment(2)
        p = AnsatzPoint(cm, cm.sample_batch(rng, wide_grid, 1)[0])
        grad = rng.normal(size=cm.dim) * 0.1
        r = residual(p, grad, bgk, wide_grid)
        basis = cm.jet_batch(p.omega, wide_grid.nodes)[1][0]
        w = cm.weight_batch(p.omega, wide_grid.nodes)[0]
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
        omegas = np.stack([manifold.sample_batch(rng, wide_grid, 1)[0] for _ in range(9)])
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
        omegas = np.stack([hp.sample_batch(rng, wide_grid, 1)[0] for _ in range(5)])
        stack = coefficients_batch(hp, omegas, bgk, wide_grid)
        for i, omega in enumerate(omegas):
            p = AnsatzPoint(hp, omega)
            one = assemble_coefficients(p, bgk, wide_grid)
            assert np.array_equal(one.a0, stack.a0[i])
            assert np.array_equal(one.a1, stack.a1[i])
            # the collision moments are matrix-vector products whose
            # rounding depends on the rows batched together
            scale = np.abs(stack.q[i]).max()
            assert np.abs(one.q - stack.q[i]).max() <= 1e-12 * scale

    def test_negative_tails_name_the_lower_row(self, grid, bgk):
        """The node-pass assembly builds Q from f on the nodes, so it
        applies the sign rule and names the lowest row that dips; the
        power-sum assembly of HermitePerturbation assembles signed tails."""
        cm = ConservativeMoment(1)
        omegas = np.tile(cm.equilibrium_params(1.0, 0.0, 1.0), (7, 1))
        omegas[5] = [0.4, 1.0, 0.0, 1.0]  # f = (0.4 + xi) G < 0 for xi < -0.4
        omegas[2] = [0.0, 1.0, 0.0, 1.0]  # f = xi G < 0 for xi < 0
        # the chart loses rank at the Maxwellian rows: no Cholesky test
        with pytest.raises(RealizabilityError, match="ansatz evaluates to") as info:
            _node_coefficients(cm, omegas, bgk, grid, check_spd=False)
        assert info.value.row == 2
        with pytest.raises(RealizabilityError) as info:
            _node_coefficients(cm, omegas[3:], bgk, grid, check_spd=False)
        assert info.value.row == 2
        # the sign rule belongs to Q: without a model nothing evaluates f
        _node_coefficients(cm, omegas, None, grid, check_spd=False)

        hp = HermitePerturbation(4)
        tails = np.tile(hp.equilibrium_params(1.0, 0.0, 1.0), (7, 1))
        tails[5, 4] = -0.02
        tails[2, 4] = -0.01  # 1 - 0.01 He_4(w) < 0 for |w| > 3.3
        with pytest.raises(RealizabilityError, match="ansatz evaluates to") as info:
            _node_coefficients(hp, tails, bgk, grid)
        assert info.value.row == 2
        coefficients_batch(hp, tails, bgk, grid)

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
        with pytest.raises(DegenerateChartError, match="not SPD"):
            coefficients_batch(cm, maxw, None, grid)
        one = assemble_coefficients(AnsatzPoint(cm, maxw), bgk, grid)
        assert np.isfinite(one.a0).all() and np.isfinite(one.a1).all()
        assert np.abs(one.q).max() < 1e-11

    def test_shape_is_checked(self, grid):
        with pytest.raises(ParameterError):
            coefficients_batch(HermitePerturbation(4), np.ones((3, 4)), None, grid)


def hp_sample(hp, grid, count, seed):
    """``count`` HermitePerturbation points, a third of them with
    sqrt(theta) < 2h, where the power sums take the node pass: those
    temperatures lie between 2h and the smallest the metric weight
    admits on the grid, (L + 1)^2 / 1380 for |u| <= 1."""
    rng = np.random.default_rng(seed)
    two_h = 4.0 * grid.half_width / grid.cells
    narrow = count // 3
    lowest = (grid.half_width + 1.0) ** 2 / 1380.0
    return np.concatenate([
        hp.sample_batch(rng, grid, count - narrow),
        hp.sample_batch(rng, grid, narrow, theta_range=(1.01 * lowest, 0.99 * two_h**2)),
    ])


def coefficient_scales(hp, omegas, model, grid, coef):
    """Per row: max |A0|, max |A1| and, for Q, the size of the terms it
    is the difference of, the collision rate times max_k |g(b_k, f)|."""
    f, basis = _jet(hp, omegas, grid)
    mu = _metric(hp, omegas, grid)
    q_scale = np.ones(len(omegas))
    if model is not None:
        q_scale = collision_rate(model) * np.abs(
            np.einsum("mkn,mn->mk", basis, f * mu)).max(axis=1)
    return np.abs(coef.a0).max(axis=(1, 2)), np.abs(coef.a1).max(axis=(1, 2)), q_scale


def row_errors(got, want, scale):
    return np.abs(got - want).max(axis=tuple(range(1, got.ndim))) / scale


class TestPowerSumAssembly:
    """HermitePerturbation's A0, A1 and Q from Gaussian power sums,
    against the node-pass assembly (``_node_coefficients``)."""

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind if m else "none")
    @pytest.mark.parametrize("degree", [3, 4, 6])
    @pytest.mark.parametrize("half_width, cells", [(9.0, 64), (10.0, 128), (8.5, 48)])
    def test_matches_the_node_pass(self, half_width, cells, degree, model):
        """30 rows, a third with sqrt(theta) < 2h.  Those rows take the
        node pass on both sides; elsewhere the power sums are the
        integral over [-L, L], and a 32 times finer rule stands in for
        it.  A0, A1 and Q match the node pass to 1e-12 of their scales
        (measured: at most 5.3e-13, A1 of HP(6) on L = 8.5 with 48
        cells, where the node pass is itself 5.4e-13 off the integral;
        elsewhere at most 6.5e-14) and the integral to 1e-13 (measured:
        4e-14)."""
        grid = truncated_rule(half_width, cells)
        hp = HermitePerturbation(degree)
        omegas = hp_sample(hp, grid, 30, degree)
        fine = omegas[:, 2] >= (4.0 * half_width / cells) ** 2
        assert fine.sum() == 20
        got = coefficients_batch(hp, omegas, model, grid)
        want = _node_coefficients(hp, omegas, model, grid)
        integral = _node_coefficients(hp, omegas[fine], model,
                                      truncated_rule(half_width, 32 * cells))
        scales = coefficient_scales(hp, omegas, model, grid, want)
        for g, w, i, scale in zip((got.a0, got.a1, got.q), (want.a0, want.a1, want.q),
                                  (integral.a0, integral.a1, integral.q), scales):
            assert row_errors(g, w, scale).max() <= 1e-12
            assert row_errors(g[fine], i, scale[fine]).max() <= 1e-13
        if model is None:
            assert not got.q.any()

    def test_polynomials_are_the_chart_basis(self, wide_grid, rng):
        """G times the coefficient rows of ``polynomial_jet``, evaluated
        on the nodes, is ``jet_batch``'s f and basis to round-off."""
        for degree in (2, 3, 4, 6):
            hp = HermitePerturbation(degree)
            omegas = hp.sample_batch(rng, wide_grid, 12)
            f, basis = hp.jet_batch(omegas, wide_grid.nodes)
            a, B = hp.polynomial_jet(omegas)
            assert a.shape == (12, degree + 3) and B.shape == (12, hp.dim, degree + 3)
            w = (wide_grid.nodes - omegas[:, 1, None]) / np.sqrt(omegas[:, 2, None])
            powers = w[:, None, :] ** np.arange(degree + 3)[None, :, None]
            gauss = np.exp(-0.5 * w * w)
            assert np.abs(gauss * np.einsum("mi,min->mn", a, powers) - f).max() \
                <= 1e-14 * np.abs(f).max()
            got = gauss[:, None, :] * np.einsum("mki,min->mkn", B, powers)
            scale = np.abs(basis).max(axis=2, keepdims=True)
            assert np.all(np.abs(got - basis) <= 1e-13 * scale)

    def test_each_rule_raises_as_the_node_pass(self, grid, bgk):
        """One crafted stack per rule, in the rules' order; the failing
        row is 2 of 4, and the power-sum path raises the node pass's
        class and message for that row."""
        hp = HermitePerturbation(4)
        base = np.tile(hp.equilibrium_params(1.0, 0.1, 0.9), (4, 1))
        params, weight, moments_, spd = (base.copy() for _ in range(4))
        params[2, 2] = -0.5  # theta < 0
        weight[2, 2] = 0.05  # (L + u)^2 / (2 theta) = 846 > 690
        moments_[2, 0] = 5e-324  # f rounds to 0 on every node
        spd[2, 0] = 1e-200  # the u and theta tangents square to 0
        cases = [(params, RealizabilityError), (weight, ConfigurationError),
                 (moments_, RealizabilityError), (spd, DegenerateChartError)]
        messages = []
        for omegas, kind in cases:
            with pytest.raises(kind) as want:
                _node_coefficients(hp, omegas, bgk, grid)
            with pytest.raises(kind) as got:
                coefficients_batch(hp, omegas, bgk, grid)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
            assert got.value.row == want.value.row == 2
            messages.append(str(got.value))
        assert [m.split()[0] for m in messages] == [
            "HermitePerturbation", "metric", "unrealizable", "Gram"]

    @pytest.mark.parametrize("model", MODELS[1:], ids=lambda m: m.kind)
    def test_signed_tails_are_the_unclipped_quadrature(self, grid, model):
        """Rows whose ansatz dips below zero, the tails of
        ``test_negative_tails_name_the_lower_row`` and a moved, heated
        row, assemble: A0, A1 and Q match the node-pass quadratures of
        the unclipped ansatz to 1e-12 of their scales (measured: 1.1e-15
        for A0, 3.2e-15 for A1 and 7.0e-16 for Q, with |Q| up to 0.65)."""
        hp = HermitePerturbation(4)
        omegas = np.tile(hp.equilibrium_params(1.0, 0.0, 1.0), (3, 1))
        omegas[0, 4] = -0.01
        omegas[1, 4] = -0.02
        omegas[2] = hp.equilibrium_params(1.1, 0.6, 1.4)
        omegas[2, 3:] = [0.05, -0.02]
        f, basis = _jet(hp, omegas, grid)
        assert _dips_negative(f).all()
        got = coefficients_batch(hp, omegas, model, grid)
        want = _node_coefficients(hp, omegas, None, grid)
        q = np.einsum("mkn,mn->mk", basis, _collision_rows(model, f, grid)
                      * _metric(hp, omegas, grid))
        scales = coefficient_scales(hp, omegas, model, grid, want)
        for g, w, scale in zip((got.a0, got.a1, got.q), (want.a0, want.a1, q), scales):
            assert row_errors(g, w, scale).max() <= 1e-12

    def test_no_rows(self, bgk):
        from kinreduce import gauss_hermite_rule

        for grid in (gauss_hermite_rule(40), truncated_rule(9.0, 64)):
            for model in (None, bgk):
                got = coefficients_batch(HermitePerturbation(4), np.empty((0, 5)), model, grid)
                assert got.a0.shape == got.a1.shape == (0, 5, 5) and got.q.shape == (0, 5)

    def test_a_row_keeps_its_bits_in_a_one_row_view(self, wide_grid, rng, bgk):
        hp = HermitePerturbation(4)
        omegas = hp.sample_batch(rng, wide_grid, 7)
        stack = coefficients_batch(hp, omegas, bgk, wide_grid)
        for i, omega in enumerate(omegas):
            one = assemble_coefficients(AnsatzPoint(hp, omega), bgk, wide_grid)
            assert all(np.array_equal(a, b[i]) for a, b in
                       zip((one.a0, one.a1, one.q), (stack.a0, stack.a1, stack.q)))


class TestResidualBatch:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind if m else "none")
    @pytest.mark.parametrize(
        "manifold",
        [HermitePerturbation(3), HermitePerturbation(4), EntropyClosure(4),
         ConservativeMoment(2), ConservativeMoment(4)],
        ids=lambda m: m.name,
    )
    def test_matches_per_point_loop(self, manifold, model, wide_grid, rng, reference_residual):
        omegas = np.stack([manifold.sample_batch(rng, wide_grid, 1)[0] for _ in range(9)])
        grads = 0.1 * rng.normal(size=omegas.shape) * (1.0 + np.abs(omegas))
        got = residual_batch(manifold, omegas, grads, model, wide_grid)
        assert got.shape == (9, len(wide_grid))
        for i in range(9):
            want, scale = reference_residual(manifold, omegas[i], grads[i], model, wide_grid)
            assert np.abs(got[i] - want).max() <= 1e-12 * scale

    def test_views_are_rows_of_the_stack(self, wide_grid, rng, bgk):
        hp = HermitePerturbation(4)
        omegas = np.stack([hp.sample_batch(rng, wide_grid, 1)[0] for _ in range(5)])
        grads = 0.1 * rng.normal(size=omegas.shape)
        stack = residual_batch(hp, omegas, grads, bgk, wide_grid)
        for i, omega in enumerate(omegas):
            one = residual(AnsatzPoint(hp, omega), grads[i], bgk, wide_grid)
            # stacked products round differently from one-row ones
            assert np.abs(one - stack[i]).max() <= 1e-12 * np.abs(stack[i]).max()

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
