import numpy as np
import pytest
from scipy.integrate import quad

from kinreduce import (
    CollisionModel,
    DistributionField,
    MomentState,
    RealizabilityError,
    SpatialMesh,
    collision_apply,
    collision_invariants,
    collision_target,
    compute_moments,
    entropy,
    entropy_production,
    flux_existence_check,
    maxwellian,
)
from kinreduce.kinetic import collision_profile, entropy_density, moments_of_profile

from conftest import homogeneous_field


def random_realizable_profile(grid, rng, scale=0.15):
    """Positive profile with unit-order moments."""
    m = MomentState(
        rho=rng.uniform(0.5, 2.0),
        u=rng.uniform(-0.8, 0.8),
        theta=rng.uniform(0.6, 1.4),
    )
    base = maxwellian(m, grid)
    w = (grid.nodes - m.u) / np.sqrt(m.theta)
    bump = 1.0 + scale * np.sin(3.0 * w) * np.exp(-0.25 * w * w)
    return base * bump


class TestMoments:
    def test_sampled_standard_maxwellian(self, grid):
        f = maxwellian(MomentState(rho=1.0, u=0.0, theta=1.0), grid)
        m = moments_of_profile(f, grid)
        assert (m.rho, m.u, m.theta) == pytest.approx((1.0, 0.0, 1.0), abs=1e-10)

    def test_plain_gaussian(self, grid):
        # closed-form moments of e^{-xi^2}: rho = sqrt(pi), theta = 1/2
        m = moments_of_profile(np.exp(-grid.nodes**2), grid)
        assert m.rho == pytest.approx(np.sqrt(np.pi), abs=1e-10)
        assert m.u == pytest.approx(0.0, abs=1e-10)
        assert m.theta == pytest.approx(0.5, abs=1e-10)
        assert m.pressure == pytest.approx(m.theta)

    def test_shifted_maxwellian(self, wide_grid):
        f = maxwellian(MomentState(rho=2.0, u=0.5, theta=0.8), wide_grid)
        m = moments_of_profile(f, wide_grid)
        assert (m.rho, m.u, m.theta) == pytest.approx((2.0, 0.5, 0.8), abs=1e-10)

    def test_moment_idempotence(self, wide_grid, rng):
        for _ in range(30):
            m = MomentState(
                rho=rng.uniform(0.5, 2.0),
                u=rng.uniform(-1, 1),
                theta=rng.uniform(0.5, 1.5),
            )
            back = moments_of_profile(maxwellian(m, wide_grid), wide_grid)
            assert (back.rho, back.u, back.theta) == pytest.approx(
                (m.rho, m.u, m.theta), abs=1e-10
            )

    def test_realizability_gate(self, grid):
        mesh = SpatialMesh(cells=1, length=1.0)
        f = DistributionField(np.zeros((1, len(grid))), grid, mesh)
        with pytest.raises(RealizabilityError):
            compute_moments(f, 0)
        with pytest.raises(RealizabilityError):
            MomentState(rho=-1.0, u=0.0, theta=1.0)
        with pytest.raises(RealizabilityError):
            MomentState(rho=1.0, u=0.0, theta=0.0)


class TestMaxwellian:
    def test_peak_value(self, grid):
        f = maxwellian(MomentState(rho=1.0, u=0.0, theta=1.0), grid)
        k = np.argmin(np.abs(grid.nodes))
        # value at the node closest to zero, compared with the formula there
        assert f[k] == pytest.approx(
            np.exp(-grid.nodes[k] ** 2 / 2) / np.sqrt(2 * np.pi), rel=1e-14
        )

    def test_density_linearity(self, grid):
        m1 = MomentState(rho=1.0, u=0.3, theta=0.9)
        m2 = MomentState(rho=2.0, u=0.3, theta=0.9)
        assert maxwellian(m2, grid) == pytest.approx(2 * maxwellian(m1, grid), rel=1e-14)


class TestCollisionTargets:
    def test_shakhov_zero_heat_flux_is_maxwellian(self, grid):
        m = MomentState(rho=1.2, u=0.1, theta=0.9, heat_flux=0.0)
        model = CollisionModel(kind="shakhov", tau=0.7, prandtl=0.66)
        assert collision_target(model, m, grid) == pytest.approx(
            maxwellian(m, grid), rel=1e-14
        )

    def test_esbgk_at_maxwellian(self, grid):
        m = MomentState(rho=1.0, u=0.0, theta=1.1)  # pressure defaults to theta
        model = CollisionModel(kind="esbgk", tau=0.7, prandtl=0.66)
        assert collision_target(model, m, grid) == pytest.approx(
            maxwellian(m, grid), rel=1e-13
        )

    def test_esbgk_nonpositive_lambda(self, grid):
        model = CollisionModel(kind="esbgk", tau=1.0, prandtl=0.4)
        m = MomentState(rho=1.0, u=0.0, theta=0.1, pressure=3.0)
        # Lambda = theta/Pr + (1 - 1/Pr) P = 0.25 - 4.5 < 0
        with pytest.raises(RealizabilityError):
            collision_target(model, m, grid)

    def test_shakhov_target_moments(self, grid, rng):
        # target keeps (rho, u, theta), scales the heat flux by (1 - Pr)
        prandtl = 2.0 / 3.0
        model = CollisionModel(kind="shakhov", tau=1.0, prandtl=prandtl)
        f = random_realizable_profile(grid, rng)
        m = moments_of_profile(f, grid)
        t = moments_of_profile(collision_target(model, m, grid), grid)
        assert (t.rho, t.u, t.theta) == pytest.approx((m.rho, m.u, m.theta), abs=1e-9)
        assert t.heat_flux == pytest.approx((1 - prandtl) * m.heat_flux, abs=1e-9)


class TestCollisionApply:
    def test_equilibrium_annihilation(self, maxwell_field, bgk):
        q = collision_apply(bgk, maxwell_field, 0)
        assert np.abs(q).max() < 1e-11

    @pytest.mark.parametrize("kind", ["bgk", "shakhov", "esbgk"])
    def test_target_fixed_points(self, grid, kind):
        # a sampled Maxwellian is a fixed point of every relaxation model
        model = CollisionModel(kind=kind, tau=0.5, prandtl=2 / 3)
        f = maxwellian(MomentState(rho=1.4, u=0.2, theta=0.9), grid)
        q = collision_profile(model, f, grid)
        assert np.abs(q).max() < 1e-11

    def test_unit_tau_is_difference(self, grid, rng):
        f = random_realizable_profile(grid, rng)
        model = CollisionModel(kind="bgk", tau=1.0)
        q = collision_profile(model, f, grid)
        feq = maxwellian(moments_of_profile(f, grid), grid)
        assert q == pytest.approx(feq - f, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize(
        "model",
        [
            CollisionModel(kind="bgk", tau=0.8),
            CollisionModel(kind="shakhov", tau=0.8, prandtl=2 / 3),
            CollisionModel(kind="esbgk", tau=0.8, prandtl=2 / 3),
        ],
    )
    def test_collision_invariance(self, wide_grid, model):
        rng = np.random.default_rng(7)
        inv = collision_invariants(wide_grid)
        for _ in range(200):
            f = random_realizable_profile(wide_grid, rng)
            q = collision_profile(model, f, wide_grid)
            l1 = float(np.abs(q) @ wide_grid.weights)
            for row in inv:
                assert abs(float((row * q) @ wide_grid.weights)) <= 1e-9 * max(l1, 1e-30)


class TestEntropy:
    def test_zero_field(self, grid):
        f = homogeneous_field(np.zeros(len(grid)), grid)
        assert entropy(f) == 0.0

    def test_constant_e(self, grid):
        # eta(e) = e log e - e = 0 pointwise
        f = homogeneous_field(np.full(len(grid), np.e), grid)
        assert abs(entropy(f)) < 1e-12

    def test_maxwellian_value_against_quadrature_oracle(self, grid, maxwell_field):
        oracle, _ = quad(
            lambda x: (np.exp(-x * x / 2) / np.sqrt(2 * np.pi))
            * (-np.log(np.sqrt(2 * np.pi)) - x * x / 2 - 1.0),
            -9,
            9,
            limit=200,
        )
        val = entropy(maxwell_field)
        assert val == pytest.approx(oracle, abs=1e-10)
        # closed form: -rho (3/2 + log(2 pi theta)/2) + rho log rho
        assert val == pytest.approx(-(1.5 + 0.5 * np.log(2 * np.pi)), abs=1e-10)

    def test_stacked_rows_match_one_profile_at_a_time(self, grid, rng):
        # the solvers record entropy for a whole frame in one call; the
        # per-row values must be those of the one-profile sum, bit for bit
        rows = np.stack([random_realizable_profile(grid, rng) for _ in range(7)])
        rows[2, :5] = 0.0  # 0 log 0 := 0
        got = entropy_density(rows, grid)
        assert got.shape == (7,)
        assert got.tolist() == [entropy_density(r, grid) for r in rows]
        assert isinstance(entropy_density(rows[0], grid), float)


class TestEntropyProduction:
    def test_zero_at_equilibrium(self, maxwell_field, bgk):
        assert abs(entropy_production(maxwell_field, bgk, 0)) < 1e-11

    def test_negative_off_equilibrium(self, grid, bgk):
        xi = grid.nodes
        f = maxwellian(MomentState(rho=1.0, u=0.0, theta=1.0), grid)
        f = f * (1 + 0.1 * (xi**3 - 3 * xi) * np.exp(-(xi**2) / 4))
        fld = homogeneous_field(f, grid)
        s = entropy_production(fld, bgk, 0)
        assert s < -1e-6

    def test_tau_scaling(self, grid):
        rng = np.random.default_rng(3)
        f = homogeneous_field(random_realizable_profile(grid, rng), grid)
        s1 = entropy_production(f, CollisionModel(kind="bgk", tau=0.4), 0)
        s2 = entropy_production(f, CollisionModel(kind="bgk", tau=0.8), 0)
        assert s1 == pytest.approx(2 * s2, rel=1e-14)

    def test_dissipation_across_samples(self, wide_grid):
        rng = np.random.default_rng(11)
        model = CollisionModel(kind="bgk", tau=0.5)
        for _ in range(50):
            f = homogeneous_field(random_realizable_profile(wide_grid, rng), wide_grid)
            assert entropy_production(f, model, 0) <= 1e-11


class TestFluxCriterion:
    def test_pointwise_quadratic_passes(self, grid, maxwell_field):
        f = maxwell_field.values[0]
        c = lambda v: float((v * v) @ grid.weights)
        res = flux_existence_check(c, f, trials=20, grid=grid, seed=1)
        assert res.passed and res.witness is None

    def test_squared_mass_fails_with_witness(self, grid, maxwell_field):
        f = maxwell_field.values[0]
        c = lambda v: float(v @ grid.weights) ** 2
        res = flux_existence_check(c, f, trials=10, grid=grid, seed=1)
        assert not res.passed
        h1, h2 = res.witness
        # the cross derivative of (int f)^2 is 2 int h1 int h2
        cross = 2 * float(h1 @ grid.weights) * float(h2 @ grid.weights)
        assert abs(cross) > res.threshold

    def test_linear_functional_passes(self, grid, maxwell_field):
        f = maxwell_field.values[0]
        c = lambda v: float((grid.nodes * v) @ grid.weights)
        res = flux_existence_check(c, f, trials=20, grid=grid, seed=2)
        assert res.passed
