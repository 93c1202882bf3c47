import numpy as np
import pytest

from kinreduce import (
    AnsatzPoint,
    CollisionModel,
    ConservativeMoment,
    MomentState,
    ParameterError,
    gronwall_bound,
    lipschitz_estimate,
    maxwellian,
    truncated_rule,
)
from kinreduce.ansatz import hermite_polynomial
from kinreduce.error_estimator import actual_error, field_norm, residual_norm
from kinreduce.kinetic import collision_profile
from kinreduce.reduced_solver import ReducedTrajectory
from kinreduce.reference_solver import KineticTrajectory
from kinreduce.kinetic import SpatialMesh


class TestFieldNorm:
    def test_direct_summation_oracle(self, grid, rng):
        vals = rng.random((6, len(grid)))
        dx = 0.25
        p = 2.4
        direct = 0.0
        for row in vals:
            for v, w in zip(row, grid.weights):
                direct += dx * abs(v) ** p * w
        direct = direct ** (1.0 / p)
        got = field_norm(vals, grid, dx, p)
        assert got == pytest.approx(direct, rel=1e-12)

    def test_homogeneity(self, grid, rng):
        vals = rng.random((3, len(grid)))
        assert field_norm(2 * vals, grid, 0.1, 2.0) == pytest.approx(
            2 * field_norm(vals, grid, 0.1, 2.0), rel=1e-13
        )

    def test_bump_closed_form(self):
        # indicator-like bump of height h and velocity-width a on one
        # cell of width dx: |R|_2 = h sqrt(a dx)
        grid = truncated_rule(4.0, 256)
        h, dx = 1.7, 0.3
        lo, hi = -0.5, 0.5  # width a = 1
        vals = np.where((grid.nodes > lo) & (grid.nodes < hi), h, 0.0)
        got = field_norm(vals[None, :], grid, dx, 2.0)
        assert got == pytest.approx(h * np.sqrt(1.0 * dx), rel=1e-2)

    def test_exponent_range(self, grid):
        with pytest.raises(ParameterError):
            field_norm(np.ones((1, len(grid))), grid, 0.1, 1.0)


class TestResidualNorm:
    def test_homogeneous_equilibrium_zero(self, grid, bgk):
        cm = ConservativeMoment(2)
        omega = np.array([1 / np.sqrt(2 * np.pi), 0.0, 0.0, 0.0, 1.0])
        points = [AnsatzPoint(cm, omega)]
        val = residual_norm(points, np.zeros((1, 5)), bgk, grid, dx=0.5, p=2.0)
        assert val <= 1e-12

    def test_doubling_gradient_scales_transport_residual(self, grid):
        cm = ConservativeMoment(2)
        omega = np.array([0.4, 0.01, 0.002, 0.0, 1.0])
        points = [AnsatzPoint(cm, omega)]
        g1 = np.array([[0.01, 0.0, 0.001, 0.0, 0.0]])
        a = residual_norm(points, g1, None, grid, dx=0.5)
        b = residual_norm(points, 2 * g1, None, grid, dx=0.5)
        assert b == pytest.approx(2 * a, rel=1e-10)


class TestLipschitz:
    def test_bgk_matched_moment_quotient(self, grid):
        # pairs with identical conserved moments: Q difference is
        # exactly -(f1 - f2)/tau, so the quotient equals 1/tau
        tau = 0.4
        model = CollisionModel(kind="bgk", tau=tau)
        base = maxwellian(MomentState(1.0, 0.0, 1.0), grid)
        h = base * hermite_polynomial(3, grid.nodes)  # zero moments 0..2
        f1 = np.maximum(base + 1e-3 * h, 0.0)
        d = f1 - base
        p = 2.0
        num = float((np.abs(d) ** (p - 1) * np.abs(
            collision_profile(model, f1, grid) - collision_profile(model, base, grid)
        )) @ grid.weights)
        den = float((np.abs(d) ** p) @ grid.weights)
        assert num / den == pytest.approx(1.0 / tau, rel=1e-10)

    def test_tau_scaling_exact(self, grid):
        m = [MomentState(1.0, 0.0, 1.0)]
        l1 = lipschitz_estimate(CollisionModel("bgk", tau=0.3), m, grid=grid, seed=2)
        l2 = lipschitz_estimate(CollisionModel("bgk", tau=0.6), m, grid=grid, seed=2)
        assert l1 == pytest.approx(2 * l2, rel=1e-13)

    def test_estimate_covers_relaxation_rate(self, grid):
        tau = 0.5
        m = [MomentState(1.0, 0.0, 1.0)]
        est = lipschitz_estimate(CollisionModel("bgk", tau=tau), m, grid=grid, seed=2)
        assert est >= 1.5 / tau * (1 - 1e-12)  # safety factor times >= 1/tau

    def test_sampling_stability(self, grid):
        m = [MomentState(1.0, 0.0, 1.0), MomentState(1.2, 0.2, 0.9)]
        a = lipschitz_estimate(
            CollisionModel("bgk", tau=0.5), m, grid=grid, pairs_per_sample=8, seed=0
        )
        b = lipschitz_estimate(
            CollisionModel("bgk", tau=0.5), m, grid=grid, pairs_per_sample=16, seed=0
        )
        assert abs(a - b) <= 0.1 * a


def _lipschitz_per_profile(model, sample_moments, grid, p=2.0, pairs_per_sample=8, seed=0):
    """Reference: the estimate's pairs drawn in the same order, each
    profile's collision operator evaluated on its own."""
    rng = np.random.default_rng(seed)
    xi = grid.nodes
    worst = 0.0
    for m in sample_moments:
        base = maxwellian(m, grid)
        w = (xi - m.u) / np.sqrt(m.theta)
        modes = [base * hermite_polynomial(k, w) for k in (3, 4, 5)]
        q_base = collision_profile(model, base, grid)
        for _ in range(pairs_per_sample):
            matched = rng.normal(size=len(modes)) @ np.array(modes)
            bumps = np.exp(-((w - rng.uniform(-2.0, 2.0)) ** 2) / 0.5) * base
            for h in (matched, bumps):
                delta = 0.1 * h / np.abs(h).max() * base.max()
                d = np.maximum(base + delta, 0.0) - base
                dq = collision_profile(model, base + d, grid) - q_base
                numer = float((np.abs(d) ** (p - 1.0) * np.abs(dq)) @ grid.weights)
                worst = max(worst, numer / float(np.abs(d) ** p @ grid.weights))
    return 1.5 * worst


class TestLipschitzBatch:
    SAMPLES = [MomentState(1.0, 0.0, 1.0), MomentState(0.8, 0.4, 0.7),
               MomentState(1.3, -0.5, 1.2)]

    @pytest.mark.parametrize("model", [
        CollisionModel("bgk", tau=0.3),
        CollisionModel("shakhov", tau=0.2, prandtl=2.0 / 3.0),
        CollisionModel("esbgk", tau=0.5, prandtl=0.8),
    ], ids=["bgk", "shakhov", "esbgk"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 1234])
    def test_matches_per_profile_loop(self, grid, model, seed):
        got = lipschitz_estimate(model, self.SAMPLES, grid=grid, p=2.3, seed=seed)
        want = _lipschitz_per_profile(model, self.SAMPLES, grid, p=2.3, seed=seed)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_one_target_kernel_call(self, grid, monkeypatch):
        import kinreduce.error_estimator as ee

        calls = []
        kernel = ee._target_batch
        monkeypatch.setattr(ee, "_target_batch", lambda *a: calls.append(1) or kernel(*a))
        lipschitz_estimate(CollisionModel("shakhov", tau=0.2, prandtl=2.0 / 3.0),
                           self.SAMPLES, grid=grid, seed=3)
        assert len(calls) == 1


class TestGronwall:
    def test_zero_residual(self):
        t = np.linspace(0, 1, 11)
        assert gronwall_bound(0.0, t, np.zeros(11), 3.0) == pytest.approx(np.zeros(11))

    def test_constant_residual_closed_form(self):
        t = np.linspace(0, 1, 400)
        r = np.full_like(t, 0.8)
        lq = 1.7
        got = gronwall_bound(0.0, t, r, lq)
        want = 0.8 * (np.exp(lq * t) - 1.0) / lq
        assert got == pytest.approx(want, rel=1e-4)

    def test_degenerate_exponential(self):
        t = np.linspace(0, 2, 50)
        r = np.full_like(t, 0.8)
        assert gronwall_bound(0.0, t, r, 0.0) == pytest.approx(0.8 * t, rel=1e-13)

    def test_initial_error_uninflated(self):
        t = np.linspace(0, 1, 5)
        got = gronwall_bound(0.25, t, np.zeros(5), 10.0)
        assert got == pytest.approx(np.full(5, 0.25))

    def test_negative_lipschitz_rejected(self):
        with pytest.raises(ParameterError):
            gronwall_bound(0.0, np.array([0.0, 1.0]), np.array([1.0, 1.0]), -1.0)

    def test_monotone_in_lipschitz(self, rng):
        t = np.linspace(0, 1, 30)
        r = rng.random(30)
        b1 = gronwall_bound(0.0, t, r, 1.0)
        b2 = gronwall_bound(0.0, t, r, 2.0)
        assert np.all(b2 >= b1 - 1e-14)


def _tiny_trajectories(grid):
    cm = ConservativeMoment(2)
    mesh = SpatialMesh(cells=3, length=1.0)
    omega = np.array([1 / np.sqrt(2 * np.pi), 0.0, 0.0, 0.0, 1.0])
    omegas = np.tile(omega, (2, 3, 1))
    times = np.array([0.0, 0.1])
    reduced = ReducedTrajectory(
        manifold=cm,
        grid=grid,
        mesh=mesh,
        times=times,
        omegas=omegas,
        moment_totals=np.zeros((2, 5)),
        entropy=np.zeros(2),
    )
    snaps = cm.values_batch(omegas.reshape(-1, 5), grid.nodes).reshape(2, 3, -1)
    reference = KineticTrajectory(
        grid=grid,
        mesh=mesh,
        times=times,
        snapshots=snaps,
        moment_totals=np.zeros((2, 3)),
        entropy=np.zeros(2),
    )
    return reduced, reference


class TestActualError:
    def test_self_comparison_is_zero(self, grid):
        reduced, reference = _tiny_trajectories(grid)
        err = actual_error(reduced, reference)
        assert np.abs(err).max() <= 1e-14

    def test_time_mismatch_rejected(self, grid):
        reduced, reference = _tiny_trajectories(grid)
        reference.times = reference.times + 1e-3
        with pytest.raises(ParameterError):
            actual_error(reduced, reference)

    def test_grid_mismatch_rejected(self, grid):
        reduced, reference = _tiny_trajectories(grid)
        other = truncated_rule(9.0, 32)
        reference.grid = other
        reference.snapshots = reference.snapshots[:, :, : len(other)]
        with pytest.raises(ParameterError):
            actual_error(reduced, reference)
