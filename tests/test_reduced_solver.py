import numpy as np
import pytest
import scipy.linalg

from kinreduce import (
    AnsatzPoint,
    CollisionModel,
    ConservativeMoment,
    DistributionField,
    HermitePerturbation,
    MomentState,
    SpatialMesh,
    StepError,
    flux_matrix,
    gram_matrix,
    maxwellian,
    sample_valid_point,
    spectral_radius,
    truncated_rule,
)
from kinreduce.reduced_solver import _cm_recover, initial_state, run_reduced, step


def sine_density_field(grid, cells=60, amplitude=0.15, theta=1.0):
    mesh = SpatialMesh(cells=cells, length=1.0)
    x = mesh.centers()
    rho = 1.0 + amplitude * np.sin(2 * np.pi * x)
    vals = rho[:, None] * maxwellian(MomentState(1.0, 0.0, theta), grid)[None, :]
    return DistributionField(vals, grid, mesh)


def perturbed_homogeneous_field(grid, eps=0.1, length=0.2):
    mesh = SpatialMesh(cells=1, length=length)
    xi = grid.nodes
    f = maxwellian(MomentState(1.0, 0.0, 1.0), grid)
    f = f * (1 + eps * (xi**3 - 3 * xi) * np.exp(-(xi**2) / 4))
    return DistributionField(f[None, :], grid, mesh)


class TestSpectralRadius:
    def test_bounded_by_velocity_truncation(self, wide_grid, rng):
        for manifold in (ConservativeMoment(2), HermitePerturbation(3)):
            for _ in range(20):
                p = sample_valid_point(manifold, rng, wide_grid)
                assert spectral_radius(p, wide_grid) <= wide_grid.half_width + 1e-9

    def test_order_zero_spectrum_symmetric(self, grid):
        p = AnsatzPoint(
            ConservativeMoment(0), np.array([1 / np.sqrt(2 * np.pi), 0.0, 1.0])
        )
        lam = scipy.linalg.eigh(
            flux_matrix(p, grid), gram_matrix(p, grid), eigvals_only=True
        )
        assert lam.shape == (3,)
        assert np.all(np.isreal(lam))
        assert np.sort(lam) == pytest.approx(-np.sort(-lam) * -1, abs=1e-10)
        assert lam.max() == pytest.approx(-lam.min(), abs=1e-10)

    def test_galilean_shift(self):
        grid = truncated_rule(14.0, 96)
        cm = ConservativeMoment(2)
        rng = np.random.default_rng(8)
        p = sample_valid_point(cm, rng, grid, u_range=(-0.5, 0.5))
        shift = 0.4
        pol = np.polynomial.Polynomial(p.omega[:3])
        shifted = pol(np.polynomial.Polynomial([-shift, 1.0])).coef
        shifted = np.pad(shifted, (0, 3 - shifted.size))
        omega_s = np.concatenate([shifted, [p.omega[3] + shift, p.omega[4]]])
        lam0 = scipy.linalg.eigh(
            flux_matrix(p, grid), gram_matrix(p, grid), eigvals_only=True
        )
        ps = AnsatzPoint(cm, omega_s)
        lam1 = scipy.linalg.eigh(
            flux_matrix(ps, grid), gram_matrix(ps, grid), eigvals_only=True
        )
        assert np.sort(lam1) == pytest.approx(np.sort(lam0) + shift, abs=1e-9)


class TestStep:
    def test_cfl_range(self, grid, maxwell_field, bgk):
        state = initial_state(ConservativeMoment(2), maxwell_field)
        with pytest.raises(StepError):
            step(state, bgk, 1.5)

    def test_equilibrium_fixed_point(self, grid, bgk):
        field = sine_density_field(grid, cells=8, amplitude=0.0)
        state = initial_state(ConservativeMoment(2), field)
        after = step(state, bgk, 0.45)
        assert np.abs(after.moments - state.moments).max() <= 1e-13
        assert after.time > 0.0

    def test_per_step_conservation_all_moments(self, grid):
        # negligible collision frequency isolates the telescoping fluxes
        field = sine_density_field(grid, cells=40, amplitude=0.2)
        model = CollisionModel(kind="bgk", tau=1e12)
        state = initial_state(ConservativeMoment(2), field)
        totals0 = state.moments.sum(axis=0)
        for _ in range(5):
            state = step(state, model, 0.45)
            totals = state.moments.sum(axis=0)
            assert np.abs(totals - totals0).max() <= 1e-13 * np.abs(totals0).max()
            totals0 = totals

    def test_time_refinement_second_order(self, grid):
        # fixed mesh, Richardson in dt only (SSP-RK2).  The data gets a
        # smooth degree-4 component so no cell rides the realizability
        # ridge, where the closure's derivative degenerates.
        from kinreduce.ansatz import hermite_polynomial

        field = sine_density_field(grid, cells=30, amplitude=0.1)
        x = field.mesh.centers()
        w = grid.nodes
        enrich = 1.0 + 0.02 * (1.0 + 0.5 * np.cos(2 * np.pi * x))[:, None] * (
            hermite_polynomial(4, w) * np.exp(-(w**2) / 4)
        )[None, :]
        field = DistributionField(field.values * enrich, grid, field.mesh)
        model = CollisionModel(kind="bgk", tau=0.5)
        T = 0.02

        def solve(dt):
            state = initial_state(ConservativeMoment(2), field)
            while state.time < T - 1e-12:
                state = step(state, model, 0.9, dt_cap=min(dt, T - state.time))
            return state.moments

        dt0 = 2.5e-3
        c1, c2, c4 = solve(dt0), solve(dt0 / 2), solve(dt0 / 4)
        e1 = np.linalg.norm(c1 - c2)
        e2 = np.linalg.norm(c2 - c4)
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)


class TestRecovery:
    def test_failed_row_names_cell_and_moments(self, grid):
        cm = ConservativeMoment(2)
        omega = np.tile(cm.equilibrium_params(1.0, 0.0, 1.0), (4, 1))
        C = cm.raw_moments_batch(omega, grid)
        C[2] = [1.0, 0.0, -1.0, 0.0, 3.0]  # negative second moment
        with pytest.raises(StepError) as info:
            _cm_recover(cm, C, grid, omega)
        assert info.value.cell == 2
        assert "moments [1.0, 0.0, -1.0, 0.0, 3.0]" in str(info.value)


class TestRun:
    def test_constant_series_at_equilibrium(self, grid, bgk):
        field = sine_density_field(grid, cells=4, amplitude=0.0)
        traj = run_reduced(ConservativeMoment(2), bgk, field, 0.05, output_interval=0.01)
        for col in range(traj.moment_totals.shape[1]):
            series = traj.moment_totals[:, col]
            assert np.abs(series - series[0]).max() <= 1e-11 * (1 + abs(series[0]))
        assert np.abs(traj.entropy - traj.entropy[0]).max() <= 1e-11

    def test_homogeneous_relaxation_rate(self, grid):
        tau = 0.1
        field = perturbed_homogeneous_field(grid)
        traj = run_reduced(
            ConservativeMoment(2),
            CollisionModel(kind="bgk", tau=tau),
            field,
            0.4,
            output_interval=0.02,
        )
        # deviation of c3 from its local-Maxwellian value decays as exp(-t/tau)
        dev = []
        for i in range(traj.times.size):
            c = traj.moment_totals[i] / field.mesh.length
            u = c[1] / c[0]
            th = c[2] / c[0] - u * u
            dev.append(c[3] - c[0] * (u**3 + 3 * u * th))
        dev = np.abs(np.array(dev))
        rate = np.polyfit(traj.times, np.log(dev), 1)[0]
        assert rate == pytest.approx(-1.0 / tau, rel=0.05)

    def test_homogeneous_entropy_non_increasing(self, grid):
        field = perturbed_homogeneous_field(grid)
        traj = run_reduced(
            ConservativeMoment(2),
            CollisionModel(kind="bgk", tau=0.1),
            field,
            0.3,
            output_interval=0.01,
        )
        assert np.diff(traj.entropy).max() <= 1e-12

    def test_generic_path_hermite(self, grid):
        # quasi-linear path: homogeneous relaxation keeps mass and is stable
        hp = HermitePerturbation(3)
        mesh = SpatialMesh(cells=4, length=0.5)
        base = maxwellian(MomentState(1.0, 0.0, 1.0), grid)
        w = grid.nodes
        from kinreduce.ansatz import hermite_polynomial

        f = base * (1 + 8e-4 * hermite_polynomial(3, w))
        field = DistributionField(np.tile(f, (4, 1)), grid, mesh)
        traj = run_reduced(
            hp, CollisionModel(kind="bgk", tau=0.2), field, 0.05, output_interval=0.05
        )
        mass = traj.moment_totals[:, 0]
        assert mass[-1] == pytest.approx(mass[0], rel=1e-8)
        # the degree-3 coefficient relaxes toward equilibrium
        assert abs(traj.omegas[-1][:, 3]).max() < 8e-4
