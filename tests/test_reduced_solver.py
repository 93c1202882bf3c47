import numpy as np
import pytest
import scipy.linalg

import kinreduce.reduced_solver as reduced_solver
from kinreduce import (
    AnsatzPoint,
    BlowUpError,
    CollisionModel,
    ConservativeMoment,
    DegenerateChartError,
    DistributionField,
    EntropyClosure,
    HermitePerturbation,
    MomentState,
    SpatialMesh,
    StepError,
    maxwellian,
    sample_valid_point,
    spectral_radius,
    truncated_rule,
)
from kinreduce.projection import coefficients_batch
from kinreduce.reduced_solver import (
    _cm_recover,
    _generic_coefficients,
    _generic_rhs,
    _pencil_radius_batch,
    initial_state,
    run_reduced,
    step,
)


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

    def test_matches_the_generalized_eigensolver(self, wide_grid, rng):
        # the one-row view of _pencil_radius_batch against scipy's eigh
        for manifold in (ConservativeMoment(2), HermitePerturbation(3)):
            for _ in range(10):
                p = sample_valid_point(manifold, rng, wide_grid)
                coef = coefficients_batch(manifold, p.omega, None, wide_grid)
                lam = scipy.linalg.eigh(coef.a1[0], coef.a0[0], eigvals_only=True)
                assert spectral_radius(p, wide_grid) == pytest.approx(np.abs(lam).max(), rel=1e-10)

    def test_order_zero_spectrum_symmetric(self, grid):
        omega = np.array([1 / np.sqrt(2 * np.pi), 0.0, 1.0])
        coef = coefficients_batch(ConservativeMoment(0), omega, None, grid)
        lam = scipy.linalg.eigh(coef.a1[0], coef.a0[0], eigvals_only=True)
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
        coef = coefficients_batch(cm, np.stack([p.omega, omega_s]), None, grid)
        lam0, lam1 = (
            scipy.linalg.eigh(a1, a0, eigvals_only=True) for a0, a1 in zip(coef.a0, coef.a1)
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



BOTH_PATHS = pytest.mark.parametrize(
    "manifold", [ConservativeMoment(2), HermitePerturbation(3)], ids=lambda m: m.name)


class TestOneDriver:
    """The contract both paths share through the one SSP-RK2 driver."""

    @BOTH_PATHS
    @pytest.mark.parametrize("cfl", [0.0, 1.0, 1.5, -0.2])
    def test_cfl_outside_the_unit_interval(self, grid, bgk, manifold, cfl):
        state = initial_state(manifold, sine_density_field(grid, cells=8))
        with pytest.raises(StepError, match="cfl must lie in"):
            step(state, bgk, cfl)

    @BOTH_PATHS
    def test_blow_up_guard_names_the_time(self, grid, bgk, manifold, monkeypatch):
        monkeypatch.setattr(reduced_solver, "_SPEED_BLOWUP", 1e-3)
        with pytest.raises(BlowUpError, match="exceeds blow-up guard") as info:
            run_reduced(manifold, bgk, sine_density_field(grid, cells=8), 0.01)
        assert info.value.time == 0.0

    @BOTH_PATHS
    def test_closures_and_speeds_per_step(self, grid, bgk, manifold, monkeypatch):
        # CM: one recovery per stage plus the new state's, speeds from
        # the first only; chart: one assembly per stage, the first also
        # giving the speeds
        counts = dict.fromkeys(
            ["_cm_recover", "_cm_speeds", "_generic_coefficients", "_cm_rhs", "_generic_rhs"],
            0)

        def counting(name):
            fn = getattr(reduced_solver, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(reduced_solver, name, wrapper)

        state = initial_state(manifold, sine_density_field(grid, cells=8))
        for name in counts:
            counting(name)
        step(state, bgk, 0.45)
        if isinstance(manifold, ConservativeMoment):
            want = {"_cm_recover": 3, "_cm_speeds": 1, "_cm_rhs": 2}
        else:
            want = {"_generic_coefficients": 2, "_generic_rhs": 2}
        assert counts == {name: want.get(name, 0) for name in counts}


def per_cell_generic_rhs(manifold, model, grid, mesh, omegas, speeds, reference):
    """The generic path's right-hand side as a plain loop over cells."""
    dx = mesh.dx
    grad = (np.roll(omegas, -1, axis=0) - np.roll(omegas, 1, axis=0)) / (2.0 * dx)
    lap = (np.roll(omegas, -1, axis=0) - 2.0 * omegas + np.roll(omegas, 1, axis=0)) / dx
    a_loc = np.maximum(np.maximum(speeds, np.roll(speeds, -1)), np.roll(speeds, 1))
    rhs = np.empty_like(omegas)
    for i in range(omegas.shape[0]):
        a0, a1, q, _ = reference(manifold, omegas[i], model, grid)
        rhs[i] = scipy.linalg.solve(a0, q - a1 @ grad[i], assume_a="pos")
        rhs[i] += 0.5 * a_loc[i] * lap[i]
    return rhs


class TestGenericPath:
    @pytest.mark.parametrize(
        "model",
        [None, CollisionModel(kind="bgk", tau=0.2),
         CollisionModel(kind="shakhov", tau=0.2, prandtl=2.0 / 3.0)],
        ids=lambda m: m.kind if m else "none",
    )
    @pytest.mark.parametrize(
        "manifold", [HermitePerturbation(4), EntropyClosure(4)], ids=lambda m: m.name
    )
    def test_batched_rhs_matches_per_cell_loop(
        self, manifold, model, wide_grid, rng, reference_coefficients
    ):
        omegas = np.stack([sample_valid_point(manifold, rng, wide_grid).omega for _ in range(12)])
        mesh = SpatialMesh(cells=12, length=1.0)
        coef = _generic_coefficients(manifold, model, wide_grid, omegas)
        speeds = _pencil_radius_batch(coef.a0, coef.a1)
        for i, omega in enumerate(omegas):
            want = spectral_radius(AnsatzPoint(manifold, omega), wide_grid)
            assert speeds[i] == pytest.approx(want, rel=1e-12)
        got = _generic_rhs(mesh, omegas, coef, speeds)
        want = per_cell_generic_rhs(
            manifold, model, wide_grid, mesh, omegas, speeds, reference_coefficients
        )
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("assembly", [0, 1], ids=["at-omega", "at-stage-1"])
    @pytest.mark.parametrize("model", [None, CollisionModel(kind="bgk", tau=0.2)],
                             ids=lambda m: m.kind if m else "none")
    def test_degenerate_cell_is_named(self, grid, degenerate_cell, model, assembly):
        # assembly 0 feeds the speeds and the first stage, assembly 1
        # the second stage
        state = initial_state(HermitePerturbation(4), sine_density_field(grid, cells=16))
        degenerate_cell(7, cells=16, call=assembly)
        with pytest.raises(StepError, match="Gram matrix not SPD") as info:
            step(state, model, 0.45)
        assert info.value.cell == 7
        assert "parameters [" in str(info.value)

    def test_negative_tail_names_the_lower_cell(self, grid, bgk):
        hp = HermitePerturbation(4)
        omegas = np.tile(hp.equilibrium_params(1.0, 0.0, 1.0), (6, 1))
        omegas[[1, 4], 4] = -0.01
        with pytest.raises(StepError, match="ansatz evaluates to") as info:
            _generic_coefficients(hp, bgk, grid, omegas)
        assert info.value.cell == 1

    def test_one_row_views_raise_the_plain_error(self, grid):
        cm = ConservativeMoment(2)
        p = AnsatzPoint(cm, np.array([1 / np.sqrt(2 * np.pi), 0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(DegenerateChartError) as info:
            spectral_radius(p, grid)
        assert not isinstance(info.value, StepError)


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
