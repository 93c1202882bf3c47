import numpy as np
import pytest

from kinreduce import (
    CollisionModel,
    DistributionField,
    MomentState,
    ParameterError,
    QuadratureRule,
    SpatialMesh,
    StepError,
    maxwellian,
    truncated_rule,
)
from kinreduce.ansatz import hermite_polynomial
import kinreduce.reference_solver as reference_solver
from kinreduce.kinetic import collision_invariants, moments_of_profile
from kinreduce.reference_solver import (
    KineticState,
    relaxation_step,
    run_reference,
    transport_step,
)

MODELS = [
    CollisionModel(kind="bgk", tau=0.3),
    CollisionModel(kind="esbgk", tau=0.3, prandtl=2.0 / 3.0),
    CollisionModel(kind="shakhov", tau=0.3, prandtl=2.0 / 3.0),
]


def gaussian_bump_field(grid, cells, length=1.0, width=0.05):
    mesh = SpatialMesh(cells=cells, length=length)
    x = mesh.centers()
    rho = 1.0 + 0.4 * np.exp(-((x - 0.5 * length) ** 2) / (2 * width**2))
    vals = rho[:, None] * maxwellian(MomentState(1.0, 0.0, 1.0), grid)[None, :]
    return DistributionField(vals, grid, mesh)


def characteristics_solution(field0, t):
    """Exact free transport: f(x, xi, t) = f0(x - xi t, xi), periodic."""
    mesh = field0.mesh
    x = mesh.centers()
    out = np.empty_like(field0.values)
    length = mesh.length
    x0_cells = field0.mesh.centers()
    for j, xi in enumerate(field0.grid.nodes):
        xs = np.mod(x - xi * t, length)
        # field0 is piecewise data on cells; interpolate periodically
        out[:, j] = np.interp(
            xs, x0_cells, field0.values[:, j], period=length
        )
    return out


class TestTransport:
    def test_uniform_field_unchanged(self, grid):
        mesh = SpatialMesh(cells=16, length=1.0)
        f = maxwellian(MomentState(1.0, 0.0, 1.0), grid)
        field = DistributionField(np.tile(f, (16, 1)), grid, mesh)
        state = transport_step(KineticState(field, 0.0), 0.5 * mesh.dx / 9.0)
        assert state.f.values == pytest.approx(field.values, abs=0.0)

    def test_unit_cfl_exact_shift(self):
        # one velocity node at xi = dx/dt: upwind becomes an exact shift
        grid = QuadratureRule(
            np.array([2.0]), np.array([1.0]), domain="truncated", half_width=2.5
        )
        mesh = SpatialMesh(cells=12, length=1.0)
        vals = np.zeros((12, 1))
        vals[4, 0] = 1.0
        field = DistributionField(vals, grid, mesh)
        dt = mesh.dx / 2.0
        state = transport_step(KineticState(field, 0.0), dt)
        want = np.roll(vals, 1, axis=0)
        assert state.f.values == pytest.approx(want, abs=0.0)

    def test_cfl_violation_raises(self, grid):
        mesh = SpatialMesh(cells=16, length=1.0)
        f = maxwellian(MomentState(1.0, 0.0, 1.0), grid)
        field = DistributionField(np.tile(f, (16, 1)), grid, mesh)
        with pytest.raises(ParameterError):
            transport_step(KineticState(field, 0.0), 2.0 * mesh.dx / 9.0)

    def test_first_order_convergence_to_characteristics(self):
        grid = truncated_rule(6.0, 32)
        T = 0.1
        errs = []
        for cells in (100, 200):
            field = gaussian_bump_field(grid, cells, width=0.08)
            state = KineticState(field.copy(), 0.0)
            dt = 0.8 * field.mesh.dx / 6.0
            n = int(np.ceil(T / dt))
            dt = T / n
            for _ in range(n):
                state = transport_step(state, dt)
            exact = characteristics_solution(field, T)
            diff = state.f.values - exact
            err = np.sqrt(
                field.mesh.dx * float((diff**2 @ grid.weights).sum())
            )
            errs.append(err)
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)


class TestRelaxation:
    def test_equilibrium_unchanged(self, grid, bgk):
        mesh = SpatialMesh(cells=2, length=1.0)
        f = maxwellian(MomentState(1.0, 0.2, 0.9), grid)
        field = DistributionField(np.tile(f, (2, 1)), grid, mesh)
        state = relaxation_step(KineticState(field, 0.0), bgk, 0.05)
        assert state.f.values == pytest.approx(field.values, abs=1e-13)

    def test_bgk_exact_exponential(self, grid):
        tau = 0.3
        mesh = SpatialMesh(cells=1, length=1.0)
        xi = grid.nodes
        feq = maxwellian(MomentState(1.0, 0.0, 1.0), grid)
        f0 = feq * (1 + 0.05 * (xi**4 - 6 * xi**2 + 3) * np.exp(-(xi**2) / 4))
        field = DistributionField(f0[None, :], grid, mesh)
        model = CollisionModel(kind="bgk", tau=tau)
        t = 0.12
        state = relaxation_step(KineticState(field, 0.0), model, t)
        m = moments_of_profile(f0, grid)
        feq_frozen = maxwellian(m, grid)
        want = feq_frozen + (f0 - feq_frozen) * np.exp(-t / tau)
        assert np.abs(state.f.values[0] - want).max() <= 1e-12

    def test_esbgk_exact_exponential_at_prandtl_rate(self, grid):
        # in d = 1 the ES-BGK target is the Maxwellian, relaxed at Pr/tau
        tau, prandtl = 0.3, 2.0 / 3.0
        model = CollisionModel(kind="esbgk", tau=tau, prandtl=prandtl)
        mesh = SpatialMesh(cells=1, length=1.0)
        xi = grid.nodes
        feq = maxwellian(MomentState(1.0, 0.0, 1.0), grid)
        f0 = feq * (1 + 0.05 * (xi**4 - 6 * xi**2 + 3) * np.exp(-(xi**2) / 4))
        t = 0.12
        state = relaxation_step(KineticState(DistributionField(f0[None, :], grid, mesh), 0.0),
                                model, t)
        M = maxwellian(moments_of_profile(f0, grid), grid)
        want = M + np.exp(-prandtl * t / tau) * (f0 - M)
        assert np.abs(state.f.values[0] - want).max() <= 1e-12
        basis = collision_invariants(grid) * grid.weights
        before, after = basis @ f0, basis @ state.f.values[0]
        assert np.abs(after - before).max() <= 1e-14 * np.abs(before).max()

    @pytest.mark.parametrize("kind", ["bgk", "shakhov"])
    def test_vanishing_density_names_the_cell(self, grid, kind):
        mesh = SpatialMesh(cells=3, length=1.0)
        vals = np.tile(maxwellian(MomentState(1.0, 0.0, 1.0), grid), (3, 1))
        vals[1] = 0.0
        model = CollisionModel(kind=kind, tau=0.5, prandtl=2.0 / 3.0)
        state = KineticState(DistributionField(vals, grid, mesh), 0.0)
        with pytest.raises(StepError, match="unrealizable moments") as info:
            relaxation_step(state, model, 0.01)
        assert info.value.cell == 1

    def test_shakhov_heat_flux_decay_rate(self, grid):
        # moment ODE oracle: dq/dt = -(Pr/tau) q
        tau, prandtl = 0.25, 2.0 / 3.0
        model = CollisionModel(kind="shakhov", tau=tau, prandtl=prandtl)
        mesh = SpatialMesh(cells=1, length=1.0)
        xi = grid.nodes
        feq = maxwellian(MomentState(1.0, 0.0, 1.0), grid)
        f0 = feq * (1 + 1e-3 * hermite_polynomial(3, xi))
        state = KineticState(DistributionField(f0[None, :], grid, mesh), 0.0)
        times = [0.0]
        qs = [moments_of_profile(state.f.values[0], grid).heat_flux]
        dt = 0.002
        for k in range(60):
            state = relaxation_step(state, model, dt)
            times.append((k + 1) * dt)
            qs.append(moments_of_profile(state.f.values[0], grid).heat_flux)
        rate = np.polyfit(times, np.log(np.abs(qs)), 1)[0]
        assert rate == pytest.approx(-prandtl / tau, rel=0.02)


class TestRun:
    def test_free_transport_matches_characteristics(self):
        grid = truncated_rule(6.0, 32)
        field = gaussian_bump_field(grid, 150, width=0.08)
        traj = run_reference(None, field, 0.1, cfl=0.8, output_interval=0.1)
        exact = characteristics_solution(field, 0.1)
        diff = traj.snapshots[-1] - exact
        err = np.sqrt(field.mesh.dx * float((diff**2 @ grid.weights).sum()))
        assert err < 0.05  # first-order upwind at this resolution

    def test_mass_conservation(self, grid, bgk):
        field = gaussian_bump_field(grid, 64)
        traj = run_reference(bgk, field, 0.2, output_interval=0.02)
        mass = traj.moment_totals[:, 0]
        assert np.abs(mass - mass[0]).max() <= 1e-11 * mass[0]
        assert np.all(traj.snapshots >= 0.0)

    def test_conserved_triple_drift(self, grid, bgk):
        field = gaussian_bump_field(grid, 64)
        traj = run_reference(bgk, field, 0.2, output_interval=0.2)
        rel = np.abs(traj.moment_totals[-1] - traj.moment_totals[0])
        scale = np.maximum(np.abs(traj.moment_totals[0]), traj.moment_totals[0, 0])
        assert (rel / scale).max() <= 1e-9

    def test_homogeneous_entropy_non_increasing(self, grid, bgk):
        mesh = SpatialMesh(cells=1, length=1.0)
        xi = grid.nodes
        feq = maxwellian(MomentState(1.0, 0.0, 1.0), grid)
        f0 = feq * (1 + 0.1 * (xi**3 - 3 * xi) * np.exp(-(xi**2) / 4))
        field = DistributionField(f0[None, :], grid, mesh)
        traj = run_reference(bgk, field, 0.5, output_interval=0.01)
        assert np.diff(traj.entropy).max() <= 1e-10

    def test_vanishing_density_names_the_cell_and_time(self, grid, bgk):
        mesh = SpatialMesh(cells=3, length=1.0)
        vals = np.tile(maxwellian(MomentState(1.0, 0.0, 1.0), grid), (3, 1))
        vals[1] = 0.0
        with pytest.raises(StepError, match="unrealizable moments") as info:
            run_reference(bgk, DistributionField(vals, grid, mesh), 0.01)
        assert info.value.cell == 1
        assert info.value.time == 0.0

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_fused_relaxations_match_half_steps(self, grid, model):
        # R(dt/2) T R(dt) T ... R(dt) T R(dt/2) against the unfused loop
        # R(dt/2) T R(dt/2) per substep, at the same output times
        field = gaussian_bump_field(grid, 32)
        final, interval, cfl = 0.04, 0.02, 0.45
        traj = run_reference(model, field, final, cfl=cfl, output_interval=interval)
        dt_cfl = cfl * field.mesh.dx / np.abs(grid.nodes).max()
        state = KineticState(field.copy(), 0.0)
        times, snaps = [0.0], [field.values]
        for target in (interval, interval + interval):
            n_sub = max(1, int(np.ceil((target - state.time) / dt_cfl - 1e-12)))
            dt = (target - state.time) / n_sub
            for _ in range(n_sub):
                t0 = state.time
                state = relaxation_step(state, model, 0.5 * dt)
                state = transport_step(state, dt)
                state = relaxation_step(state, model, 0.5 * dt)
                state.time = t0 + dt
            times.append(state.time)
            snaps.append(state.f.values)
        assert np.array_equal(traj.times, np.array(times))
        assert np.abs(traj.snapshots - np.array(snaps)).max() <= 1e-14

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_relaxations_per_output_interval(self, grid, monkeypatch, model):
        field = gaussian_bump_field(grid, 32)
        relax = reference_solver.relaxation_step
        count = []
        monkeypatch.setattr(reference_solver, "relaxation_step",
                            lambda *a, **k: count.append(1) or relax(*a, **k))
        interval, cfl = 0.02, 0.45
        run_reference(model, field, 2 * interval, cfl=cfl, output_interval=interval)
        n_sub = int(np.ceil(interval / (cfl * field.mesh.dx / np.abs(grid.nodes).max())))
        assert n_sub > 1
        assert len(count) == 2 * (n_sub + 1)

    def test_shakhov_at_unit_prandtl_is_bgk(self, grid):
        # Pr = 1 zeroes the Shakhov target's heat-flux term
        field = gaussian_bump_field(grid, 32)
        shakhov = CollisionModel(kind="shakhov", tau=0.3, prandtl=1.0)
        runs = [run_reference(model, field, 0.04, output_interval=0.02)
                for model in (shakhov, MODELS[0])]
        assert np.abs(runs[0].snapshots - runs[1].snapshots).max() <= 1e-15

    def test_homogeneous_shakhov_is_the_exact_flow(self, grid):
        # transport is trivial, so the Strang substeps compose the exact
        # relaxation: rho, u and theta frozen, q(t) = q0 exp(-Pr t/tau),
        # f(t) = M + e^{-s} (f0 - M) + q0 (e^{-Pr s} - e^{-s}) phi, s = t/tau
        model = CollisionModel(kind="shakhov", tau=0.2, prandtl=2 / 3)
        mesh = SpatialMesh(cells=2, length=1.0)
        xi = grid.nodes
        feq = maxwellian(MomentState(1.0, 0.0, 1.0), grid)
        f0 = feq * (1 + 1e-2 * hermite_polynomial(3, xi) * np.exp(-(xi**2) / 4))
        field = DistributionField(np.tile(f0, (2, 1)), grid, mesh)
        T = 0.1

        def solve(n_steps):
            state = KineticState(field.copy(), 0.0)
            dt = T / n_steps
            for _ in range(n_steps):
                state = relaxation_step(state, model, 0.5 * dt)
                state = transport_step(state, dt)
                state = relaxation_step(state, model, 0.5 * dt)
            return state.f.values

        m0 = moments_of_profile(f0, grid)
        assert m0.heat_flux > 1e-2
        s = T / model.tau
        M = maxwellian(m0, grid)
        c = xi - m0.u
        phi = M * c * (c * c / (2 * m0.theta) - 1.5) / (3 * m0.theta**2)
        exact = M + np.exp(-s) * (f0 - M) + m0.heat_flux * (
            np.exp(-model.prandtl * s) - np.exp(-s)) * phi
        sols = [solve(n) for n in (8, 16, 32)]
        for vals in sols:
            m = moments_of_profile(vals[0], grid)
            assert abs(m.heat_flux / m0.heat_flux - np.exp(-model.prandtl * s)) <= 1e-10
            assert max(abs(m.rho - m0.rho), abs(m.u - m0.u), abs(m.theta - m0.theta)) <= 1e-13
            assert np.abs(vals - exact).max() <= 1e-13
        assert max(np.abs(sols[0] - sols[1]).max(), np.abs(sols[1] - sols[2]).max()) <= 1e-13
