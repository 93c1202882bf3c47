import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import kinreduce.ansatz as ansatz
import kinreduce.kinetic as kinetic
import kinreduce.quadrature as quadrature
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
    spectral_radius,
    truncated_rule,
)
from kinreduce.config import parse_config
from kinreduce.kinetic import _target_batch, collision_rate
from kinreduce.projection import coefficients_batch
from kinreduce.reduced_solver import (
    ReducedState,
    _cm_closure,
    _cm_recover,
    _cm_rhs,
    _cm_speeds,
    _generic_coefficients,
    _generic_rhs,
    _pencil_radius_batch,
    _record,
    initial_state,
    run_reduced,
    step,
)
from kinreduce.workspace import WorkArrays


def hermite4_scenario():
    """The hermite4_generic scenario: the demo with HermitePerturbation(4)
    on 100 cells, to t = 0.05 with an output every 0.005."""
    doc = json.loads((Path(__file__).parents[1] / "configs" / "demo_smooth_bgk.json")
                     .read_text())
    doc["manifold"] = {"kind": "hermite_perturbation", "size": 4}
    doc["spatial_mesh"]["cells"] = 100
    doc["time"].update(final=0.05, output_interval=0.005)
    return doc


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
                p = AnsatzPoint(manifold, manifold.sample_batch(rng, wide_grid, 1)[0])
                assert spectral_radius(p, wide_grid) <= wide_grid.half_width + 1e-9

    def test_matches_the_generalized_eigensolver(self, wide_grid, rng):
        # the one-row view of _pencil_radius_batch against scipy's eigh
        for manifold in (ConservativeMoment(2), HermitePerturbation(3)):
            for _ in range(10):
                p = AnsatzPoint(manifold, manifold.sample_batch(rng, wide_grid, 1)[0])
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
        p = AnsatzPoint(cm, cm.sample_batch(rng, grid, 1, u_range=(-0.5, 0.5))[0])
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
        omegas = np.stack([manifold.sample_batch(rng, wide_grid, 1)[0] for _ in range(12)])
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
        """A step assembles signed tails; the record of the state applies
        the sign rule and names the lower cell that dips, at its time."""
        hp = HermitePerturbation(4)
        omegas = np.tile(hp.equilibrium_params(1.0, 0.0, 1.0), (6, 1))
        omegas[[1, 4], 4] = -0.01
        _generic_coefficients(hp, bgk, grid, omegas)
        state = ReducedState(hp, grid, SpatialMesh(cells=6, length=1.0), 0.25, omegas)
        with pytest.raises(StepError, match="ansatz evaluates to") as info:
            _record(state, WorkArrays())
        assert info.value.cell == 1
        assert info.value.time == 0.25
        assert "parameters [" in str(info.value)

    def test_one_row_views_raise_the_plain_error(self, grid):
        cm = ConservativeMoment(2)
        p = AnsatzPoint(cm, np.array([1 / np.sqrt(2 * np.pi), 0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(DegenerateChartError) as info:
            spectral_radius(p, grid)
        assert not isinstance(info.value, StepError)


class TestRecord:
    def test_only_the_cm_record_clips_a_dip(self, grid):
        """A ConservativeMoment record clips a dipping factor at zero: its
        totals are its moments' and its entropy the clipped f's.  The
        same dip in a HermitePerturbation record is a StepError."""
        cm = ConservativeMoment(1)
        omegas = np.tile(cm.equilibrium_params(1.0, 0.0, 1.0), (3, 1))
        omegas[1] = [0.0, 1.0, 0.0, 1.0]  # f = xi G: negative for xi < 0
        mesh = SpatialMesh(cells=3, length=1.0)
        C = cm.raw_moments_batch(omegas, grid)
        totals, ent = _record(ReducedState(cm, grid, mesh, 0.5, omegas, C), WorkArrays())
        assert np.array_equal(totals, mesh.dx * C.sum(axis=0))
        clipped = np.maximum(cm.values_batch(omegas, grid.nodes), 0.0)
        assert np.isfinite(ent)
        assert ent == mesh.dx * float(np.add.reduce(kinetic.entropy_density(clipped, grid)))

        hp = HermitePerturbation(4)
        tails = np.tile(hp.equilibrium_params(1.0, 0.0, 1.0), (3, 1))
        tails[2, 4] = -0.01
        with pytest.raises(StepError, match="ansatz evaluates to") as info:
            _record(ReducedState(hp, grid, mesh, 0.5, tails), WorkArrays())
        assert (info.value.cell, info.value.time) == (2, 0.5)


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


def ref_cm_rhs(manifold, model, grid, mesh, C, omegas, speeds):
    """``_cm_rhs`` by passes over the velocity nodes: f_hat on the nodes
    and its top moment, then the collision targets on the nodes and
    their moments.  Returns the right-hand side, the closure flux and the
    target moments (None without a model)."""
    K = manifold.n_moments
    vals = manifold.values_batch(omegas, grid.nodes)
    F = np.empty_like(C)
    F[:, :-1] = C[:, 1:]
    F[:, -1] = quadrature.integrate(vals * grid.xi_powers(K)[K], grid)
    T = None
    source = 0.0
    if model is not None:
        T = quadrature.moments(_target_batch(model, vals, grid), grid, K - 1)
        source = collision_rate(model) * (T - C)
    C_r, F_r = np.roll(C, -1, axis=0), np.roll(F, -1, axis=0)
    a_iface = np.maximum(speeds, np.roll(speeds, -1))[:, None]
    F_half = 0.5 * (F + F_r) - 0.5 * a_iface * (C_r - C)
    return -(F_half - np.roll(F_half, 1, axis=0)) / mesh.dx + source, F[:, -1], T


COLLISION_MODELS = [
    CollisionModel(kind="bgk", tau=0.1),
    CollisionModel(kind="shakhov", tau=0.2, prandtl=2.0 / 3.0),
    CollisionModel(kind="esbgk", tau=0.1, prandtl=2.0 / 3.0),
]


class TestClosedFormRhs:
    """``_cm_rhs`` takes the closure flux and the collision targets from
    Gaussian power sums; the node passes they replace are the reference."""

    @pytest.mark.parametrize("model", [None] + COLLISION_MODELS,
                             ids=lambda m: m.kind if m else "none")
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("half_width,cells", [(9.0, 64), (10.0, 128), (8.5, 48)])
    def test_matches_the_node_passes(self, half_width, cells, degree, model):
        grid = truncated_rule(half_width, cells)
        cm = ConservativeMoment(degree)
        omegas = cm.sample_batch(np.random.default_rng(degree), grid, 24)
        # every third row with sqrt(theta) < 2h, where the power sums take
        # the node pass
        omegas[::3, -1] = (4.0 * half_width / cells * np.linspace(0.4, 0.95, 8)) ** 2
        C = quadrature.moments(cm.values_batch(omegas, grid.nodes), grid, cm.n_moments - 1)
        C *= 1.0 + 0.01 * np.random.default_rng(7).standard_normal(C.shape)
        mesh = SpatialMesh(cells=24, length=1.0)
        speeds = _cm_speeds(cm, omegas, grid)
        want, top, T = ref_cm_rhs(cm, model, grid, mesh, C, omegas, speeds)
        got_top, got_T = _cm_closure(cm, model, grid, omegas)
        assert np.abs(got_top - top).max() <= 1e-13 * np.abs(top).max()
        scale = max(np.abs(C).max(), np.abs(top).max()) / mesh.dx
        if model is None:
            assert got_T is None
        else:
            assert np.abs(got_T - T).max() <= 1e-13 * np.abs(T).max()
            scale += collision_rate(model) * np.abs(T).max()
        got = _cm_rhs(cm, model, grid, mesh, C, omegas, speeds)
        assert np.abs(got - want).max() <= 1e-13 * scale

    @pytest.mark.parametrize("model", COLLISION_MODELS, ids=lambda m: m.kind)
    def test_unrealizable_target_names_the_lowest_cell(self, grid, model):
        cm = ConservativeMoment(2)
        mesh = SpatialMesh(cells=6, length=1.0)
        negative_mass = np.tile(cm.equilibrium_params(1.0, 0.0, 1.0), (6, 1))
        negative_mass[4, :3] *= -1.0  # c_0 < 0
        negative_theta = negative_mass.copy()
        negative_theta[2, 2] = -0.5 * negative_theta[2, 0]  # c_0 > 0, theta_f < 0
        for omegas, cell in ((negative_theta, 2), (negative_mass, 4)):
            C = cm.raw_moments_batch(omegas, grid)
            for rhs in (_cm_rhs, ref_cm_rhs):
                with pytest.raises(StepError, match="unrealizable moments during collision") as info:
                    rhs(cm, model, grid, mesh, C, omegas, np.ones(6))
                assert info.value.cell == cell

    def test_a_cm_step_makes_no_node_pass(self, monkeypatch):
        """The first three steps of the demo scenario, which cross the
        fold and make all five of its cold starts, evaluate nothing on the
        velocity nodes: each node-pass kernel raises wherever a module
        holds it.  The one exception is the power sums of Newton trial
        points with sqrt(theta) > L/2, past the recurrence's range, which
        the fold crossing makes: ``ansatz._frame_node_sums`` takes them
        and no other row."""
        doc = json.loads((Path(__file__).parents[1] / "configs" / "demo_smooth_bgk.json")
                         .read_text())
        cfg = parse_config(doc)
        state = initial_state(cfg.manifold(), cfg.initial_field())

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return call

        monkeypatch.setattr(ConservativeMoment, "values_batch", forbidden("values_batch"))
        integrate = quadrature.integrate
        kernels = {id(f): f.__name__ for f in
                   (integrate, quadrature.moments, kinetic._target_batch)}
        for name, module in list(sys.modules.items()):
            if name == "kinreduce" or name.startswith("kinreduce."):
                for attr, value in list(vars(module).items()):
                    if id(value) in kernels:
                        monkeypatch.setattr(module, attr, forbidden(kernels[id(value)]))
        node_pass, wide = ansatz._frame_node_sums, []

        def past_the_cut(center, scale, mean, var, grid, rows, out, work=None):
            assert np.all(scale[rows] ** 2 * var[rows] > 0.25 * grid.half_width**2)
            wide.append(rows.size)
            with monkeypatch.context() as m:
                m.setattr(ansatz, "integrate", integrate)
                return node_pass(center, scale, mean, var, grid, rows, out, work)

        monkeypatch.setattr(ansatz, "_frame_node_sums", past_the_cut)
        for _ in range(3):
            state = step(state, cfg.model(), cfg.cfl)
        assert state.time > 0.0
        assert sum(wide)

    def test_an_hp_step_makes_no_node_pass(self, monkeypatch):
        """Three steps of the hermite4_generic scenario (the demo with
        HermitePerturbation(4) on 100 cells) evaluate nothing on the
        velocity nodes: every node-pass kernel raises wherever a module
        holds it."""
        cfg = parse_config(hermite4_scenario())
        state = initial_state(cfg.manifold(), cfg.initial_field())

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return call

        for name in ("values_batch", "jet_batch", "weight_batch"):
            monkeypatch.setattr(HermitePerturbation, name, forbidden(name))
        kernels = {id(f): f.__name__ for f in (quadrature.integrate, quadrature.moments,
                                               kinetic._target_batch, ansatz._maxwellian_weight)}
        for name, module in list(sys.modules.items()):
            if name == "kinreduce" or name.startswith("kinreduce."):
                for attr, value in list(vars(module).items()):
                    if id(value) in kernels:
                        monkeypatch.setattr(module, attr, forbidden(kernels[id(value)]))
        for _ in range(3):
            state = step(state, cfg.model(), cfg.cfl)
        assert state.time > 0.0

    def test_an_hp_step_factors_a0_once_per_assembly(self, monkeypatch):
        """Three steps of the hermite4_generic scenario factor A0 once per
        assembly, two Cholesky factorizations a step: the speeds and the
        rhs solves substitute against the factor of the assembly's SPD
        test, and nothing calls np.linalg.solve."""
        cfg = parse_config(hermite4_scenario())
        state = initial_state(cfg.manifold(), cfg.initial_field())
        calls = {"cholesky": 0, "solve": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        work = WorkArrays()
        for _ in range(3):
            state = step(state, cfg.model(), cfg.cfl, work=work)
        assert calls == {"cholesky": 6, "solve": 0}

    def test_an_hp_run_evaluates_f_once_per_record(self, monkeypatch):
        """A run of the hermite4_generic scenario evaluates f on the nodes
        once in ``initial_state`` (the projection's sign rule) and once
        per output time (``_record``), and never in a step."""
        cfg = parse_config(hermite4_scenario())
        calls = []
        values_batch = HermitePerturbation.values_batch

        def counting_values(self, *args, **kwargs):
            calls.append(1)
            return values_batch(self, *args, **kwargs)

        monkeypatch.setattr(HermitePerturbation, "values_batch", counting_values)
        traj = run_reduced(cfg.manifold(), cfg.model(), cfg.initial_field(), cfg.final_time,
                           cfg.cfl, cfg.output_interval)
        assert len(traj.times) == 11
        assert len(calls) == len(traj.times) + 1


class TestJetHandoff:
    """Each CM recovery hands the moment jet of its result to the next
    one; the handoff spares evaluations and changes no bit."""

    def test_step_start_recovery_evaluates_no_jet(self, grid, bgk, monkeypatch):
        cm = ConservativeMoment(2)
        state = step(initial_state(cm, sine_density_field(grid, cells=8)), bgk, 0.45)
        rows, per_recovery = [0], []
        moment_jet, recover = ansatz._moment_jet, reduced_solver._cm_recover

        def counting_jet(manifold, omegas, *args):
            rows[0] += len(omegas)
            return moment_jet(manifold, omegas, *args)

        def counting_recover(*args, **kwargs):
            before = rows[0]
            out = recover(*args, **kwargs)
            per_recovery.append(rows[0] - before)
            return out

        monkeypatch.setattr(ansatz, "_moment_jet", counting_jet)
        monkeypatch.setattr(reduced_solver, "_cm_recover", counting_recover)
        for _ in range(3):
            assert not reduced_solver._warm_starts(cm, state.omegas, grid)[1].any()
            state = step(state, bgk, 0.45)
        # step-start, stage-1 and final recoveries of three steps
        assert per_recovery[0::3] == [0, 0, 0]
        assert all(n > 0 for i, n in enumerate(per_recovery) if i % 3)

    def test_steps_with_and_without_the_jet_agree(self, grid, bgk):
        cm = ConservativeMoment(2)
        state = initial_state(cm, sine_density_field(grid, cells=8))
        for _ in range(3):
            state = step(state, bgk, 0.45)
            assert state.jet is not None
            fresh = step(dataclasses.replace(state, jet=None), bgk, 0.45)
            handed = step(state, bgk, 0.45)
            assert np.array_equal(fresh.omegas, handed.omegas)
            for a, b in zip(fresh.jet, handed.jet):
                assert np.array_equal(a, b)

    def test_nudged_rows_get_a_fresh_jet(self, grid):
        # rows on the ridge are nudged off it, and only their jet is new
        cm = ConservativeMoment(2)
        rng = np.random.default_rng(3)
        omega = cm.sample_batch(rng, grid, 6)
        omega[[1, 4], 1:3] = 0.0
        assert reduced_solver._warm_starts(cm, omega, grid)[1].tolist() == [
            False, True, False, False, True, False]
        C = cm.raw_moments_batch(omega, grid) * 1.001
        jet = ansatz._moment_jet(cm, omega, grid)
        fresh = _cm_recover(cm, C, grid, omega)
        handed = _cm_recover(cm, C, grid, omega, jet)
        assert np.array_equal(fresh[0], handed[0])
        for a, b in zip(fresh[1], handed[1]):
            assert np.array_equal(a, b)


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
