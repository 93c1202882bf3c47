"""Acceptance matrix for the toolkit: one test per shipped criterion,
each printing a pass/fail line (run with ``pytest -s`` to see them all).

Under the ellipsoidal-statistical model the trace-free stress modes
relax at -1/tau, whatever the Prandtl number (criterion 3c).
"""

import time

import numpy as np
import pytest

from kinreduce import (
    AnsatzPoint,
    CollisionModel,
    ConservativeMoment,
    DistributionField,
    EntropyClosure,
    HermitePerturbation,
    HermiteSpace,
    MomentState,
    SpatialMesh,
    assemble_yong_report,
    flux_existence_check,
    gusc_check,
    linearized_collision_matrix,
    maxwellian,
    spectral_radius,
    truncated_rule,
)
from kinreduce.error_estimator import build_error_report
from kinreduce.projection import (
    _asymmetry,
    _cholesky,
    _metric,
    _project,
    _projection_frame,
    _raw_grams,
    _symmetrize,
)
from kinreduce.reduced_solver import initial_state, run_reduced, step
from kinreduce.reference_solver import run_reference
from kinreduce.kinetic import collision_rate, entropy_density

AUDIT_MANIFOLDS = [
    ConservativeMoment(0),
    ConservativeMoment(2),
    ConservativeMoment(4),
    HermitePerturbation(3),
    EntropyClosure(4),
]
AUDIT_GRID = truncated_rule(1.0 + 8.0 * np.sqrt(1.5), 80)  # |u|max + 8 sqrt(theta_max)
AUDIT_SAMPLES = 100
AUDIT_SEED = 20240817


def _report(name, passed, detail):
    print(f"[{name}] {'PASS' if passed else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def smooth_scenario():
    """Shared ConservativeMoment(2) sine-density scenario for the
    conservation and a posteriori criteria."""
    grid = truncated_rule(9.0, 64)
    mesh = SpatialMesh(cells=200, length=1.0)
    x = mesh.centers()
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * x)
    vals = rho[:, None] * maxwellian(MomentState(1.0, 0.0, 1.0), grid)[None, :]
    f0 = DistributionField(vals, grid, mesh)
    model = CollisionModel(kind="bgk", tau=0.1)
    t0 = time.perf_counter()
    reduced = run_reduced(
        ConservativeMoment(2), model, f0, 0.5, cfl=0.45, output_interval=0.05
    )
    reduced_seconds = time.perf_counter() - t0
    return {
        "f0": f0,
        "model": model,
        "reduced": reduced,
        "reduced_seconds": reduced_seconds,
    }


def test_criterion_1_hyperbolicity_audit():
    t0 = time.perf_counter()
    worst = 0.0
    for manifold in AUDIT_MANIFOLDS:
        rng = np.random.default_rng(AUDIT_SEED)
        omegas = np.stack([
            manifold.sample_batch(rng, AUDIT_GRID, 1)[0] for _ in range(AUDIT_SAMPLES)
        ])
        a0, a1 = _raw_grams(manifold, omegas, AUDIT_GRID)
        _cholesky(_symmetrize(a0))  # raises unless every Cholesky succeeds
        worst = max(worst, float(_asymmetry(a1).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(
        "criterion 1",
        ok,
        f"max pre-symmetrization defect {worst:.2e} (tol 1e-10), {elapsed:.1f}s",
    )
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_speed_preservation():
    t0 = time.perf_counter()
    bound = AUDIT_GRID.half_width
    worst = 0.0
    for manifold in AUDIT_MANIFOLDS:
        rng = np.random.default_rng(AUDIT_SEED)
        for _ in range(AUDIT_SAMPLES):
            p = AnsatzPoint(manifold, manifold.sample_batch(rng, AUDIT_GRID, 1)[0])
            worst = max(worst, spectral_radius(p, AUDIT_GRID))
    elapsed = time.perf_counter() - t0
    ok = worst <= bound + 1e-9 and elapsed < 10.0
    _report(
        "criterion 2",
        ok,
        f"max radius {worst:.3f} <= L = {bound:.3f} + 1e-9, {elapsed:.1f}s",
    )
    assert worst <= bound + 1e-9
    assert elapsed < 10.0


def test_criterion_3_bgk_spectrum():
    t0 = time.perf_counter()
    space = HermiteSpace(1, 4)
    D = linearized_collision_matrix(CollisionModel("bgk", tau=2.0), space)
    ev = np.sort(np.linalg.eigvalsh(D))
    want = np.array([-0.5, -0.5, 0.0, 0.0, 0.0])
    defect = np.abs(ev - want).max()
    elapsed = time.perf_counter() - t0
    _report("criterion 3a", defect <= 1e-8, f"BGK eigenvalue defect {defect:.2e}")
    assert defect <= 1e-8
    assert elapsed < 30.0


def test_criterion_3_shakhov_gusc_quotient():
    space = HermiteSpace(1, 4)
    D = linearized_collision_matrix(
        CollisionModel("shakhov", tau=1.0, prandtl=2 / 3), space
    )
    rep = gusc_check(D, space.w0_projector(), min(2 / 3, 1.0) / 1.0)
    ok = abs(rep.worst_quotient + 2 / 3) <= 1e-8 and rep.passed
    _report(
        "criterion 3b",
        ok,
        f"Shakhov worst quotient {rep.worst_quotient:.12f} (target -2/3), "
        f"uniform bound pass={rep.passed}",
    )
    assert rep.worst_quotient == pytest.approx(-2 / 3, abs=1e-8)
    assert rep.passed


def _esbgk_target_stress_rate(model, space, mode, eps=1e-3):
    """Relaxation rate of the trace-free stress under the nonlinear ES-BGK
    operator Q = (Pr/tau)(G - f), for f = f0 (1 + eps * mode) with f0 the
    space's standard Maxwellian.  G is the Gaussian with the moments of f
    and covariance theta/Pr I + (1 - 1/Pr) Theta (Holway); all moments are
    Gaussian expectations on the space's tensor quadrature."""
    w, prob, d = space.w_nodes, space.prob, space.dimension
    weight_f = prob * (1.0 + eps * mode)
    rho = weight_f.sum()
    c = w - (w.T @ weight_f) / rho
    cov_f = (c.T * weight_f) @ c / rho
    cov_g = (
        np.trace(cov_f) / d / model.prandtl * np.eye(d)
        + (1.0 - 1.0 / model.prandtl) * cov_f
    )
    quad_g = np.einsum("mi,ij,mj->m", c, np.linalg.inv(cov_g), c)
    weight_g = prob * np.exp(0.5 * (np.sum(w * w, axis=1) - quad_g))
    weight_g *= rho / np.sqrt(np.linalg.det(cov_g))  # G / f0 on the nodes
    cov_target = (c.T * weight_g) @ c / weight_g.sum()

    def trace_free(a):
        return a - np.trace(a) / d * np.eye(d)

    sigma_f = trace_free(cov_f)
    dsigma = collision_rate(model) * (trace_free(cov_target) - sigma_f)
    return float(np.sum(dsigma * sigma_f) / np.sum(sigma_f * sigma_f))


def test_criterion_3_esbgk_w2_eigenvalue():
    # G carries the stress (1 - 1/Pr) sigma, so the stress moment of
    # (Pr/tau)(G - f) is (Pr/tau)((1 - 1/Pr) - 1) sigma = -sigma/tau
    space = HermiteSpace(3, 2)
    w = space.w_nodes
    stress_modes = [w[:, 0] * w[:, 1], w[:, 0] ** 2 - w[:, 1] ** 2]
    # orthonormal basis of the five trace-free stress modes (W2)
    w2 = np.linalg.qr(space.w2_vectors().T)[0]
    results = []
    for tau, prandtl in [(1.0, 2 / 3), (1.3, 0.8), (0.5, 1.5)]:
        model = CollisionModel("esbgk", tau=tau, prandtl=prandtl)
        rate = collision_rate(model) * ((1.0 - 1.0 / prandtl) - 1.0)
        target_rates = np.array(
            [_esbgk_target_stress_rate(model, space, mode) for mode in stress_modes]
        )
        D = linearized_collision_matrix(model, space)
        quotients = np.diag(w2.T @ D @ w2)
        results.append((tau, prandtl, rate, target_rates, quotients))
    defect = max(
        max(abs(rate + 1.0 / tau), np.abs(np.r_[target_rates, quotients] - rate).max())
        for tau, _, rate, target_rates, quotients in results
    )
    _report(
        "criterion 3c",
        defect <= 1e-8,
        "ES-BGK W2 Rayleigh quotients "
        + ", ".join(
            f"{q.max():.12f} at (tau, Pr) = ({tau:g}, {pr:.3g})"
            for tau, pr, _, _, q in results
        )
        + f"; worst defect against -1/tau and the nonlinear target {defect:.2e}",
    )
    for tau, _, rate, target_rates, quotients in results:
        assert rate == pytest.approx(-1.0 / tau, abs=1e-8)
        assert target_rates == pytest.approx(np.full(2, rate), abs=1e-8)
        assert quotients == pytest.approx(np.full(5, rate), abs=1e-8)


def test_criterion_4_conservation(smooth_scenario):
    traj = smooth_scenario["reduced"]
    elapsed = smooth_scenario["reduced_seconds"]
    totals = traj.moment_totals
    scale = np.maximum(np.abs(totals[0, :3]), abs(totals[0, 0]))
    drift = np.abs(totals[:, :3] - totals[0, :3]).max(axis=0) / scale
    ok = drift.max() <= 1e-8 and elapsed < 60.0
    _report(
        "criterion 4",
        ok,
        f"conservation drift (c0, c1, c2) = {drift}, run {elapsed:.1f}s",
    )
    assert drift.max() <= 1e-8
    assert elapsed < 60.0


def test_criterion_5_entropy_dissipation_and_rate():
    t0 = time.perf_counter()
    tau = 0.1
    grid = truncated_rule(9.0, 64)
    mesh = SpatialMesh(cells=1, length=0.2)
    xi = grid.nodes
    feq = maxwellian(MomentState(1.0, 0.0, 1.0), grid)
    f0 = DistributionField(
        (feq * (1 + 0.1 * (xi**3 - 3 * xi) * np.exp(-(xi**2) / 4)))[None, :],
        grid,
        mesh,
    )
    model = CollisionModel(kind="bgk", tau=tau)
    state = initial_state(ConservativeMoment(2), f0)
    times = [0.0]
    entropies = [
        mesh.dx * entropy_density(
            np.maximum(ConservativeMoment(2).values_batch(state.omegas, xi)[0], 0.0), grid
        )
    ]
    dev0 = None
    devs = []
    while state.time < 0.4:
        state = step(state, model, 0.45)
        vals = np.maximum(ConservativeMoment(2).values_batch(state.omegas, xi)[0], 0.0)
        times.append(state.time)
        entropies.append(mesh.dx * entropy_density(vals, grid))
        c = state.moments[0]
        u = c[1] / c[0]
        th = c[2] / c[0] - u * u
        devs.append(abs(c[3] - c[0] * (u**3 + 3 * u * th)))
    entropies = np.array(entropies)
    increments = np.diff(entropies)
    rate = np.polyfit(times[1:], np.log(devs), 1)[0]
    elapsed = time.perf_counter() - t0
    ok = increments.max() <= 1e-12 and abs(rate + 1 / tau) <= 0.05 / tau and elapsed < 10
    _report(
        "criterion 5",
        ok,
        f"max per-step entropy increment {increments.max():.2e}, "
        f"fitted decay rate {rate:.3f} vs -1/tau = {-1/tau:.1f}, {elapsed:.1f}s",
    )
    assert increments.max() <= 1e-12
    assert rate == pytest.approx(-1.0 / tau, rel=0.05)
    assert elapsed < 10.0


def test_criterion_6_a_posteriori_bound(smooth_scenario):
    t0 = time.perf_counter()
    ref = run_reference(
        smooth_scenario["model"],
        smooth_scenario["f0"],
        0.5,
        cfl=0.45,
        output_interval=0.05,
    )
    report = build_error_report(
        smooth_scenario["reduced"], ref, smooth_scenario["model"]
    )
    elapsed = time.perf_counter() - t0 + smooth_scenario["reduced_seconds"]
    dominated = not report.violated
    ratios = np.round(report.ratio[1:], 2)
    ok = dominated and elapsed < 300.0
    _report(
        "criterion 6",
        ok,
        f"actual <= bound at all {report.times.size} outputs; "
        f"ratio series {ratios.tolist()}, L_Q(empirical) = {report.lipschitz:.1f}, "
        f"{elapsed:.0f}s total",
    )
    assert dominated
    assert elapsed < 300.0


def test_criterion_7_reference_transport_convergence():
    t0 = time.perf_counter()
    grid = truncated_rule(6.0, 32)
    T = 0.1
    errs = []
    masses = []
    for cells in (100, 200):
        mesh = SpatialMesh(cells=cells, length=1.0)
        x = mesh.centers()
        rho = 1.0 + 0.4 * np.exp(-((x - 0.5) ** 2) / (2 * 0.08**2))
        vals = rho[:, None] * maxwellian(MomentState(1.0, 0.0, 1.0), grid)[None, :]
        f0 = DistributionField(vals, grid, mesh)
        traj = run_reference(None, f0, T, cfl=0.8, output_interval=T)
        # method-of-characteristics oracle, periodic wrap
        exact = np.empty_like(vals)
        for j, xi in enumerate(grid.nodes):
            xs = np.mod(x - xi * T, 1.0)
            exact[:, j] = np.interp(xs, x, vals[:, j], period=1.0)
        diff = traj.snapshots[-1] - exact
        errs.append(np.sqrt(mesh.dx * float((diff**2 @ grid.weights).sum())))
        mass = traj.moment_totals[:, 0]
        masses.append(np.abs(mass - mass[0]).max() / mass[0])
    ratio = errs[0] / errs[1]
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - 2.0) <= 0.4 and max(masses) <= 1e-11 and elapsed < 60
    _report(
        "criterion 7",
        ok,
        f"error ratio under dx halving {ratio:.2f} (target 2 +- 20%), "
        f"mass drift {max(masses):.1e}, {elapsed:.1f}s",
    )
    assert ratio == pytest.approx(2.0, rel=0.2)
    assert max(masses) <= 1e-11
    assert elapsed < 60.0


def test_criterion_8_flux_criterion():
    t0 = time.perf_counter()
    grid = truncated_rule(9.0, 64)
    f = maxwellian(MomentState(1.0, 0.0, 1.0), grid)
    quadratic = flux_existence_check(
        lambda v: float((v * v) @ grid.weights), f, 20, grid, seed=3
    )
    linear = flux_existence_check(
        lambda v: float((grid.nodes * v) @ grid.weights), f, 20, grid, seed=3
    )
    squared_mass = flux_existence_check(
        lambda v: float(v @ grid.weights) ** 2, f, 10, grid, seed=3
    )
    elapsed = time.perf_counter() - t0
    ok = (
        quadratic.passed
        and linear.passed
        and not squared_mass.passed
        and squared_mass.witness is not None
        and elapsed < 5.0
    )
    _report(
        "criterion 8",
        ok,
        f"int f^2 pass={quadratic.passed}, linear pass={linear.passed}, "
        f"(int f)^2 fail with witness={squared_mass.witness is not None}, "
        f"{elapsed:.1f}s",
    )
    assert quadratic.passed and linear.passed
    assert not squared_mass.passed and squared_mass.witness is not None
    assert elapsed < 5.0


def test_criterion_9_projection_algebra():
    t0 = time.perf_counter()
    manifolds = [ConservativeMoment(2), HermitePerturbation(3), EntropyClosure(4)]
    rng = np.random.default_rng(99)
    n_pairs = 0
    worst_idem = 0.0
    worst_orth = 0.0
    grid = AUDIT_GRID
    pairs = {manifold: ([], []) for manifold in manifolds}
    while n_pairs < 1000:
        manifold = manifolds[n_pairs % len(manifolds)]
        p = AnsatzPoint(manifold, manifold.sample_batch(rng, grid, 1)[0])
        if isinstance(manifold, (ConservativeMoment, HermitePerturbation)):
            u = p.omega[-2] if isinstance(manifold, ConservativeMoment) else p.omega[1]
            th = p.omega[-1] if isinstance(manifold, ConservativeMoment) else p.omega[2]
        else:
            u, th = 0.0, 1.0
        w = (grid.nodes - u) / np.sqrt(th)
        h = np.polynomial.polynomial.polyval(w, rng.normal(size=6)) * np.exp(
            -0.5 * w * w
        )
        pairs[manifold][0].append(p.omega)
        pairs[manifold][1].append(h)
        n_pairs += 1
    for manifold, (omegas, hs) in pairs.items():
        # the projector of residual_batch, over every pair of a manifold at once
        omegas, hs = np.stack(omegas), np.stack(hs)
        charts = manifold.jet_batch(omegas, grid.nodes)[1]
        frames = _projection_frame(manifold, charts, grid)
        mws = _metric(manifold, omegas, grid)
        _, phs = _project(frames, mws, hs)
        _, pphs = _project(frames, mws, phs)
        for h, ph, pph, basis, mw in zip(hs, phs, pphs, charts, mws):
            worst_idem = max(worst_idem, np.abs(pph - ph).max() / np.abs(h).max())
            hnorm = np.sqrt(float((h * h) @ mw))
            for k in range(manifold.dim):
                bnorm = np.sqrt(float((basis[k] ** 2) @ mw))
                err = abs(float(((h - ph) * basis[k]) @ mw))
                worst_orth = max(worst_orth, err / (hnorm * bnorm))
    elapsed = time.perf_counter() - t0
    ok = worst_idem <= 1e-10 and worst_orth <= 1e-10 and elapsed < 10
    _report(
        "criterion 9",
        ok,
        f"{n_pairs} pairs: idempotence defect {worst_idem:.2e}, "
        f"orthogonality defect {worst_orth:.2e} (tol 1e-10), {elapsed:.1f}s",
    )
    assert worst_idem <= 1e-10
    assert worst_orth <= 1e-10
    assert elapsed < 10.0


def test_criterion_10_yong_form_check():
    t0 = time.perf_counter()
    tau = 0.5
    grid = truncated_rule(9.0, 64)
    rep = assemble_yong_report(
        ConservativeMoment(2), CollisionModel("bgk", tau=tau), grid
    )
    elapsed = time.perf_counter() - t0
    ok = (
        rep.block_passed
        and rep.symmetry_passed
        and rep.dissipativity_passed
        and abs(rep.dissipativity_constant - 1 / tau) <= 0.1 / tau
        and elapsed < 30
    )
    _report(
        "criterion 10",
        ok,
        f"block defect {rep.block_defect:.1e}, symmetry defect "
        f"{rep.symmetry_defect:.1e}, c = {rep.dissipativity_constant:.4f} "
        f"(target 1/tau = {1/tau}), {elapsed:.1f}s",
    )
    assert rep.block_passed and rep.symmetry_passed and rep.dissipativity_passed
    assert rep.dissipativity_constant == pytest.approx(1.0 / tau, rel=0.1)
    assert elapsed < 30.0
