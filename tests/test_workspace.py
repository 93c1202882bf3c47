"""The node passes compute in place into work arrays a run owns.

Each kernel is pinned bit for bit (``np.array_equal``) to a reference
copy of the expression it evaluated when it still allocated every
temporary (the Shakhov relaxation, whose formula changed since, to its
own call without work arrays): with and without work arrays, at batch
sizes on both sides of ``_NODE_PASS_ROWS``, and with work arrays whose
contents are stale from a larger call.  A warm step must allocate less than one
(cells x nodes) field."""

import math
import tracemalloc

import numpy as np
import pytest

from kinreduce import (
    CollisionModel,
    ConservativeMoment,
    DistributionField,
    EntropyClosure,
    HermitePerturbation,
    MomentState,
    SpatialMesh,
    maxwellian,
    truncated_rule,
)
from kinreduce import ansatz
from kinreduce.ansatz import _frame_power_sums, hermite_polynomials
from kinreduce.kinetic import _target_batch, collision_invariants, collision_rate, entropy_density
from kinreduce.projection import (_grams, _metric, _node_coefficients, _symmetrize,
                                  coefficients_batch)
from kinreduce.reference_solver import KineticState, relaxation_step
from kinreduce.reduced_solver import (
    _cm_rhs,
    _cm_speeds,
    initial_state,
    run_reduced,
    step,
)
from kinreduce.workspace import WorkArrays

BATCHES = [1, 7, 128, 200, 300]
MANIFOLDS = [ConservativeMoment(0), ConservativeMoment(2), ConservativeMoment(4),
             HermitePerturbation(3), HermitePerturbation(4), HermitePerturbation(5),
             EntropyClosure(4)]
MODELS = [None, CollisionModel(kind="bgk", tau=0.2),
          CollisionModel(kind="shakhov", tau=0.2, prandtl=2.0 / 3.0)]


# ---- reference copies of the allocating expressions ----------------------

def ref_hermite_polynomials(n, x):
    x = np.asarray(x, dtype=float)
    he = [np.ones_like(x), x.copy()]
    for j in range(1, n):
        he.append(x * he[j] - j * he[j - 1])
    return he[: n + 1]


def ref_guard(expo):
    assert not np.any(expo > ansatz._WEIGHT_EXP_CAP)


def ref_cm_factors(cm, omegas, xi):
    alpha, u, theta = cm.split(omegas)
    c = xi[None, :] - u[:, None]
    gauss = np.exp(-c * c / (2.0 * theta[:, None]))
    poly = np.zeros_like(gauss)
    for k in range(cm.degree, -1, -1):
        poly = poly * xi[None, :] + alpha[:, k, None]
    return c, gauss, poly


def ref_cm_values(cm, omegas, xi):
    out = np.empty((omegas.shape[0], xi.size))
    for lo in range(0, omegas.shape[0], 128):
        _, gauss, poly = ref_cm_factors(cm, omegas[lo : lo + 128], xi)
        np.multiply(gauss, poly, out=out[lo : lo + 128])
    return out


def ref_cm_jet(cm, omegas, xi):
    _, _, theta = cm.split(omegas)
    c, gauss, poly = ref_cm_factors(cm, omegas, xi)
    f = gauss * poly
    basis = np.empty((omegas.shape[0], cm.dim, xi.size))
    pw = np.ones_like(gauss)
    for k in range(cm.degree + 1):
        basis[:, k, :] = gauss * pw
        pw = pw * xi[None, :]
    basis[:, cm.degree + 1, :] = c / theta[:, None] * f
    basis[:, cm.degree + 2, :] = c * c / (2.0 * theta[:, None] ** 2) * f
    return f, basis


def ref_maxwellian_weight(u, theta, xi):
    expo = (xi[None, :] - u[:, None]) ** 2 / (2.0 * theta[:, None])
    ref_guard(expo)
    return np.exp(expo)


def ref_cm_weight(cm, omegas, xi):
    _, u, theta = cm.split(omegas)
    return ref_maxwellian_weight(u, theta, xi)


def ref_hp_factors(hp, omegas, xi):
    rho, u, theta, _ = hp.split(omegas)
    rt = np.sqrt(theta)
    w = (xi[None, :] - u[:, None]) / rt[:, None]
    phi = np.exp(-0.5 * w * w) / np.sqrt(2.0 * np.pi)
    return rt, w, phi, ref_hermite_polynomials(hp.degree, w), rho[:, None] / rt[:, None]


def ref_hp_series(hp, alpha, he):
    s = np.zeros_like(he[0])
    for j, k in enumerate(range(3, hp.degree + 1)):
        s += alpha[..., j, None] * he[k]
    return s


def ref_hp_dseries(hp, alpha, he):
    ds = np.zeros_like(he[0])
    for j, k in enumerate(range(3, hp.degree + 1)):
        ds += alpha[..., j, None] * k * he[k - 1]
    return ds


def ref_hp_values(hp, omegas, xi):
    _, _, phi, he, pref = ref_hp_factors(hp, omegas, xi)
    return pref * phi * (1.0 + ref_hp_series(hp, hp.split(omegas)[3], he))


def ref_hp_jet(hp, omegas, xi):
    _, _, theta, alpha = hp.split(omegas)
    rt, w, phi, he, pref = ref_hp_factors(hp, omegas, xi)
    s = ref_hp_series(hp, alpha, he)
    ds = ref_hp_dseries(hp, alpha, he)
    basis = np.empty((omegas.shape[0], hp.dim, xi.size))
    basis[:, 0, :] = phi * (1.0 + s) / rt[:, None]
    basis[:, 1, :] = pref / rt[:, None] * phi * (w * (1.0 + s) - ds)
    basis[:, 2, :] = (
        0.5 * pref / theta[:, None] * phi * ((w * w - 1.0) * (1.0 + s) - w * ds)
    )
    for j, k in enumerate(range(3, hp.degree + 1)):
        basis[:, 3 + j, :] = pref * phi * he[k]
    return pref * phi * (1.0 + s), basis


def ref_hp_weight(hp, omegas, xi):
    _, u, theta, _ = hp.split(omegas)
    return ref_maxwellian_weight(u, theta, xi)


def ref_ec_exponent(ec, omegas, xi):
    expo = np.zeros((omegas.shape[0], xi.size))
    for p in range(ec.n - 1, -1, -1):
        expo = expo * xi[None, :] + omegas[:, p, None]
    return expo


def ref_ec_values(ec, omegas, xi):
    return np.exp(ref_ec_exponent(ec, omegas, xi))


def ref_ec_jet(ec, omegas, xi):
    f = ref_ec_values(ec, omegas, xi)
    return f, np.stack([f * xi[None, :] ** p for p in range(ec.n)], axis=1)


def ref_ec_weight(ec, omegas, xi):
    expo = -ref_ec_exponent(ec, omegas, xi)
    ref_guard(expo)
    return np.exp(expo)


REFERENCE = {
    ConservativeMoment: (ref_cm_values, ref_cm_jet, ref_cm_weight),
    HermitePerturbation: (ref_hp_values, ref_hp_jet, ref_hp_weight),
    EntropyClosure: (ref_ec_values, ref_ec_jet, ref_ec_weight),
}


def ref_xi_powers(grid, upto):
    out = np.empty((upto + 1, len(grid)))
    out[0] = 1.0
    for k in range(1, upto + 1):
        out[k] = out[k - 1] * grid.nodes
    return out


def ref_node_power_sums(u, theta, grid, top):
    """The node pass of the power sums in the identity frame, one power
    at a time, each a new array: exp((xi - u)^2 / -(2 theta)) xi^j by
    repeated products, each row summed against the weights."""
    out = np.empty((u.size, top + 1))
    for lo in range(0, u.size, 128):
        rows = slice(lo, lo + 128)
        c = grid.nodes[None, :] - u[rows, None]
        g = np.exp(c * c / (-2.0 * theta[rows, None]))
        for j in range(top + 1):
            out[rows, j] = np.einsum("mn,n->m", g, grid.weights)
            g = g * grid.nodes
    return out


def ref_truncated_moments(u, theta, L, top):
    """The truncated-normal recurrence one power at a time, each term a
    new array, in the kernel's order of operations in the identity
    frame, whose ends are b = L and a = -L: the boundary terms are
    theta g_b b^k - theta g_a a^k, the powers by repeated products."""
    s = np.sqrt(2.0 * theta)
    erfs = [np.array([math.erf(z) for z in e / s]) for e in (L - u, u + L)]
    P = [0.5 * math.sqrt(math.pi) * s * (erfs[0] + erfs[1])]
    g_b, g_a = (np.exp(e * e / (-2.0 * theta)) * theta for e in (L - u, u + L))
    P.append(u * P[0] - (g_b - g_a))
    for m in range(2, top + 1):
        g_b, g_a = g_b * L, g_a * -L
        P.append(((0.0 + (m - 1.0) * theta * P[m - 2]) + -1.0 * (g_b - g_a)) + u * P[m - 1])
    return np.stack(P[: top + 1], axis=1)


def ref_gauss_power_sums(u, theta, grid, top):
    """The recurrence where 2h <= sqrt(theta) <= L/2, the node pass
    elsewhere."""
    L = grid.half_width
    fine = (theta >= (2.0 * (2.0 * L / grid.cells)) ** 2) & (theta <= 0.25 * L * L)
    return np.where(fine[:, None], ref_truncated_moments(u, theta, grid.half_width, top),
                    ref_node_power_sums(u, theta, grid, top))


def ref_grams(basis, mu, xi):
    basis_t = np.swapaxes(basis, -1, -2)
    weighted = basis * mu[:, None, :]
    return weighted @ basis_t, (weighted * xi) @ basis_t


def ref_coefficients(manifold, omegas, model, grid):
    _, jet, weight = REFERENCE[type(manifold)]
    f, basis = jet(manifold, omegas, grid.nodes)
    mu = weight(manifold, omegas, grid.nodes) * grid.weights
    a0, a1 = (_symmetrize(g) for g in ref_grams(basis, mu, grid.nodes))
    if model is None:
        return a0, a1, np.zeros(omegas.shape)
    vals = np.maximum(f, 0.0)
    rows = collision_rate(model) * (_target_batch(model, vals, grid) - vals)
    return a0, a1, np.einsum("mkn,mn->mk", basis, rows * mu)


def ref_entropy_density(values, grid):
    eta = np.where(values > 0.0, values * np.log(np.maximum(values, 1e-300)) - values, 0.0)
    return np.einsum("mn,n->m", eta, grid.weights)


# ---- helpers ---------------------------------------------------------------

def draw(manifold, grid, count, seed):
    return manifold.sample_batch(np.random.default_rng(seed), grid, count)


def stale_work(manifold, grid):
    """Work arrays grown by a 300-row call at other points, then filled
    with NaN: a kernel that reads a value it did not write fails."""
    work = WorkArrays()
    other = draw(manifold, grid, 300, seed=99)
    manifold.jet_batch(other, grid.nodes, work)
    manifold.values_batch(other, grid.nodes, work)
    manifold.weight_batch(other, grid.nodes, work)
    for arr in work._arrays.values():
        arr.fill(np.nan)
    return work


def assert_disjoint(*arrays):
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


# ---- kernels ---------------------------------------------------------------

class TestHermiteStack:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_matches_the_list_recurrence(self, n):
        x = np.linspace(-7.0, 7.0, 101).reshape(1, -1) * np.array([[1.0], [0.3]])
        want = ref_hermite_polynomials(n, x)
        got = hermite_polynomials(n, x)
        assert got.shape == (n + 1,) + x.shape
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        out = np.full((n + 1,) + x.shape, np.nan)
        assert hermite_polynomials(n, x, out=out) is out
        assert np.array_equal(out, got)


@pytest.mark.parametrize("manifold", MANIFOLDS, ids=lambda m: m.name)
class TestNodePasses:
    @pytest.mark.parametrize("count", BATCHES)
    def test_bit_identical_to_the_allocating_expressions(self, manifold, count, wide_grid):
        ref_values, ref_jet, ref_weight = REFERENCE[type(manifold)]
        xi = wide_grid.nodes
        omegas = draw(manifold, wide_grid, count, seed=count)
        want_f, want_basis = ref_jet(manifold, omegas, xi)
        want_values = ref_values(manifold, omegas, xi)
        want_weight = ref_weight(manifold, omegas, xi)
        for work in (None, WorkArrays(), stale_work(manifold, wide_grid)):
            f, basis = manifold.jet_batch(omegas, xi, work)
            assert np.array_equal(f, want_f) and np.array_equal(basis, want_basis)
            assert_disjoint(f, basis, omegas, xi)
            values = manifold.values_batch(omegas, xi, work)
            assert np.array_equal(values, want_values)
            assert_disjoint(values, omegas, xi)
            weight = manifold.weight_batch(omegas, xi, work)
            assert np.array_equal(weight, want_weight)
            assert_disjoint(weight, values, omegas, xi)

    def test_coefficients_batch(self, manifold, wide_grid):
        """The node-pass assembly, and the assembly the solver takes
        (from power sums for HermitePerturbation, with no node pass),
        with and without stale work arrays."""
        for count in (7, 200):
            omegas = draw(manifold, wide_grid, count, seed=count)
            for model in MODELS:
                want = ref_coefficients(manifold, omegas, model, wide_grid)
                fresh = coefficients_batch(manifold, omegas, model, wide_grid)
                fresh = (fresh.a0, fresh.a1, fresh.q)
                for work in (None, stale_work(manifold, wide_grid)):
                    got = _node_coefficients(manifold, omegas, model, wide_grid, work=work)
                    for g, w in zip((got.a0, got.a1, got.q), want):
                        assert np.array_equal(g, w)
                    assert_disjoint(got.a0, got.a1, got.q, omegas)
                    got = coefficients_batch(manifold, omegas, model, wide_grid, work=work)
                    for g, w in zip((got.a0, got.a1, got.q), fresh):
                        assert np.array_equal(g, w)
                    assert_disjoint(got.a0, got.a1, got.q, omegas)

    def test_grams_and_metric(self, manifold, wide_grid):
        omegas = draw(manifold, wide_grid, 200, seed=3)
        _, jet, weight = REFERENCE[type(manifold)]
        _, basis = jet(manifold, omegas, wide_grid.nodes)
        want_mu = weight(manifold, omegas, wide_grid.nodes) * wide_grid.weights
        want = ref_grams(basis, want_mu, wide_grid.nodes)
        for work in (None, stale_work(manifold, wide_grid)):
            mu = _metric(manifold, omegas, wide_grid, work)
            assert np.array_equal(mu, want_mu)
            got = _grams(basis, mu, wide_grid.nodes, work)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert_disjoint(mu, basis, *got)


@pytest.mark.parametrize("count", BATCHES)
def test_gauss_power_sums(count, wide_grid, hp_frames):
    """Temperatures on both sides of sqrt(theta) = 2h, where the kernel
    changes from the node pass to the recurrence, in ConservativeMoment's
    identity frame.  And the frames of HermitePerturbation's collision
    targets, on both sides of sqrt(theta) = 2h and L/2, drawn into the
    batch: each row has the bits of its own call without work arrays."""
    rng = np.random.default_rng(count)
    u, theta = rng.uniform(-1.0, 1.0, count), rng.uniform(0.1, 1.5, count)
    theta[0] = 0.2  # a node-pass row in every batch
    want = ref_gauss_power_sums(u, theta, wide_grid, 13)
    # work arrays stale from larger calls, with node-pass rows and without
    work = WorkArrays()
    _frame_power_sums(0.0, 1.0, rng.uniform(-1, 1, 300), rng.uniform(0.1, 1.5, 300), wide_grid,
                      13, work)
    _frame_power_sums(0.0, 1.0, rng.uniform(-1, 1, 300), np.ones(300), wide_grid, 13, work)
    for arr in work._arrays.values():
        arr.fill(np.nan)
    for w in (None, work):
        got = _frame_power_sums(0.0, 1.0, u, theta, wide_grid, 13, w)
        assert np.array_equal(got, want)
        assert_disjoint(got, u, theta)

    h, L = 2.0 * wide_grid.half_width / wide_grid.cells, wide_grid.half_width
    sigma = np.array([1.9 * h, 2.1 * h, 0.45 * L, 0.55 * L])
    frames = [a[a.size // 2 :] for a in hp_frames(sigma)]
    alone = np.concatenate([_frame_power_sums(*(a[i : i + 1] for a in frames), wide_grid, 13)
                            for i in range(frames[0].size)])
    # a frame of each sigma, as far as the batch holds them, then any
    rows = np.concatenate([np.arange(4) * 9, rng.integers(0, frames[0].size, count)])[:count]
    batch = [np.ascontiguousarray(a[rows]) for a in frames]
    for w in (None, work):
        got = _frame_power_sums(*batch, wide_grid, 13, w)
        assert np.array_equal(got, alone[rows])
        assert_disjoint(got, *batch)


def test_a_warm_node_pass_allocates_less_than_one_field(wide_grid):
    """64 rows whose Gaussian the grid does not resolve, sqrt(theta) <
    2h, in the identity frame and in their own frames, to j = 12: the
    node pass sums one power at a time in work arrays, so a warm call
    allocates less than one (rows x nodes) field."""
    rng = np.random.default_rng(5)
    u, theta = rng.uniform(-1.0, 1.0, 64), rng.uniform(0.05, 0.25, 64)
    assert np.all(np.sqrt(theta) < 4.0 * wide_grid.half_width / wide_grid.cells)
    field = u.size * len(wide_grid) * 8
    for frame in ((0.0, 1.0, u, theta), (u, np.sqrt(theta), np.zeros(64), np.ones(64))):
        work = WorkArrays()
        want = _frame_power_sums(*frame, wide_grid, 12, work).copy()
        assert peak_bytes(lambda: _frame_power_sums(*frame, wide_grid, 12, work)) < field
        assert np.array_equal(_frame_power_sums(*frame, wide_grid, 12, work), want)


def test_entropy_density_into_a_work_array(grid):
    vals = draw(HermitePerturbation(4), grid, 7, seed=2)
    vals = HermitePerturbation(4).values_batch(vals, grid.nodes)
    vals[3, :40] = 0.0
    out = np.full(vals.shape, np.nan)
    assert np.array_equal(entropy_density(vals, grid, out), ref_entropy_density(vals, grid))
    assert np.array_equal(entropy_density(vals, grid), ref_entropy_density(vals, grid))


# ---- runs and allocation -------------------------------------------------

def sine_field(grid, cells):
    mesh = SpatialMesh(cells=cells, length=1.0)
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * mesh.centers())
    vals = rho[:, None] * maxwellian(MomentState(1.0, 0.0, 1.0), grid)[None, :]
    return DistributionField(vals, grid, mesh)


@pytest.mark.parametrize("manifold", [ConservativeMoment(2), HermitePerturbation(4)],
                         ids=lambda m: m.name)
def test_two_runs_in_one_process_agree(manifold, grid):
    f0 = sine_field(grid, 24)
    model = CollisionModel(kind="bgk", tau=0.1)
    runs = [run_reduced(manifold, model, f0, 0.01, output_interval=0.005) for _ in range(2)]
    for name in ("times", "omegas", "moment_totals", "entropy"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))


def peak_bytes(call):
    """Peak of the memory that ``call`` allocates, as tracemalloc sees
    it (numpy's data buffers included)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", [CollisionModel(kind="bgk", tau=0.1),
                                   CollisionModel(kind="shakhov", tau=0.1, prandtl=2 / 3)],
                         ids=lambda m: m.kind)
def test_a_warm_generic_step_allocates_less_than_one_field(model, grid):
    # 100 cells on 256 nodes, the hermite4_generic state
    state = initial_state(HermitePerturbation(4), sine_field(grid, 100))
    work = WorkArrays()
    step(state, model, 0.45, work=work)
    field = state.omegas.shape[0] * len(grid) * 8
    assert peak_bytes(lambda: step(state, model, 0.45, work=work)) < field


def test_a_warm_conservative_rhs_allocates_less_than_one_field(grid):
    # 200 cells on 256 nodes, the cm2_bgk_sine state
    cm = ConservativeMoment(2)
    state = initial_state(cm, sine_field(grid, 200))
    model = CollisionModel(kind="bgk", tau=0.1)
    work = WorkArrays()
    speeds = _cm_speeds(cm, state.omegas, grid, work)
    args = (cm, model, grid, state.mesh, state.moments, state.omegas, speeds, work)
    want = _cm_rhs(*args)
    field = state.omegas.shape[0] * len(grid) * 8
    assert peak_bytes(lambda: _cm_rhs(*args)) < field
    assert np.array_equal(_cm_rhs(*args[:-1]), want)


def ref_shakhov_relaxation(model, vals, grid, dt):
    """The explicit RK2 Shakhov relaxation the reference solver once
    ran, every temporary a new array: an oracle with a local error of
    order dt^3."""
    wts, xi = grid.weights, grid.nodes

    def target(v):
        rho = v @ wts
        u = (v @ (xi * wts)) / rho
        c = xi[None, :] - u[:, None]
        q = np.einsum("mn,mn->m", v, c * c * c * wts[None, :]) / rho
        th = (np.einsum("mn,mn->m", v, c * c * wts) / rho)[:, None]
        factor = 1.0 + (1.0 - model.prandtl) * q[:, None] * c / (3.0 * th**2) * (
            c * c / (2.0 * th) - 1.5
        )
        return np.exp(-(c * c) / (2.0 * th)) * (rho[:, None] / np.sqrt(2.0 * np.pi * th)) * factor

    def rhs(v):
        return collision_rate(model) * (target(v) - v)

    k1 = rhs(vals)
    mid = vals + dt * k1
    return np.maximum(vals + 0.5 * dt * (k1 + rhs(mid)), 0.0)


def mix_field(grid, cells):
    # the cm4_shakhov_mix initial field, with a heat flux
    mesh = SpatialMesh(cells=cells, length=1.0)
    f = (0.7 * maxwellian(MomentState(1.0, -0.6, 0.6), grid)
         + 0.3 * maxwellian(MomentState(1.0, 1.4, 0.5), grid))
    return DistributionField(np.tile(f, (cells, 1)) * (1.0 + 0.1 * np.arange(cells))[:, None],
                             grid, mesh)


def test_shakhov_relaxation_in_work_arrays(grid):
    """The same bits with and without work arrays, within order dt^3 of
    the RK2 oracle, and a warm step allocates less than one field (100
    cells on 256 nodes: a broadcasting ufunc still takes a 64 KiB
    buffer)."""
    model = CollisionModel(kind="shakhov", tau=0.2, prandtl=2.0 / 3.0)
    f = mix_field(grid, 100)
    state = KineticState(f, 0.0)
    want = relaxation_step(state, model, 0.01).f.values
    stale = WorkArrays()
    relaxation_step(KineticState(mix_field(grid, 140), 0.0), model, 0.02, work=stale)
    for arr in stale._arrays.values():
        arr.fill(np.nan)
    out = np.empty_like(f.values)
    for work in (WorkArrays(), stale):
        assert np.array_equal(relaxation_step(state, model, 0.01, out, work).f.values, want)
    # the RK2's one-step error shrinks 8x per halving of dt
    gaps = [np.abs(relaxation_step(state, model, dt).f.values
                   - ref_shakhov_relaxation(model, f.values, grid, dt)).max()
            for dt in (0.02, 0.01, 0.005)]
    assert gaps[0] / gaps[1] == pytest.approx(8.0, rel=0.1)
    assert gaps[1] / gaps[2] == pytest.approx(8.0, rel=0.1)
    field = f.values.size * 8
    assert peak_bytes(lambda: relaxation_step(state, model, 0.01, out, stale)) < field


def test_the_xi_table_is_built_once_per_rule():
    rule = truncated_rule(9.0, 8)
    small = rule.xi_powers(3)
    assert np.array_equal(small, ref_xi_powers(rule, 3))
    big = rule.xi_powers(9)
    assert np.array_equal(big, ref_xi_powers(rule, 9))
    again = rule.xi_powers(4)
    assert np.shares_memory(again, big) and again.flags.c_contiguous
    assert np.array_equal(again, ref_xi_powers(rule, 4))
    assert not big.flags.writeable
    weighted = rule.weighted_powers(6)
    assert np.array_equal(weighted, ref_xi_powers(rule, 6) * rule.weights)
    assert np.shares_memory(rule.weighted_powers(2), weighted) and not weighted.flags.writeable
    basis = collision_invariants(rule)  # public: a caller's own copy
    assert basis.flags.writeable and not np.shares_memory(basis, big)
