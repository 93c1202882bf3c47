import numpy as np
import pytest

from kinreduce import (
    CollisionModel,
    DistributionField,
    MomentState,
    SpatialMesh,
    maxwellian,
    truncated_rule,
)


@pytest.fixture(scope="session")
def grid():
    """Default ordinate grid for unit-variance states."""
    return truncated_rule(9.0, 64)


@pytest.fixture(scope="session")
def wide_grid():
    """Covers the sampling ranges u in [-1, 1], theta in [0.5, 1.5]."""
    return truncated_rule(10.8, 80)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def homogeneous_field(profile, grid, length=1.0):
    mesh = SpatialMesh(cells=1, length=length)
    return DistributionField(np.asarray(profile)[None, :], grid, mesh)


@pytest.fixture
def maxwell_field(grid):
    m = MomentState(rho=1.0, u=0.0, theta=1.0)
    return homogeneous_field(maxwellian(m, grid), grid)


@pytest.fixture
def bgk():
    return CollisionModel(kind="bgk", tau=0.5)


def per_point_coefficients(manifold, omega, model, grid):
    """(A0, A1, Q) at one point by the per-point algorithm the batched
    kernel replaced: a plain reference for equivalence tests.  Also
    returns the size of the terms Q is the difference of, the collision
    rate times max_k |g(b_k, f)|, against which Q's round-off is
    measured."""
    from kinreduce import EntropyClosure, HermitePerturbation, RealizabilityError
    from kinreduce.kinetic import collision_profile, collision_rate

    xi = grid.nodes
    if isinstance(manifold, EntropyClosure):
        weight = np.exp(-np.polynomial.polynomial.polyval(xi, omega))  # 1/f
    else:
        u, theta = (omega[1], omega[2]) if isinstance(manifold, HermitePerturbation) \
            else (omega[-2], omega[-1])
        weight = np.exp((xi - u) ** 2 / (2.0 * theta))
    vals, basis = (a[0] for a in manifold.jet_batch(omega, xi))
    mu = weight * grid.weights
    a0 = np.einsum("kn,n,ln->kl", basis, mu, basis)
    a1 = np.einsum("kn,n,ln->kl", basis, mu * xi, basis)
    q, q_scale = np.zeros(manifold.dim), 0.0
    if model is not None:
        if vals.min() < -1e-12 * max(vals.max(), 0.0):
            raise RealizabilityError("negative ansatz")
        vals = np.maximum(vals, 0.0)
        q = basis @ (collision_profile(model, vals, grid) * mu)
        q_scale = collision_rate(model) * np.abs(basis @ (vals * mu)).max()
    return 0.5 * (a0 + a0.T), 0.5 * (a1 + a1.T), q, q_scale


@pytest.fixture
def reference_coefficients():
    return per_point_coefficients


def per_point_residual(manifold, omega, grad, model, grid):
    """R = (I - P)(xi d_x f_hat - Q[f_hat]) at one point by the per-point
    algorithm the batched kernel replaced: a plain reference for
    equivalence tests.  Also returns max |xi d_x f_hat - Q|, against
    which the residual's round-off is measured."""
    import scipy.linalg

    from kinreduce import ConservativeMoment
    from kinreduce.kinetic import collision_profile

    xi = grid.nodes
    vals, chart = (a[0] for a in manifold.jet_batch(omega, xi))
    h = xi * (grad @ chart)
    if model is not None:
        h = h - collision_profile(model, vals, grid)
    if isinstance(manifold, ConservativeMoment):
        # the Gaussian factor times xi^k, k = 0..N+2
        u, theta = omega[-2], omega[-1]
        gauss = np.exp(-(xi - u) ** 2 / (2.0 * theta))
        basis = np.stack([gauss * xi**k for k in range(manifold.n_moments)])
    else:
        basis = chart
    mu = manifold.weight_batch(omega, xi)[0] * grid.weights
    a0 = np.einsum("kn,n,ln->kl", basis, mu, basis)
    coeff = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(0.5 * (a0 + a0.T), lower=True), basis @ (h * mu)
    )
    return h - coeff @ basis, np.abs(h).max()


@pytest.fixture
def reference_residual():
    return per_point_residual


@pytest.fixture
def degenerate_cell(monkeypatch):
    """``degenerate_cell(cell, cells, call=None)`` zeroes the rho
    direction of the HermitePerturbation chart at row ``cell`` of every
    ``jet_batch`` stack of ``cells`` rows, or only in the ``call``-th
    such stack (counting from 0), so that row's Gram is singular."""
    from kinreduce import HermitePerturbation

    original = HermitePerturbation.jet_batch

    def install(cell, cells, call=None):
        seen = []

        def jet_batch(self, omegas, xi, work=None):
            f, basis = original(self, omegas, xi, work)
            if basis.shape[0] == cells:
                if call is None or len(seen) == call:
                    basis[cell, 0, :] = 0.0
                seen.append(1)
            return f, basis

        monkeypatch.setattr(HermitePerturbation, "jet_batch", jet_batch)

    return install


def ladder_projection(manifold, f0):
    """ConservativeMoment's initial projection as the stepping recovery's
    fallback ladder computed it: ``recover_batch`` from the
    variable-projection guess (ridge jitters, then the first converging
    cold start, then the guess again), then, unless that lands on f0
    itself, the preimage nearest f0 in L2 among it, the cold starts and
    the guess, ties keeping the earlier.  The reference for the one-pass
    nearest-preimage rule."""
    from kinreduce.ansatz import _solve_candidates, recover_batch

    grid, vals = f0.grid, f0.values
    targets = vals @ (grid.xi_powers(manifold.n_moments - 1) * grid.weights).T
    omegas = recover_batch(manifold, targets, grid)
    dist = ((manifold.values_batch(omegas, grid.nodes) - vals) ** 2) @ grid.weights
    norm = (vals**2) @ grid.weights
    rows = np.flatnonzero(~(dist <= 1e-18 * np.maximum(norm, 1e-300)))
    if rows.size == 0:
        return omegas
    cands = [cs + [g] for cs, g in zip(manifold.cold_start_candidates(targets[rows], grid),
                                       manifold.initial_guess(targets[rows], grid))]
    sol, ok, owner, _ = _solve_candidates(manifold, targets[rows], cands, grid)
    d = ((manifold.values_batch(sol, grid.nodes) - vals[rows][owner]) ** 2) @ grid.weights
    d[~(ok & np.isfinite(d))] = np.inf
    for j, i in enumerate(rows):
        mine = np.flatnonzero(owner == j)
        k = int(np.argmin(np.concatenate([[dist[i]], d[mine]])))
        if k:
            omegas[i] = sol[mine[k - 1]]
    return omegas


def fd_newton_projection(manifold, f0):
    """The chart manifolds' initial projection cell by cell: damped
    Newton on g(f0 - f_hat, b_k) = 0 with a central finite-difference
    Jacobian, from each cell's Maxwellian.  The reference for the
    batched Gauss-Newton."""
    from kinreduce import EntropyClosure, InversionError, RealizabilityError
    from kinreduce.ansatz import _dips_negative

    grid = f0.grid

    def residual(omega, f0_vals):
        f, basis = manifold.jet_batch(omega, grid.nodes)
        w = manifold.weight_batch(omega, grid.nodes)[0]
        return basis[0] @ ((f0_vals - f[0]) * w * grid.weights)

    omegas = np.empty((f0.mesh.cells, manifold.dim))
    for i, f0_vals in enumerate(f0.values):
        rho = float(np.add.reduce(f0_vals * grid.weights))
        if rho <= 0.0:
            raise RealizabilityError(f"cell {i}: vanishing density")
        u = float(np.add.reduce(grid.nodes * f0_vals * grid.weights)) / rho
        theta = float(np.add.reduce((grid.nodes - u) ** 2 * f0_vals * grid.weights)) / rho
        if theta <= 0.0:
            raise RealizabilityError(f"cell {i}: nonpositive temperature")
        if isinstance(manifold, EntropyClosure) and manifold.n < 3:
            omega = np.zeros(manifold.dim)
            omega[0] = np.log(max(rho / (2.0 * grid.half_width), 1e-12))
        else:
            omega = manifold.equilibrium_params(rho, u, theta)
        r = residual(omega, f0_vals)
        for _ in range(50):
            if np.abs(r).max() <= 1e-11 * (1.0 + rho):
                break
            J = np.empty((omega.size, omega.size))
            for j in range(omega.size):
                h = 1e-6 * max(abs(omega[j]), 1.0)
                op, om = omega.copy(), omega.copy()
                op[j] += h
                om[j] -= h
                J[:, j] = (residual(op, f0_vals) - residual(om, f0_vals)) / (2.0 * h)
            try:
                step = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(J, -r, rcond=None)[0]
            for s in 0.5 ** np.arange(13):
                cand = omega + s * step
                try:
                    manifold.check_params(cand)
                    r_try = residual(cand, f0_vals)
                except RealizabilityError:
                    continue
                if np.linalg.norm(r_try) < np.linalg.norm(r):
                    omega, r = cand, r_try
                    break
            else:
                raise InversionError(f"cell {i}: projection Newton stalled")
        else:
            raise InversionError(f"cell {i}: projection Newton did not converge in 50 iterations")
        if _dips_negative(manifold.values_batch(omega, grid.nodes))[0]:
            raise RealizabilityError(f"cell {i}: negative ansatz values")
        omegas[i] = omega
    return omegas
