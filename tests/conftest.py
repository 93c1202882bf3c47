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
    basis = manifold.tangent(omega, xi)
    mu = weight * grid.weights
    a0 = np.einsum("kn,n,ln->kl", basis, mu, basis)
    a1 = np.einsum("kn,n,ln->kl", basis, mu * xi, basis)
    q, q_scale = np.zeros(manifold.dim), 0.0
    if model is not None:
        vals = manifold.values(omega, xi)
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
    chart = manifold.tangent(omega, xi)
    h = xi * (grad @ chart)
    if model is not None:
        h = h - collision_profile(model, manifold.values(omega, xi), grid)
    if isinstance(manifold, ConservativeMoment):
        basis = manifold.monomial_basis(omega, xi)
    else:
        basis = chart
    mu = manifold.weight(omega, xi) * grid.weights
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

        def jet_batch(self, omegas, xi):
            f, basis = original(self, omegas, xi)
            if basis.shape[0] == cells:
                if call is None or len(seen) == call:
                    basis[cell, 0, :] = 0.0
                seen.append(1)
            return f, basis

        monkeypatch.setattr(HermitePerturbation, "jet_batch", jet_batch)

    return install
