"""Stability certification: linearized BGK-family collision operators
at Maxwellians in truncated Hermite spaces (d in {1,2,3}), Rayleigh
quotient checks of the uniform/weak stability conditions, and the
finite-dimensional matrix form of the structural stability conditions.

At a Maxwellian f0 the linearizations are combinations of orthogonal
projectors under the entropy-Hessian metric g(h1,h2) = int h1 h2 / f0:

* BGK:     D = (1/tau) (P_W0 - I)
* Shakhov: D = (1/tau) (P_W0 + (1-Pr) P_W1 - I)
* ES-BGK:  D = (Pr/tau) (P_W0 + (1-1/Pr) P_W2 - I)

where W0 is the equilibrium tangent f0*span{1, xi_j, |xi|^2}, W1 holds
the heat-flux modes and W2 the trace-free stress modes.  All three
satisfy the uniform dissipation bound -(1/tau) min{Pr, 1} on the
complement of W0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np
import scipy.linalg
from numpy.polynomial.hermite import hermgauss

from .ansatz import (
    AnsatzPoint,
    ConservativeMoment,
    Manifold,
    hermite_polynomial,
    sample_valid_point,
)
from .errors import ConfigurationError, ParameterError
from .kinetic import CollisionModel, collision_rate, maxwellian, MomentState
from .projection import assemble_coefficients, coefficients_batch, flux_asymmetry, gram_matrix
from .quadrature import QuadratureRule
# bound here at import, so that wrapping the solver's own names (as
# perfbench/tracing.py does) does not count the audit's calls;
# spectral_radius is not called here, it stays a module attribute
# because perfbench/tracing.py wraps it by name
from .reduced_solver import _cm_speeds, _pencil_radius_batch, spectral_radius  # noqa: F401

__all__ = [
    "HermiteSpace",
    "linearized_collision_matrix",
    "GuscReport",
    "gusc_check",
    "YongReport",
    "yong_conditions_check",
    "assemble_yong_report",
    "SpeedAuditReport",
    "propagation_speed_audit",
    "HyperbolicityReport",
    "hyperbolicity_audit",
]

# sample points per speed-audit pass, to bound its temporaries
_SPEED_PASS_ROWS = 128


def _mgs_orthonormalize(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass; rows in,
    orthonormal rows out (rank-deficient rows dropped)."""
    out = []
    for v in np.atleast_2d(vectors):
        w = v.copy()
        for _ in range(2):
            for u in out:
                w = w - (u @ w) * u
        norm = np.linalg.norm(w)
        if norm > tol * max(np.linalg.norm(v), 1.0):
            out.append(w / norm)
    return np.array(out)


class HermiteSpace:
    """Orthonormal truncated Hermite basis around a Maxwellian.

    Basis functions are f0 * He_k(w) / sqrt(rho k!) with
    w = (xi - u)/sqrt(theta), orthonormal under the entropy-Hessian
    metric.  All inner products reduce to Gaussian expectations of
    Hermite products, evaluated with a tensor Gauss-Hermite rule of
    ``quad_points`` nodes per axis (needs >= K + 2 for exactness).
    """

    def __init__(
        self,
        dimension: int,
        max_degree: int,
        state: MomentState | None = None,
        quad_points: int | None = None,
        metric_scale: float = 1.0,
    ):
        if dimension not in (1, 2, 3):
            raise ParameterError("dimension must be 1, 2 or 3")
        if max_degree < 2:
            raise ParameterError("max_degree must be >= 2 to contain W0")
        if metric_scale <= 0.0:
            raise ParameterError("metric_scale must be positive")
        self.dimension = dimension
        self.max_degree = max_degree
        self.state = state or MomentState(rho=1.0, u=0.0, theta=1.0)
        self.metric_scale = metric_scale
        n1 = quad_points if quad_points is not None else max_degree + 4
        if n1 < max_degree + 2:
            raise ConfigurationError(
                f"quadrature order {n1} insufficient for degree {max_degree}"
            )

        y, wy = hermgauss(n1)
        axis_nodes = np.sqrt(2.0) * y
        axis_prob = wy / np.sqrt(np.pi)  # standard Gaussian expectation
        grids = np.meshgrid(*([axis_nodes] * dimension), indexing="ij")
        self.w_nodes = np.stack([g.ravel() for g in grids], axis=1)  # (M, d)
        probs = np.meshgrid(*([axis_prob] * dimension), indexing="ij")
        self.prob = np.prod(np.stack([p.ravel() for p in probs]), axis=0)

        self.indices = sorted(
            (
                k
                for k in itertools.product(range(max_degree + 1), repeat=dimension)
                if sum(k) <= max_degree
            ),
            key=lambda k: (sum(k), k),
        )
        self.n_basis = len(self.indices)
        basis = np.empty((self.n_basis, self.w_nodes.shape[0]))
        for row, k in enumerate(self.indices):
            vals = np.ones(self.w_nodes.shape[0])
            for axis, kj in enumerate(k):
                vals = vals * hermite_polynomial(kj, self.w_nodes[:, axis])
            basis[row] = vals / np.sqrt(np.prod([factorial(kj) for kj in k]))
        self.basis = basis

        gram = basis @ (basis * self.prob).T
        defect = float(np.abs(gram - np.eye(self.n_basis)).max())
        if defect > 1e-8:
            raise ConfigurationError(
                f"Hermite basis orthonormality defect {defect:.2e}; "
                "increase the quadrature order"
            )
        self.orthonormality_defect = defect

    def coefficients(self, poly_vals: np.ndarray) -> np.ndarray:
        """Coefficients of f0 * s(w) in the orthonormal basis, given the
        values of s on the tensor nodes."""
        scale = np.sqrt(self.state.rho * self.metric_scale)
        return scale * (self.basis @ (self.prob * poly_vals))

    # equilibrium and collision subspaces, expressed through w
    def w0_vectors(self) -> np.ndarray:
        w = self.w_nodes
        cols = [np.ones(w.shape[0])]
        cols += [w[:, j] for j in range(self.dimension)]
        cols.append(np.sum(w * w, axis=1))
        return np.array([self.coefficients(c) for c in cols])

    def w1_vectors(self) -> np.ndarray:
        w = self.w_nodes
        wsq = np.sum(w * w, axis=1)
        cols = [
            w[:, j] * (wsq - (self.dimension + 2.0)) for j in range(self.dimension)
        ]
        return np.array([self.coefficients(c) for c in cols])

    def w2_vectors(self) -> np.ndarray:
        d = self.dimension
        w = self.w_nodes
        wsq = np.sum(w * w, axis=1)
        cols = [d * w[:, j] ** 2 - wsq for j in range(d - 1)]
        cols += [w[:, i] * w[:, j] for i in range(d) for j in range(i + 1, d)]
        if not cols:
            return np.zeros((0, self.n_basis))
        return np.array([self.coefficients(c) for c in cols])

    def projector(self, vectors: np.ndarray) -> np.ndarray:
        if vectors.size == 0:
            return np.zeros((self.n_basis, self.n_basis))
        U = _mgs_orthonormalize(vectors)
        return U.T @ U

    def w0_projector(self) -> np.ndarray:
        return self.projector(self.w0_vectors())


def linearized_collision_matrix(
    model: CollisionModel, space: HermiteSpace
) -> np.ndarray:
    """Matrix of the linearized collision operator at the space's
    Maxwellian, in the orthonormal Hermite basis."""
    eye = np.eye(space.n_basis)
    p0 = space.w0_projector()
    if model.kind == "bgk":
        D = (p0 - eye) / model.tau
    elif model.kind == "shakhov":
        p1 = space.projector(space.w1_vectors())
        D = (p0 + (1.0 - model.prandtl) * p1 - eye) / model.tau
    elif model.kind == "esbgk":
        if model.prandtl < (space.dimension - 1) / space.dimension:
            raise ParameterError(
                f"ES-BGK requires Pr >= (d-1)/d = "
                f"{(space.dimension - 1) / space.dimension}"
            )
        p2 = space.projector(space.w2_vectors())
        D = model.prandtl / model.tau * (p0 + (1.0 - 1.0 / model.prandtl) * p2 - eye)
    else:  # pragma: no cover - CollisionModel already validates
        raise ParameterError(f"unknown collision kind {model.kind!r}")
    return 0.5 * (D + D.T)


@dataclass(frozen=True)
class GuscReport:
    worst_quotient: float
    lambda_claim: float
    passed: bool
    gwsc_passed: bool
    kernel_defect: float


def gusc_check(D: np.ndarray, w0_projector: np.ndarray, lambda_claim: float) -> GuscReport:
    """Rayleigh-quotient audit of the uniform dissipation bound.

    The worst quotient is max x'Dx / |x|^2 over unit x orthogonal to
    W0; the claim passes when it is <= -lambda_claim (+1e-8 slack).
    The kernel defect records how far D is from annihilating W0 in both
    directions."""
    D = np.asarray(D, dtype=float)
    if np.abs(D - D.T).max() > 1e-8 * max(np.abs(D).max(), 1.0):
        raise ParameterError("gusc_check expects a symmetric matrix")
    n = D.shape[0]
    evals, evecs = np.linalg.eigh(w0_projector)
    comp = evecs[:, evals < 0.5]  # orthonormal basis of the complement
    w0 = evecs[:, evals >= 0.5]
    if comp.shape[1] == 0:
        raise ParameterError("W0 fills the whole space; no complement to test")
    worst = float(np.linalg.eigvalsh(comp.T @ D @ comp).max())
    kernel_defect = float(
        max(np.abs(D @ w0).max() if w0.size else 0.0, np.abs(w0_projector @ D).max())
    )
    return GuscReport(
        worst_quotient=worst,
        lambda_claim=float(lambda_claim),
        passed=bool(worst <= -lambda_claim + 1e-8),
        gwsc_passed=bool(worst <= 1e-10),
        kernel_defect=kernel_defect,
    )


@dataclass(frozen=True)
class YongReport:
    block_defect: float
    block_passed: bool
    symmetry_defect: float
    symmetry_passed: bool
    dissipativity_constant: float
    dissipativity_passed: bool
    gwsc_passed: bool


def _a0_orthonormalize(vectors: np.ndarray, a0: np.ndarray, tol=1e-12) -> np.ndarray:
    """MGS in the a0 inner product; columns in, a0-orthonormal columns out."""
    out = []
    for v in vectors.T:
        w = v.copy()
        for _ in range(2):
            for u in out:
                w = w - (u @ a0 @ w) * u
        norm = np.sqrt(max(w @ a0 @ w, 0.0))
        if norm > tol:
            out.append(w / norm)
    return np.array(out).T


def yong_conditions_check(
    a0: np.ndarray,
    a1: np.ndarray,
    qu: np.ndarray,
    equilibrium_basis: np.ndarray,
) -> YongReport:
    """Matrix form of the structural stability conditions.

    ``a0`` is the SPD symmetrizer, ``a1`` the quasi-linear convection
    matrix, ``qu`` the source Jacobian at an equilibrium point and
    ``equilibrium_basis`` spans the equilibrium tangent there.  Checks:
    (i) the similarity-transformed source Jacobian is block diagonal
    with a leading zero block, (ii) a0 a1 = a1^T a0, (iii) a0 qu +
    qu^T a0 <= -c * (projector Gram) on the complement, reporting c.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    qu = np.asarray(qu, dtype=float)
    E = np.atleast_2d(np.asarray(equilibrium_basis, dtype=float))
    if E.shape[0] != a0.shape[0]:
        E = E.T
    n = a0.shape[0]
    if a0.shape != (n, n) or a1.shape != (n, n) or qu.shape != (n, n):
        raise ParameterError("a0, a1, qu must be square and same size")
    if E.shape[0] != n:
        raise ParameterError("equilibrium basis does not match the state dimension")
    try:
        scipy.linalg.cholesky(0.5 * (a0 + a0.T), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ParameterError(f"a0 is not SPD: {exc}") from exc

    # (ii) symmetrizability
    prod = a0 @ a1
    sym_defect = float(np.abs(prod - a1.T @ a0).max())
    sym_scale = max(np.abs(prod).max(), np.finfo(float).tiny)
    symmetry_passed = sym_defect <= 1e-10 * sym_scale

    # adapted a0-orthonormal basis: equilibrium block first
    E_on = _a0_orthonormalize(E, a0)
    r = E_on.shape[1]
    comp_seed = np.eye(n) - E_on @ (E_on.T @ a0)
    C = _a0_orthonormalize(comp_seed, a0)
    T = np.hstack([E_on, C])
    J = T.T @ a0 @ qu @ T  # = P qu P^{-1} with P = T^{-1}
    scale = max(np.abs(J).max(), 1.0)
    block_defect = float(
        max(
            np.abs(J[:r, :]).max() if r else 0.0,
            np.abs(J[r:, :r]).max() if r < n else 0.0,
        )
    )
    block_passed = block_defect <= 1e-8 * scale

    # (iii) dissipativity on the complement
    W = 0.5 * (a0 @ qu + qu.T @ a0)
    Wc = C.T @ W @ C
    if Wc.size:
        c_const = float(-np.linalg.eigvalsh(0.5 * (Wc + Wc.T)).max())
    else:
        c_const = np.inf
    gwsc_passed = bool(np.linalg.eigvalsh(W).max() <= 1e-10 * scale)
    return YongReport(
        block_defect=block_defect,
        block_passed=bool(block_passed),
        symmetry_defect=sym_defect,
        symmetry_passed=bool(symmetry_passed),
        dissipativity_constant=c_const,
        dissipativity_passed=bool(c_const > 0.0),
        gwsc_passed=gwsc_passed,
    )


def _maxwellian_moment_derivatives(rho, u, theta, grid, n_mom):
    """Moments of the Maxwellian and their (rho, u, theta) derivatives."""
    m = MomentState(rho=rho, u=u, theta=theta)
    feq = maxwellian(m, grid)
    c = grid.nodes - u
    xiP = np.stack([grid.nodes**k for k in range(n_mom)])
    base = xiP @ (feq * grid.weights)
    d_rho = base / rho
    d_u = xiP @ (feq * c / theta * grid.weights)
    d_theta = xiP @ (feq * (c * c / (2.0 * theta**2) - 1.0 / (2.0 * theta)) * grid.weights)
    return base, np.stack([d_rho, d_u, d_theta], axis=1)  # (n_mom,), (n_mom, 3)


def _cm_yong_inputs(manifold: ConservativeMoment, model, grid, rho, u, theta):
    """Reduced system at equilibrium in moment coordinates, where the
    chart is regular even though the (alpha, u, theta) chart loses rank
    at Maxwellians."""
    omega = manifold.equilibrium_params(rho, u, theta)
    M, V = manifold.moment_frame_grams(omega, grid)
    Minv = np.linalg.inv(M)
    a0 = 0.5 * (Minv + Minv.T)
    a1 = V @ Minv  # flux Jacobian dF/dc
    K = manifold.n_moments
    base, dE = _maxwellian_moment_derivatives(rho, u, theta, grid, K)
    c0, c1, c2 = base[0], base[1], base[2]
    uu = c1 / c0
    dm_dc = np.zeros((3, K))
    dm_dc[0, 0] = 1.0
    dm_dc[1, 0] = -c1 / c0**2
    dm_dc[1, 1] = 1.0 / c0
    dm_dc[2, 0] = (-c2 + 2.0 * uu * c1) / c0**2
    dm_dc[2, 1] = -2.0 * uu / c0
    dm_dc[2, 2] = 1.0 / c0
    if model.kind == "bgk":
        qu = (dE @ dm_dc - np.eye(K)) / model.tau
    else:
        # finite differences of the moment-space source; the target
        # depends on c only through (rho, u, theta, q)
        def source(cvec):
            rho_ = cvec[0]
            u_ = cvec[1] / rho_
            th_ = cvec[2] / rho_ - u_ * u_
            q_ = 0.0
            if K >= 4:
                q_ = (
                    cvec[3] - 3.0 * u_ * cvec[2] + 3.0 * u_**2 * cvec[1] - u_**3 * cvec[0]
                ) / rho_
            ms = MomentState(rho=rho_, u=u_, theta=th_, heat_flux=q_)
            from .kinetic import collision_target

            tgt = collision_target(model, ms, grid)
            xiP = np.stack([grid.nodes**k for k in range(K)])
            tmom = xiP @ (tgt * grid.weights)
            return collision_rate(model) * (tmom - cvec)

        qu = np.empty((K, K))
        for j in range(K):
            h = 1e-6 * max(abs(base[j]), 1.0)
            cp = base.copy()
            cp[j] += h
            cm = base.copy()
            cm[j] -= h
            qu[:, j] = (source(cp) - source(cm)) / (2.0 * h)
    return a0, a1, qu, dE


def _chart_yong_inputs(manifold, model, grid, rho, u, theta):
    omega = manifold.equilibrium_params(rho, u, theta)
    coef = assemble_coefficients(AnsatzPoint(manifold, omega), None, grid, check_spd=True)
    a0 = coef.a0
    a1 = scipy.linalg.solve(a0, coef.a1, assume_a="pos")

    def rhs(w):
        c = assemble_coefficients(AnsatzPoint(manifold, w), model, grid, check_spd=True)
        return scipy.linalg.solve(c.a0, c.q, assume_a="pos")

    n = manifold.dim
    qu = np.empty((n, n))
    for j in range(n):
        h = 1e-6 * max(abs(omega[j]), 1.0)
        wp = omega.copy()
        wp[j] += h
        wm = omega.copy()
        wm[j] -= h
        qu[:, j] = (rhs(wp) - rhs(wm)) / (2.0 * h)
    return a0, a1, qu, manifold.equilibrium_tangent()


def assemble_yong_report(
    manifold: Manifold,
    model: CollisionModel,
    grid: QuadratureRule,
    rho: float = 1.0,
    u: float = 0.0,
    theta: float = 1.0,
) -> YongReport:
    """Assemble the reduced system at the Maxwellian (rho, u, theta) and
    run the structural stability checks."""
    if isinstance(manifold, ConservativeMoment):
        a0, a1, qu, eq = _cm_yong_inputs(manifold, model, grid, rho, u, theta)
    else:
        a0, a1, qu, eq = _chart_yong_inputs(manifold, model, grid, rho, u, theta)
    return yong_conditions_check(a0, a1, qu, eq)


@dataclass(frozen=True)
class SpeedAuditReport:
    samples: int
    max_radius: float
    bound: float
    margin: float
    passed: bool


def propagation_speed_audit(
    manifold: Manifold,
    samples: int,
    grid: QuadratureRule,
    seed: int = 0,
    bound: float | None = None,
    **ranges,
) -> SpeedAuditReport:
    """Check that reduced propagation speeds never exceed the kinetic
    bound sup |v| = L on the truncated grid; an explicit ``bound``
    below the attainable radius exercises the failure path.  The speeds
    are the ones the solver takes: the monomial-frame pencil for
    ConservativeMoment, the chart pencil (A0, A1) otherwise."""
    if samples < 1:
        raise ParameterError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for lo in range(0, samples, _SPEED_PASS_ROWS):
        omegas = np.stack([
            sample_valid_point(manifold, rng, grid, **ranges).omega
            for _ in range(min(_SPEED_PASS_ROWS, samples - lo))
        ])
        if isinstance(manifold, ConservativeMoment):
            speeds = _cm_speeds(manifold, omegas, grid)
        else:
            coef = coefficients_batch(manifold, omegas, None, grid)
            speeds = _pencil_radius_batch(coef.a0, coef.a1)
        worst = max(worst, float(speeds.max()))
    bound = float(grid.half_width if bound is None else bound)
    return SpeedAuditReport(
        samples=samples,
        max_radius=worst,
        bound=bound,
        margin=bound - worst,
        passed=bool(worst <= bound + 1e-9),
    )


@dataclass(frozen=True)
class HyperbolicityReport:
    samples: int
    max_asymmetry: float
    cholesky_ok: bool
    passed: bool


def hyperbolicity_audit(
    manifold: Manifold,
    samples: int,
    grid: QuadratureRule,
    seed: int = 0,
    **ranges,
) -> HyperbolicityReport:
    """A0 must admit a Cholesky factorization and A1 must be symmetric
    to round-off before symmetrization, across random valid points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(samples):
        p = sample_valid_point(manifold, rng, grid, **ranges)
        try:
            gram_matrix(p, grid)
        except Exception:
            ok = False
        worst = max(worst, flux_asymmetry(p, grid))
    return HyperbolicityReport(
        samples=samples,
        max_asymmetry=worst,
        cholesky_ok=ok,
        passed=bool(ok and worst <= 1e-10),
    )
