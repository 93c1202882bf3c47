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
from functools import cached_property
from math import factorial

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.random import default_rng

from .ansatz import ConservativeMoment, Manifold, hermite_polynomials
from .errors import ConfigurationError, DegenerateChartError, ParameterError
from .kinetic import CollisionModel, _target_linearization, collision_rate
from .projection import (
    _asymmetry, _by_row, _cholesky, _grams, _jet, _metric, _projection_frame, _raw_grams,
    _solve_spd, _symmetrize,
)
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
    "AuditSample",
    "SpeedAuditReport",
    "propagation_speed_audit",
    "HyperbolicityReport",
    "hyperbolicity_audit",
]

# sample points per audit pass, to bound its temporaries
_AUDIT_PASS_ROWS = 128


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
    """Orthonormal truncated Hermite basis around a Maxwellian of unit density.

    Basis functions are f0 * He_k(w) / sqrt(k!) with
    w = (xi - u)/sqrt(theta), orthonormal under the entropy-Hessian
    metric.  All inner products reduce to Gaussian expectations of
    Hermite products, evaluated with a tensor Gauss-Hermite rule of
    K + 4 nodes per axis (exact from K + 2 on).
    """

    def __init__(self, dimension: int, max_degree: int):
        if dimension not in (1, 2, 3):
            raise ParameterError("dimension must be 1, 2 or 3")
        if max_degree < 2:
            raise ParameterError("max_degree must be >= 2 to contain W0")
        self.dimension = dimension
        self.max_degree = max_degree

        y, wy = hermgauss(max_degree + 4)
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
        # He_0..He_K on each axis, once
        he = [hermite_polynomials(max_degree, self.w_nodes[:, axis]) for axis in range(dimension)]
        basis = np.empty((self.n_basis, self.w_nodes.shape[0]))
        for row, k in enumerate(self.indices):
            vals = np.ones(self.w_nodes.shape[0])
            for axis, kj in enumerate(k):
                vals = vals * he[axis][kj]
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
        self._w0_projector = self.projector(self.w0_vectors())
        self._w0_projector.flags.writeable = False

    def coefficients(self, poly_vals: np.ndarray) -> np.ndarray:
        """Coefficients of f0 * s(w) in the orthonormal basis, given the
        values of s on the tensor nodes."""
        return self.basis @ (self.prob * poly_vals)

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
        """The projector onto W0, built once per space; read-only."""
        return self._w0_projector


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
    dissipativity_constant: float | None  # None: the complement is empty
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
    return np.array(out).reshape(-1, vectors.shape[0]).T


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
    qu^T a0 <= -c * (projector Gram) on the complement, reporting c
    (None, and passed, when the equilibrium basis spans the space).
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
    # numpy's Cholesky factors NaN without complaint
    if not np.isfinite(a0).all():
        raise ParameterError("a0 is not SPD: it has NaN or Inf entries")
    try:
        np.linalg.cholesky(0.5 * (a0 + a0.T))
    except np.linalg.LinAlgError as exc:
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
    c_const = float(-np.linalg.eigvalsh(0.5 * (Wc + Wc.T)).max()) if Wc.size else None
    gwsc_passed = bool(np.linalg.eigvalsh(W).max() <= 1e-10 * scale)
    return YongReport(
        block_defect=block_defect,
        block_passed=bool(block_passed),
        symmetry_defect=sym_defect,
        symmetry_passed=bool(symmetry_passed),
        dissipativity_constant=c_const,
        dissipativity_passed=c_const is None or c_const > 0.0,
        gwsc_passed=gwsc_passed,
    )


def _source_jacobian(model, DT, Dm, D, F):
    """Source Jacobian ``D (L F)`` at a Maxwellian, in the coordinates
    of the tangent frame F (n, d) with dual D (d, n), D F = I, where
    L h = rate * (DT (Dm h) - h) is the collision operator linearized
    there (``kinetic._target_linearization``).  Q[f_hat] = 0 at
    equilibrium, so no other term enters; the n x n operator L is never
    formed."""
    return collision_rate(model) * ((D @ DT) @ (Dm @ F) - D @ F)


def _cm_yong_inputs(manifold: ConservativeMoment, model, grid, rho, u, theta):
    """Reduced system at equilibrium in moment coordinates, where the
    chart is regular even though the (alpha, u, theta) chart loses rank
    at Maxwellians.  The dual D holds the moment rows xi^k * w and the
    frame is the projection frame (Gaussian times monomials) normalized
    by its Gram, F = Phi^T M^-1.
    The equilibrium basis is D applied to the target's (rho, u, theta)
    partials."""
    omega = manifold.equilibrium_params(rho, u, theta)
    M, V = (g[0] for g in manifold.moment_frame_grams_batch(omega, grid))
    Minv = np.linalg.inv(M)
    a0 = 0.5 * (Minv + Minv.T)
    a1 = V @ Minv  # flux Jacobian dF/dc
    D = grid.weighted_powers(manifold.n_moments - 1)
    chart = manifold.jet_batch(omega, grid.nodes)[1]
    F = _projection_frame(manifold, chart, grid)[0].T @ Minv
    DT, Dm = _target_linearization(model, rho, u, theta, grid)
    return a0, a1, _source_jacobian(model, DT, Dm, D, F), D @ DT[:, :3]


def _chart_yong_inputs(manifold, model, grid, rho, u, theta):
    """Reduced system at equilibrium in chart coordinates, from one
    evaluation of the chart basis B and the metric-weighted quadrature
    weights mu: the frame is F = B^T and its dual D = A0^-1 B mu."""
    omega = manifold.equilibrium_params(rho, u, theta)[None]
    basis = _jet(manifold, omega, grid)[1]
    mu = _metric(manifold, omega, grid)
    a0, a1 = (_symmetrize(g)[0] for g in _grams(basis, mu, grid.nodes))
    # a0^-1 times the columns of a1 and of the weighted basis rows, both
    # against one factor of a0
    chol = _cholesky(a0)
    a1 = _solve_spd(a0, a1.T, chol).T
    D = _solve_spd(a0, (basis[0] * mu[0]).T, chol).T
    DT, Dm = _target_linearization(model, rho, u, theta, grid)
    qu = _source_jacobian(model, DT, Dm, D, basis[0].T)
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
    run the structural stability checks.  The source Jacobian is the
    analytic linearization of the collision operator at the Maxwellian,
    projected by the manifold's tangent frame; no finite differences."""
    if isinstance(manifold, ConservativeMoment):
        a0, a1, qu, eq = _cm_yong_inputs(manifold, model, grid, rho, u, theta)
    else:
        a0, a1, qu, eq = _chart_yong_inputs(manifold, model, grid, rho, u, theta)
    return yong_conditions_check(a0, a1, qu, eq)


class AuditSample:
    """The points both sampled audits check, drawn once: the first
    ``samples`` rows of the manifold's ``sample_batch`` from
    ``default_rng(seed)``, one call per stack of at most
    ``_AUDIT_PASS_ROWS`` rows.  Each stack's raw (A0, A1) is assembled
    on first use and kept, so the two audits share one assembly."""

    def __init__(self, manifold: Manifold, samples: int, grid: QuadratureRule, seed: int = 0,
                 **ranges):
        if samples < 1:
            raise ParameterError("need at least one sample")
        rng = default_rng(seed)
        self.manifold, self.samples, self.grid = manifold, samples, grid
        self.stacks = [
            manifold.sample_batch(rng, grid, min(_AUDIT_PASS_ROWS, samples - lo), **ranges)
            for lo in range(0, samples, _AUDIT_PASS_ROWS)
        ]

    @cached_property
    def raw_grams(self) -> list:
        """A0 and A1 of each stack, not symmetrized, in stack order."""
        return [_raw_grams(self.manifold, omegas, self.grid) for omegas in self.stacks]


@dataclass(frozen=True)
class SpeedAuditReport:
    samples: int
    max_radius: float
    bound: float
    margin: float
    passed: bool


def propagation_speed_audit(sample: AuditSample, bound: float | None = None) -> SpeedAuditReport:
    """Check that reduced propagation speeds at the ``sample`` points
    never exceed the kinetic bound sup |v| = L on the truncated grid; an
    explicit ``bound`` below the attainable radius exercises the failure
    path.  The speeds are the ones the solver takes: the monomial-frame
    pencil for ConservativeMoment, the chart pencil of the symmetrized
    (A0, A1) otherwise, against the factor of ``coefficients_batch``'s
    Cholesky test."""
    manifold, grid = sample.manifold, sample.grid
    worst = 0.0
    if isinstance(manifold, ConservativeMoment):
        for omegas in sample.stacks:
            worst = max(worst, float(_cm_speeds(manifold, omegas, grid).max()))
    else:
        for raw in sample.raw_grams:
            a0, a1 = (_symmetrize(g) for g in raw)
            chol = _by_row(_cholesky, a0)
            worst = max(worst, float(_pencil_radius_batch(a0, a1, chol).max()))
    bound = float(grid.half_width if bound is None else bound)
    return SpeedAuditReport(
        samples=sample.samples,
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


def hyperbolicity_audit(sample: AuditSample) -> HyperbolicityReport:
    """A0 must admit a Cholesky factorization and A1 must be symmetric
    to round-off before symmetrization, at the ``sample`` points; a
    failed factorization is reported in ``cholesky_ok``, not raised."""
    worst = 0.0
    ok = True
    for a0, a1 in sample.raw_grams:
        try:
            _cholesky(_symmetrize(a0))
        except DegenerateChartError:
            ok = False
        worst = max(worst, float(_asymmetry(a1).max()))
    return HyperbolicityReport(
        samples=sample.samples,
        max_asymmetry=worst,
        cholesky_ok=ok,
        passed=bool(ok and worst <= 1e-10),
    )
