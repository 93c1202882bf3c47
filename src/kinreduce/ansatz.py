"""Parametrized ansatz manifolds: evaluation, tangent bases, metric
weights and parameter <-> moment conversion.

Three families are provided:

* ``ConservativeMoment(N)``: a Gaussian factor exp(-(xi-u)^2/(2 theta))
  times a free polynomial of degree N; parameters are ordered
  (alpha_0..alpha_N, u, theta), matching the matrix layout used by the
  projection module.  The tangent space at a generic point equals the
  Gaussian times polynomials of degree <= N+2; raw moments c_0..c_{N+2}
  form global coordinates (the chart itself loses rank exactly at
  Maxwellian points when N >= 1, which is why the solver works with the
  monomial frame, see ``moment_frame_grams``).
* ``HermitePerturbation(N)``: a local Maxwellian times a Hermite series
  with the degree-0..2 coefficients pinned by the constraint that
  (rho, u, theta) remain the actual moments; free coefficients start at
  degree 3.
* ``EntropyClosure(n)``: exponential family exp(sum alpha_p xi^{p-1});
  included for structure checks, not production solves.

All realizability checks happen at quadrature nodes only, consistent
with every downstream discrete operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np
import numpy.polynomial.polynomial as P

from .errors import (
    ConfigurationError,
    InversionError,
    ParameterError,
    RealizabilityError,
)
from .kinetic import DistributionField
from .quadrature import QuadratureRule

__all__ = [
    "ConservativeMoment",
    "HermitePerturbation",
    "EntropyClosure",
    "AnsatzPoint",
    "TangentBasis",
    "MetricWeight",
    "evaluate",
    "tangent_basis",
    "metric_weight",
    "params_from_moments",
    "recover_batch",
    "project_initial",
    "sample_valid_point",
    "hermite_polynomial",
]

_WEIGHT_EXP_CAP = 690.0  # log(1e300)

# negative node values within round-off of zero are clipped, anything
# below this (relative) threshold is a genuine realizability violation
_NEGATIVITY_RTOL = 1e-12

# damped Newton on the moment map: iterations, step halvings per
# iteration, and the converged scaled moment residual
_NEWTON_MAX_ITER = 50
_NEWTON_MAX_HALVINGS = 12
_NEWTON_TOL = 1e-11

# chunk sizes that bound the temporaries of the batched inversion:
# rows per pass over the quadrature nodes (results are the same for any
# size), moment rows per chunk of the cold starts' resultant scan (801
# points a row), and start points per Newton solve of a fallback rung
_NODE_PASS_ROWS = 128
_SCAN_CHUNK_ROWS = 16
_RUNG_ROWS = 32


def hermite_polynomials(n: int, x: np.ndarray) -> list[np.ndarray]:
    """He_0..He_n at x by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    he = [np.ones_like(x), x.copy()]
    for j in range(1, n):
        he.append(x * he[j] - j * he[j - 1])
    return he[: n + 1]


def hermite_polynomial(k: int, x: np.ndarray) -> np.ndarray:
    """Probabilists' Hermite polynomial He_k (orthogonal against the
    standard Gaussian with norm k!)."""
    return hermite_polynomials(k, x)[k]


class ConservativeMoment:
    """Gaussian times free degree-N polynomial; omega = (alpha_0..alpha_N, u, theta)."""

    def __init__(self, degree: int):
        if degree < 0:
            raise ParameterError("polynomial degree must be >= 0")
        self.degree = int(degree)
        self.dim = self.degree + 3
        self.n_moments = self.degree + 3  # raw moments c_0..c_{N+2}
        self.name = f"conservative_moment(N={self.degree})"

    # omega layout helpers
    def split(self, omega):
        omega = np.asarray(omega, dtype=float)
        return omega[..., : self.degree + 1], omega[..., -2], omega[..., -1]

    def check_params(self, omega) -> None:
        alpha, _, theta = self.split(np.atleast_2d(omega))
        if np.any(theta <= 0.0) or not np.all(np.isfinite(omega)):
            raise RealizabilityError("ConservativeMoment needs finite omega, theta > 0")

    def _factors(self, omegas: np.ndarray, xi: np.ndarray):
        """xi - u, the Gaussian factor and the polynomial factor on the
        nodes, one row per omega."""
        alpha, u, theta = self.split(omegas)
        c = xi[None, :] - u[:, None]
        gauss = np.exp(-c * c / (2.0 * theta[:, None]))
        poly = np.zeros_like(gauss)
        for k in range(self.degree, -1, -1):  # Horner
            poly = poly * xi[None, :] + alpha[:, k, None]
        return c, gauss, poly

    def values_batch(self, omegas: np.ndarray, xi: np.ndarray) -> np.ndarray:
        omegas = np.atleast_2d(omegas)
        out = np.empty((omegas.shape[0], xi.size))
        for lo in range(0, omegas.shape[0], _NODE_PASS_ROWS):
            _, gauss, poly = self._factors(omegas[lo : lo + _NODE_PASS_ROWS], xi)
            np.multiply(gauss, poly, out=out[lo : lo + _NODE_PASS_ROWS])
        return out

    def values(self, omega, xi):
        return self.values_batch(omega, xi)[0]

    def jet_batch(self, omegas: np.ndarray, xi: np.ndarray):
        """f and the chart tangent basis from one evaluation, shapes
        (m, n) and (m, d, n); f equals ``values_batch``."""
        omegas = np.atleast_2d(omegas)
        _, _, theta = self.split(omegas)
        c, gauss, poly = self._factors(omegas, xi)
        f = gauss * poly
        basis = np.empty((omegas.shape[0], self.dim, xi.size))
        pw = np.ones_like(gauss)
        for k in range(self.degree + 1):
            basis[:, k, :] = gauss * pw
            pw = pw * xi[None, :]
        basis[:, self.degree + 1, :] = c / theta[:, None] * f
        basis[:, self.degree + 2, :] = c * c / (2.0 * theta[:, None] ** 2) * f
        return f, basis

    def tangent_batch(self, omegas: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return self.jet_batch(omegas, xi)[1]

    def tangent(self, omega, xi):
        return self.tangent_batch(omega, xi)[0]

    def weight_batch(self, omegas, xi):
        _, u, theta = self.split(np.atleast_2d(omegas))
        expo = (xi[None, :] - u[:, None]) ** 2 / (2.0 * theta[:, None])
        _guard_weight(expo)
        return np.exp(expo)

    def weight(self, omega, xi):
        return self.weight_batch(omega, xi)[0]

    def monomial_basis(self, omega, xi) -> np.ndarray:
        """Frame (xi^k * Gaussian), k = 0..N+2: spans the tangent space at
        every point, including chart-degenerate Maxwellians."""
        _, u, theta = self.split(np.atleast_2d(omega))
        c = xi - u[0]
        gauss = np.exp(-c * c / (2.0 * theta[0]))
        return np.stack([gauss * xi**k for k in range(self.n_moments)])

    def moment_frame_grams(self, omega, grid: QuadratureRule):
        """Gram matrices (M, V) of the monomial frame under the manifold
        metric: M_kl = int xi^{k+l} G dxi, V_kl = int xi^{k+l+1} G dxi.
        Hankel structure makes them exactly symmetric; M is SPD for any
        (u, theta)."""
        M, V = self.moment_frame_grams_batch(np.atleast_2d(omega), grid)
        return M[0], V[0]

    def moment_frame_grams_batch(self, omegas, grid: QuadratureRule):
        _, u, theta = self.split(np.atleast_2d(omegas))
        powers = _gauss_power_sums(u, theta, grid, 2 * (self.n_moments - 1) + 1)
        k = np.arange(self.n_moments)
        M = powers[:, k[:, None] + k[None, :]]
        V = powers[:, k[:, None] + k[None, :] + 1]
        return M, V

    def raw_moments_batch(self, omegas, grid: QuadratureRule):
        """Raw moments int xi^k f dxi for k = 0..N+2."""
        vals = self.values_batch(omegas, grid.nodes)
        xiP = _xi_powers(grid, self.n_moments - 1)
        return vals @ (xiP * grid.weights).T

    def gaussian_fit(self, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean/variance fits (u, theta) of stacked raw moment rows."""
        C = np.atleast_2d(C)
        u, theta, ok = _gaussian_fit(C)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise RealizabilityError(
                f"row {i}: moments {C[i].tolist()} have no Gaussian fit "
                f"(c0 = {C[i, 0]:.6g}, implied temperature {theta[i]:.6g})"
            )
        return u, theta

    def _varpro_split(self, u, theta, C, grid):
        """With (u, theta) frozen, the alphas matching c_0..c_N solve a
        square SPD Hankel system; returns them with the residual on the
        two remaining moments, one row per (u, theta, C) row."""
        N = self.degree
        pw = _gauss_power_sums(u, theta, grid, 2 * N + 2)
        k = np.arange(N + 1)
        hankel = pw[:, k[:, None] + k[None, :]]
        rhs = C[:, : N + 1]
        alpha = _solve_rows(hankel, rhs, rcond=1e-12)
        # contiguous rows take the same BLAS product as a single row does
        rows = np.ascontiguousarray(pw[:, np.array([N + 1, N + 2])[:, None] + k[None, :]])
        return alpha, (rows @ alpha[..., None])[..., 0] - C[:, N + 1 :]

    def initial_guess(self, C: np.ndarray, grid: QuadratureRule) -> np.ndarray:
        """Variable-projection cold starts for the moment inversion, one
        row of omega per row of raw moments.

        The obvious Gaussian-only guess (alphas zeroed) lies exactly on
        the set where the chart loses rank (d/du and d/dtheta fall into
        the alpha-span), and plain Newton stalls there.  Eliminating
        the alphas by the linear Hankel solve leaves a 2D root-find in
        (u, theta), whose Jacobian degenerates on the same ridge; a
        coarse scan around the Gaussian fit steps off the ridge before
        damped Newton takes over.  Rows run in lockstep, each with its
        own scan, Newton steps and line search.
        """
        C = np.atleast_2d(np.asarray(C, dtype=float))
        u0, th0 = self.gaussian_fit(C)
        omega = np.zeros((C.shape[0], self.dim))
        if self.degree == 0:
            omega[:, 0] = C[:, 0] / np.sqrt(2.0 * np.pi * th0)
            omega[:, -2] = u0
            omega[:, -1] = th0
            return omega

        scale2 = 1.0 + np.abs(C[:, self.degree + 1 :])
        L = grid.half_width

        def norm(v):
            # row by row as the 1-D np.linalg.norm computes it (a dot
            # product), to the last bit: the ridge amplifies round-off
            return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])

        def objective(x, rows):
            _, r2 = self._varpro_split(x[:, 0], x[:, 1], C[rows], grid)
            return norm(r2 / scale2[rows])

        def inside(x):
            return (-L < x[..., 0]) & (x[..., 0] < L)

        x = np.stack([u0, th0], axis=1)
        best_val = objective(x, np.arange(C.shape[0]))
        rows = np.flatnonzero(best_val > 1e-13)
        if rows.size:
            # 7 x 7 scan, u offsets outer, temperature factors inner;
            # the first strict improvement on the Gaussian fit wins
            du = np.linspace(-0.9, 0.9, 7)[None, :] * np.sqrt(th0[rows])[:, None]
            fth = np.geomspace(0.45, 2.2, 7)
            cand = np.empty((rows.size, 7, 7, 2))
            cand[..., 0] = (u0[rows][:, None] + du)[:, :, None]
            cand[..., 1] = (th0[rows][:, None] * fth[None, :])[:, None, :]
            cand = cand.reshape(rows.size, 49, 2)
            vals = np.full((rows.size, 49), np.inf)
            ok = inside(cand)
            vals[ok] = objective(cand[ok], np.repeat(rows, 49)[ok.ravel()])
            vals[~np.isfinite(vals)] = np.inf
            pick = vals.argmin(axis=1)
            low = vals[np.arange(rows.size), pick]
            better = low < best_val[rows]
            x[rows[better]] = cand[better, pick[better]]

        live = np.ones(C.shape[0], dtype=bool)
        levels = 0.5 ** np.arange(25)
        for _ in range(60):
            rows = np.flatnonzero(live)
            if rows.size == 0:
                break
            xr = x[rows]
            _, r2 = self._varpro_split(xr[:, 0], xr[:, 1], C[rows], grid)
            done = np.abs(r2 / scale2[rows]).max(axis=1) < 1e-13
            live[rows[done]] = False
            rows, xr, r2 = rows[~done], xr[~done], r2[~done]
            if rows.size == 0:
                break
            # central differences in u and theta, all four shifts at once
            h = 1e-6 * np.maximum(np.abs(xr), 1e-3)
            shifted = np.repeat(xr[None, :, :], 4, axis=0)
            for d in range(2):
                shifted[2 * d, :, d] += h[:, d]
                shifted[2 * d + 1, :, d] -= h[:, d]
            n = rows.size
            _, r_sh = self._varpro_split(
                shifted[..., 0].ravel(), shifted[..., 1].ravel(), C[np.tile(rows, 4)], grid
            )
            r_sh = r_sh.reshape(4, n, 2)
            J = np.empty((n, 2, 2))
            for d in range(2):
                J[:, :, d] = (r_sh[2 * d] - r_sh[2 * d + 1]) / (2.0 * h[:, d, None])
            step = _solve_rows(J, -r2, rcond=1e-10)
            base = norm(r2 / scale2[rows])
            # the full step first, the remaining halvings in one batch;
            # per row the largest improving level wins
            moved = np.zeros(n, dtype=bool)
            for lv in (levels[:1], levels[1:]):
                idx = np.flatnonzero(~moved)
                if idx.size == 0:
                    break
                trial = xr[idx][None, :, :] + lv[:, None, None] * step[idx][None, :, :]
                ok = inside(trial) & (1e-8 < trial[..., 1]) & (trial[..., 1] < (2.0 * L) ** 2)
                vals = np.full(ok.shape, np.inf)
                owner = np.broadcast_to(rows[idx][None, :], ok.shape)
                vals[ok] = objective(trial[ok], owner[ok])
                improve = vals < base[idx][None, :]
                hit = improve.any(axis=0)
                first = improve.argmax(axis=0)
                x[rows[idx[hit]]] = trial[first[hit], hit]
                moved[idx[hit]] = True
            live[rows[~moved]] = False
        alpha, _ = self._varpro_split(x[:, 0], x[:, 1], C, grid)
        omega[:, : self.degree + 1] = alpha
        omega[:, -2:] = x
        return omega

    def cold_start_candidates(
        self, C: np.ndarray, grid: QuadratureRule
    ) -> list[list[np.ndarray]]:
        """Global (u, theta) candidates for hard cold starts, one list
        per row of raw moments.

        The moments of a Gaussian-times-polynomial have vanishing
        Hermite coefficients of orders N+1 and N+2 around the ansatz's
        own Gaussian factor, which gives two polynomial equations in
        (u, theta).  theta is eliminated with a numerical Sylvester
        resultant; its sign changes along u (on standardized moments)
        locate every simple root, and each surviving theta branch
        yields a candidate chart point.  The variable-projection
        ``initial_guess`` comes last.  The scan, the bisections and the
        refinements run in lockstep over all rows and brackets.
        """
        C = np.atleast_2d(np.asarray(C, dtype=float))
        N = self.degree
        guesses = self.initial_guess(C, grid)
        if N == 0:
            return [[g] for g in guesses]
        u0, th0 = self.gaussian_fit(C)
        s = np.sqrt(th0)
        K = self.n_moments
        # standardized moments row by row in Python floats: the powers
        # of a float round differently from numpy's array powers
        ch = np.array(
            [
                [
                    sum(comb(i, k) * (-u) ** (i - k) * c[k] for k in range(i + 1)) / sd**i
                    for i in range(K)
                ]
                for u, sd, c in zip(u0.tolist(), s, C)
            ]
        )

        def central(ups, chb):
            # central moments about u for points ups on rows chb
            mu = np.zeros((ups.size, N + 3))
            for i in range(N + 3):
                for k in range(i + 1):
                    mu[:, i] += comb(i, k) * (-ups) ** (i - k) * chb[:, k]
            return mu

        def gamma_coefs(mu, m):
            out = np.zeros((mu.shape[0], m // 2 + 1))
            for j in range(m // 2 + 1):
                out[:, j] = (
                    (-1) ** j
                    * factorial(m)
                    / (factorial(j) * factorial(m - 2 * j) * 2**j)
                    * mu[:, m - 2 * j]
                )
            return out

        def resultant(ups, chb):
            mu = central(ups, chb)
            a = gamma_coefs(mu, N + 1)
            b = gamma_coefs(mu, N + 2)
            pdeg, qdeg = a.shape[1] - 1, b.shape[1] - 1
            n = pdeg + qdeg
            S = np.zeros((mu.shape[0], n, n))
            for i in range(qdeg):
                S[:, i, i : i + pdeg + 1] = a[:, ::-1]
            for i in range(pdeg):
                S[:, qdeg + i, i : i + qdeg + 1] = b[:, ::-1]
            return np.linalg.det(S)

        span = 5.0
        us = np.linspace(-span, span, 801)
        R = C.shape[0]
        vals = np.empty((R, us.size))
        for lo in range(0, R, _SCAN_CHUNK_ROWS):
            hi = min(lo + _SCAN_CHUNK_ROWS, R)
            vals[lo:hi] = resultant(
                np.tile(us, hi - lo), np.repeat(ch[lo:hi], us.size, axis=0)
            ).reshape(hi - lo, us.size)

        # simple roots: bisection on every sign change
        fa, fb = vals[:, :-1], vals[:, 1:]
        with np.errstate(invalid="ignore"):
            change = np.isfinite(fa) & np.isfinite(fb) & (np.sign(fa) != np.sign(fb))
        row_b, i_b = np.nonzero(change)
        a, b, fa = us[i_b], us[i_b + 1], vals[row_b, i_b]
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = resultant(mid, ch[row_b])
            same = np.sign(fm) == np.sign(fa)
            a, fa, b = np.where(same, mid, a), np.where(same, fm, fa), np.where(same, b, mid)
        root_b = 0.5 * (a + b)

        # tangential (even-multiplicity) roots never change sign; refine
        # every strict local minimum of |R| and let the downstream
        # Newton polish discard the false positives
        absv = np.abs(vals)
        with np.errstate(invalid="ignore"):
            dip = (absv[:, 1:-1] < absv[:, :-2]) & (absv[:, 1:-1] <= absv[:, 2:])
        row_t, i_t = np.nonzero(dip)
        a, b = us[i_t], us[i_t + 2]
        ch_t = ch[np.concatenate([row_t, row_t])]
        for _ in range(60):
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            f12 = np.abs(resultant(np.concatenate([m1, m2]), ch_t))
            left = f12[: m1.size] < f12[m1.size :]
            b, a = np.where(left, m2, b), np.where(left, a, m1)
        root_t = 0.5 * (a + b)

        # per row: sign-change roots in scan order, then the refined minima
        row_r = np.concatenate([row_b, row_t])
        ups = np.concatenate([root_b, root_t])
        order = np.argsort(row_r, kind="stable")
        row_r, ups = row_r[order], ups[order]
        acoefs = gamma_coefs(central(ups, ch[row_r]), N + 1)
        owner, u_c, th_c = [], [], []
        for r, up, acoef in zip(row_r, ups, acoefs):
            acoef = np.trim_zeros(acoef, "b")
            if acoef.size <= 1:
                continue
            for th in np.polynomial.polynomial.polyroots(acoef):
                if abs(th.imag) > 1e-7 * max(1.0, abs(th.real)) or th.real <= 1e-8:
                    continue
                owner.append(r)
                u_c.append(u0[r] + s[r] * up)
                th_c.append(th0[r] * float(th.real))
        owner = np.array(owner, dtype=int)
        out = [[] for _ in range(R)]
        if owner.size:
            u_c, th_c = np.array(u_c), np.array(th_c)
            alpha, _ = self._varpro_split(u_c, th_c, C[owner], grid)
            for r, al, u, th in zip(owner, alpha, u_c, th_c):
                out[r].append(np.concatenate([al, [u, th]]))
        for r in range(R):
            out[r].append(guesses[r])
        return out

    def equilibrium_params(self, rho: float, u: float, theta: float) -> np.ndarray:
        omega = np.zeros(self.dim)
        omega[0] = rho / np.sqrt(2.0 * np.pi * theta)
        omega[-2] = u
        omega[-1] = theta
        return omega

    def equilibrium_tangent(self) -> np.ndarray:
        """Chart directions spanning the Maxwellian family: alpha_0, u, theta."""
        e = np.zeros((self.dim, 3))
        e[0, 0] = 1.0
        e[-2, 1] = 1.0
        e[-1, 2] = 1.0
        return e

    def sample(self, rng: np.random.Generator, grid: QuadratureRule, **ranges) -> np.ndarray:
        rho_lo, rho_hi = ranges.get("rho_range", (0.5, 2.0))
        u_lo, u_hi = ranges.get("u_range", (-1.0, 1.0))
        th_lo, th_hi = ranges.get("theta_range", (0.5, 1.5))
        for _ in range(500):
            rho = rng.uniform(rho_lo, rho_hi)
            u = rng.uniform(u_lo, u_hi)
            theta = rng.uniform(th_lo, th_hi)
            omega = self.equilibrium_params(rho, u, theta)
            if self.degree > 0:
                # perturbing polynomial in the scaled variable z keeps
                # rejection rates low while leaving the top coefficient
                # large enough for a well-conditioned chart
                s = 2.5 * np.sqrt(theta)
                beta = rng.uniform(-0.3, 0.3, size=self.degree) * 3.0 ** (
                    -np.arange(self.degree)
                )
                if abs(beta[-1]) < 0.05 * 3.0 ** (1 - self.degree):
                    continue
                # coefficients of p(z(xi)) with p = 1 + sum beta_j z^j and
                # z = (xi - u)/s, composed by Horner's rule
                z = np.array([-u / s, 1.0 / s])
                coeffs = np.array([beta[-1]])
                for b in (1.0, *beta)[-2::-1]:
                    coeffs = P.polyadd(b, P.polymul(coeffs, z))
                if P.polyval(grid.nodes, coeffs).min() <= 1e-4:
                    continue  # the polynomial factor must stay positive on [-L, L]
                if coeffs.size < self.degree + 1:
                    coeffs = np.pad(coeffs, (0, self.degree + 1 - coeffs.size))
                omega[: self.degree + 1] = omega[0] * coeffs
            return omega
        raise RuntimeError("failed to sample a valid ConservativeMoment point")


class HermitePerturbation:
    """Local Maxwellian times a Hermite series with constrained low
    orders; omega = (rho, u, theta, alpha_3..alpha_N)."""

    def __init__(self, degree: int):
        if degree < 2:
            raise ParameterError("Hermite perturbation needs degree >= 2")
        self.degree = int(degree)
        self.dim = 3 + (self.degree - 2)
        self.name = f"hermite_perturbation(N={self.degree})"

    def split(self, omega):
        omega = np.asarray(omega, dtype=float)
        return omega[..., 0], omega[..., 1], omega[..., 2], omega[..., 3:]

    def check_params(self, omega) -> None:
        rho, _, theta, _ = self.split(np.atleast_2d(omega))
        if np.any(rho <= 0.0) or np.any(theta <= 0.0) or not np.all(np.isfinite(omega)):
            raise RealizabilityError("HermitePerturbation needs rho > 0, theta > 0")

    def _series(self, alpha, he):
        """The Hermite series s = sum_k alpha_k He_k."""
        s = np.zeros_like(he[0])
        for j, k in enumerate(range(3, self.degree + 1)):
            s += alpha[..., j, None] * he[k]
        return s

    def _dseries(self, alpha, he):
        """ds/dw, by He_k' = k He_{k-1}."""
        ds = np.zeros_like(he[0])
        for j, k in enumerate(range(3, self.degree + 1)):
            ds += alpha[..., j, None] * k * he[k - 1]
        return ds

    def _factors(self, omegas, xi):
        """sqrt(theta), w = (xi - u)/sqrt(theta), the standard Gaussian
        phi(w), He_0..He_N(w) and rho/sqrt(theta), one row per omega."""
        rho, u, theta, _ = self.split(omegas)
        rt = np.sqrt(theta)
        w = (xi[None, :] - u[:, None]) / rt[:, None]
        phi = np.exp(-0.5 * w * w) / np.sqrt(2.0 * np.pi)
        return rt, w, phi, hermite_polynomials(self.degree, w), rho[:, None] / rt[:, None]

    def values_batch(self, omegas, xi):
        omegas = np.atleast_2d(omegas)
        _, _, phi, he, pref = self._factors(omegas, xi)
        return pref * phi * (1.0 + self._series(self.split(omegas)[3], he))

    def values(self, omega, xi):
        return self.values_batch(omega, xi)[0]

    def jet_batch(self, omegas, xi):
        """f and the chart tangent basis from one evaluation, shapes
        (m, n) and (m, d, n); f equals ``values_batch``."""
        omegas = np.atleast_2d(omegas)
        _, _, theta, alpha = self.split(omegas)
        rt, w, phi, he, pref = self._factors(omegas, xi)
        s = self._series(alpha, he)
        ds = self._dseries(alpha, he)
        basis = np.empty((omegas.shape[0], self.dim, xi.size))
        basis[:, 0, :] = phi * (1.0 + s) / rt[:, None]
        # d/du and d/dtheta act through w = (xi-u)/sqrt(theta)
        basis[:, 1, :] = pref / rt[:, None] * phi * (w * (1.0 + s) - ds)
        basis[:, 2, :] = (
            0.5 * pref / theta[:, None] * phi * ((w * w - 1.0) * (1.0 + s) - w * ds)
        )
        for j, k in enumerate(range(3, self.degree + 1)):
            basis[:, 3 + j, :] = pref * phi * he[k]
        return pref * phi * (1.0 + s), basis

    def tangent_batch(self, omegas, xi):
        return self.jet_batch(omegas, xi)[1]

    def tangent(self, omega, xi):
        return self.tangent_batch(omega, xi)[0]

    def weight_batch(self, omegas, xi):
        _, u, theta, _ = self.split(np.atleast_2d(omegas))
        w = (xi[None, :] - u[:, None]) / np.sqrt(theta)[:, None]
        expo = 0.5 * w * w
        _guard_weight(expo)
        return np.exp(expo)

    def weight(self, omega, xi):
        return self.weight_batch(omega, xi)[0]

    def equilibrium_params(self, rho, u, theta):
        omega = np.zeros(self.dim)
        omega[:3] = (rho, u, theta)
        return omega

    def equilibrium_tangent(self):
        e = np.zeros((self.dim, 3))
        e[0, 0] = e[1, 1] = e[2, 2] = 1.0
        return e

    def sample(self, rng, grid, **ranges):
        rho_lo, rho_hi = ranges.get("rho_range", (0.5, 2.0))
        u_lo, u_hi = ranges.get("u_range", (-1.0, 1.0))
        th_lo, th_hi = ranges.get("theta_range", (0.5, 1.5))
        n_free = self.degree - 2
        for _ in range(500):
            rho = rng.uniform(rho_lo, rho_hi)
            u = rng.uniform(u_lo, u_hi)
            theta = rng.uniform(th_lo, th_hi)
            omega = self.equilibrium_params(rho, u, theta)
            w = (grid.nodes - u) / np.sqrt(theta)
            for j, k in enumerate(range(3, self.degree + 1)):
                cap = 0.4 / (n_free * np.abs(hermite_polynomial(k, w)).max())
                omega[3 + j] = rng.uniform(-cap, cap)
            vals = self.values(omega, grid.nodes)
            if vals.min() > 0.0:
                return omega
        raise RuntimeError("failed to sample a valid HermitePerturbation point")


class EntropyClosure:
    """Exponential family exp(sum_p alpha_p xi^{p-1}), p = 1..n, n <= 7."""

    def __init__(self, n_constraints: int):
        if not 1 <= n_constraints <= 7:
            raise ParameterError("EntropyClosure supports 1..7 monomial constraints")
        self.n = int(n_constraints)
        self.dim = self.n
        self.name = f"entropy_closure(n={self.n})"

    def check_params(self, omega) -> None:
        if not np.all(np.isfinite(omega)):
            raise RealizabilityError("EntropyClosure needs finite coefficients")

    def _exponent(self, omegas, xi):
        omegas = np.atleast_2d(omegas)
        expo = np.zeros((omegas.shape[0], xi.size))
        for p in range(self.n - 1, -1, -1):
            expo = expo * xi[None, :] + omegas[:, p, None]
        return expo

    def values_batch(self, omegas, xi):
        expo = self._exponent(omegas, xi)
        if np.any(expo > _WEIGHT_EXP_CAP):
            raise RealizabilityError("EntropyClosure values overflow on the grid")
        return np.exp(expo)

    def values(self, omega, xi):
        return self.values_batch(omega, xi)[0]

    def jet_batch(self, omegas, xi):
        """f and the chart tangent basis (f xi^p), shapes (m, n) and
        (m, d, n)."""
        f = self.values_batch(np.atleast_2d(omegas), xi)
        return f, np.stack([f * xi[None, :] ** p for p in range(self.n)], axis=1)

    def tangent_batch(self, omegas, xi):
        return self.jet_batch(omegas, xi)[1]

    def tangent(self, omega, xi):
        return self.tangent_batch(omega, xi)[0]

    def weight_batch(self, omegas, xi):
        # eta''(f) = 1/f
        expo = -self._exponent(omegas, xi)
        _guard_weight(expo)
        return np.exp(expo)

    def weight(self, omega, xi):
        return self.weight_batch(omega, xi)[0]

    def equilibrium_params(self, rho, u, theta):
        if self.n < 3:
            raise ParameterError("need n >= 3 to represent a Maxwellian")
        omega = np.zeros(self.dim)
        omega[0] = np.log(rho / np.sqrt(2.0 * np.pi * theta)) - u * u / (2.0 * theta)
        omega[1] = u / theta
        omega[2] = -1.0 / (2.0 * theta)
        return omega

    def equilibrium_tangent(self):
        e = np.zeros((self.dim, 3))
        e[0, 0] = e[1, 1] = e[2, 2] = 1.0
        return e

    def sample(self, rng, grid, **ranges):
        rho_lo, rho_hi = ranges.get("rho_range", (0.5, 2.0))
        u_lo, u_hi = ranges.get("u_range", (-1.0, 1.0))
        th_lo, th_hi = ranges.get("theta_range", (0.5, 1.5))
        n_extra = max(self.n - 3, 1)
        for _ in range(500):
            rho = rng.uniform(rho_lo, rho_hi)
            u = rng.uniform(u_lo, u_hi)
            theta = rng.uniform(th_lo, th_hi)
            omega = self.equilibrium_params(rho, u, theta)
            for p in range(3, self.n):
                cap = 0.3 / (n_extra * np.abs(grid.nodes**p).max())
                omega[p] = rng.uniform(-cap, cap)
            return omega
        raise RuntimeError("unreachable")


Manifold = ConservativeMoment | HermitePerturbation | EntropyClosure


@dataclass(frozen=True)
class AnsatzPoint:
    """A point omega on a named ansatz manifold."""

    manifold: Manifold
    omega: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "omega", omega)
        if omega.shape != (self.manifold.dim,):
            raise ParameterError(
                f"omega has shape {omega.shape}, manifold dimension is {self.manifold.dim}"
            )
        self.manifold.check_params(omega)


@dataclass(frozen=True)
class TangentBasis:
    """Rows are the velocity profiles b_k = df/d omega_k on the grid."""

    columns: np.ndarray


@dataclass(frozen=True)
class MetricWeight:
    """Positive profile w with g(h1, h2) = int h1 h2 w dxi."""

    weight: np.ndarray


def _guard_weight(exponent: np.ndarray) -> None:
    mask = exponent > _WEIGHT_EXP_CAP
    if np.any(mask):
        raise ConfigurationError(
            f"metric weight overflows at {int(mask.sum())} nodes; "
            "the velocity truncation is too wide for this temperature"
        )


def _xi_powers(grid: QuadratureRule, upto: int) -> np.ndarray:
    out = np.empty((upto + 1, len(grid)))
    out[0] = 1.0
    for k in range(1, upto + 1):
        out[k] = out[k - 1] * grid.nodes
    return out


def _gauss_power_sums(u, theta, grid: QuadratureRule, top: int) -> np.ndarray:
    """Weighted Gaussian power sums P_j = sum_n w_n xi_n^j G(xi_n; u, theta),
    j = 0..top, one row per (u, theta)."""
    out = np.empty((u.size, top + 1))
    for lo in range(0, u.size, _NODE_PASS_ROWS):
        rows = slice(lo, lo + _NODE_PASS_ROWS)
        c = grid.nodes[None, :] - u[rows, None]
        acc = np.exp(-c * c / (2.0 * theta[rows, None])) * grid.weights[None, :]
        for j in range(top + 1):
            out[rows, j] = np.add.reduce(acc, axis=1)
            acc = acc * grid.nodes[None, :]
    return out


def _gaussian_fit(C: np.ndarray):
    """Mean and variance (u, theta) of raw moment rows, and whether each
    fit is realizable (c0 > 0, theta > 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        u = C[:, 1] / C[:, 0]
        theta = C[:, 2] / C[:, 0] - u * u
    return u, theta, (C[:, 0] > 0.0) & (theta > 0.0)


def _solve_rows(J: np.ndarray, rhs: np.ndarray, rcond: float | None = None) -> np.ndarray:
    """Stacked solves J x = rhs.  A singular row gets the least-squares
    solution at ``rcond``, or NaN when ``rcond`` is None; the other rows
    are solved as if alone."""
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    out = np.full_like(rhs, np.nan)
    for i in range(rhs.shape[0]):
        try:
            out[i] = np.linalg.solve(J[i], rhs[i])
        except np.linalg.LinAlgError:
            if rcond is not None:
                out[i] = np.linalg.lstsq(J[i], rhs[i], rcond=rcond)[0]
    return out


def _dips_negative(vals: np.ndarray) -> np.ndarray:
    """Per row of stacked node values: whether the row dips below zero
    by more than round-off relative to its own maximum."""
    return vals.min(axis=1) < -_NEGATIVITY_RTOL * np.maximum(vals.max(axis=1), 0.0)


def _sign_rule(vals: np.ndarray) -> np.ndarray:
    """The sign rule for stacked node values of the ansatz: a row that
    dips negative (``_dips_negative``) is a realizability error (the
    lowest such row is named); round-off negatives are clipped at zero."""
    bad = _dips_negative(vals)
    if bad.any():
        raise RealizabilityError(
            f"ansatz evaluates to {vals[bad][0].min()} at a quadrature node"
        )
    return np.maximum(vals, 0.0)


def evaluate(p: AnsatzPoint, grid: QuadratureRule) -> np.ndarray:
    """f(xi; omega) on the grid nodes under the sign rule (``_sign_rule``)."""
    return _sign_rule(p.manifold.values_batch(p.omega, grid.nodes))[0]


def tangent_basis(p: AnsatzPoint, grid: QuadratureRule) -> TangentBasis:
    """Analytic partial derivatives df/d omega_k sampled on the grid."""
    return TangentBasis(p.manifold.tangent(p.omega, grid.nodes))


def metric_weight(p: AnsatzPoint, grid: QuadratureRule) -> MetricWeight:
    """Manifold metric weight; overflow at any node is a configuration error."""
    return MetricWeight(p.manifold.weight(p.omega, grid.nodes))


def _ridge_jitters(manifold: ConservativeMoment, omega: np.ndarray, grid: QuadratureRule):
    """Deterministic restarts for iterates stuck on the chart's
    rank-deficient ridge (alphas numerically zero): nudging the alpha
    coefficients makes the Jacobian invertible again while staying in
    the Newton basin of the nearby solution."""
    if manifold.degree == 0:
        return
    alpha0 = omega[0] if omega[0] != 0.0 else 1.0
    span = max(grid.half_width, 1.0)
    deltas = alpha0 * 3e-2 / span ** np.arange(1, manifold.degree + 1)
    for signs in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        cand = omega.copy()
        for k in range(1, manifold.degree + 1):
            cand[k] += signs[(k - 1) % 2] * deltas[k - 1]
        yield cand


def _check_positivity_batch(manifold, omegas, grid, where="recovered parameters"):
    bad = _dips_negative(manifold.values_batch(omegas, grid.nodes))
    if np.any(bad):
        cell = int(np.flatnonzero(bad)[0])
        raise RealizabilityError(f"{where}: negative ansatz values (row {cell})")


def _newton(manifold, targets, omega, grid, require_nonnegative=True):
    """Damped Newton on the moment map, every row in one batch.

    Returns the last iterates (``omega`` is updated in place), whether
    each row converged to a realizable point, and each row's largest
    scaled moment residual.  A row is frozen once no damping level
    improves its residual: its later iterations would repeat that
    failed step.
    """
    xiPw = _xi_powers(grid, targets.shape[1] - 1) * grid.weights
    scale = 1.0 + np.abs(targets)
    r = manifold.values_batch(omega, grid.nodes) @ xiPw.T - targets
    err = (np.abs(r) / scale).max(axis=1)
    live = ~(err <= _NEWTON_TOL)
    for _ in range(_NEWTON_MAX_ITER):
        act = np.flatnonzero(live)
        if act.size == 0:
            break
        om_a = omega[act]
        r_a = r[act]
        sc_a = scale[act]
        tg_a = targets[act]
        basis = manifold.tangent_batch(om_a, grid.nodes)
        J = np.einsum("kn,mdn->mkd", xiPw, basis)
        step = _solve_rows(J, -r_a)
        # near chart-degenerate points the plain solve emits noise steps;
        # fall back to a truncated pseudo-inverse there
        wild = ~np.isfinite(step).all(axis=1)
        wild |= np.abs(step).max(axis=1) > 1e8 * (1.0 + np.abs(om_a).max(axis=1))
        if wild.any():
            pin = np.linalg.pinv(J[wild], rcond=1e-10)
            step[wild] = -(pin @ r_a[wild][..., None])[..., 0]

        best = np.linalg.norm(r_a / sc_a, axis=1)
        accepted = np.zeros(act.size, dtype=bool)
        trial = om_a.copy()

        def try_levels(rows, steps, levels):
            """Evaluate the given damping levels for the given rows in
            one batch; per row the largest improving level wins."""
            cand = om_a[rows][None, :, :] + levels[:, None, None] * steps[None, :, :]
            valid = np.isfinite(cand).all(axis=2)
            if isinstance(manifold, ConservativeMoment):
                valid &= cand[..., -1] > 0.0
            cand_ok = np.where(valid[..., None], cand, om_a[rows][None, :, :])
            r_try = manifold.values_batch(
                cand_ok.reshape(-1, cand_ok.shape[-1]), grid.nodes
            ) @ xiPw.T
            r_try = r_try.reshape(levels.size, rows.size, -1) - tg_a[rows][None, :, :]
            n_try = np.linalg.norm(r_try / sc_a[rows][None, :, :], axis=2)
            improve = valid & (n_try < best[rows][None, :])
            win = improve.any(axis=0)
            first = improve.argmax(axis=0)
            hit = np.flatnonzero(win)
            trial[rows[hit]] = cand_ok[first[hit], hit]
            accepted[rows[hit]] = True

        def damped_round(step_arr):
            # full Newton step first (the common case), remaining
            # halving levels in one batch for the stragglers
            rows = np.flatnonzero(~accepted)
            if rows.size == 0:
                return
            try_levels(rows, step_arr[rows], np.ones(1))
            rows = np.flatnonzero(~accepted)
            if rows.size:
                try_levels(rows, step_arr[rows], 0.5 ** np.arange(1, _NEWTON_MAX_HALVINGS + 1))

        damped_round(step)
        if not accepted.all():
            retry = ~accepted
            pin = np.linalg.pinv(J[retry], rcond=1e-10)
            step_retry = np.zeros_like(step)
            step_retry[retry] = -(pin @ r_a[retry][..., None])[..., 0]
            damped_round(step_retry)
        live[act[~accepted]] = False
        hit = act[accepted]
        omega[hit] = trial[accepted]
        r[hit] = manifold.values_batch(omega[hit], grid.nodes) @ xiPw.T - targets[hit]
        err[hit] = (np.abs(r[hit]) / scale[hit]).max(axis=1)
        live[hit] = ~(err[hit] <= _NEWTON_TOL)
    ok = err <= _NEWTON_TOL
    if require_nonnegative:
        # a row with ok set has finite node values, where this negation
        # of ``_dips_negative`` is exact
        ok &= ~_dips_negative(manifold.values_batch(omega, grid.nodes))
    return omega, ok, err


def _solve_candidates(manifold, targets, candidates, grid, require_nonnegative=True):
    """Batched Newton solves over every row's list of start points, in
    chunks of ``_RUNG_ROWS``: returns the solutions, their success flags
    and the row each came from."""
    owner = np.repeat(np.arange(len(candidates)), [len(c) for c in candidates])
    sol = np.array([c for cands in candidates for c in cands]).reshape(-1, manifold.dim)
    ok = np.zeros(owner.size, dtype=bool)
    for lo in range(0, owner.size, _RUNG_ROWS):
        part = slice(lo, lo + _RUNG_ROWS)
        sol[part], ok[part], _ = _newton(
            manifold, targets[owner[part]], sol[part], grid, require_nonnegative
        )
    return sol, ok, owner


def recover_batch(
    manifold: ConservativeMoment,
    targets: np.ndarray,
    grid: QuadratureRule,
    omega0: np.ndarray | None = None,
    require_nonnegative: bool = True,
) -> np.ndarray:
    """Damped Newton inversion of the moment map for a batch of cells.

    ``targets`` holds raw moments c_0..c_{N+2} per row; rows are solved
    simultaneously.  Rows that stall or end unrealizable go down a
    fallback ladder, each rung solved in batches across all of them:
    ridge-jitter restarts (per row, the solution closest to the stalled
    iterate), then the resultant-scan cold starts (per row, the first
    candidate that converges).  A row that survives no rung raises
    ``InversionError`` naming the first such row, with every failed row
    in ``rows`` and the batch's iterates in ``omega``.
    ``require_nonnegative=False`` admits chart points whose polynomial
    factor dips negative: the conservative solver only consumes signed
    integrals of f and must be able to ride along the realizability
    boundary.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    K = targets.shape[1]
    if K != manifold.n_moments:
        raise ParameterError(f"expected {manifold.n_moments} moments per row, got {K}")
    if omega0 is None:
        omega = manifold.initial_guess(targets, grid)
    else:
        omega = np.atleast_2d(np.asarray(omega0, dtype=float)).copy()
    omega, ok, _ = _newton(manifold, targets, omega, grid, require_nonnegative)
    bad = np.flatnonzero(~ok)
    if bad.size and manifold.degree > 0:
        jitters = [list(_ridge_jitters(manifold, omega[i], grid)) for i in bad]
        sol, sol_ok, owner = _solve_candidates(
            manifold, targets[bad], jitters, grid, require_nonnegative
        )
        for j, i in enumerate(bad):
            hits = np.flatnonzero(sol_ok & (owner == j))
            if hits.size:
                # several jitters may land on different preimages; keep
                # the branch continuous with the stalled iterate
                dist = np.linalg.norm(sol[hits] - omega[i], axis=1)
                omega[i] = sol[hits[np.argmin(dist)]]
                ok[i] = True
        bad = np.flatnonzero(~ok)
    if bad.size:
        bad = bad[_gaussian_fit(targets[bad])[2]]
    if bad.size:
        cands = manifold.cold_start_candidates(targets[bad], grid)
        sol, sol_ok, owner = _solve_candidates(
            manifold, targets[bad], cands, grid, require_nonnegative
        )
        for j, i in enumerate(bad):
            hits = np.flatnonzero(sol_ok & (owner == j))
            if hits.size:
                omega[i] = sol[hits[0]]
                ok[i] = True
    if not ok.all():
        rows = np.flatnonzero(~ok)
        i = int(rows[0])
        raise InversionError(
            f"moment inversion failed at row {i}: no "
            f"{'realizable ' if require_nonnegative else ''}chart point matches "
            f"the moments {targets[i].tolist()}",
            rows=rows,
            omega=omega,
        )
    return omega


def params_from_moments(
    manifold: ConservativeMoment, c: np.ndarray, grid: QuadratureRule
) -> AnsatzPoint:
    """Invert the bijection between ansatz coefficients and the raw
    moments c_0..c_{N+2}."""
    if not isinstance(manifold, ConservativeMoment):
        raise ParameterError("moment inversion is defined for ConservativeMoment")
    c = np.asarray(c, dtype=float)
    if c.shape != (manifold.n_moments,):
        raise ParameterError(f"expected {manifold.n_moments} moments, got {c.shape}")
    omega = recover_batch(manifold, c[None, :], grid)[0]
    return AnsatzPoint(manifold, omega)


def _closest_branch(manifold, omegas, targets, f0_vals, grid):
    """Among the exact preimages of each row's moments, pick the one
    closest to the known data f0 (they share all moments but are
    different functions).  The given solution comes first and the
    cold-start candidates follow in order; ties keep the earlier."""
    dist = ((manifold.values_batch(omegas, grid.nodes) - f0_vals) ** 2) @ grid.weights
    norm = (f0_vals**2) @ grid.weights
    # rows already at the on-manifold fixed point keep it
    rows = np.flatnonzero(~(dist <= 1e-18 * np.maximum(norm, 1e-300)))
    if rows.size == 0:
        return omegas
    cands = manifold.cold_start_candidates(targets[rows], grid)
    sol, ok, owner = _solve_candidates(manifold, targets[rows], cands, grid)
    d = ((manifold.values_batch(sol, grid.nodes) - f0_vals[rows][owner]) ** 2) @ grid.weights
    d[~(ok & np.isfinite(d))] = np.inf
    for j, i in enumerate(rows):
        mine = np.flatnonzero(owner == j)
        k = int(np.argmin(np.concatenate([[dist[i]], d[mine]])))
        if k:
            omegas[i] = sol[mine[k - 1]]
    return omegas


def _projection_residual(manifold, omega, f0_vals, grid):
    basis = manifold.tangent(omega, grid.nodes)
    w = manifold.weight(omega, grid.nodes)
    diff = f0_vals - manifold.values(omega, grid.nodes)
    return basis @ (diff * w * grid.weights)


def _project_newton(manifold, omega, f0_vals, grid, tol_scale):
    """Damped Newton on the metric-orthogonality conditions
    g(f0 - f_hat, b_k) = 0 with a finite-difference Jacobian."""
    omega = omega.copy()
    r = _projection_residual(manifold, omega, f0_vals, grid)
    tol = 1e-11 * tol_scale
    for _ in range(50):
        if np.abs(r).max() <= tol:
            break
        J = np.empty((omega.size, omega.size))
        for j in range(omega.size):
            h = 1e-6 * max(abs(omega[j]), 1.0)
            op = omega.copy()
            op[j] += h
            om = omega.copy()
            om[j] -= h
            J[:, j] = (
                _projection_residual(manifold, op, f0_vals, grid)
                - _projection_residual(manifold, om, f0_vals, grid)
            ) / (2.0 * h)
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        best = np.linalg.norm(r)
        s = 1.0
        for _ in range(13):
            cand = omega + s * step
            try:
                manifold.check_params(cand)
                r_try = _projection_residual(manifold, cand, f0_vals, grid)
            except (RealizabilityError, FloatingPointError):
                s *= 0.5
                continue
            if np.linalg.norm(r_try) < best:
                omega, r = cand, r_try
                break
            s *= 0.5
        else:
            raise InversionError("projection Newton stalled")
    else:
        raise InversionError("projection Newton did not converge in 50 iterations")
    return omega


def project_initial(manifold: Manifold, f0: DistributionField) -> list[AnsatzPoint]:
    """Metric-orthogonal projection of an initial field onto the
    manifold, one point per space cell.

    For ConservativeMoment the metric weight cancels the Gaussian in the
    tangent directions, so the conditions reduce to literal moment
    matching; the other manifolds use damped Newton on the
    orthogonality conditions.
    """
    grid = f0.grid
    points = []
    if isinstance(manifold, ConservativeMoment):
        xiPw = _xi_powers(grid, manifold.n_moments - 1) * grid.weights
        targets = f0.values @ xiPw.T
        fit_ok = _gaussian_fit(targets)[2]
        if not fit_ok.all():
            i = int(np.flatnonzero(~fit_ok)[0])
            raise RealizabilityError(
                f"cell {i}: moments {targets[i].tolist()} have no positive "
                "density and temperature"
            )
        try:
            omegas = recover_batch(manifold, targets, grid)
        except InversionError as exc:
            i = int(exc.rows[0])
            raise InversionError(
                f"cell {i}: initial projection failed, no realizable chart point "
                f"matches the moments {targets[i].tolist()}",
                rows=exc.rows,
                omega=exc.omega,
            ) from exc
        # the moment map is two-to-one over part of the chart; with the
        # data in hand the branch closest to f0 in L2 is canonical
        omegas = _closest_branch(manifold, omegas, targets, f0.values, grid)
        return [AnsatzPoint(manifold, omegas[i]) for i in range(omegas.shape[0])]
    for i in range(f0.mesh.cells):
        f0_vals = f0.values[i]
        rho = float(np.add.reduce(f0_vals * grid.weights))
        if rho <= 0.0:
            raise RealizabilityError(f"cell {i}: vanishing density")
        u = float(np.add.reduce(grid.nodes * f0_vals * grid.weights)) / rho
        theta = float(np.add.reduce((grid.nodes - u) ** 2 * f0_vals * grid.weights)) / rho
        if theta <= 0.0:
            raise RealizabilityError(f"cell {i}: nonpositive temperature")
        if isinstance(manifold, EntropyClosure) and manifold.n < 3:
            omega0 = np.zeros(manifold.dim)
            omega0[0] = np.log(max(rho / (2.0 * grid.half_width), 1e-12))
        else:
            omega0 = manifold.equilibrium_params(rho, u, theta)
        tol_scale = 1.0 + rho
        try:
            omega = _project_newton(manifold, omega0, f0_vals, grid, tol_scale)
        except InversionError as exc:
            raise InversionError(f"cell {i}: {exc}") from exc
        _check_positivity_batch(manifold, omega[None, :], grid, f"cell {i} projection")
        points.append(AnsatzPoint(manifold, omega))
    return points


def sample_valid_point(
    manifold: Manifold,
    rng: np.random.Generator,
    grid: QuadratureRule,
    **ranges,
) -> AnsatzPoint:
    """Random valid point for audits; deterministic given the generator."""
    return AnsatzPoint(manifold, manifold.sample(rng, grid, **ranges))
