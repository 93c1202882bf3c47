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
  monomial frame, see ``moment_frame_grams_batch``).
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
from math import comb, erf, factorial, pi, sqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigurationError,
    InversionError,
    ParameterError,
    RealizabilityError,
)
from .quadrature import QuadratureRule, integrate, moments
from .workspace import WorkArrays, centered, take

__all__ = [
    "ConservativeMoment",
    "HermitePerturbation",
    "EntropyClosure",
    "AnsatzPoint",
    "recover_batch",
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

# chunk sizes that bound field-sized temporaries: rows per pass over
# the quadrature nodes (profiles, and the power sums of the rows whose
# Gaussian the grid does not resolve; the moment jets of resolved rows
# make no node pass), also rows per round of the audit sampler, moment
# rows per chunk of the cold starts' resultant scan (801 points a row),
# and trial points per moment jet of Newton's line search (whole rows,
# at least one); results are the same for any size
_NODE_PASS_ROWS = 128
_SCAN_CHUNK_ROWS = 16
_TRIAL_POINTS = 1024

# erf(x) rounds to 1.0 in double for x >= 5.92158719579450...
_ERF_ONE = 5.93
_HALF_SQRT_PI = 0.5 * sqrt(pi)

# audit sampling: the default (lo, hi) of each range keyword, and the
# exhaustion rule, a point fails after this many consecutive rejections
_SAMPLE_RANGES = {"rho_range": (0.5, 2.0), "u_range": (-1.0, 1.0), "theta_range": (0.5, 1.5)}
_SAMPLE_MAX_REJECTS = 500


def hermite_polynomials(n: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """He_0..He_n at x by the three-term recurrence, stacked in one
    array of shape (n + 1,) + x.shape, written into ``out`` when given."""
    x = np.asarray(x, dtype=float)
    he = np.empty((n + 1,) + x.shape) if out is None else out
    he[0] = 1.0
    if n >= 1:
        he[1] = x
    for j in range(1, n):
        np.multiply(x, he[j], out=he[j + 1])
        if j > 1:
            # He_0 is spent after the first step: it holds j He_{j-1}
            np.multiply(he[j - 1], j, out=he[0])
        he[j + 1] -= he[0]
    he[0] = 1.0
    return he


def _hermite_coefficients(n: int, width: int) -> np.ndarray:
    """The monomial coefficients of He_0..He_n, rows of ``width`` >= n + 1
    columns, by the recurrence He_{k+1} = w He_k - k He_{k-1}."""
    he = np.zeros((n + 1, width))
    he[0, 0] = 1.0
    for k in range(n):
        he[k + 1, 1:] = he[k, :-1]
        if k:
            he[k + 1] -= k * he[k - 1]
    return he


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

    def _moment_rows(self, C) -> np.ndarray:
        """Raw moment rows c_0..c_{N+2} as a float stack, or
        ParameterError for any other width."""
        C = np.atleast_2d(np.asarray(C, dtype=float))
        if C.ndim != 2 or C.shape[1] != self.n_moments:
            raise ParameterError(
                f"expected rows of {self.n_moments} moments, got shape {C.shape}")
        return C

    def _factors(self, omegas: np.ndarray, xi: np.ndarray, work: WorkArrays | None = None):
        """xi - u, the Gaussian factor and the polynomial factor on the
        nodes, one row per omega."""
        alpha, u, theta = self.split(omegas)
        shape = (omegas.shape[0], xi.size)
        c = centered(xi, u, take(work, "node.c", shape))
        # exp(-c * c / (2 theta))
        gauss = np.negative(c, out=take(work, "node.exp", shape))
        gauss *= c
        gauss /= 2.0 * theta[:, None]
        np.exp(gauss, out=gauss)
        poly = take(work, "cm.poly", shape)
        poly.fill(0.0)
        for k in range(self.degree, -1, -1):  # Horner
            poly *= xi[None, :]
            poly += alpha[:, k, None]
        return c, gauss, poly

    def values_batch(self, omegas: np.ndarray, xi: np.ndarray, work: WorkArrays | None = None):
        omegas = np.atleast_2d(omegas)
        out = take(work, "values", (omegas.shape[0], xi.size))
        for lo in range(0, omegas.shape[0], _NODE_PASS_ROWS):
            _, gauss, poly = self._factors(omegas[lo : lo + _NODE_PASS_ROWS], xi, work)
            np.multiply(gauss, poly, out=out[lo : lo + _NODE_PASS_ROWS])
        return out

    def jet_batch(self, omegas: np.ndarray, xi: np.ndarray, work: WorkArrays | None = None):
        """f and the chart tangent basis from one evaluation, shapes
        (m, n) and (m, d, n); f equals ``values_batch``."""
        omegas = np.atleast_2d(omegas)
        _, _, theta = self.split(omegas)
        c, gauss, poly = self._factors(omegas, xi, work)
        f = np.multiply(gauss, poly, out=take(work, "values", c.shape))
        basis = take(work, "basis", (omegas.shape[0], self.dim, xi.size))
        # the polynomial factor is spent: it holds the powers of xi
        pw = poly
        pw.fill(1.0)
        for k in range(self.degree + 1):
            np.multiply(gauss, pw, out=basis[:, k, :])
            pw *= xi[None, :]
        b = np.divide(c, theta[:, None], out=basis[:, self.degree + 1, :])
        b *= f
        b = np.multiply(c, c, out=basis[:, self.degree + 2, :])
        b /= 2.0 * theta[:, None] ** 2
        b *= f
        return f, basis

    def weight_batch(self, omegas, xi, work: WorkArrays | None = None):
        _, u, theta = self.split(np.atleast_2d(omegas))
        return _maxwellian_weight(u, theta, xi, work)

    def moment_frame_grams_batch(self, omegas, grid: QuadratureRule,
                                 work: WorkArrays | None = None):
        """Gram matrices (M, V) of the monomial frame under the manifold
        metric, one pair per row of ``omegas``: M_kl = int xi^{k+l} G dxi,
        V_kl = int xi^{k+l+1} G dxi, the Hankel matrices of the Gaussian
        power sums (``_frame_power_sums`` in the identity frame).  Hankel
        structure makes them exactly symmetric; M is SPD for any (u,
        theta)."""
        _, u, theta = self.split(np.atleast_2d(omegas))
        powers = _frame_power_sums(0.0, 1.0, u, theta, grid, 2 * (self.n_moments - 1) + 1, work)
        return (np.ascontiguousarray(_hankel(powers, self.n_moments)),
                np.ascontiguousarray(_hankel(powers, self.n_moments, 1)))

    def raw_moments_batch(self, omegas, grid: QuadratureRule):
        """Raw moments int xi^k f dxi for k = 0..N+2."""
        return moments(self.values_batch(omegas, grid.nodes), grid, self.n_moments - 1)

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

    def _fit_alphas(self, u, theta, C, grid):
        """With (u, theta) frozen, the alphas matching c_0..c_N solve a
        square SPD Hankel system of Gaussian power sums; one row of
        alphas per (u, theta, C) row."""
        N = self.degree
        pw = _frame_power_sums(0.0, 1.0, u, theta, grid, 2 * N)
        return _solve_rows(_hankel(pw, N + 1), C[:, : N + 1], rcond=1e-12)

    def initial_guess(self, C: np.ndarray, grid: QuadratureRule) -> np.ndarray:
        """The Gaussian fit as a chart point, one row of omega per row of
        raw moments: (u, theta) from ``gaussian_fit`` and, for N >= 1,
        the alphas that match c_0..c_N with (u, theta) frozen
        (``_fit_alphas``).  It matches c_{N+1} and c_{N+2} too only
        where a preimage has the fitted Gaussian factor, as a
        Maxwellian's does; elsewhere it is Newton's start, and the
        global search is ``cold_start_candidates``."""
        C = self._moment_rows(C)
        u0, th0 = self.gaussian_fit(C)
        omega = np.zeros((C.shape[0], self.dim))
        if self.degree == 0:
            omega[:, 0] = C[:, 0] / np.sqrt(2.0 * np.pi * th0)
        else:
            omega[:, : self.degree + 1] = self._fit_alphas(u0, th0, C, grid)
        omega[:, -2] = u0
        omega[:, -1] = th0
        return omega

    def cold_start_candidates(
        self, C: np.ndarray, grid: QuadratureRule
    ) -> tuple[np.ndarray, np.ndarray]:
        """Global (u, theta) candidates for hard cold starts of stacked
        raw moment rows: ``(owner, starts)``, the row index of each
        candidate and the candidate chart points, shape (n, N+3),
        grouped by row in ascending order and in scan order within a
        row.

        The moments of a Gaussian-times-polynomial have vanishing
        Hermite coefficients of orders N+1 and N+2 around the ansatz's
        own Gaussian factor, which gives two polynomial equations in
        (u, theta).  theta is eliminated with a numerical Sylvester
        resultant; its sign changes along u (on standardized moments)
        locate every simple root, and each surviving theta branch
        yields a candidate chart point (none for N = 0).  The scan, the
        bisections and the refinements run in lockstep over all rows and
        brackets.
        """
        C = self._moment_rows(C)
        N = self.degree
        if N == 0 or not len(C):
            return np.empty(0, dtype=int), np.empty((0, self.dim))
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
            pw = [(-ups) ** e for e in range(N + 3)]
            mu = np.zeros((ups.size, N + 3))
            for i in range(N + 3):
                for k in range(i + 1):
                    mu[:, i] += comb(i, k) * pw[i - k] * chb[:, k]
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

        # simple roots: bisection on every sign change; tangential
        # (even-multiplicity) roots never change sign, so every strict
        # local minimum of |R| is refined by 60 ternary steps, and the
        # downstream Newton polish discards the false positives.  Each
        # step evaluates both in one batch.  The bisection stops once
        # every bracket is stationary, its midpoint an end: a row's
        # resultant is the same in any batch, so the end's sign repeats
        # and further steps would leave the bracket as it is
        fa, fb = vals[:, :-1], vals[:, 1:]
        with np.errstate(invalid="ignore"):
            change = np.isfinite(fa) & np.isfinite(fb) & (np.sign(fa) != np.sign(fb))
        row_b, i_b = np.nonzero(change)
        a, b, fa = us[i_b], us[i_b + 1], vals[row_b, i_b]
        absv = np.abs(vals)
        with np.errstate(invalid="ignore"):
            dip = (absv[:, 1:-1] < absv[:, :-2]) & (absv[:, 1:-1] <= absv[:, 2:])
        row_t, i_t = np.nonzero(dip)
        ta, tb = us[i_t], us[i_t + 2]
        n_b, n_t = row_b.size, row_t.size
        ch_r = ch[np.concatenate([row_b, row_t, row_t])]
        for step in range(80):
            mid = 0.5 * (a + b)
            ternary = step < 60 and n_t > 0
            if ternary:
                m1 = ta + (tb - ta) / 3.0
                m2 = tb - (tb - ta) / 3.0
                f = resultant(np.concatenate([mid, m1, m2]), ch_r)
            elif ((mid == a) | (mid == b)).all():
                break
            else:
                f = resultant(mid, ch_r[:n_b])
            fm = f[:n_b]
            same = np.sign(fm) == np.sign(fa)
            a, fa, b = np.where(same, mid, a), np.where(same, fm, fa), np.where(same, b, mid)
            if ternary:
                f12 = np.abs(f[n_b:])
                left = f12[:n_t] < f12[n_t:]
                tb, ta = np.where(left, m2, tb), np.where(left, ta, m1)
        root_b = 0.5 * (a + b)
        root_t = 0.5 * (ta + tb)

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
        u_c, th_c = np.array(u_c), np.array(th_c)
        return owner, np.column_stack([self._fit_alphas(u_c, th_c, C[owner], grid), u_c, th_c])

    def equilibrium_params(self, rho, u, theta) -> np.ndarray:
        """The Maxwellian (rho, u, theta); arrays give one row each."""
        omega = np.zeros(np.shape(rho) + (self.dim,))
        omega[..., 0] = rho / np.sqrt(2.0 * np.pi * theta)
        omega[..., -2] = u
        omega[..., -1] = theta
        return omega

    def equilibrium_tangent(self) -> np.ndarray:
        """Chart directions spanning the Maxwellian family: alpha_0, u, theta."""
        e = np.zeros((self.dim, 3))
        e[0, 0] = 1.0
        e[-2, 1] = 1.0
        e[-1, 2] = 1.0
        return e

    def sample_batch(
        self, rng: np.random.Generator, grid: QuadratureRule, count: int, **ranges
    ) -> np.ndarray:
        """``count`` random valid points, shape (count, d): a Maxwellian
        from the ranges times p(z) = 1 + sum beta_j z^j in the scaled
        variable z = (xi - u)/s, s = 2.5 sqrt(theta), which keeps
        rejection rates low while leaving the top coefficient large
        enough for a well-conditioned chart; p must stay above 1e-4 on
        the nodes."""
        N = self.degree
        scale = 3.0 ** (-np.arange(N))
        top_min = 0.05 * 3.0 ** (1 - N)

        def trial(x):
            rho, u, theta = x[:, 0], x[:, 1], x[:, 2]
            omegas = self.equilibrium_params(rho, u, theta)
            if N == 0:
                return np.ones(len(x), dtype=bool), omegas
            beta = x[:, 3:] * scale
            s = 2.5 * np.sqrt(theta)
            z0, z1 = (-u / s)[:, None], (1.0 / s)[:, None]
            # coefficients of p(z(xi)), composed by Horner's rule
            coeffs = beta[:, -1:]
            for j in range(N - 2, -2, -1):
                new = np.empty((len(x), coeffs.shape[1] + 1))
                new[:, :1] = (beta[:, j, None] if j >= 0 else 1.0) + coeffs[:, :1] * z0
                new[:, 1:-1] = coeffs[:, 1:] * z0 + coeffs[:, :-1] * z1
                new[:, -1:] = coeffs[:, -1:] * z1
                coeffs = new
            vals = coeffs[:, -1, None] * np.ones(len(grid))
            for k in range(N - 1, -1, -1):
                vals = coeffs[:, k, None] + vals * grid.nodes
            ok = (np.abs(beta[:, -1]) >= top_min) & (vals.min(axis=1) > 1e-4)
            omegas[:, : N + 1] = omegas[:, :1] * coeffs
            return ok, omegas

        return _sample_rounds(self, rng, grid, count, ranges, [-0.3] * N, [0.3] * N, trial)


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

    def _one_plus_series(self, alpha, he, scratch, work):
        """1 + s with the Hermite series s = sum_k alpha_k He_k."""
        s = take(work, "hp.s", scratch.shape)
        s.fill(0.0)
        for j, k in enumerate(range(3, self.degree + 1)):
            s += np.multiply(alpha[..., j, None], he[k], out=scratch)
        s += 1.0
        return s

    def _dseries(self, alpha, he, scratch, work):
        """ds/dw, by He_k' = k He_{k-1}."""
        ds = take(work, "hp.ds", scratch.shape)
        ds.fill(0.0)
        for j, k in enumerate(range(3, self.degree + 1)):
            ds += np.multiply(alpha[..., j, None] * k, he[k - 1], out=scratch)
        return ds

    def _factors(self, omegas, xi, work: WorkArrays | None = None):
        """sqrt(theta), w = (xi - u)/sqrt(theta), the standard Gaussian
        phi(w), He_0..He_N(w) stacked and rho/sqrt(theta), one row per
        omega."""
        rho, u, theta, _ = self.split(omegas)
        shape = (omegas.shape[0], xi.size)
        rt = np.sqrt(theta)
        w = centered(xi, u, take(work, "hp.w", shape))
        w /= rt[:, None]
        # exp(-0.5 * w * w) / sqrt(2 pi)
        phi = np.multiply(-0.5, w, out=take(work, "hp.phi", shape))
        phi *= w
        np.exp(phi, out=phi)
        phi /= np.sqrt(2.0 * np.pi)
        he = take(work, "hp.he", (self.degree + 1,) + shape)
        hermite_polynomials(self.degree, w, out=he)
        return rt, w, phi, he, rho[:, None] / rt[:, None]

    def values_batch(self, omegas, xi, work: WorkArrays | None = None):
        omegas = np.atleast_2d(omegas)
        _, _, phi, he, pref = self._factors(omegas, xi, work)
        tmp = take(work, "hp.scratch", phi.shape)
        s1 = self._one_plus_series(self.split(omegas)[3], he, tmp, work)
        f = np.multiply(pref, phi, out=take(work, "values", phi.shape))
        f *= s1
        return f

    def jet_batch(self, omegas, xi, work: WorkArrays | None = None):
        """f and the chart tangent basis from one evaluation, shapes
        (m, n) and (m, d, n); f equals ``values_batch``."""
        omegas = np.atleast_2d(omegas)
        _, _, theta, alpha = self.split(omegas)
        rt, w, phi, he, pref = self._factors(omegas, xi, work)
        tmp = take(work, "hp.scratch", phi.shape)
        s1 = self._one_plus_series(alpha, he, tmp, work)
        ds = self._dseries(alpha, he, tmp, work)
        basis = take(work, "basis", (omegas.shape[0], self.dim, xi.size))
        # each row of the basis is computed in contiguous arrays and then
        # copied: a ufunc into a strided row buffers every operand.
        # f is scratch until its last line.
        f = take(work, "values", phi.shape)
        # phi (1 + s) / sqrt(theta)
        np.multiply(phi, s1, out=tmp)
        tmp /= rt[:, None]
        basis[:, 0, :] = tmp
        # d/du and d/dtheta act through w = (xi-u)/sqrt(theta):
        # pref / sqrt(theta) phi (w (1 + s) - ds)
        np.multiply(pref / rt[:, None], phi, out=f)
        np.multiply(w, s1, out=tmp)
        tmp -= ds
        f *= tmp
        basis[:, 1, :] = f
        # pref / (2 theta) phi ((w^2 - 1)(1 + s) - w ds)
        np.multiply(0.5 * pref / theta[:, None], phi, out=f)
        np.multiply(w, w, out=tmp)
        tmp -= 1.0
        tmp *= s1
        ds *= w
        tmp -= ds
        f *= tmp
        basis[:, 2, :] = f
        # pref phi He_k, then f = pref phi (1 + s)
        np.multiply(pref, phi, out=f)
        for j, k in enumerate(range(3, self.degree + 1)):
            basis[:, 3 + j, :] = np.multiply(f, he[k], out=tmp)
        f *= s1
        return f, basis

    def polynomial_jet(self, omegas):
        """f and the chart tangent basis of ``jet_batch`` as polynomials
        of degree <= N + 2 in w = (xi - u)/sqrt(theta) times the Gaussian
        G = exp(-w^2 / 2): the coefficient rows (a, B), shapes (m, N + 3)
        and (m, d, N + 3), of f = G sum_i a_i w^i and b_k = G sum_i
        B_ki w^i.  With phi = G / sqrt(2 pi), s the Hermite series and
        pref = rho / sqrt(theta), the rows are jet_batch's four formulas:
        phi (1 + s) / sqrt(theta), pref / sqrt(theta) phi (w (1 + s) - s'),
        pref / (2 theta) phi ((w^2 - 1)(1 + s) - w s') and pref phi He_k.
        Every operation is elementwise over the rows."""
        omegas = np.atleast_2d(omegas)
        rho, _, theta, alpha = self.split(omegas)
        m, D = omegas.shape[0], self.degree + 3
        he = _hermite_coefficients(self.degree, D)
        # 1 + s and s' = sum alpha_k k He_{k-1}
        one = np.zeros((m, D))
        one[:, 0] = 1.0
        ds = np.zeros((m, D))
        for j, k in enumerate(range(3, self.degree + 1)):
            one += alpha[:, j, None] * he[k]
            ds += (k * alpha[:, j])[:, None] * he[k - 1]
        rt = np.sqrt(theta)
        pref = rho / rt / sqrt(2.0 * pi)
        B = np.zeros((m, self.dim, D))
        B[:, 0] = one * (1.0 / (rt * sqrt(2.0 * pi)))[:, None]
        B[:, 1, 1:] = one[:, :-1]
        B[:, 1] -= ds
        B[:, 1] *= (pref / rt)[:, None]
        B[:, 2, 2:] = one[:, :-2]
        B[:, 2] -= one
        B[:, 2, 1:] -= ds[:, :-1]
        B[:, 2] *= (0.5 * pref / theta)[:, None]
        for j, k in enumerate(range(3, self.degree + 1)):
            B[:, 3 + j] = pref[:, None] * he[k]
        return one * pref[:, None], B

    def weight_batch(self, omegas, xi, work: WorkArrays | None = None):
        _, u, theta, _ = self.split(np.atleast_2d(omegas))
        return _maxwellian_weight(u, theta, xi, work)

    def equilibrium_params(self, rho, u, theta):
        omega = np.zeros(np.shape(rho) + (self.dim,))
        omega[..., 0], omega[..., 1], omega[..., 2] = rho, u, theta
        return omega

    def equilibrium_tangent(self):
        e = np.zeros((self.dim, 3))
        e[0, 0] = e[1, 1] = e[2, 2] = 1.0
        return e

    def sample_batch(self, rng, grid, count, **ranges):
        """``count`` random valid points, shape (count, d): a Maxwellian
        from the ranges and each free alpha_k uniform within
        0.4 / (n_free max|He_k(w)|) on the nodes; f must stay positive
        on the nodes."""
        n_free = self.degree - 2

        def trial(x):
            rho, u, theta = x[:, 0], x[:, 1], x[:, 2]
            omegas = self.equilibrium_params(rho, u, theta)
            w = (grid.nodes[None, :] - u[:, None]) / np.sqrt(theta)[:, None]
            he = hermite_polynomials(self.degree, w)
            for j, k in enumerate(range(3, self.degree + 1)):
                cap = 0.4 / (n_free * np.abs(he[k]).max(axis=1))
                omegas[:, 3 + j] = -cap + 2.0 * cap * x[:, 3 + j]
            return self.values_batch(omegas, grid.nodes).min(axis=1) > 0.0, omegas

        return _sample_rounds(
            self, rng, grid, count, ranges, [0.0] * n_free, [1.0] * n_free, trial
        )


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

    def _exponent(self, omegas, xi, out):
        """sum_p alpha_p xi^(p-1) by Horner, into ``out``."""
        out.fill(0.0)
        for p in range(self.n - 1, -1, -1):
            out *= xi[None, :]
            out += omegas[:, p, None]
        return out

    def values_batch(self, omegas, xi, work: WorkArrays | None = None):
        omegas = np.atleast_2d(omegas)
        expo = self._exponent(omegas, xi, take(work, "values", (omegas.shape[0], xi.size)))
        # fmax skips NaN, as the comparison does
        if expo.size and np.fmax.reduce(expo, axis=None) > _WEIGHT_EXP_CAP:
            raise RealizabilityError("EntropyClosure values overflow on the grid")
        return np.exp(expo, out=expo)

    def jet_batch(self, omegas, xi, work: WorkArrays | None = None):
        """f and the chart tangent basis (f xi^p), shapes (m, n) and
        (m, d, n)."""
        f = self.values_batch(np.atleast_2d(omegas), xi, work)
        basis = take(work, "basis", (f.shape[0], self.n, xi.size))
        for p in range(self.n):
            # copied into the strided row: a ufunc there buffers every operand
            basis[:, p, :] = np.multiply(f, xi[None, :] ** p, out=take(work, "ec.row", f.shape))
        return f, basis

    def weight_batch(self, omegas, xi, work: WorkArrays | None = None):
        # eta''(f) = 1/f
        omegas = np.atleast_2d(omegas)
        expo = self._exponent(omegas, xi, take(work, "weight", (omegas.shape[0], xi.size)))
        np.negative(expo, out=expo)
        _guard_weight(expo)
        return np.exp(expo, out=expo)

    def equilibrium_params(self, rho, u, theta):
        if self.n < 3:
            raise ParameterError("need n >= 3 to represent a Maxwellian")
        omega = np.zeros(np.shape(rho) + (self.dim,))
        omega[..., 0] = np.log(rho / np.sqrt(2.0 * np.pi * theta)) - u * u / (2.0 * theta)
        omega[..., 1] = u / theta
        omega[..., 2] = -1.0 / (2.0 * theta)
        return omega

    def equilibrium_tangent(self):
        e = np.zeros((self.dim, 3))
        e[0, 0] = e[1, 1] = e[2, 2] = 1.0
        return e

    def sample_batch(self, rng, grid, count, **ranges):
        """``count`` random points, shape (count, d): a Maxwellian from
        the ranges and each alpha_p, p >= 3, uniform within
        0.3 / (max(n - 3, 1) max|xi^p|) on the nodes; never rejected.
        Needs n >= 3, else ConfigurationError: the points are built on
        a Maxwellian."""
        if self.n < 3:
            raise ConfigurationError(
                f"cannot sample {self.name} points: it needs size >= 3 to represent "
                "a Maxwellian")
        n_extra = max(self.n - 3, 1)
        caps = [0.3 / (n_extra * np.abs(grid.nodes**p).max()) for p in range(3, self.n)]

        def trial(x):
            omegas = self.equilibrium_params(x[:, 0], x[:, 1], x[:, 2])
            omegas[:, 3:] = x[:, 3:]
            return np.ones(len(x), dtype=bool), omegas

        return _sample_rounds(self, rng, grid, count, ranges, [-c for c in caps], caps, trial)


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


def _sample_rounds(manifold, rng, grid, count, ranges, extra_lo, extra_hi, trial):
    """``count`` accepted points of a manifold's sampler, shape (count, d).
    An attempt is one row of ``rng.uniform(lo, hi)``: rho, u and theta
    from the ranges, then the manifold's extra columns; ``trial`` maps a
    block of attempts to (accepted mask, omegas).  A round draws no more
    attempts than there are points missing, nor more than the run of
    rejections left, so the points, their order and the generator's
    final state are those of drawing one attempt at a time."""
    unknown = sorted(set(ranges) - set(_SAMPLE_RANGES))
    if unknown:
        raise ParameterError(
            f"unknown sample range keyword(s) {', '.join(unknown)}; "
            f"expected {', '.join(_SAMPLE_RANGES)}"
        )
    bounds = {key: tuple(ranges.get(key, dflt)) for key, dflt in _SAMPLE_RANGES.items()}
    lo = np.array([b[0] for b in bounds.values()] + list(extra_lo), dtype=float)
    hi = np.array([b[1] for b in bounds.values()] + list(extra_hi), dtype=float)
    out = np.empty((count, manifold.dim))
    done = misses = 0  # misses: rejected attempts since the last accepted one
    while done < count:
        k = min(count - done, _NODE_PASS_ROWS, _SAMPLE_MAX_REJECTS - misses)
        ok, omegas = trial(rng.uniform(lo, hi, size=(k, lo.size)))
        hits = np.flatnonzero(ok)
        out[done : done + hits.size] = omegas[hits]
        done += hits.size
        misses = misses + k if hits.size == 0 else k - 1 - int(hits[-1])
        if misses == _SAMPLE_MAX_REJECTS:
            shown = ", ".join(f"{key}={b}" for key, b in bounds.items())
            raise ConfigurationError(
                f"failed to sample a valid {manifold.name} point: "
                f"{_SAMPLE_MAX_REJECTS} consecutive draws rejected on the velocity "
                f"grid of half width {grid.half_width} with {shown}"
            )
    manifold.check_params(out)
    return out


def _guard_weight(exponent: np.ndarray) -> None:
    # fmax skips NaN, as the comparison does
    if exponent.size and np.fmax.reduce(exponent, axis=None) > _WEIGHT_EXP_CAP:
        raise ConfigurationError(
            f"metric weight overflows at {np.count_nonzero(exponent > _WEIGHT_EXP_CAP)} "
            "nodes; the velocity truncation is too wide for this temperature"
        )


def _maxwellian_weight(u, theta, xi, work: WorkArrays | None = None) -> np.ndarray:
    """The Hessian metric weight at the local Maxwellian, 1/M up to the
    density factor: exp((xi - u)^2 / (2 theta)), one row per (u, theta)."""
    expo = centered(xi, u, take(work, "weight", (u.size, xi.size)))
    np.square(expo, out=expo)
    expo /= 2.0 * theta[:, None]
    _guard_weight(expo)
    return np.exp(expo, out=expo)


def _hankel(powers: np.ndarray, n: int, shift: int = 0) -> np.ndarray:
    """The n x n Hankel matrices H_kl = powers_{k+l+shift} of stacked
    power sums, shape (rows, n, n): a read-only view of ``powers``, row
    k of H the window of n sums from k + shift."""
    return sliding_window_view(powers[:, shift:], n, axis=1)[:, :n]


def _frame_power_sums(center, scale, mean, var, grid: QuadratureRule, top: int,
                      work: WorkArrays | None = None) -> np.ndarray:
    """Power sums R_j = sum_n w_n x_n^j g(x_n), j = 0..top, in the frame
    x = (xi - center) / scale, of the Gaussians g(x) = exp(-(x - mean)^2
    / (2 var)), one row per (mean, var), shape (rows, top + 1), stored
    rows last (the transpose of a (top + 1, rows) array).  ``center``
    and ``scale`` are arrays of the rows or scalars.

    ConservativeMoment takes its raw sums P_j(u, theta) in the identity
    frame, (center, scale, mean, var) = (0, 1, u, theta).
    HermitePerturbation takes them in the frame of its Gaussian's own u
    and sqrt(theta), mean 0 and var 1, where the sums are centered and
    scaled: they do not lose digits to cancellation at large |u| /
    sqrt(theta), as raw sums turned central would.

    Where the composite Gauss-Legendre rule on [-L, L] resolves the
    Gaussian, sqrt(theta) >= 2h for cells of width h, with theta =
    scale^2 var its variance in xi, the sums are the integrals over
    [-L, L] to round-off, and the truncated-normal recurrence
    (``_frame_recurrence``) stands in for them up to sqrt(theta) = L/2:
    the upward recurrence cancels for wider Gaussians (4e-11 of sum w
    |xi|^j G at sqrt(theta) = L, j <= 13).  Other rows, and grids that
    are not a composite rule on [-L, L], take the node pass
    (``_frame_node_sums``).  The split and both kernels act row by row,
    so a row rounds the same in any batch."""
    theta = scale * scale * var
    if grid.domain == "truncated" and grid.cells:
        L = grid.half_width
        fit = (theta >= (4.0 * L / grid.cells) ** 2) & (theta <= 0.25 * L * L)
    else:
        fit = np.zeros(theta.size, dtype=bool)
    if fit.size and fit.all():
        Z = take(work, "power.sums", (2 * top + 1, fit.size))
        return _frame_recurrence(center, scale, mean, var, L, top, Z, work).T
    center, scale = np.broadcast_to(center, fit.shape), np.broadcast_to(scale, fit.shape)
    P = take(work, "power.split", (top + 1, fit.size))
    if fit.any():
        Z = take(work, "power.sums", (2 * top + 1, np.count_nonzero(fit)))
        P[:, fit] = _frame_recurrence(center[fit], scale[fit], mean[fit], var[fit], L, top, Z,
                                      work)
    _frame_node_sums(center, scale, mean, var, grid, np.flatnonzero(~fit), P, work)
    return P.T


def _frame_recurrence(center, scale, mean, var, L: float, top: int, Z: np.ndarray,
                      work: WorkArrays | None = None) -> np.ndarray:
    """R_j = scale I_j, j = 0..top, rows last, with I_j = int_a^b x^j g(x)
    dx over the frame's image [a, b] of [-L, L]: the truncated-normal
    moment recurrence (integration by parts; Johnson, Kotz &
    Balakrishnan 1994, ch. 13), with g_a = g(a) and g_b = g(b):

        I_0 = sqrt(pi var / 2) (erf((b - mean) / sqrt(2 var))
                                + erf((mean - a) / sqrt(2 var))),
        I_m = mean I_{m-1} + (m - 1) var I_{m-2}
              - var (b^{m-1} g_b - a^{m-1} g_a).

    ``Z`` has 2 top + 1 rows: I_j goes to Z[2j] and the boundary term of
    I_{j+2} to Z[2j + 1] (``_recurrence_steps``); the result is the view
    Z[::2], scaled in place.  Every operation is elementwise over the
    rows."""
    b = (L - center) / scale
    a = (-L - center) / scale
    ends = np.empty((2, var.size))
    np.subtract(b, mean, out=ends[0])
    np.subtract(mean, a, out=ends[1])
    # var g_b and var g_a, exp((x - mean)^2 / -(2 var)) var at x = b, a
    g = np.multiply(ends, ends)
    g /= -2.0 * var
    np.exp(g, out=g)
    g *= var
    # the erf arguments; erf is 1.0 in double beyond _ERF_ONE (NaN
    # arguments take erf too)
    s = np.sqrt(2.0 * var)
    ends /= s
    erfs = _erf_to_one(ends)
    np.multiply(_HALF_SQRT_PI, s, out=Z[0])
    Z[0] *= np.add(erfs[0], erfs[1], out=erfs[0])
    if top:
        # var b^k g_b and var a^k g_a, k = 0..top-1, the powers by
        # repeated products (``ends`` now holds b and a); B_{k+1} is
        # their difference, B_1 parked in Z[1] until B_2 takes it
        gp = take(work, "power.ends", (top, 2, var.size))
        gp[0] = g
        ends[0] = b
        ends[1] = a
        for k in range(1, top):
            np.multiply(gp[k - 1], ends, out=gp[k])
        np.subtract(g[0], g[1], out=Z[1])
        np.multiply(mean, Z[0], out=Z[2])
        Z[2] -= Z[1]
        np.subtract(gp[1:, 0], gp[1:, 1], out=Z[1 : 2 * top - 2 : 2])
        _recurrence_steps(Z, mean, var, top)
    # the spent boundary terms scale too: one pass over contiguous Z
    Z *= scale
    return Z[::2]


def _recurrence_steps(Z: np.ndarray, mean, var, top: int) -> None:
    """The steps m = 2..top of a truncated-normal moment recurrence,
    P_m = (m - 1) var P_{m-2} - B_m + mean P_{m-1}, rows last: ``Z``
    holds P_j at Z[2j] (P_0 and P_1 given) and the boundary term B_m at
    Z[2m - 3], so each step sums its window Z[2m - 4 : 2m - 1] in that
    order from 0.0.  Every operation is elementwise over the rows."""
    coef = np.empty((max(top - 1, 0), 3, mean.size))
    np.multiply(np.arange(1.0, top)[:, None], var, out=coef[:, 0])
    coef[:, 1] = -1.0
    coef[:, 2] = mean
    terms = np.empty((3, mean.size))
    for k in range(2, top + 1):
        np.multiply(coef[k - 2], Z[2 * k - 4 : 2 * k - 1], out=terms)
        np.add.reduce(terms, axis=0, out=Z[2 * k], initial=0.0)


def _erf_to_one(x: np.ndarray) -> np.ndarray:
    """erf of an array, called only where x < _ERF_ONE: erf is 1.0 in
    double beyond (NaN arguments take erf too)."""
    near = ~(x >= _ERF_ONE)
    out = np.ones(x.shape)
    if near.any():
        out[near] = [erf(v) for v in x[near].tolist()]
    return out


def _frame_node_sums(center, scale, mean, var, grid: QuadratureRule, rows: np.ndarray,
                     out: np.ndarray, work: WorkArrays | None = None) -> None:
    """The power sums of the frame's ``rows`` by passes over the
    quadrature nodes, written to out[:, rows]: the ``integrate`` of
    x^j g(x), one power j at a time, in one (row chunk, nodes) array."""
    for lo in range(0, rows.size, _NODE_PASS_ROWS):
        r = rows[lo : lo + _NODE_PASS_ROWS]
        shape = (r.size, grid.nodes.size)
        x = centered(grid.nodes, center[r], take(work, "node.c", shape))
        x /= scale[r, None]
        # exp((x - mean)^2 / -(2 var))
        g = np.subtract(x, mean[r, None], out=take(work, "node.exp", shape))
        g *= g
        g /= -2.0 * var[r, None]
        np.exp(g, out=g)
        out[0, r] = integrate(g, grid)
        for j in range(1, out.shape[0]):
            g *= x
            out[j, r] = integrate(g, grid)


def _moment_jet(manifold: ConservativeMoment, omegas: np.ndarray, grid: QuadratureRule,
                work: WorkArrays | None = None):
    """Raw moments c_0..c_{N+2} of stacked chart points and their chart
    Jacobians, shapes (m, K) and (m, K, d), from the Gaussian power sums
    P_j (``_frame_power_sums`` in the identity frame).  On the grid c_k =
    sum_j alpha_j P_{j+k}, and d/du and d/dtheta act on the Gaussian as
    (xi - u)/theta and (xi - u)^2/(2 theta^2).  The sums over j are
    elementwise, in a fixed order from 0.0, so each row's bits do not
    depend on its batch."""
    N, K = manifold.degree, manifold.n_moments
    alpha, u, theta = manifold.split(omegas)
    P = _frame_power_sums(0.0, 1.0, u, theta, grid, 2 * N + 4, work)
    # p_i[j, k] = P_{j+k+i}, gathered once, rows last
    idx = np.arange(N + 1)[:, None] + np.arange(K + 2)
    G = np.take(P.T, idx, axis=0, out=take(work, "jet.gather", idx.shape + u.shape))
    p0, p1, p2 = G[:, :K], G[:, 1 : K + 1], G[:, 2:]
    # alpha_j times sum w xi^(j+k) (xi - u)^i G for i = 0, 1, 2
    terms = take(work, "jet.terms", (4,) + p0.shape)
    terms[0] = p0
    e1 = np.subtract(p1, np.multiply(u, p0, out=terms[1]), out=terms[1])
    np.subtract(p2, np.multiply(u, p1, out=terms[2]), out=terms[2])
    terms[2] -= np.multiply(u, e1, out=terms[3])
    terms[:3] *= np.ascontiguousarray(alpha.T)[:, None, :]
    # sums over j from 0.0, j outer to the contiguous rows: sequential
    c, d_u, d_theta = np.add.reduce(terms[:3], axis=1, initial=0.0)
    J = take(work, "jet.J", (manifold.dim, K, len(u)))
    J[: N + 1] = p0
    np.divide(d_u, theta, out=J[-2])
    np.divide(d_theta, 2.0 * theta * theta, out=J[-1])
    return c.T.copy(), J.transpose(2, 1, 0).copy()


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


def _sign_rule(vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sign rule for stacked node values of the ansatz: a row that
    dips negative (``_dips_negative``) is a realizability error (the
    lowest such row is named); round-off negatives are clipped at zero,
    into ``out`` when given (``vals`` itself may be given)."""
    bad = _dips_negative(vals)
    if bad.any():
        raise RealizabilityError(
            f"ansatz evaluates to {vals[bad][0].min()} at a quadrature node"
        )
    return np.maximum(vals, 0.0, out=out)


def _ridge_jitters(manifold: ConservativeMoment, omegas: np.ndarray, grid: QuadratureRule):
    """Deterministic restarts for iterates stuck on the chart's
    rank-deficient ridge (alphas numerically zero): nudging the alpha
    coefficients makes the Jacobian invertible again while staying in
    the Newton basin of the nearby solution.  Four restarts per row of
    ``omegas``, shape (rows, 4, N+3): alpha_1..alpha_N moved by
    +-alpha_0 3e-2 / L^k, the odd and even orders' signs in the
    patterns (+, +), (-, +), (+, -), (-, -)."""
    N = manifold.degree
    alpha0 = np.where(omegas[:, 0] != 0.0, omegas[:, 0], 1.0)
    deltas = alpha0[:, None] * 3e-2 / max(grid.half_width, 1.0) ** np.arange(1, N + 1)
    signs = np.array([(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)])[:, np.arange(N) % 2]
    out = np.repeat(omegas[:, None, :], 4, axis=1)
    out[:, :, 1 : N + 1] += signs * deltas[:, None, :]
    return out


def _newton(manifold, targets, omega, grid, require_nonnegative=True, work=None, jet=None):
    """Damped Newton on the moment map, every row in one batch.

    Returns the last iterates (``omega`` is updated in place), whether
    each row converged to a realizable point, each row's largest scaled
    moment residual and the iterates' moment jet (c, J).  Each round's
    line search makes two batched ``_moment_jet`` evaluations: the full
    step of every live row, then all halvings of the rows it did not
    improve; per row the largest improving level wins, and its trial
    point, moments and Jacobian are the next iterate as they stand.
    ``jet``, the start points' jet when known, spares the first
    evaluation.  A row's arithmetic is its own: its result depends only
    on its moments and start point, not on the rows batched with it.  A
    row is frozen once no damping level improves its residual: its
    later iterations would repeat that failed step.
    """
    scale = 1.0 + np.abs(targets)
    c, J = (a.copy() for a in jet) if jet else _moment_jet(manifold, omega, grid, work)
    err = (np.abs(c - targets) / scale).max(axis=1)
    live = ~(err <= _NEWTON_TOL)
    levels = 0.5 ** np.arange(_NEWTON_MAX_HALVINGS + 1)
    for _ in range(_NEWTON_MAX_ITER):
        act = np.flatnonzero(live)
        if act.size == 0:
            break
        om_a, J_a = omega[act], J[act]
        sc_a, tg_a = scale[act], targets[act]
        r_a = c[act] - tg_a
        step = _solve_rows(J_a, -r_a)
        # near chart-degenerate points the plain solve emits noise steps:
        # such a wild row skips the plain round for the pseudo-inverse's
        wild = ~np.isfinite(step).all(axis=1)
        wild |= np.abs(step).max(axis=1) > 1e8 * (1.0 + np.abs(om_a).max(axis=1))
        best = np.linalg.norm(r_a / sc_a, axis=1)
        accepted = wild.copy()  # the wild rows sit the plain round out

        def damped_round(steps):
            # the full step, then every halving of the rows it leaves
            # unimproved in one batch, whole rows of at most
            # _TRIAL_POINTS trial points per jet; per row the largest
            # improving level wins, and its moments and Jacobian are kept
            for lv in (levels[:1], levels[1:]):
                todo = np.flatnonzero(~accepted)
                chunk = max(1, _TRIAL_POINTS // lv.size)
                for lo in range(0, todo.size, chunk):
                    rows = todo[lo : lo + chunk]
                    base = om_a[rows][None, :, :]
                    cand = base + lv[:, None, None] * steps[rows][None, :, :]
                    valid = np.isfinite(cand).all(axis=2) & (cand[..., -1] > 0.0)
                    cand = np.where(valid[..., None], cand, base)
                    # a trial point far out may overflow its jet; its
                    # residual is then not finite, never an improvement
                    with np.errstate(over="ignore", invalid="ignore"):
                        c_t, J_t = _moment_jet(manifold, cand.reshape(-1, manifold.dim),
                                               grid, work)
                        c_t = c_t.reshape(lv.size, rows.size, -1)
                        r_t = c_t - tg_a[rows][None, :, :]
                        n_t = np.linalg.norm(r_t / sc_a[rows][None, :, :], axis=2)
                    improve = valid & (n_t < best[rows][None, :])
                    hit = np.flatnonzero(improve.any(axis=0))
                    first = improve.argmax(axis=0)[hit]
                    dest = act[rows[hit]]
                    omega[dest] = cand[first, hit]
                    c[dest] = c_t[first, hit]
                    J[dest] = J_t[first * rows.size + hit]
                    accepted[rows[hit]] = True

        damped_round(step)
        accepted &= ~wild
        if not accepted.all():
            # a truncated pseudo-inverse step for the wild rows and the
            # rows the plain step left unimproved; damped_round drops
            # its non-finite steps
            retry = ~accepted
            with np.errstate(over="ignore", invalid="ignore"):
                pin = np.linalg.pinv(J_a[retry], rcond=1e-10)
                step[retry] = -(pin @ r_a[retry][..., None])[..., 0]
            damped_round(step)
        live[act[~accepted]] = False
        hit = act[accepted]
        err[hit] = (np.abs(c[hit] - targets[hit]) / scale[hit]).max(axis=1)
        live[hit] = ~(err[hit] <= _NEWTON_TOL)
    ok = err <= _NEWTON_TOL
    if require_nonnegative:
        # a row with ok set has finite node values, where this negation
        # of ``_dips_negative`` is exact
        ok &= ~_dips_negative(manifold.values_batch(omega, grid.nodes, work))
    return omega, ok, err, (c, J)


def recover_batch(
    manifold: ConservativeMoment,
    targets: np.ndarray,
    grid: QuadratureRule,
    omega0: np.ndarray | None = None,
    require_nonnegative: bool = True,
    work: WorkArrays | None = None,
    jet0=None, return_jet=False,
):
    """Damped Newton inversion of the moment map for a batch of cells.

    ``targets`` holds raw moments c_0..c_{N+2} per row; rows are solved
    simultaneously from ``omega0``, one finite row per target, or else
    from the Gaussian-fit guess (``initial_guess``).  Rows that stall
    or end unrealizable go down two more rungs, each one batched Newton
    over all the rows that reach it: the four ridge-jitter restarts of
    each stalled iterate (per row, the converged restart nearest that
    iterate), then the resultant-scan cold starts, by position: one
    batch per candidate position, and a row leaves once one of its
    candidates converges.  A row's result depends bit for bit only on
    its own moments and warm start, never on the rows batched with it
    or on how the rungs are scheduled; near the Maxwellian fold that
    row's own round-off still picks the preimage.  A row that survives
    no rung raises ``InversionError`` naming the first such row, with
    every failed row in ``rows`` and the batch's iterates in ``omega``.
    ``require_nonnegative=False`` admits chart points whose polynomial
    factor dips negative: the conservative solver only consumes signed
    integrals of f and must be able to ride along the realizability
    boundary.  ``work`` holds the work arrays of Newton's power sums.
    ``jet0``, the moment jet (c, J) of ``omega0``, spares Newton its
    first evaluation and changes no bit; ``return_jet`` returns (omega,
    its jet) for the next recovery.
    """
    targets = manifold._moment_rows(targets)
    if omega0 is None:
        omega = manifold.initial_guess(targets, grid)
    else:
        omega = np.atleast_2d(np.asarray(omega0, dtype=float)).copy()
        if omega.shape != (targets.shape[0], manifold.dim):
            raise ParameterError(f"omega0 has shape {omega.shape}, expected "
                                 f"{(targets.shape[0], manifold.dim)}")
        bad = np.flatnonzero(~np.isfinite(omega).all(axis=1))
        if bad.size:
            raise ParameterError(f"omega0 row {bad[0]} is not finite: {omega[bad[0]].tolist()}")
    omega, ok, _, (c, J) = _newton(manifold, targets, omega, grid, require_nonnegative, work,
                                   jet0)

    def keep(rows, sol, jet, picks):  # a rung's solutions replace the iterates
        omega[rows], c[rows], J[rows] = sol[picks], jet[0][picks], jet[1][picks]
        ok[rows] = True

    bad = np.flatnonzero(~ok)
    if bad.size and manifold.degree > 0:
        jitters = _ridge_jitters(manifold, omega[bad], grid)
        sol, sol_ok, _, jet = _newton(manifold, np.repeat(targets[bad], 4, axis=0),
                                      jitters.reshape(-1, manifold.dim), grid,
                                      require_nonnegative, work)
        # several jitters may land on different preimages; keep the
        # branch continuous with the stalled iterate
        sol_ok = sol_ok.reshape(-1, 4)
        dist = np.linalg.norm(sol.reshape(jitters.shape) - omega[bad, None, :], axis=2)
        pick = np.argmin(np.where(sol_ok, dist, np.inf), axis=1)
        hit = sol_ok.any(axis=1)
        keep(bad[hit], sol, jet, 4 * np.flatnonzero(hit) + pick[hit])
        bad = bad[~hit]
    if bad.size:
        bad = bad[_gaussian_fit(targets[bad])[2]]
    if bad.size:
        owner, starts = manifold.cold_start_candidates(targets[bad], grid)
        # each candidate's position within its row's run of candidates
        pos = np.arange(owner.size) - np.searchsorted(owner, owner)
        for p in range(pos.max(initial=-1) + 1):
            mine = np.flatnonzero((pos == p) & ~ok[bad[owner]])
            if not mine.size:
                break
            rows = bad[owner[mine]]
            sol, sol_ok, _, jet = _newton(manifold, targets[rows], starts[mine], grid,
                                          require_nonnegative, work)
            keep(rows[sol_ok], sol, jet, sol_ok)
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
    return (omega, (c, J)) if return_jet else omega
