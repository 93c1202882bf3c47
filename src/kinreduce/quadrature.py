"""Deterministic quadrature rules on a truncated ordinate interval and
Gauss-Hermite rules for the stability audits.

The truncated rule is a composite 4-point Gauss-Legendre rule on a
uniform partition of [-L, L]; it is exact for piecewise polynomials of
degree <= 7 per cell, which covers the polynomial-times-Gaussian
integrands the projection assembly produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import ParameterError

__all__ = [
    "QuadratureRule",
    "gauss_hermite_rule",
    "truncated_rule",
    "integrate",
    "moments",
    "default_half_width",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and strictly positive weights on [-L, L] or the Hermite line.

    ``domain`` is ``"truncated"`` (Lebesgue measure on [-L, L], with
    ``half_width`` = L) or ``"hermite"`` (weight e^{-x^2} on R,
    ``half_width`` is None).
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain: str
    half_width: float | None = None
    cells: int = field(default=0, compare=False)
    _xi_table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _wxi_table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ParameterError("nodes and weights must be 1D and aligned")
        if not np.all(weights > 0.0):
            raise ParameterError("all quadrature weights must be positive")
        if not np.all(np.diff(nodes) > 0.0):
            raise ParameterError("nodes must be strictly increasing")
        if self.domain == "truncated":
            if self.half_width is None or self.half_width <= 0.0:
                raise ParameterError("truncated rule needs half_width > 0")
            if np.any(np.abs(nodes) > self.half_width):
                raise ParameterError("nodes escape [-L, L]")
        elif self.domain != "hermite":
            raise ParameterError(f"unknown quadrature domain {self.domain!r}")

    def __len__(self):
        return self.nodes.size

    def xi_powers(self, upto: int) -> np.ndarray:
        """xi^0..xi^upto on the nodes by repeated products, shape
        (upto + 1, n), read-only.  The table is built once per rule, up to
        the largest degree asked for; a smaller degree gets its leading
        rows, the same bits in the same C layout."""
        table = self._xi_table
        if table is None or table.shape[0] <= upto:
            table = np.empty((upto + 1, self.nodes.size))
            table[0] = 1.0
            for k in range(1, upto + 1):
                table[k] = table[k - 1] * self.nodes
            table.setflags(write=False)
            object.__setattr__(self, "_xi_table", table)
        return table[: upto + 1]

    def weighted_powers(self, upto: int) -> np.ndarray:
        """The rows of ``xi_powers(upto)`` times the weights, w_n xi_n^k,
        read-only and built once per rule the same way."""
        table = self._wxi_table
        if table is None or table.shape[0] <= upto:
            table = self.xi_powers(upto) * self.weights
            table.setflags(write=False)
            object.__setattr__(self, "_wxi_table", table)
        return table[: upto + 1]


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Hermite rule: exact for polynomials of degree
    <= 2n-1 against the weight e^{-x^2}."""
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= 64:
        raise ParameterError(f"Gauss-Hermite order must be in [1, 64], got {n}")
    nodes, weights = hermgauss(int(n))
    return QuadratureRule(nodes, weights, domain="hermite")


def truncated_rule(L: float, cells: int) -> QuadratureRule:
    """Composite 4-point Gauss-Legendre rule on ``cells`` uniform
    subintervals of [-L, L]; use >= 4 cells for production accuracy."""
    if not L > 0.0:
        raise ParameterError(f"half width must be positive, got {L}")
    if not isinstance(cells, (int, np.integer)) or cells < 1:
        raise ParameterError(f"cell count must be a positive integer, got {cells}")
    ref_nodes, ref_weights = leggauss(4)
    h = 2.0 * L / cells
    left = -L + h * np.arange(cells)
    nodes = (left[:, None] + 0.5 * h * (ref_nodes[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * h * ref_weights, cells)
    return QuadratureRule(nodes, weights, domain="truncated", half_width=float(L), cells=int(cells))


def integrate(values, rule: QuadratureRule):
    """The velocity integral sum_n w_n v_n of node values over the last
    axis: a float for one profile, one value per row for a stack.

    Every velocity integral of the package is this sum or ``moments``:
    each row is summed on its own, C-contiguous, in numpy's own einsum
    loop, with no BLAS call.  So a row's bits depend neither on the rows
    stacked with it nor on the BLAS kernel."""
    out = np.einsum("...n,n->...", _rows(values, rule), rule.weights)
    return float(out) if out.ndim == 0 else out


def moments(values, rule: QuadratureRule, upto: int) -> np.ndarray:
    """The raw moments sum_n w_n xi_n^k v_n, k = 0..upto, of node values
    over the last axis, shape values.shape[:-1] + (upto + 1,): against
    the rows of ``rule.weighted_powers``, summed as ``integrate`` sums."""
    return np.einsum("...n,kn->...k", _rows(values, rule), rule.weighted_powers(upto))


def _rows(values, rule: QuadratureRule) -> np.ndarray:
    # einsum's summation order follows the memory layout: one layout, one order
    values = np.ascontiguousarray(values, dtype=float)
    if values.shape[-1:] != rule.nodes.shape:
        raise ParameterError(
            f"values length {values.shape[-1:]} does not match rule nodes {rule.nodes.shape}"
        )
    return values


def default_half_width(u_max: float, theta_max: float) -> float:
    """Truncation bound |u|max + 8*sqrt(theta_max): Gaussian tails below
    1e-14, so truncation error is subdominant to scheme error."""
    if theta_max <= 0.0:
        raise ParameterError("theta_max must be positive")
    return abs(u_max) + 8.0 * np.sqrt(theta_max)
