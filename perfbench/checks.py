"""Output checks, computed apart from kinreduce.

Every check reads the files the CLI wrote and compares them with a
property the method must have or with the benchmark's own computation:
its own reader of the snapshot format, its own velocity quadrature and
its own evaluation of the ansatz.  None compares with a stored copy of
earlier output.  A check returns ``None`` when it passes and a one-line
reason when it fails.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

# conserved totals may drift by round-off only
CONSERVATION_RTOL = 1e-8
# frame-to-frame entropy may rise by round-off only
ENTROPY_RTOL = 1e-12
# error.csv is recomputed with another summation order
ERROR_COLUMN_RTOL = 1e-9
# the initial field lies on the HermitePerturbation manifold
INITIAL_RESIDUAL_ATOL = 1e-12
# audit figures are closed-form
GUSC_ATOL = 1e-8
ASYMMETRY_MAX = 1e-10
# homogeneous fields: cells may differ by round-off only, and the
# collision invariants keep theta to round-off
HOMOGENEITY_RTOL = 1e-12
THETA_RTOL = 1e-10


# ---------------------------------------------------------------- readers

def read_block(path):
    """Frames (n_frames, rows, columns), half width and dx of a snapshot file."""
    raw = Path(path).read_bytes()
    rows, cols, n_frames, half_width, dx = struct.unpack("<qqqdd", raw[:40])
    data = np.frombuffer(raw, dtype="<f8", offset=40)
    if data.size != rows * cols * n_frames:
        raise ValueError(f"{path}: payload does not match its header")
    return data.reshape(n_frames, rows, cols), half_width, dx


def read_table(path):
    """Header and float rows of one of the CLI's CSV files."""
    lines = Path(path).read_text(encoding="utf-8").split()
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def column(path, name):
    header, rows = read_table(path)
    return rows[:, header.index(name)]


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------- independent re-evaluation

def velocity_rule(half_width, cells):
    """Composite 4-point Gauss-Legendre rule on ``cells`` cells of [-L, L]."""
    x, w = leggauss(4)
    h = 2.0 * half_width / cells
    left = -half_width + h * np.arange(cells)
    nodes = (left[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    return nodes, np.tile(0.5 * h * w, cells)


def _hermite_e(k, w):
    """Probabilists' Hermite polynomial He_k by its three-term recurrence."""
    prev, cur = np.ones_like(w), w
    if k == 0:
        return prev
    for j in range(1, k):
        prev, cur = cur, w * cur - j * prev
    return cur


def ansatz_values(doc, omegas, xi):
    """f(xi; omega) for stacked parameter rows.

    conservative_moment: (sum_k alpha_k xi^k) exp(-(xi - u)^2 / (2 theta));
    hermite_perturbation: Maxwellian(rho, u, theta) (1 + sum_k alpha_k He_k(w)),
    w = (xi - u) / sqrt(theta), k = 3..N."""
    kind, size = doc["manifold"]["kind"], doc["manifold"]["size"]
    omegas = np.asarray(omegas)
    if kind == "conservative_moment":
        alpha, u, theta = omegas[:, : size + 1], omegas[:, -2], omegas[:, -1]
        poly = sum(alpha[:, k, None] * xi[None, :] ** k for k in range(size + 1))
        return poly * np.exp(-((xi[None, :] - u[:, None]) ** 2) / (2.0 * theta[:, None]))
    if kind == "hermite_perturbation":
        rho, u, theta = omegas[:, 0], omegas[:, 1], omegas[:, 2]
        w = (xi[None, :] - u[:, None]) / np.sqrt(theta[:, None])
        series = 1.0 + sum(omegas[:, k, None] * _hermite_e(k, w) for k in range(3, size + 1))
        maxw = rho[:, None] / np.sqrt(2.0 * np.pi * theta[:, None]) * np.exp(-0.5 * w * w)
        return maxw * series
    raise ValueError(f"no independent evaluation for manifold {kind!r}")


def profile_moments(values, xi, wts):
    """Density, velocity, temperature and heat flux per unit mass of
    stacked velocity profiles."""
    rho = values @ wts
    u = values @ (xi * wts) / rho
    c = xi[None, :] - u[:, None]
    theta = np.sum(values * c**2 * wts, axis=1) / rho
    q = np.sum(values * c**3 * wts, axis=1) / rho
    return rho, u, theta, q


# ------------------------------------------------------------------ checks

def conservation(trajectory_csv, labels):
    """Totals of the conserved moments stay at their initial values."""
    header, rows = read_table(trajectory_csv)
    c0 = abs(rows[0, header.index("c0")])
    for label in labels:
        c = rows[:, header.index(label)]
        drift = np.abs(c - c[0]).max() / max(abs(c[0]), c0)
        if not drift <= CONSERVATION_RTOL:
            return f"{label} drifts by {drift:.3e} relative"
    return None


def entropy_nonincreasing(trajectory_csv):
    h = column(trajectory_csv, "entropy")
    rise = np.diff(h) / np.maximum(np.abs(h[:-1]), 1e-300)
    if not np.all(rise <= ENTROPY_RTOL):
        return f"entropy rises by {rise.max():.3e} relative"
    return None


def error_column(doc, reduce_dir, reference_dir, estimate_dir):
    """The ``actual`` column equals |f_hat - f|_p recomputed from the
    parameter snapshots and the reference snapshots."""
    omegas, half_width, dx = read_block(Path(reduce_dir) / "omega_snapshots.bin")
    snaps, half_width_f, dx_f = read_block(Path(reference_dir) / "snapshots.bin")
    if (half_width, dx) != (half_width_f, dx_f) or omegas.shape[:2] != snaps.shape[:2]:
        return "reduce and reference snapshots describe different grids"
    xi, wts = velocity_rule(half_width, doc["velocity_grid"]["cells"])
    p = doc.get("norms", {}).get("p", 2.0)
    mine = np.array([
        (dx * np.sum(np.abs(ansatz_values(doc, om, xi) - f) ** p @ wts)) ** (1.0 / p)
        for om, f in zip(omegas, snaps)
    ])
    theirs = column(Path(estimate_dir) / "error.csv", "actual")
    if mine.shape != theirs.shape:
        return f"{theirs.size} error rows for {mine.size} frames"
    gap = np.abs(mine - theirs).max() / np.abs(mine).max()
    if not gap <= ERROR_COLUMN_RTOL:
        return f"actual column differs from the recomputation by {gap:.3e} relative"
    return None


def bound_dominates(estimate_dir):
    actual = column(Path(estimate_dir) / "error.csv", "actual")
    bound = column(Path(estimate_dir) / "error.csv", "bound")
    summary = read_json(Path(estimate_dir) / "error_summary.json")
    if not np.all(actual <= bound * (1.0 + 1e-12)):
        return f"bound/actual falls to {np.min(bound / actual):.3g}"
    if summary["dominated"] is not True:
        return "error_summary.json says the bound does not dominate"
    return None


def initial_residual_vanishes(estimate_dir):
    r0 = column(Path(estimate_dir) / "error.csv", "residual_norm")[0]
    if not abs(r0) <= INITIAL_RESIDUAL_ATOL:
        return f"residual at t = 0 is {r0:.3e}"
    return None


def audit(doc, audit_dir):
    """GUSC quotients at their closed-form rates and the structure checks."""
    rep = read_json(Path(audit_dir) / "stability.json")
    tau = doc["collision"]["tau"]
    pr = doc["collision"].get("prandtl", 1.0)
    dim = doc.get("audit", {}).get("dimension", 1)
    # the CLI lifts the ES-BGK Prandtl number to keep its covariance SPD
    pr_es = max(pr, (dim - 1) / dim + 1e-9)
    expected = {
        "bgk": -1.0 / tau,
        "shakhov": -min(pr, 1.0) / tau,
        "esbgk": -min(pr_es, 1.0) / tau,
    }
    for kind, rate in expected.items():
        got = rep["gusc"][kind]["worst_quotient"]
        if not abs(got - rate) <= GUSC_ATOL:
            return f"{kind} worst quotient {got!r}, expected {rate!r}"
    if not rep["hyperbolicity"]["max_asymmetry"] <= ASYMMETRY_MAX:
        return f"A1 asymmetry {rep['hyperbolicity']['max_asymmetry']:.3e}"
    if not rep["speed"]["max_radius"] <= doc["velocity_grid"]["half_width"]:
        return f"speed {rep['speed']['max_radius']!r} exceeds L"
    for key in ("block_pass", "symmetry_pass", "dissipativity_pass"):
        if rep["yong"][key] is not True:
            return f"yong {key} is false"
    return None


def _identical_cells(frames):
    spread = np.abs(frames - frames[:, :1, :]).max()
    return spread <= HOMOGENEITY_RTOL * np.abs(frames).max()


def relaxation_tolerance(doc, omegas, dx):
    """Leading-order global error t lambda^3 dt^2 / 6 of SSP-RK2 on the
    heat-flux decay q' = -lambda q, lambda = Pr / tau, at the largest
    step the reduce solver can take.  Its step is cfl dx / s_max, and
    the pencil of the Gaussian-moment Hankel matrices has the Gauss
    nodes of the Gaussian factor N(u, theta) as its eigenvalues, so
    s_max = max |u + sqrt(theta) z| over the roots z of He_{N+3}."""
    z = hermegauss(doc["manifold"]["size"] + 3)[0]
    u, theta = omegas[:, 0, -2], omegas[:, 0, -1]
    s_max = np.abs(u[:, None] + np.sqrt(theta)[:, None] * z[None, :]).max(axis=1)
    dt = doc["time"]["cfl"] * dx / s_max.min()
    rate = doc["collision"]["prandtl"] / doc["collision"]["tau"]
    return doc["time"]["final"] * rate**3 * dt**2 / 6.0


def homogeneous_relaxation(doc, reduce_dir, reference_dir):
    """Every cell identical in every frame of both runs; in the reduced
    run theta stays constant and the heat flux relaxes as
    q(t) / q(0) = exp(-Pr t / tau) to within the time-step error."""
    omegas, half_width, dx = read_block(Path(reduce_dir) / "omega_snapshots.bin")
    snaps, _, _ = read_block(Path(reference_dir) / "snapshots.bin")
    xi, wts = velocity_rule(half_width, doc["velocity_grid"]["cells"])
    frames = np.array([ansatz_values(doc, om, xi) for om in omegas])
    for name, f in (("reduce", frames), ("reference", snaps)):
        if not _identical_cells(f):
            return f"{name}: cells differ"
    _, _, theta, q = profile_moments(frames[:, 0, :], xi, wts)
    drift = np.abs(theta - theta[0]).max() / theta[0]
    if not drift <= THETA_RTOL:
        return f"theta drifts by {drift:.3e} relative"
    times = column(Path(reduce_dir) / "trajectory.csv", "time")
    rate = doc["collision"]["prandtl"] / doc["collision"]["tau"]
    gap = np.abs(q / q[0] - np.exp(-rate * times)).max()
    tol = relaxation_tolerance(doc, omegas, dx)
    if not gap <= tol:
        return f"q(t)/q(0) misses exp(-Pr t/tau) by {gap:.3e} (time-step bound {tol:.3e})"
    return None
