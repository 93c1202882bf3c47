"""A fixed kernel that gauges the machine's speed while a run measures.

The benchmark's machine is a small virtual machine on a shared host,
whose speed drifts by tens of percent over minutes with the load of
its neighbours; that drift is common to every command of a run, and
no median inside a run removes it.  ``run.py`` times this kernel before
and after every timed operation (a set-up or a command), from the
otherwise idle parent process, and scales each sample by
``REFERENCE_S`` over the mean time of the kernel passes near it (see
``Timeline``): the times it reports are those of a machine on which
the kernel takes ``REFERENCE_S`` seconds.  The speed also changes
from one second to the next, so passes near a sample follow it more
closely than a figure for the whole run does.  The kernel does the kind of
work the package does (Gaussians on a velocity grid, moment sums,
small dense solves, from Python loops) on data of about its size, and
calls nothing of the package, so no change to the package moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's median time on the machine described in README.md
REFERENCE_S = 0.045
# kernel passes before and after each timed operation
PASSES = 2
# the narrowest window of passes that scale a sample, on either side
MIN_WINDOW_S = 0.25
_CELLS, _NODES, _MOMENTS, _SWEEPS = 100, 64, 5, 120


def _inputs():
    rng = np.random.default_rng(12345)
    xi = np.linspace(-9.0, 9.0, _NODES)
    u = rng.uniform(-0.5, 0.5, _CELLS)
    theta = rng.uniform(0.8, 1.2, _CELLS)
    return xi, u, theta, np.vander(xi, _MOMENTS, increasing=True).T


def kernel_s() -> float:
    """Seconds taken by one pass of the kernel."""
    xi, u, theta, powers = _inputs()
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(_SWEEPS):
        f = np.exp(-0.5 * (xi[None, :] - u[:, None]) ** 2 / theta[:, None])
        moments = f @ powers.T
        for i in range(0, _CELLS, 5):
            gram = (powers * f[i]) @ powers.T
            acc += np.linalg.solve(gram, moments[i])[0]
    t1 = time.perf_counter()
    if not np.isfinite(acc):
        raise FloatingPointError("calibration kernel gave a non-finite sum")
    return t1 - t0


class Timeline:
    """The kernel's passes over a run, with the time of each.

    ``measure()`` is called just before and just after every timed
    operation; ``scale(t0, t1)`` is the factor for a sample that ran
    from ``t0`` to ``t1``: ``REFERENCE_S`` over the mean time of the
    passes made within one sample length (at least ``MIN_WINDOW_S``)
    of that interval.  A short command is thus scaled by the passes
    right next to it, and a long one by the machine's speed over a
    span as long as itself on either side."""

    def __init__(self):
        self.passes = []  # (perf_counter at the pass's middle, seconds)

    def measure(self):
        for _ in range(PASSES):
            t = time.perf_counter()
            took = kernel_s()
            self.passes.append((t + took / 2, took))

    def scale(self, t0, t1):
        d = max(t1 - t0, MIN_WINDOW_S)
        near = [took for t, took in self.passes if t0 - d <= t <= t1 + d]
        return REFERENCE_S / statistics.fmean(near)
