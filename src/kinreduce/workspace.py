"""Work arrays that a solver run owns and its node passes reuse.

A node pass evaluates something on every (row, quadrature node) pair.
Its temporaries are field-sized, and allocating them afresh on every
call hands their pages back to the kernel after each one.  A kernel
that takes ``work`` computes in place into named arrays of a
``WorkArrays`` instead; without one it allocates them, and its results
are bit-identical either way.  What a kernel returns in work arrays
stays valid until the next kernel call given the same ``work``.
"""

from __future__ import annotations

from math import prod

import numpy as np

__all__ = ["WorkArrays", "take", "centered"]


class WorkArrays:
    """Named float arrays kept across calls."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The C-contiguous leading block of shape ``shape`` of the array
        called ``name``, which grows when it is too small.  Its contents
        are whatever the last user left there."""
        size = prod(shape)
        buf = self._arrays.get(name)
        if buf is None or buf.size < size:
            buf = self._arrays[name] = np.empty(size)
        return buf[:size].reshape(shape)


def take(work: WorkArrays | None, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """``work.take(name, shape)``, or a new array when ``work`` is None."""
    return np.empty(shape) if work is None else work.take(name, shape)


def centered(xi: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """xi[None, :] - u[:, None], into ``out`` when given.  A copy and one
    broadcasting subtraction: a ufunc gives each broadcast operand a
    buffer of its own (64 KiB by default), so this form needs one."""
    if out is None:
        out = np.empty((u.size, xi.size))
    out[...] = xi
    out -= u[:, None]
    return out
