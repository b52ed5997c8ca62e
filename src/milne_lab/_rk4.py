"""The classical fourth-order Runge-Kutta step in preallocated buffers,
and the check of the step and log counts the fixed-step integrators take."""

from __future__ import annotations

import numpy as np

__all__ = ["check_count", "rk4_step_into"]


def check_count(name: str, value) -> None:
    """Named errors for a count that is not a positive integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


def rk4_step_into(f, t: float, y: np.ndarray, h: float, out: np.ndarray,
                  k: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """One classical RK4 step of one float array, in preallocated buffers.

    ``f(t, y, k)`` writes the derivative at ``(t, y)`` into ``k``.  The
    new state is written into ``out`` and returned; ``k`` and ``acc`` are
    scratch, and all three have the shape of ``y``, which is left as it
    was.  The stages are at ``t``, ``t + h/2`` (twice) and ``t + h``, and
    each element goes through the operations of ``y + h/6 (k1 + 2 k2 + 2 k3
    + k4)`` in the order of the tests' generic ``references.rk4_step``:
    ``k1`` is written into ``acc``, and as ``2 k`` is exact, each later
    slope is doubled in place once the next stage state is built from it.
    """
    half = h / 2
    f(t, y, acc)
    np.multiply(acc, half, out=out)
    out += y
    f(t + half, out, k)
    np.multiply(k, half, out=out)
    out += y
    k *= 2
    acc += k
    f(t + half, out, k)
    np.multiply(k, h, out=out)
    out += y
    k *= 2
    acc += k
    f(t + h, out, k)
    acc += k
    acc *= h / 6
    return np.add(y, acc, out=out)
