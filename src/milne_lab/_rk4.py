"""One step of the classical fourth-order Runge-Kutta method."""

from __future__ import annotations

import numpy as np

__all__ = ["rk4_step", "rk4_step_into"]


def rk4_step(f, t: float, y, h: float) -> list:
    """Advance the state components ``y`` from ``t`` to ``t + h``.

    ``y`` is a sequence of floats or arrays and ``f(t, y)`` returns the
    derivative of every component, in the same order.  The stages are
    evaluated at ``t``, ``t + h/2`` (twice) and ``t + h``, in that order,
    and the new components ``y + h/6 (k1 + 2 k2 + 2 k3 + k4)`` are
    returned as a list.
    """
    # scalar callers take thousands of steps, so the per-step Python
    # overhead is kept low: list comprehensions, h/2 and h/6 hoisted
    half = h / 2
    k1 = f(t, y)
    k2 = f(t + half, [a + half * k for a, k in zip(y, k1)])
    k3 = f(t + half, [a + half * k for a, k in zip(y, k2)])
    k4 = f(t + h, [a + h * k for a, k in zip(y, k3)])
    sixth = h / 6
    return [a + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
            for a, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]


def rk4_step_into(f, t: float, y: np.ndarray, h: float, out: np.ndarray,
                  k: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """:func:`rk4_step` for one float array, in preallocated buffers.

    ``f(t, y, k)`` writes the derivative at ``(t, y)`` into ``k``.  The
    new state is written into ``out`` and returned; ``k`` and ``acc`` are
    scratch, and all three have the shape of ``y``, which is left as it
    was.  Every element goes through the same floating-point operations,
    in the same order, as in :func:`rk4_step`: ``k1`` is written into
    ``acc``, and as ``2 k`` is exact, each later slope is doubled in place
    once the next stage state is built from it.
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
