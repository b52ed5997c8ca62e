"""Quadrature rules: composite Gauss-Legendre on a radial interval, and
the trapezoid rule on sampled data."""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["PANELS", "composite_gauss_legendre", "trapezoid"]

PANELS = 8  # subintervals of every composite rule


@functools.lru_cache(maxsize=16)  # a run uses two or three node counts
def _reference_rule(per: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[-1, 1]``, computed once per
    node count and stored read-only (they are shared by every caller)."""
    xi, wi = np.polynomial.legendre.leggauss(per)
    xi.flags.writeable = False
    wi.flags.writeable = False
    return xi, wi


def composite_gauss_legendre(a: float, b, n_nodes: int = 64
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on ``[a, b]``.

    ``n_nodes`` is the total node count, split evenly over the ``PANELS``
    subintervals (so it must be a multiple of ``PANELS``).  An array
    ``b`` of shape ``(m,)`` gives ``(m, n_nodes)`` nodes and weights, row
    ``i`` bitwise the rule on ``[a, b[i]]``.  The reference rule is cached
    per node count (``leggauss`` costs about 0.2 ms a call); the returned
    arrays are new on every call.
    """
    if np.any(np.asarray(b) <= a):
        raise ValueError("empty quadrature interval")
    if n_nodes % PANELS != 0:
        raise ValueError(f"n_nodes must be divisible by {PANELS}")
    xi, wi = _reference_rule(n_nodes // PANELS)
    edges = np.linspace(a, b, PANELS + 1).T  # (m, PANELS + 1) for an array b
    half = 0.5 * np.diff(edges, axis=-1)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    q = (mid[..., None] + half[..., None] * xi).reshape(*np.shape(b), n_nodes)
    w = (half[..., None] * wi).reshape(*np.shape(b), n_nodes)
    return q, w


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid rule for samples ``y`` at the nodes ``x`` of a 1-d grid.

    Written out in place of ``scipy.integrate.trapezoid`` (same
    arithmetic), so importing the package does not import scipy.
    """
    return np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
