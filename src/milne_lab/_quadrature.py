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
    arrays are new on every call.  A non-finite bound, or ``b <= a``, is
    a ``ValueError``.
    """
    if not (np.isfinite(a) and np.all(np.isfinite(b))):
        raise ValueError("quadrature bounds must be finite")
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


def trapezoid(y: np.ndarray, x: np.ndarray):
    """Trapezoid rule for samples ``y`` at the nodes ``x`` of per-row grids.

    ``y`` of shape ``(..., n)`` is integrated along its last axis over
    the grids ``x``, of shape ``(n,)`` or broadcasting against ``y`` (say
    ``(m, 1, n)`` grids for ``(m, 2, n)`` samples), each row bitwise the
    rule on that row and its grid alone.  Written out in place of
    ``scipy.integrate.trapezoid`` (same arithmetic), so importing the
    package does not import scipy.  The sums, the products with the
    steps and the halves are all written into one array of the
    broadcast shape, bitwise the values of the written-out expression
    ``np.sum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)``.
    """
    dx, y = np.diff(x), np.asarray(y)
    terms = np.empty(np.broadcast_shapes(dx.shape, y[..., 1:].shape),
                     np.result_type(dx, y, 2.0))
    np.add(y[..., 1:], y[..., :-1], out=terms)
    np.multiply(dx, terms, out=terms)
    terms /= 2.0
    return np.sum(terms, axis=-1)
