"""Quadrature rules: composite Gauss-Legendre on a radial interval, and
the trapezoid rule on sampled data."""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["composite_gauss_legendre", "trapezoid"]


@functools.lru_cache(maxsize=16)  # a run uses two or three node counts
def _reference_rule(per: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[-1, 1]``, computed once per
    node count and stored read-only (they are shared by every caller)."""
    xi, wi = np.polynomial.legendre.leggauss(per)
    xi.flags.writeable = False
    wi.flags.writeable = False
    return xi, wi


def composite_gauss_legendre(a: float, b: float, n_nodes: int = 64,
                             panels: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite Gauss-Legendre rule on ``[a, b]``.

    ``n_nodes`` is the total node count, split evenly across ``panels``
    subintervals (``n_nodes`` must be divisible by ``panels``).  The
    reference rule is cached per node count (``leggauss`` costs about
    0.2 ms a call); the returned arrays are new on every call.
    """
    if b <= a:
        raise ValueError("empty quadrature interval")
    if n_nodes % panels != 0:
        raise ValueError("n_nodes must be divisible by panels")
    per = n_nodes // panels
    xi, wi = _reference_rule(per)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    q = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    w = (half[:, None] * wi[None, :]).ravel()
    return q, w


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid rule for samples ``y`` at the nodes ``x`` of a 1-d grid.

    Written out in place of ``scipy.integrate.trapezoid`` (same
    arithmetic), so importing the package does not import scipy.
    """
    return np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
