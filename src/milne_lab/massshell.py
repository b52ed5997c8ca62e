"""Mass-shell algebra for massive collisionless particles.

Particles of unit mass live on the shell ``gbar(pt, pt) = -1`` of the raw
spacetime metric.  In nondimensional variables the spatial momentum ``p``
determines the time component ``p0`` through a quadratic constraint; this
module provides three independent evaluations of that root and the two
classical pointwise estimates relating ``|p|_g`` and ``p0``.

Conventions
-----------
* ``p`` is the nondimensional spatial momentum (contravariant, in the
  same frame as ``geom.g``); the raw momentum is ``pt^a = tau^2 p^a``.
* ``p0`` denotes the nondimensional time component; the raw root is
  ``pt^0 = tau^2 p0`` (the fixed ratio is reported, never hidden).
* ``phat`` is a convenience function with ``phat = sqrt(tau^2 <Xhat,p>^2
  + (1 - |Xhat|^2)(1 + tau^2 |p|^2))``; ``pbar = sqrt(1 + |p|^2_g)`` is
  the order-one Sobolev weight; ``pund = N p0``.
"""

from __future__ import annotations

import numpy as np

from .geometry import LocalGeometry, TimeFrame

__all__ = [
    "SingularShiftError",
    "compute_p0",
    "mass_shell_residual",
    "phat",
    "pbar",
    "normalization_report",
    "pointwise_estimates_check",
]


class SingularShiftError(ValueError):
    """Raised when ``|X/N|_g >= 1`` makes the mass-shell root singular."""


def _dots(geom: LocalGeometry, p: np.ndarray):
    """Common inner products; ``p`` may be shaped (..., 3).

    The batch axis of a batched ``geom`` broadcasts against the leading
    axes of ``p`` (one field point per momentum).
    """
    p = np.asarray(p, dtype=float)
    g, X = geom.g, geom.X
    p2 = np.einsum("...a,...ab,...b->...", p, g, p)
    Xp = np.einsum("...a,...ab,...b->...", X, g, p)
    return p, p2, Xp


def _check_admissible(geom: LocalGeometry):
    X2 = np.einsum("...a,...ab,...b->...", geom.X, geom.g, geom.X)
    if not np.all(geom.N**2 - X2 > 0.0):
        raise SingularShiftError(
            f"shift dominates lapse: |X|_g^2 = {X2}, N^2 = {geom.N**2}")
    return X2


def phat(geom: LocalGeometry, p: np.ndarray, frame: TimeFrame) -> np.ndarray:
    """Auxiliary momentum function ``phat`` (positive when admissible)."""
    X2 = _check_admissible(geom)
    p, p2, Xp = _dots(geom, p)
    tau, N = frame.tau, geom.N
    Xhat_p = Xp / N
    Xhat2 = X2 / N**2
    return np.sqrt(tau**2 * Xhat_p**2 + (1.0 - Xhat2) * (1.0 + tau**2 * p2))


def pbar(geom: LocalGeometry, p: np.ndarray) -> np.ndarray:
    """Sobolev weight ``sqrt(1 + |p|^2_g)``."""
    _, p2, _ = _dots(geom, p)
    return np.sqrt(1.0 + p2)


def compute_p0(geom: LocalGeometry, p: np.ndarray, frame: TimeFrame,
               method: str = "first_principles") -> np.ndarray:
    """Time component of the momentum on the mass shell.

    ``method="first_principles"`` assembles the raw spacetime metric in
    its lapse/shift block form and returns the positive (future-pointing)
    root of ``gbar(pt, pt) = -1`` for the raw momentum -- the
    authoritative definition.  ``"paper_primary"`` and
    ``"paper_alternative"`` evaluate the two closed forms for the
    nondimensional component; they agree with each other identically and
    with ``tau^2 * first_principles`` (see :func:`normalization_report`).
    ``geom`` may be a batched :class:`LocalGeometry`, one point per
    momentum.
    """
    X2 = _check_admissible(geom)
    p, p2, Xp = _dots(geom, p)
    tau, N = frame.tau, geom.N

    if method == "paper_primary":
        D = N**2 - X2
        return (tau * Xp + np.sqrt(tau**2 * Xp**2 + D * (1.0 + tau**2 * p2))) / D

    if method == "paper_alternative":
        ph = phat(geom, p, frame)
        Xhat_p = Xp / N
        return (1.0 + tau**2 * p2) / (N * (ph - tau * Xhat_p))

    if method == "first_principles":
        # raw blocks: lapse tau^-2 N, spatial metric tau^-2 g, shift tau^-1 X
        Nt = N / tau**2
        Xt = geom.X / tau
        gt = geom.g / tau**2
        pt = tau**2 * p
        Xt_low = np.einsum("...ab,...b->...a", gt, Xt)
        a = -Nt**2 + np.einsum("...a,...a->...", Xt, Xt_low)  # gbar_00
        b = np.einsum("...a,...a->...", Xt_low, pt)    # gbar_0a pt^a
        c = np.einsum("...a,...ab,...b->...", pt, gt, pt) + 1.0
        disc = b**2 - a * c
        return (-b - np.sqrt(disc)) / a

    raise ValueError(f"unknown method {method!r}")


def normalization_report(geom: LocalGeometry, p: np.ndarray,
                         frame: TimeFrame) -> dict:
    """Document the fixed normalization ratio between the two roots.

    The raw quadratic root equals ``tau^2`` times the closed-form
    nondimensional component on every admissible input.  The ratio is
    reported so the two conventions are never silently conflated.
    """
    raw = compute_p0(geom, p, frame, method="first_principles")
    closed = compute_p0(geom, p, frame, method="paper_primary")
    ratio = raw / closed
    expected = frame.tau**2
    return {
        "ratio": ratio,
        "expected": expected,
        "consistent": bool(np.all(np.abs(ratio / expected - 1.0) < 1e-10)),
        "note": ("raw mass-shell root = tau^2 * closed-form component; "
                 "agreement holds only after this fixed rescaling"),
    }


def mass_shell_residual(geom: LocalGeometry, p: np.ndarray, p0: np.ndarray,
                        frame: TimeFrame) -> np.ndarray:
    """``gbar(pt, pt) + 1`` for the raw momentum built from ``(p0, p)``.

    ``p0`` is the nondimensional component; the reconstruction uses the
    raw pair ``(tau^2 p0, tau^2 p)``.  Zero on the shell.  The algebra is
    arranged in order-one factors so the residual is cancellation-safe:
    ``residual = -N^2 p0^2 + |tau p + p0 X|^2_g + 1``.  ``geom`` may be
    a batched :class:`LocalGeometry`, as in :func:`compute_p0`.
    """
    p = np.asarray(p, dtype=float)
    tau, N, g, X = frame.tau, geom.N, geom.g, geom.X
    v = tau * p + p0[..., None] * X
    v2 = np.einsum("...a,...ab,...b->...", v, g, v)
    return -(N * p0) ** 2 + v2 + 1.0


def pointwise_estimates_check(geom: LocalGeometry, p: np.ndarray,
                              frame: TimeFrame) -> dict:
    """Evaluate both classical momentum estimates and report both sides.

    Estimate 1: ``|p|_g / p0 <= 2|X|_g/|tau| + N sqrt(1-|Xhat|^2)/|tau|``.
    Estimate 2: ``p0 <= (1/N)(1-|Xhat|^2)^-1 [2|tau||Xhat||p| +
    sqrt(1-|Xhat|^2) sqrt(1+tau^2|p|^2)]``.
    """
    X2 = _check_admissible(geom)
    p, p2, Xp = _dots(geom, p)
    tau, N = frame.tau, geom.N
    s = abs(tau)
    p0 = compute_p0(geom, p, frame, method="paper_primary")
    Xhat2 = X2 / N**2
    pnorm = np.sqrt(p2)

    lhs1 = pnorm / p0
    rhs1 = 2.0 * np.sqrt(X2) / s + N * np.sqrt(1.0 - Xhat2) / s
    lhs2 = p0
    rhs2 = (1.0 / N) / (1.0 - Xhat2) * (
        2.0 * s * np.sqrt(Xhat2) * pnorm
        + np.sqrt(1.0 - Xhat2) * np.sqrt(1.0 + tau**2 * p2)
    )
    return {
        "lhs1": lhs1, "rhs1": rhs1, "holds1": bool(np.all(lhs1 <= rhs1 * (1 + 1e-13))),
        "lhs2": lhs2, "rhs2": rhs2, "holds2": bool(np.all(lhs2 <= rhs2 * (1 + 1e-13))),
    }
