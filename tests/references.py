"""Reference implementations that the tests compare the package with.

Each is a second, independent form of something the package computes
another way, kept here because only the tests run it:

* :func:`characteristic_rhs` -- the dense right-hand side of the
  characteristic flow, on any shift-free batched ``LocalGeometry``, which
  the integrator's row kernel (``transport._bind_rhs``) must reproduce;
  its ``mode="paper_form"`` is the classical termwise bookkeeping;
* :data:`background_fields` -- the fixed point ``(identity frame,
  Sigma=0, N=3, X=0)`` as a provider with a row fill: the manufactured
  lapse at ``eps = 0``;
* :func:`rk4_step` -- the generic classical RK4 step that the written-out
  steps of ``modes.integrate_mode`` and ``homogeneous.evolve_homogeneous``
  and the buffered ``_rk4.rk4_step_into`` are pinned to bit for bit;
* :func:`eta_direct` -- ``eta`` from one combined quadrature kernel,
  against the two-integral form of ``matter.moments_from_distribution``;
* :func:`riemann` -- the curvature tensor of a ``BackgroundChart``
  assembled from its closed-form connection (:func:`christoffels`) and
  the connection's partials (:func:`christoffel_derivatives`), against
  the chart's closed conformal Ricci tensor;
* :func:`not_a_knot_ppoly` -- the package's not-a-knot spline
  coefficients, which it builds and evaluates without
  ``scipy.interpolate``, evaluated through scipy's ``PPoly``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.interpolate import PPoly

from milne_lab._quadrature import composite_gauss_legendre
from milne_lab.energies import _not_a_knot_coefficients
from milne_lab.geometry import (BackgroundChart, LocalGeometry, TimeFrame,
                                rescaled_christoffels)
from milne_lab.massshell import compute_p0
from milne_lab.matter import RadialDistribution, _require_isotropic
from milne_lab.transport import manufactured_lapse_fields


def characteristic_rhs(state, f, frame: TimeFrame, mode: str = "derived",
                       q0: Optional[np.ndarray] = None):
    """Right-hand side of the characteristic system at one time.

    ``state`` is a pair of ``(n,3)`` arrays ``(x, p)``; ``f`` is the
    already-evaluated batched :class:`LocalGeometry` at the particle
    positions.
    Returns ``(dx/dT, dp/dT, dp0/dT)`` for ``mode="derived"`` (which
    co-evolves the time component; pass the current ``q0``, else the
    on-shell value is used) and ``(dx/dT, dp/dT)`` for
    ``mode="paper_form"``.  Fields with a shift raise
    ``NotImplementedError``.

    Derived system (exact geodesic flow in nondimensional variables)::

        dx/dT = -tau p / p0
        dp/dT = 2 (gamma_star_star p)
                + (p0 / tau) gamma_star
                + (tau / p0) Gamma p p

    with the blocks of :func:`milne_lab.geometry.rescaled_christoffels`,
    where the raw-dilution term ``+2p`` and the pure frame-drag term
    ``-2p`` have been cancelled symbolically.  The ``paper_form`` mode
    keeps the uncancelled ``-2p`` of the classical termwise expression:
    the derived ``dx/dT`` and ``dp/dT - 2 p`` at the on-shell ``p0``, so
    at the background it returns ``dp/dT = -2 p`` instead of zero.
    """
    x, p = state
    tau = frame.tau

    if mode == "paper_form":
        dx, dp, _ = characteristic_rhs(state, f, frame)
        return dx, dp - 2.0 * p
    if mode != "derived":
        raise ValueError(f"unknown mode {mode!r}")
    if q0 is None:
        q0 = compute_p0(f, p, frame, method="paper_primary")
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))

    if np.any(f.X != 0.0) or np.any(f.dTX != 0.0):
        raise NotImplementedError(
            "the characteristic flow is implemented for shift-free fields")
    blocks = rescaled_christoffels(f, frame)
    dx = -tau * p / q0[:, None]
    dp = (2.0 * np.einsum("nac,nc->na", blocks["gamma_star_star"], p)
          + (q0 / tau)[:, None] * blocks["gamma_star"]
          + (tau / q0)[:, None] * np.einsum("nabc,nb,nc->na",
                                            blocks["spatial"], p, p))
    dNoverN = f.dTN / f.N
    gradNp = np.einsum("na,na->n", f.dN, p)
    gdot_pp = np.einsum("nab,na,nb->n", 2.0 * f.g + f.dTg, p, p)
    dq0 = (2.0 * q0 - (2.0 + dNoverN) * q0
           + 2.0 * tau * gradNp / f.N
           - tau**2 * gdot_pp / (2.0 * f.N**2 * q0))
    return dx, dp, dq0


# the perturbation scales phi and grad phi by eps = 0, so every field row
# is the background's: N = 3 and a = 1 exactly, and the gradients and
# dTN zeros (of either sign)
background_fields = manufactured_lapse_fields(0.0)


def rk4_step(f, t: float, y, h: float) -> list:
    """Advance the state components ``y`` from ``t`` to ``t + h``.

    ``y`` is a sequence of floats or arrays and ``f(t, y)`` returns the
    derivative of every component, in the same order.  The stages are
    evaluated at ``t``, ``t + h/2`` (twice) and ``t + h``, in that order,
    and the new components ``y + h/6 (k1 + 2 k2 + 2 k3 + k4)`` are
    returned as a list.
    """
    half = h / 2
    k1 = f(t, y)
    k2 = f(t + half, [a + half * k for a, k in zip(y, k1)])
    k3 = f(t + half, [a + half * k for a, k in zip(y, k2)])
    k4 = f(t + h, [a + h * k for a, k in zip(y, k3)])
    sixth = h / 6
    return [a + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
            for a, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]


def eta_direct(f: RadialDistribution, geom: LocalGeometry,
               frame: TimeFrame) -> float:
    """Independent single-quadrature evaluation of ``eta``.

    Uses the combined kernel ``(1 + 2 tau^2 q^2) / phat`` instead of
    assembling ``rho + tau^2 eta_under`` from two integrals; agreement
    certifies the identity between the two forms.
    """
    _require_isotropic(geom, "eta_direct")
    tau = frame.tau
    q, w = composite_gauss_legendre(0.0, f.qmax)
    fv = f(q)
    ph = np.sqrt(1.0 + tau**2 * q**2)
    return 4.0 * math.pi * float(np.sum(w * fv * (1.0 + 2.0 * tau**2 * q**2)
                                        / ph * q**2))


def christoffels(chart: BackgroundChart, x: np.ndarray) -> np.ndarray:
    """Connection coefficients ``Gam[a, b, c] = Gamma^a_{bc}``."""
    dphi, _ = chart.phi_derivatives(x)
    eye = np.eye(3)
    return (
        eye[..., :, :, None] * dphi[..., None, None, :]
        + eye[..., :, None, :] * dphi[..., None, :, None]
        - eye[..., None, :, :] * dphi[..., :, None, None]
    )


def christoffel_derivatives(chart: BackgroundChart,
                            x: np.ndarray) -> np.ndarray:
    """Partials ``dGam[a, b, c, d] = d_d Gamma^a_{bc}`` in closed form."""
    _, ddphi = chart.phi_derivatives(x)
    eye = np.eye(3)
    return (
        eye[..., :, :, None, None] * ddphi[..., None, None, :, :]
        + eye[..., :, None, :, None] * ddphi[..., None, :, None, :]
        - eye[..., None, :, :, None] * ddphi[..., :, None, None, :]
    )


def riemann(chart: BackgroundChart, x: np.ndarray) -> np.ndarray:
    """Curvature tensor ``R[a, b, c, d] = R^a_{bcd}`` from the connection."""
    gam = christoffels(chart, x)
    dgam = christoffel_derivatives(chart, x)
    # R^a_{bcd} = d_c Gam^a_{db} - d_d Gam^a_{cb}
    #             + Gam^a_{ce} Gam^e_{db} - Gam^a_{de} Gam^e_{cb}
    term1 = np.einsum("...adbc->...abcd", dgam)
    term2 = np.einsum("...acbd->...abcd", dgam)
    term3 = np.einsum("...ace,...edb->...abcd", gam, gam)
    term4 = np.einsum("...ade,...ecb->...abcd", gam, gam)
    return term1 - term2 + term3 - term4


def not_a_knot_ppoly(x, y):
    """Not-a-knot cubic spline through ``(x, y)`` of shape ``(n,)``, a
    scipy ``PPoly`` bitwise equal to ``scipy.interpolate.CubicSpline(x,
    y)`` for real data: ``PPoly.construct_fast`` over
    ``_not_a_knot_coefficients``."""
    (x,), (c,) = _not_a_knot_coefficients(x, y)  # a ValueError for a stack
    return PPoly.construct_fast(c, x)
