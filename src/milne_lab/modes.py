"""Linear perturbation modes about the self-similar attractor.

Each spatial eigenmode of the linearised geometry decouples into a damped
oscillator in logarithmic time,

    u'' + 2 u' + 9 lambda u = 18 s S_amp,   s = s0 e^{-T},

where ``lambda`` is the (nonnegative) eigenvalue of the spatial operator
and the right-hand side is an exponentially decaying matter source.  The
borderline eigenvalue ``lambda = 1/9`` gives a double characteristic root
``-1``; above it the roots are complex with real part ``-1``.

The corrected quadratic energies combine the oscillator energy with a
cross term ``cE u' u`` chosen by :func:`milne_lab.geometry.correction_constants`
so that the energy is coercive and decays at the guaranteed rate
``2 alpha``.  The module provides the oscillator integration, the
corrected-energy ladder, the exact dissipation identity for verifying the
decay rate, the coercivity eigenvalue check, and a sweep helper emitting
one summary row per eigenvalue.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import CorrectionConstants, correction_constants
from .energies import decay_fit

__all__ = [
    "ModeTrajectory",
    "mode_rhs",
    "integrate_mode",
    "corrected_energy",
    "dissipation_identity",
    "energy_decay_check",
    "coercivity_check",
    "mode_sweep",
    "MODE_CSV_COLUMNS",
]

MODE_CSV_COLUMNS = ["lambda", "alpha", "cE", "fitted_rate",
                    "min_quadform_eig", "max_violation"]

# how far a fitted energy rate may fall below the guaranteed rate 2 alpha
RATE_TOL = 0.05


@dataclass
class ModeTrajectory:
    """Logged mode series: times, states and corrected energies."""

    lam: float
    constants: CorrectionConstants
    T: np.ndarray
    u: np.ndarray
    w: np.ndarray
    energy: np.ndarray


def mode_rhs(u: float, w: float, lam: float, T: float,
             S_amp: float = 0.0, s0: float = 1.0) -> tuple:
    """Right-hand side ``(u', w')`` of the damped mode oscillator."""
    s = s0 * math.exp(-T)
    return w, -2.0 * w - 9.0 * lam * u + 18.0 * s * S_amp


def corrected_energy(u, w, lam: float, constants: CorrectionConstants,
                     order: int = 1):
    """Coercive corrected energy, optionally summed over the weight ladder.

    The base energy is ``e = w^2/2 + (9/2) lam u^2 + cE u w``; ladder level
    ``m`` multiplies it by ``lam^{m-1}``, and ``order`` sums levels
    ``1..order`` (a closed geometric factor).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    base = 0.5 * np.asarray(w) ** 2 + 4.5 * lam * np.asarray(u) ** 2 \
        + constants.cE * np.asarray(u) * np.asarray(w)
    if lam == 1.0:
        factor = float(order)
    else:
        factor = (1.0 - lam**order) / (1.0 - lam)
    return factor * base


def dissipation_identity(u, w, lam: float,
                         constants: CorrectionConstants):
    """Exact value of ``de/dT + 2 alpha e`` for the source-free oscillator.

    Expanding the derivative along ``u' = w, w' = -2w - 9 lam u`` gives the
    quadratic form ``(cE - 2 + alpha) w^2 + 2 cE (alpha - 1) u w
    + 9 lam (alpha - cE) u^2``, which is negative semidefinite for the
    constants produced by ``correction_constants``; its maximum over a
    trajectory bounds the decay-rate defect.
    """
    a, cE = constants.alpha, constants.cE
    u = np.asarray(u)
    w = np.asarray(w)
    return ((cE - 2.0 + a) * w**2 + 2.0 * cE * (a - 1.0) * u * w
            + 9.0 * lam * (a - cE) * u**2)


def coercivity_check(lam: float, cE: float) -> dict:
    """Eigenvalues of the corrected-energy quadratic form in ``(u, w)``.

    The form ``(9 lam/2) u^2 + cE u w + w^2/2`` is positive definite
    exactly when ``cE < 3 sqrt(lam)``.
    """
    M = np.array([[4.5 * lam, 0.5 * cE], [0.5 * cE, 0.5]])
    eigs = np.linalg.eigvalsh(M)
    return {"eigs": eigs, "min_eig": float(eigs[0]),
            "coercive": bool(eigs[0] > 0.0),
            "criterion": bool(cE < 3.0 * math.sqrt(lam))}


def integrate_mode(lam: float, u0: float, w0: float, T_span: tuple,
                   n_steps: int, S_amp: float = 0.0, s0: float = 1.0,
                   eps_prime: float = 1.0 / 900.0) -> ModeTrajectory:
    """Classical Runge-Kutta integration of one eigenmode.

    Returns the full logged trajectory with the corrected energy attached;
    ``eps_prime`` is forwarded to the constant selection at the borderline
    eigenvalue.
    """
    constants = correction_constants(lam, eps_prime=eps_prime)
    T0, T1 = float(T_span[0]), float(T_span[1])
    if not T1 > T0:
        raise ValueError("empty integration span")
    h = (T1 - T0) / n_steps
    # mode_rhs written out, with 9 lam, h/2 and h/6 hoisted and the source
    # evaluated once per distinct stage time: the same floating-point
    # operations, in the same order, as rk4_step driven by mode_rhs (pinned
    # bitwise by the tests).  About 1.1 us a step (bench/bench.py, 2-vCPU
    # VM) against 2.4 us calling mode_rhs and 3-4 times that through the
    # generic step; stepping the lambda grid as one array is slower too.
    # The states go into arrays of doubles: lists would keep a float object
    # per value alive (about 0.8 MB more peak memory in a report)
    half, sixth, lam9 = 0.5 * h, h / 6.0, 9.0 * lam
    exp = math.exp
    u, w = float(u0), float(w0)
    T, U, W = array("d", [T0]), array("d", [u]), array("d", [w])
    for i in range(n_steps):
        t = T0 + i * h
        t_half, t_end = t + half, t + h
        src = 18.0 * (s0 * exp(-t)) * S_amp
        src_half = 18.0 * (s0 * exp(-t_half)) * S_amp
        src_end = 18.0 * (s0 * exp(-t_end)) * S_amp
        # the u-slope of a stage is its w state (k1u = w), so k2u, k3u and
        # k4u are the stage values of w
        k1w = -2.0 * w - lam9 * u + src
        k2u = w + half * k1w
        k2w = -2.0 * k2u - lam9 * (u + half * w) + src_half
        k3u = w + half * k2w
        k3w = -2.0 * k3u - lam9 * (u + half * k2u) + src_half
        k4u = w + h * k3w
        k4w = -2.0 * k4u - lam9 * (u + h * k3u) + src_end
        u += sixth * (w + 2.0 * k2u + 2.0 * k3u + k4u)
        w += sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        T.append(t_end)
        U.append(u)
        W.append(w)
    T, U, W = np.array(T), np.array(U), np.array(W)
    energy = corrected_energy(U, W, lam, constants)
    return ModeTrajectory(lam=lam, constants=constants, T=T, u=U, w=W,
                          energy=energy)


def energy_decay_check(traj: ModeTrajectory,
                       fit_window: Optional[tuple] = None) -> dict:
    """Verify the guaranteed corrected-energy decay of a source-free run.

    Two independent checks: (a) the exact dissipation identity stays
    nonpositive along the trajectory (its maximum is reported as
    ``max_violation``); (b) a log-linear fit of the energy recovers at
    least the guaranteed rate ``2 alpha`` within :data:`RATE_TOL` (the fit
    can exceed the guarantee, never undershoot it beyond the tolerance).
    """
    c = traj.constants
    diss = dissipation_identity(traj.u, traj.w, traj.lam, c)
    max_violation = float(np.max(diss))
    fit = decay_fit(traj.T, traj.energy, window=fit_window)
    guaranteed = 2.0 * c.alpha
    return {
        "max_violation": max_violation,
        "identity_holds": bool(max_violation <= 1e-12 * float(np.max(traj.energy))),
        "fitted_rate": fit.rate,
        "guaranteed_rate": guaranteed,
        "rate_holds": bool(fit.rate >= guaranteed - RATE_TOL),
        "fit_residual": fit.residual,
    }


def mode_sweep(lambdas: Sequence[float]) -> list:
    """Integrate a family of eigenvalues and summarise one row each.

    Each mode runs from ``(u, u') = (1, -1)`` over ``T in [0, 8]`` in 2000
    steps, its energy rate fitted over the whole run.  Rows follow
    :data:`MODE_CSV_COLUMNS`: eigenvalue, decay constants, fitted energy
    rate, smallest eigenvalue of the energy quadratic form, and the worst
    value of the dissipation identity.
    """
    rows = []
    for lam in lambdas:
        traj = integrate_mode(lam, 1.0, -1.0, (0.0, 8.0), 2000)
        chk = energy_decay_check(traj)
        co = coercivity_check(lam, traj.constants.cE)
        rows.append([float(lam), traj.constants.alpha, traj.constants.cE,
                     chk["fitted_rate"], co["min_eig"], chk["max_violation"]])
    return rows
