"""Linear perturbation modes about the self-similar attractor.

Each spatial eigenmode of the linearised geometry decouples into a damped
oscillator in logarithmic time,

    u'' + 2 u' + 9 lambda u = 0,

where ``lambda`` is the (nonnegative) eigenvalue of the spatial operator.
The lab runs the source-free sector only: the matter source of the full
linearisation decays like the scale factor ``s ~ e^{-T}`` and is left
out.  The borderline eigenvalue ``lambda = 1/9`` gives a double
characteristic root ``-1``; above it the roots are complex with real part
``-1``.

The corrected quadratic energies combine the oscillator energy with a
cross term ``cE u' u`` chosen by :func:`milne_lab.geometry.correction_constants`
so that the energy is coercive and decays at the guaranteed rate
``2 alpha``.  The module provides the oscillator integration, the
corrected-energy ladder, the exact dissipation identity for verifying the
decay rate, the coercivity eigenvalue check, the decay check that decides
whether one mode decays at its guaranteed rate (``energy_decay_check``,
the one acceptance rule of the ``modes`` scenario), and the sweep that
runs it on each eigenvalue of a grid (``mode_sweep``, the scenario's rate
table).
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._rk4 import check_count
from .geometry import CorrectionConstants, correction_constants
from .energies import _fit_rate

__all__ = [
    "ModeTrajectory",
    "mode_rhs",
    "integrate_mode",
    "corrected_energy",
    "dissipation_identity",
    "energy_decay_check",
    "unstable_eigenvalue",
    "coercivity_check",
    "mode_sweep",
    "MODE_CSV_COLUMNS",
]

MODE_CSV_COLUMNS = ["lambda", "alpha", "cE", "fitted_rate",
                    "min_quadform_eig", "max_violation"]

# how far the fitted energy rate of the borderline mode may fall below
# its guaranteed rate 2 alpha
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


def mode_rhs(u: float, w: float, lam: float, T: float) -> tuple:
    """Right-hand side ``(u', w')`` of the damped mode oscillator at ``T``
    (autonomous: ``T`` is there for the ``f(T, y)`` form of a step)."""
    return w, -2.0 * w - 9.0 * lam * u


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
        try:
            factor = (1.0 - lam**order) / (1.0 - lam)
        except OverflowError:  # lam**order past the float range, lam > 1
            factor = math.inf
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
                   n_steps: int, eps_prime: float = 1.0 / 900.0,
                   record_every: int = 1) -> ModeTrajectory:
    """Classical Runge-Kutta integration of one eigenmode.

    Returns the logged trajectory with the corrected energy attached: the
    initial state and every ``record_every``-th step's, bitwise that
    slice of the full trajectory.  ``eps_prime`` is forwarded to the
    constant selection at the borderline eigenvalue.  ``n_steps`` and
    ``record_every`` must be positive integers (``TypeError`` or
    ``ValueError``), ``n_steps`` a multiple of ``record_every``
    (``ValueError``).
    """
    check_count("n_steps", n_steps)
    check_count("record_every", record_every)
    if n_steps % record_every:
        raise ValueError(f"n_steps must be a multiple of record_every, "
                         f"got {n_steps} and {record_every}")
    constants = correction_constants(lam, eps_prime=eps_prime)
    T0, T1 = float(T_span[0]), float(T_span[1])
    if not T1 > T0:
        raise ValueError("empty integration span")
    h = (T1 - T0) / n_steps
    # mode_rhs written out, with 9 lam, h/2 and h/6 hoisted: the same
    # floating-point operations, in the same order, as the generic RK4 step
    # of the tests (references.rk4_step) driven by mode_rhs, pinned bitwise
    # there.  The times are T0 + i h, as in that step's caller, computed
    # after the loop.  About 0.5 us a step
    # (bench/bench.py, 2-vCPU VM) against 2.4 us calling mode_rhs and 3-4
    # times that through the generic step; stepping the lambda grid as one
    # array is slower too.  The states go into arrays of doubles: lists
    # would keep a float object per value alive (about 0.8 MB more peak
    # memory in a report)
    half, sixth, lam9 = 0.5 * h, h / 6.0, 9.0 * lam
    u, w = float(u0), float(w0)
    U, W = array("d", [u]), array("d", [w])
    between = range(record_every)
    for _ in range(n_steps // record_every):
        for _ in between:
            # the u-slope of a stage is its w state (k1u = w), so k2u, k3u
            # and k4u are the stage values of w
            k1w = -2.0 * w - lam9 * u
            k2u = w + half * k1w
            k2w = -2.0 * k2u - lam9 * (u + half * w)
            k3u = w + half * k2w
            k3w = -2.0 * k3u - lam9 * (u + half * k2u)
            k4u = w + h * k3w
            k4w = -2.0 * k4u - lam9 * (u + h * k3u)
            u += sixth * (w + 2.0 * k2u + 2.0 * k3u + k4u)
            w += sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        U.append(u)
        W.append(w)
    T = np.concatenate(([T0], T0 + np.arange(record_every - 1, n_steps,
                                             record_every) * h + h))
    U, W = np.array(U), np.array(W)
    energy = corrected_energy(U, W, lam, constants)
    return ModeTrajectory(lam=lam, constants=constants, T=T, u=U, w=W,
                          energy=energy)


def unstable_eigenvalue(lambdas: Sequence[float],
                        h: float) -> Optional[float]:
    """The first of ``lambdas`` whose mode :func:`integrate_mode` cannot
    step stably at step ``h``, or None.

    A step multiplies each solution ``e^{zT}`` by the RK4 factor
    ``R(hz) = 1 + hz + (hz)^2/2 + (hz)^3/6 + (hz)^4/24``, so both roots
    ``z = -1 +- sqrt(1 - 9 lam)`` need ``|R(hz)| < 1``.  Python complex
    arithmetic warns of nothing: an overflow reads inf or nan and fails.
    """
    for lam in lambdas:
        root = cmath.sqrt(1.0 - 9.0 * lam)
        for z in (h * (root - 1.0), h * (-root - 1.0)):
            r = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
            if not r.real * r.real + r.imag * r.imag < 1.0:
                return lam
    return None


def energy_decay_check(traj: ModeTrajectory) -> dict:
    """Whether a source-free mode run decays at its guaranteed rate.

    Returns the mode's entry of the ``modes`` report: ``alpha``, ``cE``,
    the smallest eigenvalue ``min_quadform_eig`` of the energy form, the
    worst dissipation-identity value ``max_violation``, the log-linear
    energy rate ``fitted_rate`` over the whole run (``None``, the reason
    at ``unfitted``, if it cannot be fitted) and ``holds``: the form is
    positive definite, the identity stays <= 1e-12, and the rate is within
    0.02 of 2 above the borderline eigenvalue 1/9, at it no more than
    :data:`RATE_TOL` below ``2 alpha``.
    """
    c = traj.constants
    diss = dissipation_identity(traj.u, traj.w, traj.lam, c)
    entry = {"alpha": c.alpha, "cE": c.cE,
             "min_quadform_eig": coercivity_check(traj.lam, c.cE)["min_eig"],
             "max_violation": float(np.max(diss))}
    _fit_rate(entry, "fitted_rate", traj.T, traj.energy)
    rate = entry["fitted_rate"]
    rate_ok = rate is not None and (
        abs(rate - 2.0) <= 0.02 if traj.lam > 1.0 / 9.0 + 1e-12
        else rate >= 2.0 * c.alpha - RATE_TOL)
    entry["holds"] = bool(rate_ok and entry["max_violation"] <= 1e-12
                          and entry["min_quadform_eig"] > 0.0)
    return entry


def mode_sweep(lambdas: Sequence[float], T_span: tuple, n_steps: int,
               eps_prime: float) -> list:
    """:func:`energy_decay_check` of each eigenvalue of ``lambdas``, in order.

    Each mode runs from ``(u, u') = (1, -1)`` over ``T_span`` in
    ``n_steps`` steps, ``eps_prime`` setting the borderline constants.
    Each entry adds the eigenvalue at ``"lambda"``, so it holds every
    column of :data:`MODE_CSV_COLUMNS`.
    """
    entries = []
    for lam in lambdas:
        traj = integrate_mode(lam, 1.0, -1.0, T_span, n_steps,
                              eps_prime=eps_prime)
        entries.append({"lambda": float(lam), **energy_decay_check(traj)})
    return entries
