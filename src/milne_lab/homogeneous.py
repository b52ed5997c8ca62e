"""Spatially homogeneous isotropic kinetic cosmology.

With zero shift and zero trace-free curvature the field equations close
on the conformal size ``b`` of the spatial metric ``g = b * gamma`` and
the distribution function.  The lapse is algebraic,

    N = 3 / (1 + 3 s eta),

the Hamiltonian constraint is solvable in closed form,

    b = 1 / (1 - 6 s rho),

and the transport equation is solved exactly by rescaling the momentum
magnitude: ``f(T, q) = f0(q * sqrt(b / b0))``, so the support radius is
``G(T) = qmax0 * sqrt(b0 / b)``.

The evolution intentionally runs two discretisations, one after the
other:

* stepping — the scale-factor ODE ``b' = 2 (N/3 - 1) b`` and the
  continuity density are integrated with classical Runge-Kutta, with all
  momentum integrals evaluated through the exact-scaling closure on a
  Gauss-Legendre rule (spectrally accurate, and the closure makes the
  constraint propagate exactly at the continuous level).  The RK4 step
  is written out over one stage function, with the operations of the
  tests' ``references.rk4_step`` in the same order (pinned bitwise there),
  and the closure works in scratch arrays made once per run.  At stretch
  one the closure is the package's one quadrature of the isotropic
  moments, :func:`isotropic_moments`: the initial density ``rho0``, the
  run's guard ``|tau0| rho0 < 1/6`` (the constraint pole) and
  ``matter.moment_bound_check`` read it.  A log point records its
  closure moments and lapse and runs the two checks that read nothing
  else, the lapse range and the lapse spot check;
* measurement — after the stepping, the distribution of each logged
  point is materialised on a fixed momentum grid by cubic
  semi-Lagrangian interpolation along the exact characteristics and its
  moments are taken with the trapezoid rule, giving an independent
  second-order-in-``dq`` measurement whose constraint defect converges
  at the expected rate.  With them come the pole check, the constraint
  ``b`` and the weighted distribution energy ``E_report``.  The work
  goes in blocks of up to 64 log points on stacked ``(m, n_q)`` arrays
  in buffers made once per run, one ``sasaki_energy`` call a block, each
  row bitwise its own evaluation.  The ``f0`` spline is built once per
  run and evaluated in numpy.  It and the energy splines are each
  bitwise scipy's ``CubicSpline``, their slope systems assembled for and
  solved by a numpy transcription of LAPACK's ``dgtsv``, so a run imports
  no scipy; an energy spline forms only the pieces its Gauss nodes read.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ._quadrature import composite_gauss_legendre, trapezoid
from ._rk4 import check_count
from .geometry import TimeFrame, make_time_frame
from .energies import (LAPSE_UPPER_TOL, _not_a_knot_coefficients,
                       _spline_values, sasaki_energy)

if TYPE_CHECKING:  # matter reads its moments here, so no run-time import
    from .matter import RadialDistribution

__all__ = [
    "ConstraintSingularError",
    "HomogeneousRun",
    "solve_lapse_algebraic",
    "hamiltonian_constraint_b",
    "scaling_closure_moments",
    "isotropic_moments",
    "evolve_homogeneous",
    "HOMOGENEOUS_CSV_COLUMNS",
]

HOMOGENEOUS_CSV_COLUMNS = ["T", "tau", "b_ode", "b_constraint", "N", "rho",
                           "eta_under", "G", "E_report"]

# log points whose distribution energies one sasaki_energy call evaluates;
# a block's arrays stay a few hundred kB, so the run's peak memory holds
_ENERGY_BLOCK = 64

# the ufuncs of scaling_closure_moments, looked up once rather than on np
# at each of its 20 000 calls a default run
_multiply, _add, _sqrt, _divide = np.multiply, np.add, np.sqrt, np.divide
_add_reduce, _FOUR_PI = np.add.reduce, 4.0 * math.pi


class ConstraintSingularError(ValueError):
    """Raised when ``s rho`` reaches the constraint pole at ``1/6``."""


def solve_lapse_algebraic(sEta: float) -> float:
    """Algebraic lapse ``3 / (1 + 3 s eta)``.

    Matter only lowers the lapse below its vacuum value 3; a negative
    energy input would push it above and is rejected.
    """
    if sEta < 0.0:
        raise ValueError("s * eta must be nonnegative")
    return 3.0 / (1.0 + 3.0 * sEta)


def hamiltonian_constraint_b(rho: float, frame: TimeFrame) -> float:
    """Closed-form constraint solution ``b = 1 / (1 - 6 s rho)``."""
    srho = frame.s * rho
    if srho >= 1.0 / 6.0:
        raise ConstraintSingularError(
            f"s * rho = {srho} at or beyond the constraint pole 1/6")
    if srho < 0.0:
        raise ValueError("s * rho must be nonnegative")
    return 1.0 / (1.0 - 6.0 * srho)


@dataclass
class HomogeneousRun:
    """Logged series and exit report of one homogeneous evolution.

    ``rho``/``eta_under`` are the grid-trapezoid measurements;
    ``rho_closure`` the spectral closure values; ``rho_cont`` the
    co-integrated continuity density; ``b_constraint`` the closed-form
    constraint evaluated on the grid ``rho``.
    """

    T: np.ndarray
    tau: np.ndarray
    b_ode: np.ndarray
    b_constraint: np.ndarray
    N: np.ndarray
    rho: np.ndarray
    eta_under: np.ndarray
    G: np.ndarray
    E_report: np.ndarray
    rho_closure: np.ndarray
    eta_under_closure: np.ndarray
    rho_cont: np.ndarray
    b0: float
    completed: bool
    abort_reason: Optional[str] = None


def _closure_nodes(f0: RadialDistribution, n_nodes: int) -> tuple:
    """Node products and scratch of :func:`scaling_closure_moments`.

    ``(w f0(u), u^2, w f0(u) u^4, scratch)`` on the ``n_nodes``-point
    composite Gauss-Legendre rule ``u``, ``w`` on ``[0, qmax]`` of the
    initial distribution ``f0``.  ``scratch`` holds a 0-d array for the
    scalar ``s^2 r``, a row of ones, two work rows, a ``(2, n_nodes)``
    block with its two rows and a ``(2,)`` array for the sums.  They
    depend only on ``f0``, so a run builds them once for all its closure
    calls.
    """
    u, w = composite_gauss_legendre(0.0, f0.qmax, n_nodes)
    wf = w * f0(u)
    terms = np.empty((2, n_nodes))
    scratch = (np.empty(()), np.ones(n_nodes), np.empty(n_nodes),
               np.empty(n_nodes), terms, *terms, np.empty(2))
    return wf, u**2, wf * u**4, scratch


def scaling_closure_moments(wf: np.ndarray, u2: np.ndarray,
                            wfu4: np.ndarray, scratch: tuple, r: float,
                            s: float) -> tuple:
    """Exact-scaling momentum integrals ``(rho, eta_under)``.

    ``r = b0 / b`` is the squared support stretch; substituting the
    characteristic rescaling into the isotropic moment integrals gives::

        rho       = 4 pi r^{3/2} int f0(u) sqrt(1 + s^2 r u^2) u^2 du
        eta_under = 4 pi r^{5/2} int f0(u) u^4 / sqrt(1 + s^2 r u^2) du

    evaluated on fixed initial-magnitude nodes ``u`` with weights ``w``,
    passed as the node products ``wf = w f0(u)``, ``u2 = u^2`` and
    ``wfu4 = wf u^4`` — no interpolation enters the dynamics.  With ``ph
    = sqrt(1 + s^2 r u2)``, the terms ``(wf ph) u2`` and ``wfu4 / ph``
    (``w f0 ph u^2`` and ``w f0 u^4 / ph`` evaluated left to right) go
    into the rows of one block, and one ``np.add.reduce`` over the block
    gives both sums, each bitwise ``np.sum`` of its row.  Every array
    operation writes into the ``scratch`` of :func:`_closure_nodes`,
    built once per run, and takes array operands only (a Python float
    operand costs about 0.3 us more per call).  Its ufuncs are bound to
    module names once, and ``s^2 r`` goes in by ``c[...] =`` (99 ns
    against 164 ns for ``c[()] =``): at 96 nodes a call took 0.92 of the
    4.3 us of the ``np.*`` form (median of 21 interleaved pairs, 2-vCPU
    VM), seven numpy calls at their per-call floor.  Runs call it
    through the module, so a wrapper bound there sees every call.
    """
    c, ones, t, ph, terms, rho_terms, eta_terms, sums = scratch
    c[...] = s**2 * r
    _multiply(c, u2, t)
    _add(ones, t, t)
    _sqrt(t, ph)
    _multiply(wf, ph, t)
    _multiply(t, u2, rho_terms)
    _divide(wfu4, ph, eta_terms)
    rho_sum, eta_sum = _add_reduce(terms, 1, None, sums).tolist()
    return _FOUR_PI * r**1.5 * rho_sum, _FOUR_PI * r**2.5 * eta_sum


def isotropic_moments(f: RadialDistribution, s: float,
                      n_nodes: int) -> tuple:
    """Moments ``(rho, eta_under)`` of ``f`` at scale factor ``s``: the
    closure at stretch ``r = 1`` on ``n_nodes`` Gauss-Legendre nodes."""
    return scaling_closure_moments(*_closure_nodes(f, n_nodes), 1.0, s)


def evolve_homogeneous(f0: RadialDistribution, tau0: float, T_end: float,
                       n_steps: int, n_q: int = 257, log_every: int = 10,
                       n_nodes: int = 96,
                       lapse_tol: float = LAPSE_UPPER_TOL) -> HomogeneousRun:
    """Evolve the reduced homogeneous system on ``[0, T_end]``.

    ``f0`` is the initial isotropic distribution as a function of the
    initial frame-metric momentum magnitude.  The initial conformal size
    follows from the constraint (the initial density does not depend on
    it), the scale-factor and continuity equations are stepped with
    classical Runge-Kutta using the exact-scaling closure, and every
    ``log_every`` steps the distribution is sampled onto an ``n_q``-point
    momentum grid spanning the current support for the independent trapezoid
    measurements, the support radius, the weighted distribution energy
    and the elliptic-lapse spot check
    ``|N - 3| <= 10 (s rho + s^3 eta_under)``.

    ``n_steps`` and ``log_every`` must be positive integers (``TypeError``
    or ``ValueError``), ``n_steps`` a multiple of ``log_every``.  The run
    aborts (with ``completed=False`` and the reason recorded) if the lapse
    leaves ``(0, 3 (1 + lapse_tol)]`` (by default the ceiling of the
    completeness monitor, ``energies.LAPSE_UPPER_TOL``), the constraint
    reaches its pole, or the spot check fails, checked in this order at each
    log point.  While stepping, a log point runs the checks that read only
    its closure moments and lapse, the lapse range and the spot check, and
    a failure stops the stepping.  After it, blocks of up to
    ``_ENERGY_BLOCK`` logged points get their grids, the distributions and
    trapezoid moments on them, the pole check ``s rho >= 1/6``, the
    constraint ``b``, the cell volumes ``sqrt(det(b I))`` and one
    ``sasaki_energy`` call.  A failure is a triple ``(row, check,
    reason)``, its check lapse range 0, pole 1 or spot check 2: the least
    is the outcome, and the rows from its row on are dropped.  A pole does
    not stop the stepping; the steps past it cannot raise (``b`` stays
    positive and the closure moments nonnegative).  Rows, energies and
    reason are bitwise those of a run that does every log point in full.
    """
    check_count("n_steps", n_steps)
    check_count("log_every", log_every)
    if n_steps % log_every != 0:
        raise ValueError("n_steps must be a multiple of log_every")
    if n_q < 2:  # a log grid spans [0, G]
        raise ValueError("n_q must be at least 2")
    s0 = abs(float(tau0))
    nodes = _closure_nodes(f0, n_nodes)
    # isotropic_moments, from the nodes just built
    rho0 = scaling_closure_moments(*nodes, 1.0, s0)[0]
    b0 = hamiltonian_constraint_b(rho0, make_time_frame(tau0, 0.0))

    def stage(s, b, rho_cont):
        # slopes of b' = 2 (N/3 - 1) b and of the continuity equation; the
        # lapse is written out here and at the log point, since a shared
        # helper costs one more Python call in each of the 4 stages a step
        s2 = s**2
        rho_c, eta_c = scaling_closure_moments(*nodes, b0 / b, s)
        N = solve_lapse_algebraic(s * (rho_c + s2 * eta_c))
        N3 = N / 3.0
        return 2.0 * (N3 - 1.0) * b, (3.0 - N) * rho_cont - s2 * N3 * eta_c

    # per log point T, tau, b, N, rho_c, eta_c, rho_cont and tau^2, in
    # doubles: a list of tuples would keep nine objects a log point alive
    logged = array("d")

    def log_point(T, b, rho_cont):
        # the checks that read only the closure; a failure is (row, check,
        # reason), and a spot-check failure's row is logged for its pole
        # check, which comes first
        frame = make_time_frame(tau0, T)
        s = frame.s
        rho_c, eta_c = scaling_closure_moments(*nodes, b0 / b, s)
        N = solve_lapse_algebraic(s * (rho_c + s**2 * eta_c))
        row = len(logged) // 8
        if not (0.0 < N <= 3.0 * (1.0 + lapse_tol)):
            return row, 0, f"lapse left (0, 3] at T={T}"
        logged.extend((T, frame.tau, b, N, rho_c, eta_c, rho_cont,
                       frame.tau**2))
        if abs(N - 3.0) > 10.0 * (s * rho_c + s**3 * eta_c) + 1e-14:
            return row, 2, f"lapse spot check failed at T={T}"
        return None

    h = T_end / n_steps
    half, sixth = h / 2, h / 6
    exp = math.exp
    b, rho_cont = b0, rho0
    failure = log_point(0.0, b, rho_cont)
    if failure is None:
        # classical Runge-Kutta written out: the same floating-point
        # operations, in the same order, as the tests' references.rk4_step
        # driven by the two slopes (pinned bitwise there), with h/2, h/6
        # and the scale s at t + h/2 hoisted, as in modes.integrate_mode
        for i in range(n_steps):
            t = i * h
            s_half = s0 * exp(-(t + half))
            db1, dr1 = stage(s0 * exp(-t), b, rho_cont)
            db2, dr2 = stage(s_half, b + half * db1, rho_cont + half * dr1)
            db3, dr3 = stage(s_half, b + half * db2, rho_cont + half * dr2)
            db4, dr4 = stage(s0 * exp(-(t + h)), b + h * db3,
                             rho_cont + h * dr3)
            b += sixth * (db1 + 2.0 * db2 + 2.0 * db3 + db4)
            rho_cont += sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
            if (i + 1) % log_every == 0 and (
                    failure := log_point((i + 1) * h, b, rho_cont)):
                break

    # the measurement, each row bitwise its own evaluation; the log grid
    # rides the exact characteristics: its last node sits on the support
    # edge, so the trapezoid error stays second order with a smooth
    # coefficient under grid refinement
    n = len(logged) // 8
    # the eleven series in the order of HomogeneousRun, then tau^2; the
    # logged scalars fill all rows but the grid measurements 3, 5, 6 and 7
    series = np.empty((12, n))
    series[[0, 1, 2, 4, 8, 9, 10, 11]] = np.reshape(logged, (n, 8)).T
    T, tau, b_ode, b_con, _, rho_g, eta_g, G, *_, tau2 = series
    E_report = np.empty(n)
    failures = [failure] if failure else []
    q_fine = np.linspace(0.0, f0.qmax, 4 * n_q)
    (x_f0,), (c_f0,) = _not_a_knot_coefficients(q_fine, f0(q_fine))
    # the block's arrays, made once per run: per log point the grid, its
    # initial magnitudes q / stretch, q^2, sqrt(1 + tau^2 q^2), a work row
    # and the two moment rows
    rows_block = np.empty((5, min(_ENERGY_BLOCK, n), n_q))
    terms_block = np.empty((min(_ENERGY_BLOCK, n), 2, n_q))
    for lo in range(0, n, _ENERGY_BLOCK):
        hi = min(lo + _ENERGY_BLOCK, n)
        q, q0, q2, ph, work = rows_block[:, :hi - lo]
        terms = terms_block[:hi - lo]
        stretch = np.sqrt(b0 / b_ode[lo:hi])
        np.multiply(f0.qmax, stretch, out=G[lo:hi])
        q[...] = np.linspace(0.0, G[lo:hi], n_q, axis=-1)
        np.divide(q, stretch[:, None], out=q0)
        fq = _spline_values(x_f0, c_f0, q0)
        np.clip(fq, 0.0, None, out=fq)
        np.square(q, out=q2)
        np.multiply(tau2[lo:hi, None], q2, out=ph)
        np.add(1.0, ph, out=ph)
        np.sqrt(ph, out=ph)
        rho_terms, eta_terms = terms.transpose(1, 0, 2)
        np.multiply(fq, ph, out=work)
        np.multiply(work, q2, out=rho_terms)
        np.power(q, 4, out=work)
        np.multiply(fq, work, out=work)
        np.divide(work, ph, out=eta_terms)
        rho_g[lo:hi], eta_g[lo:hi] = \
            (4.0 * math.pi * trapezoid(terms, q[:, None])).T
        srho = np.abs(tau[lo:hi]) * rho_g[lo:hi]
        poles = np.flatnonzero(srho >= 1.0 / 6.0)
        if poles.size:
            row = lo + int(poles[0])
            failures.append((row, 1, f"constraint pole at T={float(T[row])}"))
        keep = min(hi, min(failures, default=(hi,))[0]) - lo
        if keep > 0:
            # the constraint b = 1 / (1 - 6 s rho) of the rows short of the
            # abort, and the cell volume sqrt(det g) of the metric b I, its
            # det taken by np.linalg.det (b**3 can differ in the last bit)
            b_con[lo:lo + keep] = 1.0 / (1.0 - 6.0 * srho[:keep])
            vol = np.sqrt(np.linalg.det(b_ode[lo:lo + keep, None, None]
                                        * np.eye(3)))
            E_report[lo:lo + keep] = sasaki_energy(
                q[:keep], fq[:keep], G[lo:lo + keep], ell=2, mu=4.0,
                ladder_ell=5, vol=vol)
        if keep < hi - lo:
            break

    end, _, abort_reason = min(failures, default=(n, 0, None))
    return HomogeneousRun(*series[:8, :end], E_report[:end],
                          *series[8:11, :end], b0=b0,
                          completed=abort_reason is None,
                          abort_reason=abort_reason)
