"""Spatially homogeneous isotropic kinetic cosmology.

With zero shift and zero trace-free curvature the field equations close
on the conformal size ``b`` of the spatial metric ``g = b * gamma`` and
the distribution function.  The lapse is algebraic,

    N = 3 / (1 + 3 |Sigma|^2 + 3 s eta),

the Hamiltonian constraint is solvable in closed form,

    b = 1 / (1 - 6 s rho),

and the transport equation is solved exactly by rescaling the momentum
magnitude: ``f(T, q) = f0(q * sqrt(b / b0))``, so the support radius is
``G(T) = qmax0 * sqrt(b0 / b)``.

The evolution intentionally runs two discretisations side by side:

* dynamics — the scale-factor ODE ``b' = 2 (N/3 - 1) b`` and the
  continuity density are integrated with classical Runge-Kutta, with all
  momentum integrals evaluated through the exact-scaling closure on a
  Gauss-Legendre rule (spectrally accurate, and the closure makes the
  constraint propagate exactly at the continuous level).  The RK4 step
  is written out over one stage function, with the operations of
  ``_rk4.rk4_step`` in the same order, and the closure works in scratch
  arrays made once per run;
* logging — the distribution is materialised on a fixed momentum grid by
  cubic semi-Lagrangian interpolation along the exact characteristics
  and its moments are taken with the trapezoid rule, giving an
  independent second-order-in-``dq`` measurement whose constraint defect
  converges at the expected rate.  Of a log point only the checks that
  read its closure moments alone run at once, the lapse range and the
  lapse spot check.  Its grid work waits for the block flush, one pass
  over up to 64 log points on stacked ``(m, n_q)`` arrays: the grid
  distribution, its two trapezoid moments, the pole check, the
  constraint ``b`` and the weighted distribution energy ``E_report``
  (one ``sasaki_energy`` call), each row bitwise its own evaluation.
  An abort resolves as if every log point had run in full, checking
  lapse range, pole and spot check in this order: the first pole of the
  block wins, the rows from the abort on are dropped, and so are the
  steps taken past a pole (at most one block of log points).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._quadrature import composite_gauss_legendre, trapezoid
from .geometry import TimeFrame, make_time_frame
from .matter import RadialDistribution
from .energies import _not_a_knot_spline, sasaki_energy

__all__ = [
    "ConstraintSingularError",
    "HomogeneousRun",
    "solve_lapse_algebraic",
    "hamiltonian_constraint_b",
    "scaling_closure_moments",
    "initial_density",
    "evolve_homogeneous",
    "HOMOGENEOUS_CSV_COLUMNS",
]

HOMOGENEOUS_CSV_COLUMNS = ["T", "tau", "b_ode", "b_constraint", "N", "rho",
                           "eta_under", "G", "E_report"]

# log points whose distribution energies one sasaki_energy call evaluates;
# a block's arrays stay a few hundred kB, so the run's peak memory holds
_ENERGY_BLOCK = 64

# the fields of a distribution that sasaki_energy reads: a log point's
# grid and values are built valid, so they skip RadialDistribution's
# checks (about 25 us a log point)
_LogDistribution = namedtuple("_LogDistribution", "grid qmax values")


class ConstraintSingularError(ValueError):
    """Raised when ``s rho`` reaches the constraint pole at ``1/6``."""


def solve_lapse_algebraic(Sigma2: float, sEta: float) -> float:
    """Algebraic lapse ``3 / (1 + 3 |Sigma|^2 + 3 s eta)``.

    Matter only lowers the lapse below its vacuum value 3; a negative
    energy input would push it above and is rejected.
    """
    if sEta < 0.0:
        raise ValueError("s * eta must be nonnegative")
    if Sigma2 < 0.0:
        raise ValueError("|Sigma|^2 must be nonnegative")
    return 3.0 / (1.0 + 3.0 * Sigma2 + 3.0 * sEta)


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

    def rows(self) -> list:
        """CSV rows following :data:`HOMOGENEOUS_CSV_COLUMNS`."""
        cols = [getattr(self, name) for name in HOMOGENEOUS_CSV_COLUMNS]
        return [list(map(float, vals)) for vals in zip(*cols)]


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
    operand costs about 0.3 us more per call).  At 96 nodes a call cost
    5.9 us against 9.4 us allocating its arrays (``bench/bench.py``
    ``closure_us_per_call`` in ``BENCH_12.json``, 2-vCPU VM): seven numpy
    calls at their per-call floor.
    """
    c, ones, t, ph, terms, rho_terms, eta_terms, sums = scratch
    c[()] = s**2 * r
    np.multiply(c, u2, t)
    np.add(ones, t, t)
    np.sqrt(t, ph)
    np.multiply(wf, ph, t)
    np.multiply(t, u2, rho_terms)
    np.divide(wfu4, ph, eta_terms)
    rho_sum, eta_sum = np.add.reduce(terms, 1, None, sums).tolist()
    return (4.0 * math.pi * r**1.5 * rho_sum,
            4.0 * math.pi * r**2.5 * eta_sum)


def initial_density(f0: RadialDistribution, tau0: float,
                    n_nodes: int = 96) -> float:
    """Initial energy density ``rho0`` of :func:`evolve_homogeneous`.

    The exact-scaling closure at ``T = 0`` on ``n_nodes`` Gauss-Legendre
    nodes; the run can start only if ``|tau0| rho0 < 1/6`` (the
    constraint pole).
    """
    return scaling_closure_moments(*_closure_nodes(f0, n_nodes), 1.0,
                                   abs(float(tau0)))[0]


def evolve_homogeneous(f0: RadialDistribution, tau0: float, T_end: float,
                       n_steps: int, n_q: int = 257, log_every: int = 10,
                       n_nodes: int = 96,
                       lapse_tol: float = 1e-9) -> HomogeneousRun:
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
    ``|N - 3| <= 10 (|Sigma|^2 + s rho + s^3 eta_under)``.

    The run aborts (with ``completed=False`` and the reason recorded)
    if the lapse leaves ``(0, 3 + tol]``, the constraint reaches its
    pole, or the spot check fails, checked in this order at each log
    point.  A log point computes its closure moments and lapse at once,
    and with them the two checks that read nothing else: the lapse range
    and the spot check.  The rest waits for the block flush, on stacked
    arrays of up to ``_ENERGY_BLOCK`` log points: the grids and the
    distributions on them, their trapezoid moments, the pole check ``s
    rho >= 1/6`` on the grid ``rho``, the constraint ``b``, the cell
    volumes ``sqrt(det(b I))`` and one ``sasaki_energy`` call.  A block
    is flushed when it is full, when a log point fails an inline check,
    and at the end of the run.  The first pole among its log points wins
    over the inline failure (which comes after the pole check of its own
    log point only for the spot check), and the rows from the abort on
    are dropped.  So a pole stops the run up to one block of log points
    late; the steps taken past it, which cannot raise (``b`` stays
    positive and the closure moments nonnegative), are thrown away.
    Rows, energies and reason are bitwise those of a run that does every
    log point in full.
    """
    if n_steps < 1 or n_steps % log_every != 0:
        raise ValueError("n_steps must be a positive multiple of log_every")
    s0 = abs(float(tau0))
    nodes = _closure_nodes(f0, n_nodes)
    # initial_density, from the nodes just built
    rho0 = scaling_closure_moments(*nodes, 1.0, s0)[0]
    b0 = hamiltonian_constraint_b(rho0, make_time_frame(tau0, 0.0))

    def stage(s, b, rho_cont):
        # slopes of b' = 2 (N/3 - 1) b and of the continuity equation; the
        # lapse is written out here and at the log point, since a shared
        # helper costs one more Python call in each of the 4 stages a step
        s2 = s**2
        rho_c, eta_c = scaling_closure_moments(*nodes, b0 / b, s)
        N = solve_lapse_algebraic(0.0, s * (rho_c + s2 * eta_c))
        N3 = N / 3.0
        return 2.0 * (N3 - 1.0) * b, (3.0 - N) * rho_cont - s2 * N3 * eta_c

    q_fine = np.linspace(0.0, f0.qmax, 4 * n_q)
    f0_spline = _not_a_knot_spline(q_fine, f0(q_fine))

    h = T_end / n_steps
    half, sixth = h / 2, h / 6
    exp = math.exp
    b, rho_cont = b0, rho0
    # per log point whose grid work waits for the block flush: T, tau, b,
    # N, rho_c, eta_c, rho_cont, s, tau^2 and the support stretch
    pending = []
    blocks, E_report = [], []  # (11, m) logged series and energies a block
    completed, abort_reason = True, None

    def flush(failure=None, drop=0):
        # the grid work of the pending log points, each row bitwise its
        # own evaluation; the log grid rides the exact characteristics: its
        # last node sits on the support edge, so the trapezoid error stays
        # second order with a smooth coefficient under grid refinement.
        # The first pole wins over the inline `failure`; the rows from it
        # on are dropped, and so are the last `drop` rows (a log point
        # that failed its spot check)
        nonlocal completed, abort_reason
        keep = len(pending) - drop
        if pending:
            T, tau, b, N, rho_c, eta_c, rho_cont, s, tau2, stretch = \
                np.array(pending).T
            pending.clear()
            G = f0.qmax * stretch
            q = np.linspace(0.0, G, n_q, axis=-1)
            fq = np.clip(f0_spline(q / stretch[:, None]), 0.0, None)
            q2 = q**2
            ph = np.sqrt(1.0 + tau2[:, None] * q2)
            terms = np.empty((len(q), 2, n_q))
            np.multiply(fq * ph, q2, terms[:, 0])
            np.divide(fq * q**4, ph, terms[:, 1])
            rho_g, eta_g = (4.0 * math.pi * trapezoid(terms, q[:, None])).T
            srho = s * rho_g
            poles = np.flatnonzero(srho >= 1.0 / 6.0)
            if poles.size:
                keep = poles[0]
                failure = f"constraint pole at T={float(T[keep])}"
            if keep:
                rows = np.array([T, tau, b, srho, N, rho_g, eta_g, G, rho_c,
                                 eta_c, rho_cont])[:, :keep]
                # the constraint b = 1 / (1 - 6 s rho) of the rows short of
                # the pole
                rows[3] = 1.0 / (1.0 - 6.0 * rows[3])
                blocks.append(rows)
                # the metric b I enters the energy only through sqrt(det g),
                # so it goes in as the cell volume; det is taken as
                # sasaki_energy takes it from a geometry (b**3 can differ in
                # the last bit)
                vol = np.sqrt(np.linalg.det(b[:keep, None, None] * np.eye(3)))
                E_report.extend(sasaki_energy(
                    list(map(_LogDistribution, q[:keep], G[:keep],
                             fq[:keep])),
                    None, ell=2, mu=4.0, ladder_ell=5, vol_cell=vol))
        if failure is not None:
            completed, abort_reason = False, failure
        return failure is None

    def log_point(T, b, rho_cont):
        # the checks that read only the closure run at once; the rest of
        # the log point waits in `pending` for the block flush
        frame = make_time_frame(tau0, T)
        s = frame.s
        rho_c, eta_c = scaling_closure_moments(*nodes, b0 / b, s)
        N = solve_lapse_algebraic(0.0, s * (rho_c + s**2 * eta_c))
        if not (0.0 < N <= 3.0 * (1.0 + lapse_tol)):
            return flush(f"lapse left (0, 3] at T={T}")
        pending.append([T, frame.tau, b, N, rho_c, eta_c, rho_cont, s,
                        frame.tau**2, math.sqrt(b0 / b)])
        if abs(N - 3.0) > 10.0 * (s * rho_c + s**3 * eta_c) + 1e-14:
            # the pole check of this log point still comes first
            return flush(f"lapse spot check failed at T={T}", drop=1)
        return len(pending) < _ENERGY_BLOCK or flush()

    if log_point(0.0, b, rho_cont):
        # classical Runge-Kutta written out: the same floating-point
        # operations, in the same order, as rk4_step driven by the two
        # slopes (pinned bitwise by the tests), with h/2, h/6 and the scale
        # s at t + h/2 hoisted, as in modes.integrate_mode
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
            if (i + 1) % log_every == 0 and not log_point((i + 1) * h, b,
                                                           rho_cont):
                break
        else:
            flush()

    # the empty block keeps the eleven series when a run aborts at T = 0
    series = np.concatenate([np.empty((11, 0)), *blocks], axis=1)
    return HomogeneousRun(*series[:8], np.array(E_report, dtype=float),
                          *series[8:], b0=b0, completed=completed,
                          abort_reason=abort_reason)
