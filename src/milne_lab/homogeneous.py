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
  constraint propagate exactly at the continuous level);
* logging — the distribution is materialised on a fixed momentum grid by
  cubic semi-Lagrangian interpolation along the exact characteristics
  and its moments are taken with the trapezoid rule, giving an
  independent second-order-in-``dq`` measurement whose constraint defect
  converges at the expected rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._quadrature import composite_gauss_legendre, trapezoid
from ._rk4 import rk4_step
from .geometry import LocalGeometry, TimeFrame, make_time_frame
from .matter import RadialDistribution
from .energies import sasaki_energy

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
        cols = [self.T, self.tau, self.b_ode, self.b_constraint, self.N,
                self.rho, self.eta_under, self.G, self.E_report]
        return [list(map(float, vals)) for vals in zip(*cols)]


def _closure_nodes(f0: RadialDistribution, n_nodes: int) -> tuple:
    """Node products ``(w f0(u), u^2, w f0(u) u^4)`` of the closure.

    ``u``, ``w`` are the ``n_nodes``-point composite Gauss-Legendre rule
    on ``[0, qmax]`` of the initial distribution ``f0``; they depend only
    on ``f0``, so a run builds them once for all its closure calls.
    """
    u, w = composite_gauss_legendre(0.0, f0.qmax, n_nodes)
    wf = w * f0(u)
    return wf, u**2, wf * u**4


def scaling_closure_moments(wf: np.ndarray, u2: np.ndarray,
                            wfu4: np.ndarray, r: float, s: float) -> tuple:
    """Exact-scaling momentum integrals ``(rho, eta_under)``.

    ``r = b0 / b`` is the squared support stretch; substituting the
    characteristic rescaling into the isotropic moment integrals gives::

        rho       = 4 pi r^{3/2} int f0(u) sqrt(1 + s^2 r u^2) u^2 du
        eta_under = 4 pi r^{5/2} int f0(u) u^4 / sqrt(1 + s^2 r u^2) du

    evaluated on fixed initial-magnitude nodes ``u`` with weights ``w``,
    passed as the node products ``wf = w f0(u)``, ``u2 = u^2`` and
    ``wfu4 = wf u^4`` — no interpolation enters the dynamics.  The sums
    run over ``(wf ph) u2`` and ``wfu4 / ph`` with ``ph = sqrt(1 + s^2 r
    u2)``, i.e. ``w f0 ph u^2`` and ``w f0 u^4 / ph`` evaluated left to
    right, and ``np.add.reduce`` is ``np.sum``'s reduction without its
    dispatch.  A run builds the products once (:func:`_closure_nodes`), so
    a call costs about 8 us at 96 nodes (``bench/bench.py``, 2-vCPU VM).
    """
    ph = np.sqrt(1.0 + (s**2 * r) * u2)
    rho = 4.0 * math.pi * r**1.5 * float(np.add.reduce(wf * ph * u2))
    eta_under = 4.0 * math.pi * r**2.5 * float(np.add.reduce(wfu4 / ph))
    return rho, eta_under


def initial_density(f0: RadialDistribution, tau0: float,
                    n_nodes: int = 96) -> float:
    """Initial energy density ``rho0`` of :func:`evolve_homogeneous`.

    The exact-scaling closure at ``T = 0`` on ``n_nodes`` Gauss-Legendre
    nodes; the run can start only if ``|tau0| rho0 < 1/6`` (the
    constraint pole).
    """
    return scaling_closure_moments(*_closure_nodes(f0, n_nodes), 1.0,
                                   abs(float(tau0)))[0]


def _lapse_from_closure(nodes, b, b0, s):
    r = b0 / b
    rho_c, eta_c = scaling_closure_moments(*nodes, r, s)
    eta = rho_c + s**2 * eta_c
    N = solve_lapse_algebraic(0.0, s * eta)
    return N, rho_c, eta_c


def evolve_homogeneous(f0: RadialDistribution, tau0: float, T_end: float,
                       n_steps: int, n_q: int = 257, log_every: int = 10,
                       n_nodes: int = 96, lapse_tol: float = 1e-9,
                       energy_ell: int = 2, energy_ladder: int = 5,
                       energy_mu: float = 4.0) -> HomogeneousRun:
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
    pole, or the spot check fails.
    """
    from scipy.interpolate import CubicSpline

    if n_steps < 1 or n_steps % log_every != 0:
        raise ValueError("n_steps must be a positive multiple of log_every")
    s0 = abs(float(tau0))
    nodes = _closure_nodes(f0, n_nodes)

    rho0 = initial_density(f0, tau0, n_nodes)
    b0 = hamiltonian_constraint_b(rho0, make_time_frame(tau0, 0.0))

    f0_spline = CubicSpline(np.linspace(0.0, f0.qmax, 4 * n_q),
                            f0(np.linspace(0.0, f0.qmax, 4 * n_q)))

    def rhs(T, y):
        b, rho_cont = y
        s = s0 * math.exp(-T)
        N, rho_c, eta_c = _lapse_from_closure(nodes, b, b0, s)
        db = 2.0 * (N / 3.0 - 1.0) * b
        drho = (3.0 - N) * rho_cont - s**2 * (N / 3.0) * eta_c
        return db, drho

    h = T_end / n_steps
    b, rho_cont = b0, rho0
    logs = {k: [] for k in ("T", "tau", "b_ode", "b_constraint", "N", "rho",
                            "eta_under", "G", "E_report", "rho_closure",
                            "eta_under_closure", "rho_cont")}
    completed, abort_reason = True, None

    def log_point(T, b, rho_cont):
        nonlocal completed, abort_reason
        frame = make_time_frame(tau0, T)
        s = frame.s
        N, rho_c, eta_c = _lapse_from_closure(nodes, b, b0, s)
        if not (0.0 < N <= 3.0 * (1.0 + lapse_tol)):
            completed, abort_reason = False, f"lapse left (0, 3] at T={T}"
            return False
        # the log grid rides the exact characteristics: its last node sits
        # on the support edge, so the trapezoid error stays second order
        # with a smooth coefficient under grid refinement
        stretch = math.sqrt(b0 / b)
        q_grid = np.linspace(0.0, f0.qmax * stretch, n_q)
        fq = np.clip(f0_spline(q_grid / stretch), 0.0, None)
        ph = np.sqrt(1.0 + frame.tau**2 * q_grid**2)
        rho_g = 4.0 * math.pi * float(trapezoid(fq * ph * q_grid**2, q_grid))
        eta_g = 4.0 * math.pi * float(trapezoid(fq * q_grid**4 / ph, q_grid))
        if s * rho_g >= 1.0 / 6.0:
            completed, abort_reason = False, f"constraint pole at T={T}"
            return False
        b_con = hamiltonian_constraint_b(rho_g, frame)
        if abs(N - 3.0) > 10.0 * (s * rho_c + s**3 * eta_c) + 1e-14:
            completed, abort_reason = False, f"lapse spot check failed at T={T}"
            return False
        geom = LocalGeometry(g=b * np.eye(3), Sigma=np.zeros((3, 3)), N=N,
                             X=np.zeros(3))
        f_now = RadialDistribution(grid=q_grid, qmax=f0.qmax * stretch,
                                   values=fq)
        E = sasaki_energy(f_now, geom, ell=energy_ell, mu=energy_mu,
                          ladder_ell=energy_ladder)
        row = {"T": T, "tau": frame.tau, "b_ode": b, "b_constraint": b_con,
               "N": N, "rho": rho_g, "eta_under": eta_g,
               "G": f0.qmax * stretch, "E_report": E, "rho_closure": rho_c,
               "eta_under_closure": eta_c, "rho_cont": rho_cont}
        for k, v in row.items():
            logs[k].append(v)
        return True

    if log_point(0.0, b, rho_cont):
        for i in range(n_steps):
            b, rho_cont = rk4_step(rhs, i * h, (b, rho_cont), h)
            if (i + 1) % log_every == 0:
                if not log_point((i + 1) * h, b, rho_cont):
                    break

    return HomogeneousRun(
        T=np.array(logs["T"]), tau=np.array(logs["tau"]),
        b_ode=np.array(logs["b_ode"]),
        b_constraint=np.array(logs["b_constraint"]), N=np.array(logs["N"]),
        rho=np.array(logs["rho"]), eta_under=np.array(logs["eta_under"]),
        G=np.array(logs["G"]), E_report=np.array(logs["E_report"]),
        rho_closure=np.array(logs["rho_closure"]),
        eta_under_closure=np.array(logs["eta_under_closure"]),
        rho_cont=np.array(logs["rho_cont"]), b0=b0,
        completed=completed, abort_reason=abort_reason)
