"""Kinetic matter moments, their evolution identities and a priori bounds.

A collisionless distribution function feeds the field equations only
through a handful of momentum averages: the energy density, the momentum
density, the pressure trace, the stress tensor and the derived source
tensor of the metric evolution.  This module computes those moments from
either

* a :class:`RadialDistribution` — an isotropic profile ``f(q)`` of the
  frame-metric momentum magnitude (requires vanishing shift), integrated
  with composite Gauss-Legendre quadrature, or
* a :class:`ParticleEnsemble` — weighted momentum samples with fully
  general kernels,

and provides the exact continuity system the moments satisfy (its
right-hand side at the background feeds the ``background_check``
scenario's vacuum check) and the Cauchy-Schwarz moment bounds with
explicit constants.  :func:`eta_direct` evaluates ``eta`` with one
combined kernel, the reference the moment tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._quadrature import composite_gauss_legendre
from .geometry import LocalGeometry, TimeFrame
from .massshell import compute_p0
from .transport import ParticleEnsemble
from .energies import inverse_weight_integral, sasaki_energy

__all__ = [
    "UnsupportedModeError",
    "RadialDistribution",
    "MatterMoments",
    "moments_from_distribution",
    "eta_direct",
    "continuity_rhs",
    "moment_bound_check",
]


class UnsupportedModeError(ValueError):
    """Raised when a reduction is asked for outside its validity regime."""


# ---------------------------------------------------------------------------
# distribution representations
# ---------------------------------------------------------------------------


@dataclass
class RadialDistribution:
    """Isotropic distribution ``f(q)`` of the momentum magnitude ``q = |p|_g``.

    Either ``values`` on ``grid`` (linear interpolation between nodes) or
    a callable ``profile`` must be given; outside ``[0, qmax]`` the
    distribution vanishes identically.  Nonnegativity and compact support
    are validated on construction.
    """

    grid: np.ndarray
    qmax: float
    values: Optional[np.ndarray] = None
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float)
        self.qmax = float(self.qmax)
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise ValueError("grid must be a 1-d array with >= 2 nodes")
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.qmax <= 0.0:
            raise ValueError("qmax must be positive")
        if (self.values is None) == (self.profile is None):
            raise ValueError("give exactly one of values or profile")
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=float)
            if self.values.shape != self.grid.shape:
                raise ValueError("values must match the grid shape")
            if np.any(self.values < 0.0):
                raise ValueError("distribution values must be nonnegative")
            beyond = self.grid > self.qmax
            if np.any(np.abs(self.values[beyond]) > 0.0):
                raise ValueError("distribution must vanish beyond qmax")
        else:
            probe = self.profile(self.grid[self.grid <= self.qmax])
            if np.any(np.asarray(probe) < 0.0):
                raise ValueError("distribution profile must be nonnegative")

    def __call__(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if self.profile is not None:
            out = np.asarray(self.profile(q), dtype=float)
        else:
            out = np.interp(q, self.grid, self.values, left=self.values[0],
                            right=0.0)
        return np.where((q >= 0.0) & (q <= self.qmax), out, 0.0)


@dataclass
class MatterMoments:
    """The momentum averages at one time slice (nondimensional variables).

    ``rho`` energy density, ``j`` momentum density (contravariant),
    ``eta_under`` pressure trace with the inverse-energy kernel,
    ``T_under`` stress tensor (contravariant), ``S`` source tensor
    (covariant), ``eta = rho + tau^2 eta_under``.
    """

    rho: float
    j: np.ndarray
    eta_under: float
    T_under: np.ndarray
    S: np.ndarray
    eta: float
    tau: float

    def __post_init__(self) -> None:
        self.j = np.asarray(self.j, dtype=float)
        self.T_under = np.asarray(self.T_under, dtype=float)
        self.S = np.asarray(self.S, dtype=float)
        if self.rho < 0.0:
            raise ValueError("energy density must be nonnegative")
        if self.eta_under < 0.0:
            raise ValueError("pressure trace must be nonnegative")
        if np.any(np.linalg.eigvalsh(self.T_under) < -1e-12):
            raise ValueError("stress tensor must be positive semidefinite")
        if not math.isclose(self.eta, self.rho + self.tau**2 * self.eta_under,
                            rel_tol=1e-12, abs_tol=1e-14):
            raise ValueError("eta must equal rho + tau^2 eta_under")


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def _require_isotropic(geom: LocalGeometry, what: str) -> None:
    if float(np.max(np.abs(geom.X))) > 0.0:
        raise UnsupportedModeError(
            f"{what} uses the isotropic reduction, which needs zero shift")


def moments_from_distribution(f, geom: LocalGeometry, frame: TimeFrame,
                              n_nodes: int = 64) -> MatterMoments:
    """Momentum averages of a distribution at one slice.

    For a :class:`RadialDistribution` (zero shift required) the isotropic
    closed reductions are used, with ``phat = sqrt(1 + tau^2 q^2)``::

        rho       = 4 pi int f phat q^2 dq
        j         = 0
        eta_under = 4 pi int f q^4 / phat dq
        T_under   = (eta_under / 3) ginv
        S         = g (rho / 2 - tau^2 eta_under / 6)

    For a :class:`ParticleEnsemble` (weights carry the full phase-space
    measure) the general kernels are summed:
    ``N p0`` for ``rho``, ``p^a`` for ``j``, ``|p + p0 X / s|^2_g / (N p0)``
    for ``eta_under`` and ``p^a p^b / (N p0)`` for ``T_under``; the source
    tensor is assembled from the isotropic trace part.
    """
    tau = frame.tau
    if isinstance(f, RadialDistribution):
        _require_isotropic(geom, "moments_from_distribution")
        q, w = composite_gauss_legendre(0.0, f.qmax, n_nodes)
        fv = f(q)
        ph = np.sqrt(1.0 + tau**2 * q**2)
        rho = 4.0 * math.pi * float(np.sum(w * fv * ph * q**2))
        eta_under = 4.0 * math.pi * float(np.sum(w * fv * q**4 / ph))
        j = np.zeros(3)
        T_under = (eta_under / 3.0) * geom.ginv
    elif isinstance(f, ParticleEnsemble):
        p = f.p
        wgt = f.weights
        p0 = compute_p0(geom, p, frame, method="paper_primary")
        pund = geom.N * p0
        rho = float(np.sum(wgt * pund))
        j = np.einsum("n,na->a", wgt, p)
        v = p + (p0[:, None] / frame.s) * geom.X
        v2 = np.einsum("na,ab,nb->n", v, geom.g, v)
        eta_under = float(np.sum(wgt * v2 / pund))
        T_under = np.einsum("n,na,nb->ab", wgt / pund, p, p)
    else:
        raise TypeError(f"unsupported distribution type {type(f).__name__}")
    S = geom.g * (0.5 * rho - tau**2 * eta_under / 6.0)
    eta = rho + tau**2 * eta_under
    return MatterMoments(rho=rho, j=j, eta_under=eta_under, T_under=T_under,
                         S=S, eta=eta, tau=tau)


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


# ---------------------------------------------------------------------------
# continuity system
# ---------------------------------------------------------------------------

_GRADIENT_KEYS = ("X_grad_rho", "div_N2j", "X_grad_j", "gradX_j", "div_NT")


def continuity_rhs(rho: float, j: np.ndarray, geom: LocalGeometry,
                   frame: TimeFrame, eta_under: float,
                   gradients: Optional[dict] = None) -> tuple:
    """Exact evolution system of the first two moments.

    Returns ``(d_T rho, d_T j)`` with::

        d_T rho = (3 - N) rho - X.grad(rho) + (tau/N) div(N^2 j)
                  - tau^2 (N/3) g:T_under - tau^2 N Sigma:T_under
        d_T j^a = (5/3)(3 - N) j^a - X.grad(j^a) - (grad^a X_b) j^b
                  + tau div_b(N T^{ab}) - 2 N Sigma^a_b j^b
                  - (1/s) rho grad^a N

    The spatial-gradient contractions cannot be formed from pointwise
    data; for inhomogeneous states they must be supplied through
    ``gradients`` (keys ``X_grad_rho, div_N2j, X_grad_j, gradX_j,
    div_NT``), otherwise an :class:`UnsupportedModeError` is raised.
    Homogeneous states (zero shift, zero lapse gradient) need no extras.
    The stress is the isotropic ``T_under = (eta_under / 3) ginv``.
    """
    tau, s = frame.tau, frame.s
    g, N, X, Sigma = geom.g, geom.N, geom.X, geom.Sigma
    j = np.asarray(j, dtype=float)
    T_under = (eta_under / 3.0) * geom.ginv
    dN = geom.dN if geom.dN is not None else np.zeros(3)
    homogeneous = (float(np.max(np.abs(X))) == 0.0
                   and float(np.max(np.abs(dN))) == 0.0)
    if gradients is None:
        if not homogeneous:
            raise UnsupportedModeError(
                "inhomogeneous continuity needs the gradient contractions "
                f"{_GRADIENT_KEYS}")
        gradients = {}
    X_grad_rho = gradients.get("X_grad_rho", 0.0)
    div_N2j = gradients.get("div_N2j", 0.0)
    X_grad_j = np.asarray(gradients.get("X_grad_j", np.zeros(3)), dtype=float)
    gradX_j = np.asarray(gradients.get("gradX_j", np.zeros(3)), dtype=float)
    div_NT = np.asarray(gradients.get("div_NT", np.zeros(3)), dtype=float)

    gT = float(np.einsum("ab,ab->", g, T_under))
    SigmaT = float(np.einsum("ab,ab->", Sigma, T_under))
    drho = ((3.0 - N) * rho - X_grad_rho + (tau / N) * div_N2j
            - tau**2 * (N / 3.0) * gT - tau**2 * N * SigmaT)
    Sigma_mixed = geom.ginv @ Sigma
    dj = ((5.0 / 3.0) * (3.0 - N) * j - X_grad_j - gradX_j + tau * div_NT
          - 2.0 * N * (Sigma_mixed @ j) - (rho / s) * (geom.ginv @ dN))
    return float(drho), dj


# ---------------------------------------------------------------------------
# moment bounds
# ---------------------------------------------------------------------------


def moment_bound_check(f: RadialDistribution, geom: LocalGeometry,
                       frame: TimeFrame, ell: int) -> dict:
    """Cauchy-Schwarz moment bounds with the explicit weight constant.

    Each moment norm over the unit homogeneous cell is compared against
    ``C(mu) E_{ell,mu}`` where ``C(mu)^2 = vol_g * 4 pi I(mu)`` with
    ``I(mu)`` the closed-form inverse-weight integral and ``E`` the
    weighted distribution energy: density and momentum density against
    ``mu = 3``, stress against ``mu = 4``, and the source tensor against
    the trace combination of the two.  The kernel comparison needs the
    scale factor at or below one (raised otherwise) and at least one
    momentum weight spent on the Cauchy-Schwarz split, hence ``ell >= 2``;
    ``ell >= 4`` is flagged as the regime the constants are designed for.
    """
    if frame.s > 1.0:
        raise ValueError("moment bounds require scale factor s <= 1")
    if ell < 2:
        raise ValueError("moment bounds need weight order ell >= 2")
    _require_isotropic(geom, "moment_bound_check")
    mom = moments_from_distribution(f, geom, frame)
    vol_g = math.sqrt(float(np.linalg.det(geom.g)))
    sqrt_vol = math.sqrt(vol_g)

    def C(mu):
        return math.sqrt(vol_g * 4.0 * math.pi * inverse_weight_integral(mu))

    # f as one row of samples on its grid, in a cell of metric volume vol_g
    values = f.values if f.profile is None else f.profile(f.grid)
    row = (f.grid[None], np.asarray(values, dtype=float)[None],
           np.array([f.qmax]))

    def E(mu):
        return float(sasaki_energy(*row, ell=min(ell, 2), mu=mu,
                                   ladder_ell=ell, vol=vol_g)[0])

    E3, E4 = E(3.0), E(4.0)

    tau = frame.tau
    checks = {
        "rho": (abs(mom.rho) * sqrt_vol, C(3.0) * E3),
        "j": (float(np.sqrt(mom.j @ geom.g @ mom.j)) * sqrt_vol, C(3.0) * E3),
        "T_under": ((mom.eta_under / math.sqrt(3.0)) * sqrt_vol, C(4.0) * E4),
        "S": (math.sqrt(3.0) * abs(0.5 * mom.rho - tau**2 * mom.eta_under / 6.0)
              * sqrt_vol,
              math.sqrt(3.0) * (0.5 * C(3.0) * E3
                                + (tau**2 / 6.0) * math.sqrt(3.0) * C(4.0) * E4)),
    }
    report = {name: {"lhs": lhs, "rhs": rhs,
                     "holds": bool(lhs <= rhs * (1.0 + 1e-12))}
              for name, (lhs, rhs) in checks.items()}
    report["all_hold"] = all(v["holds"] for k, v in report.items()
                             if isinstance(v, dict))
    report["within_design_regime"] = bool(ell >= 4)
    return report

