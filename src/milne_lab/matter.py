"""Kinetic matter moments, their evolution identities and a priori bounds.

A collisionless distribution function feeds the field equations only
through a handful of momentum averages: the energy density, the momentum
density, the pressure trace, the stress tensor and the source tensor of
the metric evolution.  This module holds the isotropic distribution
:class:`RadialDistribution` (a profile ``f(q)`` of the frame-metric
momentum magnitude, for a vanishing shift), the exact continuity system
the moments satisfy on homogeneous states (its right-hand side at the
background feeds the ``background_check`` scenario's vacuum check) and
the Cauchy-Schwarz moment bounds with explicit constants.  The bounds
read the density and the pressure trace from the homogeneous closure at
stretch one (``homogeneous.isotropic_moments``), the package's one
Gauss-Legendre quadrature of the isotropic moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import LocalGeometry, TimeFrame
from .energies import inverse_weight_integral, sasaki_energy
from .homogeneous import isotropic_moments

__all__ = [
    "UnsupportedModeError",
    "RadialDistribution",
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

    The callable ``profile`` gives ``f`` on an array of magnitudes, and
    ``grid`` holds the nodes it is sampled on for the energy; outside
    ``[0, qmax]`` the distribution vanishes identically.  The grid and
    the profile's nonnegativity on it are validated on construction.
    """

    grid: np.ndarray
    qmax: float
    profile: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float)
        self.qmax = float(self.qmax)
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise ValueError("grid must be a 1-d array with >= 2 nodes")
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if not math.isfinite(self.qmax):
            raise ValueError("qmax must be finite")
        if self.qmax <= 0.0:
            raise ValueError("qmax must be positive")
        probe = self.profile(self.grid[self.grid <= self.qmax])
        if np.any(np.asarray(probe) < 0.0):
            raise ValueError("distribution profile must be nonnegative")

    def __call__(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        out = np.asarray(self.profile(q), dtype=float)
        return np.where((q >= 0.0) & (q <= self.qmax), out, 0.0)


# ---------------------------------------------------------------------------
# continuity system
# ---------------------------------------------------------------------------

def continuity_rhs(rho: float, j: np.ndarray, geom: LocalGeometry,
                   frame: TimeFrame, eta_under: float) -> tuple:
    """Exact evolution system of the first two moments on a homogeneous state.

    Returns ``(d_T rho, d_T j)``.  The full system reads::

        d_T rho = (3 - N) rho - X.grad(rho) + (tau/N) div(N^2 j)
                  - tau^2 (N/3) g:T_under - tau^2 N Sigma:T_under
        d_T j^a = (5/3)(3 - N) j^a - X.grad(j^a) - (grad^a X_b) j^b
                  + tau div_b(N T^{ab}) - 2 N Sigma^a_b j^b
                  - (1/s) rho grad^a N

    Its spatial-gradient contractions cannot be formed from pointwise
    data, so only homogeneous states (zero shift, zero lapse gradient),
    where they vanish, are accepted; any other state raises
    :class:`UnsupportedModeError`.  The stress is the isotropic
    ``T_under = (eta_under / 3) ginv``.
    """
    dN = geom.dN if geom.dN is not None else np.zeros(3)
    if (float(np.max(np.abs(geom.X))) != 0.0
            or float(np.max(np.abs(dN))) != 0.0):
        raise UnsupportedModeError(
            "continuity_rhs needs a homogeneous state: zero shift and zero "
            "lapse gradient")
    tau, s = frame.tau, frame.s
    g, N, Sigma = geom.g, geom.N, geom.Sigma
    j = np.asarray(j, dtype=float)
    T_under = (eta_under / 3.0) * geom.ginv
    gT = float(np.einsum("ab,ab->", g, T_under))
    SigmaT = float(np.einsum("ab,ab->", Sigma, T_under))
    drho = ((3.0 - N) * rho - tau**2 * (N / 3.0) * gT
            - tau**2 * N * SigmaT)
    Sigma_mixed = geom.ginv @ Sigma
    # the lapse-gradient term is a zero here, but its sign can decide the
    # sign of a zero component of d_T j
    dj = ((5.0 / 3.0) * (3.0 - N) * j - 2.0 * N * (Sigma_mixed @ j)
          - (rho / s) * (geom.ginv @ dN))
    return float(drho), dj


# ---------------------------------------------------------------------------
# moment bounds
# ---------------------------------------------------------------------------


def _require_isotropic(geom: LocalGeometry, what: str) -> None:
    if float(np.max(np.abs(geom.X))) > 0.0:
        raise UnsupportedModeError(
            f"{what} uses the isotropic reduction, which needs zero shift")


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
    rho, eta_under = isotropic_moments(f, frame.s, 64)
    # a profile can dip below zero between the grid nodes it is checked on
    if rho < 0.0:
        raise ValueError("energy density must be nonnegative")
    if eta_under < 0.0:
        raise ValueError("pressure trace must be nonnegative")
    vol_g = math.sqrt(float(np.linalg.det(geom.g)))
    sqrt_vol = math.sqrt(vol_g)

    def C(mu):
        return math.sqrt(vol_g * 4.0 * math.pi * inverse_weight_integral(mu))

    # f as one row of samples on its grid, in a cell of metric volume vol_g
    row = (f.grid[None], np.asarray(f.profile(f.grid), dtype=float)[None],
           np.array([f.qmax]))

    def E(mu):
        return float(sasaki_energy(*row, ell=min(ell, 2), mu=mu,
                                   ladder_ell=ell, vol=vol_g)[0])

    E3, E4 = E(3.0), E(4.0)

    tau = frame.tau
    checks = {
        "rho": (abs(rho) * sqrt_vol, C(3.0) * E3),
        "j": (0.0, C(3.0) * E3),  # an isotropic f carries no current
        "T_under": ((eta_under / math.sqrt(3.0)) * sqrt_vol, C(4.0) * E4),
        "S": (math.sqrt(3.0) * abs(0.5 * rho - tau**2 * eta_under / 6.0)
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

