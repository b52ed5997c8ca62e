"""Background geometry, logarithmic time frames and connection blocks.

The model universe expands linearly at leading order.  All evolution is
phrased in a compactified logarithmic time ``T`` tied to a negative mean
curvature time ``tau`` that increases to zero.  Dynamical fields are
nondimensionalised with powers of ``tau`` so that the self-similar
attractor becomes a fixed point ``(gamma, 0, 3, 0)``: spatial metric equal
to the reference hyperbolic metric ``gamma`` of curvature ``-1/9``,
vanishing trace-free curvature ``Sigma``, lapse ``3`` and zero shift.

This module provides:

* :class:`TimeFrame` -- the (tau, T, s) bookkeeping for one time slice,
* :class:`BackgroundChart` -- the reference hyperbolic metric in a ball
  chart, with closed-form connection and curvature,
* :func:`rescaled_christoffels` -- the connection blocks of the full
  spacetime metric expressed through the nondimensional fields, including
  the two correction fields ``gamma_star`` (a vector built from lapse and
  shift imbalances) and ``gamma_star_star`` (a matrix measuring the
  deviation of the frame drag from pure dilation),
* :func:`correction_constants` -- the energy-correction constants
  ``(alpha, cE, delta_alpha)`` used by the mode-energy machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "BACKGROUND_LAPSE",
    "TimeFrame",
    "BackgroundChart",
    "LocalGeometry",
    "CorrectionConstants",
    "make_time_frame",
    "christoffels_from_metric",
    "rescaled_christoffels",
    "correction_constants",
    "background_geometry",
]

BACKGROUND_LAPSE = 3.0
CURVATURE_RADIUS = 3.0  # sectional curvature of the reference metric is -1/9


# ---------------------------------------------------------------------------
# time frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeFrame:
    """One time slice in all three time variables.

    Attributes
    ----------
    tau0 : float
        Negative anchor value of the mean-curvature time at ``T = 0``.
    T : float
        Logarithmic time, ``T = -ln(tau / tau0) >= 0``.
    tau : float
        Mean-curvature time, ``tau = tau0 * exp(-T) in [tau0, 0)``.
    s : float
        Scale factor ``s = |tau|``.
    """

    tau0: float
    T: float
    tau: float
    s: float


def make_time_frame(tau0: float, T: float) -> TimeFrame:
    """Build the time frame at logarithmic time ``T`` anchored at ``tau0``.

    ``tau0`` must be negative and ``T`` nonnegative, so ``tau`` stays in
    ``[tau0, 0)``.
    """
    tau0 = float(tau0)
    T = float(T)
    if not tau0 < 0.0:
        raise ValueError(f"tau0 must be negative, got {tau0}")
    if not T >= 0.0:
        raise ValueError(f"T must be nonnegative, got {T}")
    tau = tau0 * math.exp(-T)
    return TimeFrame(tau0=tau0, T=T, tau=tau, s=abs(tau))


# ---------------------------------------------------------------------------
# reference hyperbolic chart
# ---------------------------------------------------------------------------


class BackgroundChart:
    """Ball chart of the hyperbolic reference metric of curvature ``-1/9``.

    The metric is conformally flat, ``gamma_ab = lam(x)^2 delta_ab`` with
    ``lam(x) = 2 / (1 - |x|^2 / 9)`` on the open ball ``|x| < 3``.  All
    connection and curvature quantities below are closed-form expressions
    in the conformal exponent ``phi = ln(lam)`` and its first two
    derivatives; nothing is differentiated numerically.
    """

    RADIUS = CURVATURE_RADIUS
    SECTIONAL_CURVATURE = -1.0 / 9.0

    # -- conformal data ----------------------------------------------------

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 3:
            raise ValueError("chart points must have 3 components")
        r2 = np.sum(x * x, axis=-1)
        if np.any(r2 >= self.RADIUS**2):
            raise ValueError("point outside the chart ball |x| < 3")
        return x

    def conformal_factor(self, x: np.ndarray) -> np.ndarray:
        """The factor ``lam`` with ``gamma = lam^2 delta``."""
        x = self._check(x)
        u = 1.0 - np.sum(x * x, axis=-1) / 9.0
        return 2.0 / u

    def phi_derivatives(self, x: np.ndarray):
        """First and second partials of ``phi = ln(conformal_factor)``."""
        x = self._check(x)
        u = 1.0 - np.sum(x * x, axis=-1) / 9.0
        dphi = (2.0 * x / 9.0) / u[..., None]
        eye = np.eye(3)
        ddphi = (2.0 / 9.0) * eye / u[..., None, None] + dphi[..., :, None] * dphi[..., None, :]
        return dphi, ddphi

    def metric(self, x: np.ndarray) -> np.ndarray:
        lam = self.conformal_factor(x)
        return lam[..., None, None] ** 2 * np.eye(3)

    def inverse_metric(self, x: np.ndarray) -> np.ndarray:
        lam = self.conformal_factor(x)
        return np.eye(3) / lam[..., None, None] ** 2

    def christoffels(self, x: np.ndarray) -> np.ndarray:
        """Connection coefficients ``Gam[a, b, c] = Gamma^a_{bc}``."""
        dphi, _ = self.phi_derivatives(x)
        eye = np.eye(3)
        return (
            eye[..., :, :, None] * dphi[..., None, None, :]
            + eye[..., :, None, :] * dphi[..., None, :, None]
            - eye[..., None, :, :] * dphi[..., :, None, None]
        )

    def christoffel_derivatives(self, x: np.ndarray) -> np.ndarray:
        """Partials ``dGam[a, b, c, d] = d_d Gamma^a_{bc}`` in closed form."""
        _, ddphi = self.phi_derivatives(x)
        eye = np.eye(3)
        return (
            eye[..., :, :, None, None] * ddphi[..., None, None, :, :]
            + eye[..., :, None, :, None] * ddphi[..., None, :, None, :]
            - eye[..., None, :, :, None] * ddphi[..., :, None, None, :]
        )

    def riemann(self, x: np.ndarray) -> np.ndarray:
        """Curvature tensor ``R[a, b, c, d] = R^a_{bcd}`` from the connection."""
        gam = self.christoffels(x)
        dgam = self.christoffel_derivatives(x)
        # R^a_{bcd} = d_c Gam^a_{db} - d_d Gam^a_{cb}
        #             + Gam^a_{ce} Gam^e_{db} - Gam^a_{de} Gam^e_{cb}
        term1 = np.einsum("...adbc->...abcd", dgam)
        term2 = np.einsum("...acbd->...abcd", dgam)
        term3 = np.einsum("...ace,...edb->...abcd", gam, gam)
        term4 = np.einsum("...ade,...ecb->...abcd", gam, gam)
        return term1 - term2 + term3 - term4

    def ricci(self, x: np.ndarray) -> np.ndarray:
        """Ricci tensor in closed conformal form (independent of riemann)."""
        dphi, ddphi = self.phi_derivatives(x)
        lap = np.einsum("...aa->...", ddphi)
        grad2 = np.einsum("...a,...a->...", dphi, dphi)
        eye = np.eye(3)
        return (
            -(ddphi - dphi[..., :, None] * dphi[..., None, :])
            - (lap + grad2)[..., None, None] * eye
        )

    def scalar_curvature(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("...ab,...ab->...", self.inverse_metric(x), self.ricci(x))


# ---------------------------------------------------------------------------
# field data
# ---------------------------------------------------------------------------


@dataclass
class LocalGeometry:
    """Nondimensional field data at one spatial point or a batch of points.

    ``g`` is the spatial metric, ``Sigma`` its trace-free curvature
    companion, ``N`` the lapse and ``X`` the (contravariant) shift.  The
    optional arrays carry first spatial and logarithmic-time derivatives
    when an operation needs them:

    * ``dN[c] = d_c N``
    * ``dX[a, c] = d_c X^a``
    * ``dg[a, b, c] = d_c g_ab``
    * ``dTg, dTN, dTX`` -- derivatives along ``T`` at fixed spatial point.

    A batch of ``n`` points puts the same leading axis on every array:
    ``N (n,)``, ``X (n, 3)``, ``g (n, 3, 3)``, ``dg (n, 3, 3, 3)`` and so
    on; the checks then hold at each point.  A scalar lapse stays a
    Python ``float``.
    """

    g: np.ndarray
    Sigma: np.ndarray
    N: float | np.ndarray
    X: np.ndarray
    dN: Optional[np.ndarray] = None
    dX: Optional[np.ndarray] = None
    dg: Optional[np.ndarray] = None
    dTg: Optional[np.ndarray] = None
    dTN: Optional[float | np.ndarray] = None
    dTX: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.g = np.asarray(self.g, dtype=float)
        self.Sigma = np.asarray(self.Sigma, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        N = np.asarray(self.N, dtype=float)
        self.N = float(N) if N.ndim == 0 else N
        if not self.g.shape == self.Sigma.shape == N.shape + (3, 3):
            raise ValueError("g and Sigma must be 3x3 at each point")
        if self.X.shape != N.shape + (3,):
            raise ValueError("X must be a 3-vector at each point")
        if not np.allclose(self.g, np.swapaxes(self.g, -1, -2), atol=1e-12):
            raise ValueError("g must be symmetric")
        if np.any(np.linalg.eigvalsh(self.g) <= 0.0):
            raise ValueError("g must be positive definite")
        if np.any(N <= 0.0):
            raise ValueError("lapse must be positive")

    @property
    def ginv(self) -> np.ndarray:
        return np.linalg.inv(self.g)


def background_geometry() -> LocalGeometry:
    """The fixed-point data ``(gamma, 0, 3, 0)`` in an orthonormal frame.

    ``g`` is the identity, and every derivative block is zero.
    """
    return LocalGeometry(
        g=np.eye(3), Sigma=np.zeros((3, 3)), N=BACKGROUND_LAPSE,
        X=np.zeros(3), dN=np.zeros(3), dX=np.zeros((3, 3)),
        dg=np.zeros((3, 3, 3)), dTg=np.zeros((3, 3)), dTN=0.0,
        dTX=np.zeros(3),
    )


# ---------------------------------------------------------------------------
# connection blocks of the full spacetime metric
# ---------------------------------------------------------------------------


def christoffels_from_metric(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients ``Gamma^a_{bc}`` from ``g`` and ``dg``.

    ``g`` and ``dg`` may carry the same leading batch axes.
    """
    ginv = np.linalg.inv(g)
    # dg[..., a, b, c] = d_c g_ab
    d_b_g_dc = np.einsum("...dcb->...dbc", dg)
    d_d_g_bc = np.einsum("...bcd->...dbc", dg)
    return 0.5 * np.einsum("...ad,...dbc->...abc", ginv,
                           d_b_g_dc + dg - d_d_g_bc)


def _require(value, name: str):
    if value is None:
        raise ValueError(f"rescaled_christoffels needs {name} on the field data")
    return value


def rescaled_christoffels(geom: LocalGeometry, frame: TimeFrame) -> dict:
    """Connection blocks of the spacetime metric in nondimensional variables.

    ``geom`` is a :class:`LocalGeometry`; for a batch every block carries
    its leading axis.  Returns a dict with

    * ``"spatial"`` -- ``Gamma^a_{bc}`` of the full spacetime connection
      restricted to spatial indices: the Levi-Civita coefficients of ``g``
      plus the frame-drag correction ``N^-1 (Sigma + g/3)_{bc} X^a``,
    * ``"gamma_star"`` -- vector correction sourced by lapse/shift
      imbalance; it vanishes identically at the fixed point,
    * ``"gamma_star_star"`` -- matrix correction measuring the deviation
      of the mixed time-space block from pure dilation; also vanishes at
      the fixed point,
    * ``"time_time"`` -- ``Gamma^a_{00} = tau^-2 (gamma_star - dT X)``,
    * ``"time_space"`` -- ``Gamma^a_{0c} = tau^-1 (-delta^a_c +
      gamma_star_star^a_c)``.

    The ``time_time`` and ``time_space`` blocks refer to the coordinate
    frame ``(tau, x)`` of the raw spacetime metric, so they can be checked
    directly against finite differences of that metric.
    """
    tau = frame.tau
    g, Sigma, X = geom.g, geom.Sigma, geom.X
    dN = _require(geom.dN, "dN")
    dX = _require(geom.dX, "dX")
    dg = _require(geom.dg, "dg")
    dTN = _require(geom.dTN, "dTN")
    dTX = _require(geom.dTX, "dTX")
    # scalars as (..., 1) so they broadcast against vector components
    N = np.asarray(geom.N, dtype=float)[..., None]
    dTN = np.asarray(dTN, dtype=float)[..., None]
    ginv = np.linalg.inv(g)

    gam_g = christoffels_from_metric(g, dg)
    K = Sigma + g / 3.0  # curvature companion with its trace part restored
    KX = np.einsum("...bc,...c->...b", K, X)  # (Sigma + g/3)_{bc} X^c

    # covariant derivative of the shift: (nabla_c X)^a
    covdX = dX + np.einsum("...acb,...b->...ac", gam_g, X)
    gradN_up = np.einsum("...ab,...b->...a", ginv, dN)
    Sigma_mixed = np.einsum("...ab,...bc->...ac", ginv, Sigma)  # Sigma^a_c
    XdN = np.einsum("...a,...a->...", X, dN)[..., None]
    XKX = np.einsum("...b,...b->...", X, KX)[..., None]

    eye = np.eye(3)
    gamma_star = (
        -X
        - (2.0 / 3.0) * (N - BACKGROUND_LAPSE) * X
        + np.einsum("...b,...ab->...a", X, covdX)
        - 2.0 * N * np.einsum("...ac,...c->...a", Sigma_mixed, X)
        + N * gradN_up
        + ((dTN - XdN + XKX) / N) * X
    )

    Nm = N[..., None]
    gamma_star_star = (
        -Nm * Sigma_mixed
        + (1.0 - Nm / 3.0) * eye
        + covdX
        - X[..., :, None] * dN[..., None, :] / Nm
        + X[..., :, None] * KX[..., None, :] / Nm
    )

    spatial = gam_g + np.einsum("...bc,...a->...abc", K, X) / Nm[..., None]
    time_time = (gamma_star - dTX) / tau**2
    time_space = (-eye + gamma_star_star) / tau

    return {
        "spatial": spatial,
        "gamma_star": gamma_star,
        "gamma_star_star": gamma_star_star,
        "time_time": time_time,
        "time_space": time_space,
    }


# ---------------------------------------------------------------------------
# energy-correction constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrectionConstants:
    """Constants entering the corrected mode energies.

    ``alpha`` is the guaranteed exponential decay rate of the corrected
    energy, ``cE`` the cross-term weight, and ``delta_alpha = 1 - alpha``
    the rate loss paid at the borderline spectral value.
    """

    alpha: float
    cE: float
    delta_alpha: float


_LAMBDA_CRITICAL = 1.0 / 9.0
_BORDERLINE_TOL = 1e-12  # |lambda0 - 1/9| that counts as the borderline


def correction_constants(lambda0: float,
                         eps_prime: Optional[float] = None
                         ) -> CorrectionConstants:
    """Energy-correction constants for lowest spectral value ``lambda0``.

    Above the borderline value ``1/9`` the uncorrected choice
    ``alpha = cE = 1`` is already coercive and yields exact rate 2 for the
    quadratic energy.  At the borderline the cross weight is backed off to
    ``cE = 9 (lambda0 - eps_prime)`` which costs ``delta_alpha =
    sqrt(1 - cE)`` of decay rate.  Below ``1/9`` no uniform choice exists
    and a ``ValueError`` is raised.  In every returned case the coercivity
    condition ``cE < 3 sqrt(lambda0)`` holds; an ``eps_prime`` too small
    to resolve against ``lambda0`` (about ``7e-18``) rounds ``cE`` to
    ``3 sqrt(lambda0)`` and is a ``ValueError`` too.
    """
    lambda0 = float(lambda0)
    if lambda0 > _LAMBDA_CRITICAL + _BORDERLINE_TOL:
        out = CorrectionConstants(alpha=1.0, cE=1.0, delta_alpha=0.0)
    elif abs(lambda0 - _LAMBDA_CRITICAL) <= _BORDERLINE_TOL:
        if eps_prime is None or not (0.0 < eps_prime < lambda0):
            raise ValueError(
                "borderline spectral value needs eps_prime in (0, lambda0)")
        cE = 9.0 * (lambda0 - eps_prime)
        delta_alpha = math.sqrt(1.0 - cE)
        out = CorrectionConstants(alpha=1.0 - delta_alpha, cE=cE,
                                  delta_alpha=delta_alpha)
    else:
        raise ValueError(
            f"lowest spectral value {lambda0} below the borderline 1/9")
    if not out.cE < 3.0 * math.sqrt(lambda0):
        raise ValueError(
            f"correction constants lost coercivity: cE={out.cE} at "
            f"lambda0={lambda0}, eps_prime={eps_prime}")
    return out
