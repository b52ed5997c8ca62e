"""Characteristic flow of the collisionless transport equation.

Characteristics are the geodesics of the raw spacetime metric written in
nondimensional variables ``(x, p, p0)``.  Two right-hand sides are
provided, both for shift-free fields:

* ``mode="derived"`` -- obtained by pushing the exact geodesic equations
  through the rescaling.  The dilution of raw momenta cancels the growth
  of the rescaling weight identically, and the implementation groups the
  cancelling terms symbolically so that the background right-hand side is
  an exact floating-point zero.  The time component ``p0`` is
  co-integrated (never recomputed algebraically), so the reconstructed
  mass-shell residual is a genuine measure of integration quality.
* ``mode="paper_form"`` -- the classical termwise bookkeeping, kept as a
  diagnostic: the derived ``(dx/dT, dp/dT)`` at the on-shell ``p0`` with
  the uncancelled ``-2 p`` term restored, ``dp/dT = derived - 2 p``.  At
  the background it returns ``dp/dT = -2 p`` instead of zero; the
  discrepancy is reported by the tests, not hidden.

All work happens in a local orthonormal frame of the reference metric,
where the spatial connection coefficients of the background vanish and
every contraction is a plain array operation.  Field providers supply
``(g, N, X, Sigma)`` and their needed derivatives as closed-form
functions of ``(T, x)`` on particle batches.  Conformal providers
(``g = a I``) take a closed-form path; dense fields go through the
batched connection blocks of :func:`milne_lab.geometry.rescaled_christoffels`
and the mass-shell algebra of :mod:`milne_lab.massshell`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._rk4 import rk4_step
from .geometry import (TimeFrame, make_time_frame, rescaled_christoffels,
                       BACKGROUND_LAPSE)
from .massshell import compute_p0, mass_shell_residual

__all__ = [
    "BatchFields",
    "background_fields",
    "manufactured_lapse_fields",
    "ParticleEnsemble",
    "characteristic_rhs",
    "integrate_characteristics",
    "TrajectoryLog",
    "support_bound_check",
]


# ---------------------------------------------------------------------------
# field providers
# ---------------------------------------------------------------------------


@dataclass
class BatchFields:
    """Field data evaluated on a batch of ``n`` particle positions.

    Shapes: ``g (n,3,3)``, ``dg (n,3,3,3)`` with ``dg[:,a,b,c] = d_c
    g_ab``, ``N (n,)``, ``dN (n,3)``, ``X (n,3)``, ``dX (n,3,3)`` with
    ``dX[:,a,c] = d_c X^a``, ``Sigma (n,3,3)``, ``dTg (n,3,3)``, ``dTN
    (n,)``, ``dTX (n,3)``.
    """

    g: np.ndarray
    dg: np.ndarray
    N: np.ndarray
    dN: np.ndarray
    X: np.ndarray
    dX: np.ndarray
    Sigma: np.ndarray
    dTg: np.ndarray
    dTN: np.ndarray
    dTX: np.ndarray
    # set by providers whose metric is a conformal multiple of the
    # identity frame metric, ``g = a I`` with ``Sigma = X = 0``:
    # ``conf_a`` is the factor ``a (n,)`` and ``conf_u`` its logarithmic
    # gradient ``d_c ln a (n,3)``.  Enables a closed-form evaluation
    # path that the tests check against the dense one.
    conf_a: Optional[np.ndarray] = None
    conf_u: Optional[np.ndarray] = None

    def materialize(self) -> "BatchFields":
        """Fill the dense metric blocks from the conformal representation.

        Conformal providers may leave ``g``, ``dg`` and ``dTg`` unset,
        since the flow evaluation never touches them; consumers that need
        the dense blocks call this first.  With the trace-free part and
        the shift at zero the frame metric necessarily dilates as
        ``dg/dT = (2/3)(N - 3) g``, so the blocks are determined by
        ``(conf_a, conf_u, N)``.
        """
        if self.conf_a is not None and self.g is None:
            self.g = self.conf_a[:, None, None] * np.eye(3)
            self.dg = self.g[:, :, :, None] * self.conf_u[:, None, None, :]
            self.dTg = (2.0 / 3.0) * (self.N - BACKGROUND_LAPSE)[:, None, None] * self.g
        return self


# shared read-only zero/identity blocks, keyed by batch size; providers
# are evaluated tens of thousands of times per run, so the trivial
# blocks are allocated once (fields are treated as read-only by callers)
_shared_blocks_cache: dict = {}


def _shared_blocks(n: int) -> dict:
    blocks = _shared_blocks_cache.get(n)
    if blocks is None:
        blocks = {
            "scalar": np.broadcast_to(0.0, (n,)),
            "vector": np.broadcast_to(0.0, (n, 3)),
            "matrix": np.broadcast_to(0.0, (n, 3, 3)),
            "tensor3": np.broadcast_to(0.0, (n, 3, 3, 3)),
            "one": np.broadcast_to(1.0, (n,)),
            "eye": np.broadcast_to(np.eye(3), (n, 3, 3)),
            "lapse": np.full(n, BACKGROUND_LAPSE),
        }
        blocks["lapse"].flags.writeable = False
        _shared_blocks_cache[n] = blocks
    return blocks


def background_fields(T: float, x: np.ndarray) -> BatchFields:
    """The fixed point ``(identity frame, Sigma=0, N=3, X=0)``: conformal, a = 1."""
    z = _shared_blocks(x.shape[0])
    return BatchFields(
        g=z["eye"],
        dg=z["tensor3"],
        N=z["lapse"],
        dN=z["vector"],
        X=z["vector"],
        dX=z["matrix"],
        Sigma=z["matrix"],
        dTg=z["matrix"],
        dTN=z["scalar"],
        dTX=z["vector"],
        conf_a=z["one"],
        conf_u=z["vector"],
    )


def manufactured_lapse_fields(eps: float) -> Callable[[float, np.ndarray], BatchFields]:
    """A closed-form lapse perturbation ``N = 3 + eps e^{-T} phi(x)``.

    The profile is a Gaussian-damped cubic,
    ``phi(x) = e^{3/2} x1 x2 x3 exp(-|x|^2 / 2)``, chosen because it is
    cheap to evaluate on large batches and globally controlled:
    ``sup |phi| = 1`` (attained at ``|x_i| = 1``) and
    ``sup |grad phi| = e^{1/2}`` (attained on the coordinate planes).
    The shift and the trace-free part stay zero, which forces the frame
    metric to dilate conformally, ``dg/dT = (2/3)(N - 3) g``; since the
    lapse perturbation integrates in closed form, the factor is exact::

        g(T, x) = exp((2 eps / 3) phi(x) (1 - e^{-T})) I.

    Used for manufactured-solution invariant tests; the returned provider
    also exposes closed-form sup-norm envelopes of the correction fields
    via the attribute ``norm_envelopes``.
    """

    scale = math.exp(1.5)

    def provider(T: float, x: np.ndarray) -> BatchFields:
        z = _shared_blocks(x.shape[0])
        x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
        bump = scale * np.exp(-0.5 * np.einsum("na,na->n", x, x))
        prod = x0 * x1
        pairs = np.empty_like(x)
        pairs[:, 0] = x1 * x2
        pairs[:, 1] = x0 * x2
        pairs[:, 2] = prod
        prod = prod * x2
        phi = bump * prod
        dphi = (pairs - prod[:, None] * x) * bump[:, None]
        decay = math.exp(-T)
        amp = eps * decay
        grown = (2.0 * eps / 3.0) * (1.0 - decay)
        return BatchFields(
            g=None, dg=None, dTg=None,  # dense blocks via materialize()
            N=BACKGROUND_LAPSE + amp * phi,
            dN=amp * dphi,
            dTN=-amp * phi,
            X=z["vector"],
            dX=z["matrix"],
            Sigma=z["matrix"],
            dTX=z["vector"],
            conf_a=np.exp(grown * phi),
            conf_u=grown * dphi,
        )

    grad_sup = math.exp(0.5)
    size = abs(eps)  # the bounds hold for either sign of eps
    # the conformal factor is bounded below by exp(-2 |eps| / 3), which
    # enters the frame norm of the raised lapse gradient as exp(|eps| / 3)
    conf = math.exp(size / 3.0)
    provider.norm_envelopes = {
        # sup-norm bounds of each correction field at time T
        "X": lambda T: 0.0,
        "dTX": lambda T: 0.0,
        "Sigma": lambda T: 0.0,
        "Nm3": lambda T: size * math.exp(-T),
        "GammaStar": lambda T: (BACKGROUND_LAPSE + size) * size * math.exp(-T) * grad_sup * conf,
        "GammaStarStar": lambda T: size * math.exp(-T) / 3.0,
    }
    return provider


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@dataclass
class ParticleEnsemble:
    """Weighted empirical measure representing a distribution function.

    ``x, p`` are ``(n, 3)`` arrays, ``weights`` is ``(n,)`` nonnegative.
    """

    x: np.ndarray
    p: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.p = np.atleast_2d(np.asarray(self.p, dtype=float))
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if np.any(self.weights < 0):
            raise ValueError("ensemble weights must be nonnegative")
        if self.x.shape != self.p.shape or self.x.shape[0] != self.weights.shape[0]:
            raise ValueError("inconsistent ensemble shapes")

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def _support_sq(f: BatchFields, p: np.ndarray) -> np.ndarray:
    """Squared momentum norm ``|p|^2_g``; ``calG`` is the root of its max."""
    if f.conf_a is not None:
        return f.conf_a * np.einsum("na,na->n", p, p)
    return np.einsum("na,nab,nb->n", p, f.g, p)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def _batch_p0(f: BatchFields, p: np.ndarray, frame: TimeFrame) -> np.ndarray:
    """Closed-form nondimensional time component on a batch."""
    if f.conf_a is not None:
        p2 = f.conf_a * np.einsum("na,na->n", p, p)
        return np.sqrt(1.0 + frame.tau**2 * p2) / f.N
    return compute_p0(f, p, frame, method="paper_primary")


def _residual(f: BatchFields, p: np.ndarray, q0: np.ndarray,
              frame: TimeFrame) -> np.ndarray:
    """Mass-shell residual of the co-evolved ``q0`` on a batch."""
    if f.conf_a is not None:
        p2 = np.einsum("na,na->n", p, p)
        return -(f.N * q0) ** 2 + frame.tau**2 * f.conf_a * p2 + 1.0
    return mass_shell_residual(f, p, q0, frame)


def characteristic_rhs(state, fields_at, frame: TimeFrame, mode: str = "derived",
                       q0: Optional[np.ndarray] = None):
    """Right-hand side of the characteristic system at one time.

    ``state`` is a pair of ``(n,3)`` arrays ``(x, p)``; ``fields_at`` is
    the already-evaluated :class:`BatchFields` at the particle positions.
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
    keeps the uncancelled ``-2p`` of the classical termwise expression.
    """
    x, p = state
    f = fields_at
    tau = frame.tau

    if mode == "paper_form":
        dx, dp, _ = characteristic_rhs(state, f, frame)
        return dx, dp - 2.0 * p
    if mode != "derived":
        raise ValueError(f"unknown mode {mode!r}")
    if q0 is None:
        q0 = _batch_p0(f, p, frame)
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))

    if f.conf_a is not None:
        # conformal frame metric g = a I, shift-free, trace-free part
        # zero: the spatial connection is the gradient of ln a and every
        # contraction closes in flat dot products.  For g = a I the
        # inverse metric cancels the factor a inside the metric gradient,
        # so Gamma(g) p p = <u, p> p - |p|^2 u / 2 is a-independent.
        a = f.conf_a
        u = f.conf_u
        N = f.N
        p2 = np.einsum("na,na->n", p, p)
        up = np.einsum("na,na->n", u, p)
        tau_over_q0 = tau / q0
        dx = -tau_over_q0[:, None] * p
        # p coefficient: 2 (1 - N/3) from the corrected frame drag plus
        # the <u, p> part of the spatial connection
        cp = (2.0 - (2.0 / 3.0) * N) + tau_over_q0 * up
        dp = (cp[:, None] * p
              + ((N * q0 / tau) / a)[:, None] * f.dN
              - (0.5 * tau_over_q0 * p2)[:, None] * u)
        # dg/dT = (2/3)(N - 3) g makes (2 g + dg/dT) p p = (2N/3) a |p|^2
        dq0 = (-(f.dTN / N) * q0
               + (2.0 * tau / N) * np.einsum("na,na->n", f.dN, p)
               - (tau**2 / 3.0) * a * p2 / (N * q0))
        return dx, dp, dq0

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


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryLog:
    """Output-step log of a characteristic integration."""

    T: np.ndarray                  # (m,)
    x: np.ndarray                  # (m, n, 3)
    p: np.ndarray                  # (m, n, 3)
    p0: np.ndarray                 # (m, n)
    massshell_residual: np.ndarray  # (m, n)
    G: np.ndarray                  # (m, n)
    calG: np.ndarray               # (m,)
    total_weight: np.ndarray       # (m,)
    flagged: np.ndarray            # (n,) bool: left the flow, frozen since


def integrate_characteristics(ensemble: ParticleEnsemble,
                              fields: Callable[[float, np.ndarray], BatchFields],
                              frame0: TimeFrame, Tend: float, h: float,
                              mode: str = "derived",
                              log_every: int = 100,
                              threads: int = 1) -> tuple:
    """Integrate the characteristic system with fixed-step classical RK4.

    Returns ``(TrajectoryLog, final ParticleEnsemble)``.  ``log_every``
    thins the output log; the final step is always logged.  ``threads``
    splits the ensemble into contiguous chunks integrated independently
    (results are concatenated in the original particle order, so the
    output is thread-count independent).
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if Tend <= frame0.T:
        raise ValueError("Tend must exceed the initial time")
    n_steps = int(round((Tend - frame0.T) / h))
    if abs(frame0.T + n_steps * h - Tend) > 1e-9:
        raise ValueError("(Tend - T0) must be an integer number of steps")

    if threads > 1 and ensemble.size > 1:
        from concurrent.futures import ThreadPoolExecutor
        bounds = np.linspace(0, ensemble.size, threads + 1).astype(int)
        chunks = [ParticleEnsemble(ensemble.x[a:b], ensemble.p[a:b],
                                   ensemble.weights[a:b])
                  for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(
                lambda ch: integrate_characteristics(
                    ch, fields, frame0, Tend, h, mode, log_every, threads=1),
                chunks))
        logs = [lg for lg, _ in parts]
        fins = [fe for _, fe in parts]
        cat = lambda key, axis: np.concatenate([getattr(lg, key) for lg in logs], axis=axis)
        log = TrajectoryLog(
            T=logs[0].T, x=cat("x", 1), p=cat("p", 1), p0=cat("p0", 1),
            massshell_residual=cat("massshell_residual", 1), G=cat("G", 1),
            calG=np.max(np.stack([lg.calG for lg in logs]), axis=0),
            total_weight=np.sum(np.stack([lg.total_weight for lg in logs]), axis=0),
            flagged=cat("flagged", 0))
        fin = ParticleEnsemble(*(np.concatenate([getattr(fe, key) for fe in fins])
                                 for key in ("x", "p", "weights")))
        return log, fin

    tau0 = frame0.tau0
    x, p = ensemble.x, ensemble.p  # each step makes new arrays
    flagged = np.zeros(ensemble.size, dtype=bool)

    T = frame0.T
    q0 = _batch_p0(fields(T, x), p, frame0)

    logs = {key: [] for key in ("T", "x", "p", "p0", "massshell_residual",
                                "G", "calG", "total_weight")}

    def record(T: float, x, p, q0):
        f = fields(T, x)
        frame = make_time_frame(tau0, T)
        if mode == "paper_form":
            q0 = _batch_p0(f, p, frame)
        G = _support_sq(f, p)
        live = G[~flagged]  # flagged particles sit frozen off the flow
        row = {"T": T, "x": x, "p": p, "p0": q0,
               "massshell_residual": _residual(f, p, q0, frame), "G": G,
               "calG": float(np.sqrt(live.max())) if live.size else 0.0,
               "total_weight": ensemble.total_weight()}
        for key, value in row.items():
            logs[key].append(value)

    def rhs(T: float, y):
        x, p, q0 = y
        f = fields(T, x)
        fr = make_time_frame(tau0, T)
        if mode == "derived":
            return characteristic_rhs((x, p), f, fr, mode, q0)
        dx, dp = characteristic_rhs((x, p), f, fr, mode)
        return dx, dp, np.zeros_like(q0)

    record(T, x, p, q0)
    for step in range(n_steps):
        xn, pn, qn = rk4_step(rhs, T, (x, p, q0), h)
        flagged |= ~(np.isfinite(qn) & (qn > 0))
        # the row-wise test costs a few percent of a step at 10^5
        # particles; run it only when some position or momentum is not
        # finite
        if not (np.isfinite(xn).all() and np.isfinite(pn).all()):
            flagged |= ~(np.isfinite(xn).all(axis=1)
                         & np.isfinite(pn).all(axis=1))
        if flagged.any():
            # a flagged particle keeps its last finite state, so no
            # result depends on which particles share its chunk
            xn = np.where(flagged[:, None], x, xn)
            pn = np.where(flagged[:, None], p, pn)
            qn = np.where(flagged, q0, qn)
        x, p, q0 = xn, pn, qn
        T = frame0.T + (step + 1) * h
        if (step + 1) % log_every == 0 or step + 1 == n_steps:
            record(T, x, p, q0)

    log = TrajectoryLog(**{key: np.array(v) for key, v in logs.items()},
                        flagged=flagged)
    final = ParticleEnsemble(x, p, ensemble.weights.copy())
    return log, final


# ---------------------------------------------------------------------------
# Gronwall support bound
# ---------------------------------------------------------------------------


def support_bound_check(T: np.ndarray, calG: np.ndarray, norms: dict,
                        C: float = 10.0) -> dict:
    """Gronwall envelope for the momentum-support functional.

    ``norms`` maps the keys ``X, Sigma, Nm3, dTX, GammaStar,
    GammaStarStar`` to time series (arrays aligned with ``T``) of the
    corresponding field norms.  The envelope is::

        (calG(T0) + C * int_{T0}^{T} (s(r) ||dTX|| + ||GammaStar||/s(r)) dr)
        * exp(C * int_{T0}^{T} (||X||/s + ||Sigma|| + ||N-3||
                                + s^2 ||dTX|| + ||GammaStar||
                                + ||GammaStarStar||) dr)

    where ``s(r) = |tau0| e^{-r}`` is the scale factor along the run
    (time weights are expressed through powers of the scale factor,
    anchored at the run's ``tau0``; the check is performed with
    ``|tau0| <= 1``).  Integrals use trapezoidal quadrature of the logged
    series.  Returns measured/envelope series, ``holds`` and the minimum
    margin.
    """
    required = ("X", "Sigma", "Nm3", "dTX", "GammaStar", "GammaStarStar")
    missing = [k for k in required if k not in norms]
    if missing:
        raise ValueError(f"missing norm series: {missing}")
    T = np.asarray(T, dtype=float)
    calG = np.asarray(calG, dtype=float)
    nm = {k: np.asarray(norms[k], dtype=float) for k in required}
    for k, v in nm.items():
        if v.shape != T.shape:
            raise ValueError(f"norm series {k!r} misaligned with T")
    tau0_abs = float(norms.get("tau0_abs", 1.0))
    s = tau0_abs * np.exp(-(T - T[0]))

    def cumtrapz(y):
        out = np.zeros_like(y)
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(T))
        return out

    pre = calG[0] + C * cumtrapz(s * nm["dTX"] + nm["GammaStar"] / s)
    expo = C * cumtrapz(nm["X"] / s + nm["Sigma"] + nm["Nm3"]
                        + s**2 * nm["dTX"] + nm["GammaStar"]
                        + nm["GammaStarStar"])
    envelope = pre * np.exp(expo)
    margin = envelope - calG
    return {
        "T": T,
        "measured": calG,
        "envelope": envelope,
        "holds": bool(np.all(calG <= envelope * (1.0 + 1e-12))),
        "margin": float(np.min(margin)),
    }
