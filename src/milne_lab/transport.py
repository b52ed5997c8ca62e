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

Hot path.  The integrator packs the state of a chunk of particles as one
``(7, n)`` array of rows ``x0 x1 x2 p0 p1 p2 q0``, so every component is
a contiguous row.  A provider with a row form (the attribute
``conformal_rows``, set by :func:`background_fields` and
:func:`manufactured_lapse_fields`) writes its conformal fields as rows
into preallocated buffers, and the derived right-hand side is evaluated
from them in place (``out=``), with no :class:`BatchFields` built per
RK4 stage.  The provider call ``provider(T, x)`` and the conformal branch
of :func:`characteristic_rhs` are adapters over the same row kernels, so
each formula exists once.  Dense fields, ``paper_form`` and providers
without a row form run through the same loop with their
:class:`BatchFields` right-hand side.

The particles are split into chunks of ``_CHUNK`` (cache-sized: the
buffers of one chunk are about 47 rows), each integrated over the whole
run, and the chunks are shared by at most ``threads`` workers.  Nothing
couples particles, so the output is bitwise independent of the chunk
size and of the thread count.  The row-wise dot product :func:`_dot3`
adds its three products as ``(a0 b0 + a2 b2) + a1 b1``, the order of
``np.einsum("na,na->n")`` on ``(n, 3)`` arrays, so the row form gives
bit for bit the results of the ``(n, 3)`` formulation it replaced
(``|p|^2`` enters ``calG``, the residual and every stage, and a
different rounding would change the logged trajectories).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._rk4 import rk4_step_into
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


# shared read-only zero blocks, keyed by batch size; the BatchFields
# path evaluates a provider at every RK4 stage, so the trivial blocks are
# allocated once (fields are treated as read-only by callers)
_shared_blocks_cache: dict = {}


def _shared_blocks(n: int) -> dict:
    blocks = _shared_blocks_cache.get(n)
    if blocks is None:
        blocks = {
            "vector": np.broadcast_to(0.0, (n, 3)),
            "matrix": np.broadcast_to(0.0, (n, 3, 3)),
        }
        _shared_blocks_cache[n] = blocks
    return blocks


# Row form of conformal fields: one (9, n) array whose rows hold N, the
# three components of dN, dT N, the conformal factor a and the three
# components of u = grad ln a.  A row-form fill ``fill(T, x, F, W)``
# writes them for the position rows ``x (3, n)`` into ``F``, using the
# scratch rows ``W (_SCRATCH_ROWS, n)``.
_N, _DN, _DTN, _A, _U = 0, slice(1, 4), 4, 5, slice(6, 9)
_FIELD_ROWS = 9
_SCRATCH_ROWS = 10


def _scratch(n: int) -> np.ndarray:
    return np.empty((_SCRATCH_ROWS, n))


def _dot3(a: np.ndarray, b: np.ndarray, out: np.ndarray,
          tmp: np.ndarray) -> np.ndarray:
    """Column-wise dot product of two ``(3, n)`` row blocks, into ``out``.

    ``tmp`` is ``(3, n)`` scratch.  The sum is ``(a0 b0 + a2 b2) + a1 b1``,
    the order in which ``np.einsum("na,na->n")`` adds the products of an
    ``(n, 3)`` pair, so the row form reproduces the ``(n, 3)`` results
    bit for bit.
    """
    np.multiply(a, b, out=tmp)
    np.add(tmp[0], tmp[2], out=out)
    out += tmp[1]
    return out


def _conformal_batch(fill, T: float, x: np.ndarray) -> BatchFields:
    """:class:`BatchFields` of a row-form fill at the positions ``x (n, 3)``."""
    n = x.shape[0]
    F = np.empty((_FIELD_ROWS, n))
    fill(T, np.ascontiguousarray(x.T), F, _scratch(n))
    z = _shared_blocks(n)
    return BatchFields(
        g=None, dg=None, dTg=None,  # dense blocks via materialize()
        N=F[_N], dN=F[_DN].T.copy(), dTN=F[_DTN],
        X=z["vector"], dX=z["matrix"], Sigma=z["matrix"], dTX=z["vector"],
        conf_a=F[_A], conf_u=F[_U].T.copy())


def _rows_of(f: BatchFields) -> np.ndarray:
    """The row form of conformal :class:`BatchFields`."""
    F = np.empty((_FIELD_ROWS, np.shape(f.N)[0]))
    F[_N] = f.N
    F[_DN] = np.transpose(f.dN)
    F[_DTN] = f.dTN
    F[_A] = f.conf_a
    F[_U] = np.transpose(f.conf_u)
    return F


def _background_rows(T: float, x: np.ndarray, F: np.ndarray,
                     W: np.ndarray) -> None:
    F.fill(0.0)
    F[_N] = BACKGROUND_LAPSE
    F[_A] = 1.0


def background_fields(T: float, x: np.ndarray) -> BatchFields:
    """The fixed point ``(identity frame, Sigma=0, N=3, X=0)``: conformal, a = 1."""
    return _conformal_batch(_background_rows, T, x)


background_fields.conformal_rows = _background_rows


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
    via the attribute ``norm_envelopes``, and its row form via
    ``conformal_rows``.
    """

    scale = math.exp(1.5)

    def rows(T: float, x: np.ndarray, F: np.ndarray, W: np.ndarray) -> None:
        bump, prod, phi = W[0], W[1], W[2]
        pairs, dphi = W[3:6], W[6:9]
        _dot3(x, x, bump, dphi)
        bump *= -0.5
        np.exp(bump, out=bump)
        bump *= scale                           # e^{3/2} exp(-|x|^2 / 2)
        np.multiply(x[1], x[2], out=pairs[0])
        np.multiply(x[0], x[2], out=pairs[1])
        np.multiply(x[0], x[1], out=pairs[2])
        np.multiply(pairs[2], x[2], out=prod)  # x0 x1 x2
        np.multiply(bump, prod, out=phi)
        np.multiply(x, prod, out=dphi)
        np.subtract(pairs, dphi, out=dphi)
        dphi *= bump                            # grad phi
        decay = math.exp(-T)
        amp = eps * decay
        grown = (2.0 * eps / 3.0) * (1.0 - decay)
        np.multiply(phi, amp, out=F[_N])
        F[_N] += BACKGROUND_LAPSE
        np.multiply(dphi, amp, out=F[_DN])
        np.multiply(phi, -amp, out=F[_DTN])
        np.multiply(phi, grown, out=F[_A])
        np.exp(F[_A], out=F[_A])
        np.multiply(dphi, grown, out=F[_U])

    def provider(T: float, x: np.ndarray) -> BatchFields:
        return _conformal_batch(rows, T, x)

    provider.conformal_rows = rows
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


# ---------------------------------------------------------------------------
# conformal flow in row form
# ---------------------------------------------------------------------------


def _conformal_rhs(tau: float, p: np.ndarray, q0: np.ndarray, F: np.ndarray,
                   k: np.ndarray, W: np.ndarray) -> None:
    """Derived right-hand side of conformal fields, into the rows of ``k``.

    ``p (3, n)`` and ``q0 (n,)`` are the momentum rows and the
    co-evolved time component; ``k (7, n)`` receives ``dx, dp, dq0``.
    The conformal frame metric ``g = a I`` is shift-free with zero
    trace-free part, so the spatial connection is the gradient of
    ``ln a`` and every contraction closes in flat dot products; the
    inverse metric cancels the factor ``a`` inside the metric gradient,
    so ``Gamma(g) p p = <u, p> p - |p|^2 u / 2`` is ``a``-independent.
    """
    N, dN, dTN, a, u = F[_N], F[_DN], F[_DTN], F[_A], F[_U]
    p2, up, t, cp, nq, coef, c = W[0], W[1], W[2], W[3], W[4], W[5], W[6]
    tmp = W[7:10]
    _dot3(p, p, p2, tmp)
    _dot3(u, p, up, tmp)
    np.divide(tau, q0, out=t)
    np.negative(t, out=c)
    np.multiply(c, p, out=k[0:3])               # dx = -(tau / q0) p
    # p coefficient: 2 (1 - N/3) from the corrected frame drag plus the
    # <u, p> part of the spatial connection
    np.multiply(N, 2.0 / 3.0, out=cp)
    np.subtract(2.0, cp, out=cp)
    np.multiply(t, up, out=c)
    cp += c
    np.multiply(N, q0, out=nq)
    np.divide(nq, tau, out=coef)
    coef /= a
    dp = k[3:6]
    np.multiply(cp, p, out=dp)
    np.multiply(coef, dN, out=tmp)
    dp += tmp
    np.multiply(t, 0.5, out=c)
    c *= p2
    np.multiply(c, u, out=tmp)
    dp -= tmp
    # dg/dT = (2/3)(N - 3) g makes (2 g + dg/dT) p p = (2N/3) a |p|^2
    grad_p = _dot3(dN, p, up, tmp)
    np.divide(dTN, N, out=c)
    np.negative(c, out=c)
    c *= q0
    np.divide(2.0 * tau, N, out=cp)
    cp *= grad_p
    c += cp
    np.multiply(a, tau**2 / 3.0, out=cp)
    cp *= p2
    cp /= nq
    np.subtract(c, cp, out=k[6])


def _p0_rows(tau: float, F: np.ndarray, p: np.ndarray, out: np.ndarray,
             W: np.ndarray) -> np.ndarray:
    """On-shell time component ``sqrt(1 + tau^2 a |p|^2) / N``."""
    _dot3(p, p, out, W[7:10])
    out *= F[_A]
    out *= tau**2
    out += 1.0
    np.sqrt(out, out=out)
    out /= F[_N]
    return out


def _support_rows(F: np.ndarray, p: np.ndarray, out: np.ndarray,
                  W: np.ndarray) -> np.ndarray:
    """Squared momentum norm ``|p|^2_g = a |p|^2``."""
    _dot3(p, p, out, W[7:10])
    out *= F[_A]
    return out


def _residual_rows(tau: float, F: np.ndarray, p: np.ndarray, q0: np.ndarray,
                   out: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Mass-shell residual ``1 + tau^2 a |p|^2 - (N q0)^2`` of ``q0``."""
    p2, term = W[0], W[1]
    _dot3(p, p, p2, W[7:10])
    np.multiply(F[_A], tau**2, out=term)
    term *= p2
    np.multiply(F[_N], q0, out=out)
    np.square(out, out=out)
    np.negative(out, out=out)
    out += term
    out += 1.0
    return out


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def _support_sq(f: BatchFields, p: np.ndarray) -> np.ndarray:
    """Squared momentum norm ``|p|^2_g``; ``calG`` is the root of its max."""
    if f.conf_a is not None:
        n = p.shape[0]
        return _support_rows(_rows_of(f), p.T, np.empty(n), _scratch(n))
    return np.einsum("na,nab,nb->n", p, f.g, p)


def _batch_p0(f: BatchFields, p: np.ndarray, frame: TimeFrame) -> np.ndarray:
    """Closed-form nondimensional time component on a batch."""
    if f.conf_a is not None:
        n = p.shape[0]
        return _p0_rows(frame.tau, _rows_of(f), p.T, np.empty(n), _scratch(n))
    return compute_p0(f, p, frame, method="paper_primary")


def _residual(f: BatchFields, p: np.ndarray, q0: np.ndarray,
              frame: TimeFrame) -> np.ndarray:
    """Mass-shell residual of the co-evolved ``q0`` on a batch."""
    if f.conf_a is not None:
        n = p.shape[0]
        return _residual_rows(frame.tau, _rows_of(f), p.T, q0, np.empty(n),
                              _scratch(n))
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
    Conformal fields are evaluated by the row-form kernel of the
    integrator.
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
        n = p.shape[0]
        k = np.empty((7, n))
        _conformal_rhs(tau, p.T, q0, _rows_of(f), k, _scratch(n))
        return k[0:3].T.copy(), k[3:6].T.copy(), k[6]

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


# Particles per chunk.  Each chunk is integrated over the whole run in
# its own buffers, about 47 rows of 8-byte floats per particle.  Tuned at
# 10^5 particles on two threads of a 2-vCPU VM: 16667 and 25000 ran
# fastest (~1.9 s for 100 steps), 20000, 33334 and 50000 leave one
# worker a chunk more (2.0-2.3 s).  Chunks small enough for L2 (~4000)
# are faster on one thread but several times slower on two, which then
# queue for the interpreter lock between the short numpy calls.
_CHUNK = 25_000


class _RowFlow:
    """Derived flow of one chunk under a provider with a row form."""

    def __init__(self, fill, tau0: float, size: int):
        self.fill = fill
        self.tau0 = tau0
        self.F = np.empty((_FIELD_ROWS, size))
        self.W = _scratch(size)

    def p0(self, frame: TimeFrame, y: np.ndarray, out: np.ndarray) -> None:
        self.fill(frame.T, y[0:3], self.F, self.W)
        _p0_rows(frame.tau, self.F, y[3:6], out, self.W)

    def rhs(self, T: float, y: np.ndarray, k: np.ndarray) -> None:
        self.fill(T, y[0:3], self.F, self.W)
        _conformal_rhs(make_time_frame(self.tau0, T).tau, y[3:6], y[6],
                       self.F, k, self.W)

    def observe(self, T: float, y: np.ndarray, G: np.ndarray,
                residual: np.ndarray) -> np.ndarray:
        self.fill(T, y[0:3], self.F, self.W)
        _support_rows(self.F, y[3:6], G, self.W)
        _residual_rows(make_time_frame(self.tau0, T).tau, self.F, y[3:6],
                       y[6], residual, self.W)
        return y[6]


class _BatchFlow:
    """Flow of one chunk through the provider's :class:`BatchFields`.

    Used for dense fields, for ``paper_form`` and for providers without a
    row form; it hands :func:`characteristic_rhs` the ``(n, 3)`` columns
    of the packed state.
    """

    def __init__(self, fields, tau0: float, mode: str):
        self.fields = fields
        self.tau0 = tau0
        self.mode = mode

    def _at(self, T: float, y: np.ndarray) -> tuple:
        x = y[0:3].T.copy()
        p = y[3:6].T.copy()
        return x, p, self.fields(T, x)

    def p0(self, frame: TimeFrame, y: np.ndarray, out: np.ndarray) -> None:
        _, p, f = self._at(frame.T, y)
        out[...] = _batch_p0(f, p, frame)

    def rhs(self, T: float, y: np.ndarray, k: np.ndarray) -> None:
        x, p, f = self._at(T, y)
        frame = make_time_frame(self.tau0, T)
        if self.mode == "derived":
            dx, dp, k[6] = characteristic_rhs((x, p), f, frame, self.mode, y[6])
        else:
            dx, dp = characteristic_rhs((x, p), f, frame, self.mode)
            k[6] = 0.0
        k[0:3] = dx.T
        k[3:6] = dp.T

    def observe(self, T: float, y: np.ndarray, G: np.ndarray,
                residual: np.ndarray) -> np.ndarray:
        _, p, f = self._at(T, y)
        frame = make_time_frame(self.tau0, T)
        q0 = _batch_p0(f, p, frame) if self.mode == "paper_form" else y[6]
        G[...] = _support_sq(f, p)
        residual[...] = _residual(f, p, q0, frame)
        return q0


def integrate_characteristics(ensemble: ParticleEnsemble,
                              fields: Callable[[float, np.ndarray], BatchFields],
                              frame0: TimeFrame, Tend: float, h: float,
                              mode: str = "derived",
                              log_every: int = 100,
                              threads: int = 1) -> tuple:
    """Integrate the characteristic system with fixed-step classical RK4.

    Returns ``(TrajectoryLog, final ParticleEnsemble)``.  ``log_every``
    thins the output log; the final step is always logged.  The ensemble
    is split into chunks of ``_CHUNK`` particles, each integrated
    independently; ``threads`` caps the number of worker threads that
    share them.  Every particle's arithmetic is independent of the
    chunking, so the output is independent of the thread count.
    """
    if mode not in ("derived", "paper_form"):
        raise ValueError(f"unknown mode {mode!r}")
    if h <= 0:
        raise ValueError("step size must be positive")
    if log_every < 1:
        raise ValueError("log_every must be positive")
    if Tend <= frame0.T:
        raise ValueError("Tend must exceed the initial time")
    n_steps = int(round((Tend - frame0.T) / h))
    if abs(frame0.T + n_steps * h - Tend) > 1e-9:
        raise ValueError("(Tend - T0) must be an integer number of steps")

    T0, tau0, n = frame0.T, frame0.tau0, ensemble.size
    logged = list(range(log_every, n_steps + 1, log_every))
    if not logged or logged[-1] != n_steps:
        logged.append(n_steps)
    log_row = {step: row for row, step in enumerate(logged, start=1)}
    m = len(logged) + 1
    log = TrajectoryLog(
        T=np.array([T0] + [T0 + step * h for step in logged]),
        x=np.empty((m, n, 3)), p=np.empty((m, n, 3)), p0=np.empty((m, n)),
        massshell_residual=np.empty((m, n)), G=np.empty((m, n)),
        calG=np.zeros(m), total_weight=np.full(m, ensemble.total_weight()),
        flagged=np.zeros(n, dtype=bool))
    final = np.empty((6, n))
    starts = range(0, n, _CHUNK)
    # largest G of a live particle, per chunk and log row
    top = np.full((len(starts), m), -np.inf)
    row_form = getattr(fields, "conformal_rows", None)

    def run_chunk(i: int) -> None:
        lo = starts[i]
        hi = min(lo + _CHUNK, n)
        flow = (_RowFlow(row_form, tau0, hi - lo)
                if row_form is not None and mode == "derived"
                else _BatchFlow(fields, tau0, mode))
        # packed state: rows x0 x1 x2 p0 p1 p2 q0
        y = np.empty((7, hi - lo))
        y[0:3] = ensemble.x[lo:hi].T
        y[3:6] = ensemble.p[lo:hi].T
        flow.p0(frame0, y, y[6])
        spare, k, acc = np.empty_like(y), np.empty_like(y), np.empty_like(y)
        flagged = log.flagged[lo:hi]
        frozen = False

        def record(row: int, T: float, y: np.ndarray) -> None:
            G = log.G[row, lo:hi]
            log.p0[row, lo:hi] = flow.observe(
                T, y, G, log.massshell_residual[row, lo:hi])
            log.x[row, lo:hi] = y[0:3].T
            log.p[row, lo:hi] = y[3:6].T
            live = G[~flagged] if frozen else G
            if live.size:
                top[i, row] = live.max()

        record(0, T0, y)
        T = T0
        for step in range(1, n_steps + 1):
            new = rk4_step_into(flow.rhs, T, y, h, spare, k, acc)
            # a finite sum has no inf or NaN terms: one pass in the usual
            # case, the particle-wise test only when it fails
            if not (math.isfinite(new.sum()) and new[6].min() > 0.0):
                flagged |= ~(np.isfinite(new).all(axis=0) & (new[6] > 0.0))
                frozen = bool(flagged.any())
            if frozen:
                # a flagged particle keeps its last finite state
                np.copyto(new, y, where=flagged)
            y, spare = new, y
            T = T0 + step * h
            if step in log_row:
                record(log_row[step], T, y)
        final[:, lo:hi] = y[0:6]

    workers = min(threads, len(starts))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, range(len(starts))))
    else:
        for i in range(len(starts)):
            run_chunk(i)
    if len(starts):
        G_max = top.max(axis=0)
        live = ~np.isneginf(G_max)  # rows where some particle is live
        log.calG[live] = np.sqrt(G_max[live])
    fin = ParticleEnsemble(final[0:3].T.copy(), final[3:6].T.copy(),
                           ensemble.weights.copy())
    return log, fin


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
