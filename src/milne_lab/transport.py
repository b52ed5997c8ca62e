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
* ``mode="paper_form"`` -- the classical termwise bookkeeping, a
  diagnostic of :func:`characteristic_rhs` only: the derived ``dx/dT``
  and ``dp/dT = derived - 2 p`` at the on-shell ``p0``, the uncancelled
  ``-2 p`` restored.  At the background it returns ``dp/dT = -2 p``
  instead of zero; the discrepancy is reported by the tests, not hidden.

All work happens in a local orthonormal frame of the reference metric,
where the spatial connection coefficients of the background vanish and
every contraction is a plain array operation.  Field providers supply
``(g, N, X, Sigma)`` and their needed derivatives as closed-form
functions of ``(T, x)`` on particle batches.  :func:`characteristic_rhs`,
the dense formula reference, goes through the batched connection blocks
of :func:`milne_lab.geometry.rescaled_christoffels`.

Hot path.  The integrator runs ``mode="derived"`` on conformal fields
(``g = a I``) only.  It packs the state of a chunk of particles as one
``(7, n)`` array of rows ``x0 x1 x2 p0 p1 p2 q0``, and at every RK4
stage the provider's row fill (``conformal_rows``, set by
:func:`background_fields` and :func:`manufactured_lapse_fields`) writes
the field rows ``(N, dN, dTN, a, u)`` in place for the row kernels.  The
``(n, 3)`` ``dN`` and ``conf_u`` of a provider's :class:`BatchFields`
are copies of these rows, because ``np.einsum("na,na->n")`` sums a
strided operand in another order.

Every row of the hot loop (state, stage, slope, field and scratch rows)
starts on a 64-byte cache line: :func:`_rows` cuts each block at a line
boundary and pads the row stride to whole lines.  ``np.empty`` makes no
such promise: a ``(7, 25000)`` block typically starts 16 bytes past a
line, and as 25 000 doubles fill whole lines, so does each of its rows.
A misaligned row splits every AVX-512 load and store across two lines;
a 25 000-element ``np.multiply`` took 7.6-7.8 us with aligned operands
against 15-17 us at offsets of 8 to 32 bytes (median of 2000 calls,
2-vCPU Xeon VM).  Most row passes of a stage are such multiplies, adds
and subtracts; ``divide``, ``exp`` and ``sqrt`` are bound by arithmetic
and do not care.  Where a row starts changes no result bit (the tests
run every offset).

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

A full log stores every particle's state, ``G`` and residual at each log
row.  A summary log (``full_log=False``, what the ``characteristics``
scenario asks for) observes ``G`` and the residual of a chunk in two
scratch rows and keeps only their per-row maxima, ``calG`` and
``max_residual``, and no final state.  A maximum is exact in any order
of reduction and ``np.max`` passes a NaN through, so these equal the
maxima of the full log bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from ._rk4 import rk4_step_into
from .geometry import (TimeFrame, make_time_frame, rescaled_christoffels,
                       BACKGROUND_LAPSE)
from .massshell import compute_p0

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
    # gradient ``d_c ln a (n,3)``, from which :meth:`materialize` fills
    # the dense blocks.
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


# Row form of conformal fields: the tuple of row views ``(N, dN, dTN, a,
# u)`` with ``dN (3, n)`` the lapse gradient, ``a`` the conformal factor
# and ``u (3, n) = grad ln a``.  A row-form fill ``fill(T, x, F, W)``
# writes them for the position rows ``x (3, n)`` into ``F``, using the
# scratch rows ``W (_SCRATCH_ROWS, n)``.
_SCRATCH_ROWS = 10


class _RowProvider(Protocol):
    """A field provider that carries its row fill as ``conformal_rows``."""
    conformal_rows: Callable[[float, np.ndarray, tuple, np.ndarray], None]

    def __call__(self, T: float, x: np.ndarray) -> BatchFields: ...


def _rows(m: int, n: int) -> np.ndarray:
    """A new ``(m, n)`` float block whose rows each start on a cache line.

    The block is cut from a larger buffer at its first 64-byte boundary,
    with the row stride rounded up to whole lines of 8 doubles.
    """
    stride = -(-n // 8) * 8
    raw = np.empty(m * stride + 8)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + m * stride].reshape(m, stride)[:, :n]


def _field_rows(n: int) -> tuple:
    """Row views ``(N, dN, dTN, a, u)`` over one new ``(9, n)`` block."""
    F = _rows(9, n)
    return F[0], F[1:4], F[4], F[5], F[6:9]


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
    N, dN, dTN, a, u = F = _field_rows(n)
    fill(T, np.ascontiguousarray(x.T), F, _rows(_SCRATCH_ROWS, n))
    vector = np.broadcast_to(0.0, (n, 3))
    matrix = np.broadcast_to(0.0, (n, 3, 3))
    # dN and conf_u are C-contiguous copies, not views of their rows:
    # np.einsum("na,na->n") adds the products of a strided operand in a
    # different order, which would change the sums of the dense formulas
    return BatchFields(
        g=None, dg=None, dTg=None,  # dense blocks via materialize()
        N=N, dN=dN.T.copy(), dTN=dTN,
        X=vector, dX=matrix, Sigma=matrix, dTX=vector,
        conf_a=a, conf_u=u.T.copy())


def _background_rows(T: float, x: np.ndarray, F: tuple,
                     W: np.ndarray) -> None:
    for row, value in zip(F, (BACKGROUND_LAPSE, 0.0, 0.0, 1.0, 0.0)):
        row.fill(value)


def background_fields(T: float, x: np.ndarray) -> BatchFields:
    """The fixed point ``(identity frame, Sigma=0, N=3, X=0)``: conformal, a = 1."""
    return _conformal_batch(_background_rows, T, x)


background_fields.conformal_rows = _background_rows


def manufactured_lapse_fields(eps: float) -> _RowProvider:
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

    def rows(T: float, x: np.ndarray, F: tuple, W: np.ndarray) -> None:
        N, dN, dTN, a, u = F
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
        np.multiply(phi, amp, out=N)
        N += BACKGROUND_LAPSE
        np.multiply(dphi, amp, out=dN)
        np.multiply(phi, -amp, out=dTN)
        np.multiply(phi, grown, out=a)
        np.exp(a, out=a)
        np.multiply(dphi, grown, out=u)

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

    ``x, p`` are ``(n, 3)`` arrays, ``weights`` is ``(n,)``, finite, >= 0.
    """

    x: np.ndarray
    p: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.p = np.atleast_2d(np.asarray(self.p, dtype=float))
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        shapes = self.x.shape, self.p.shape, self.weights.shape
        n = self.weights.shape[0]
        if shapes != ((n, 3), (n, 3), (n,)):
            raise ValueError("ensemble shapes must be x (n, 3), p (n, 3) "
                             f"and weights (n,), got {shapes}")
        if not (np.isfinite(self.weights).all() and (self.weights >= 0).all()):
            raise ValueError("ensemble weights must be finite and nonnegative")

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def total_weight(self) -> float:
        return float(np.sum(self.weights))


# ---------------------------------------------------------------------------
# conformal flow in row form
# ---------------------------------------------------------------------------


def _conformal_rhs(tau: float, p: np.ndarray, q0: np.ndarray, F: tuple,
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
    N, dN, dTN, a, u = F
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


def _p0_rows(tau: float, F: tuple, p: np.ndarray, out: np.ndarray,
             W: np.ndarray) -> np.ndarray:
    """On-shell time component ``sqrt(1 + tau^2 a |p|^2) / N``."""
    N, _, _, a, _ = F
    _dot3(p, p, out, W[7:10])
    out *= a
    out *= tau**2
    out += 1.0
    np.sqrt(out, out=out)
    out /= N
    return out


def _support_rows(F: tuple, p: np.ndarray, out: np.ndarray,
                  W: np.ndarray) -> np.ndarray:
    """Squared momentum norm ``|p|^2_g = a |p|^2``."""
    _, _, _, a, _ = F
    _dot3(p, p, out, W[7:10])
    out *= a
    return out


def _residual_rows(tau: float, F: tuple, p: np.ndarray, q0: np.ndarray,
                   out: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Mass-shell residual ``1 + tau^2 a |p|^2 - (N q0)^2`` of ``q0``."""
    N, _, _, a, _ = F
    p2, term = W[0], W[1]
    _dot3(p, p, p2, W[7:10])
    np.multiply(a, tau**2, out=term)
    term *= p2
    np.multiply(N, q0, out=out)
    np.square(out, out=out)
    np.negative(out, out=out)
    out += term
    out += 1.0
    return out


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def characteristic_rhs(state, fields_at, frame: TimeFrame, mode: str = "derived",
                       q0: Optional[np.ndarray] = None):
    """Right-hand side of the characteristic system at one time.

    ``state`` is a pair of ``(n,3)`` arrays ``(x, p)``; ``fields_at`` is
    the already-evaluated :class:`BatchFields` at the particle positions
    (conformal ones are materialized).  Returns ``(dx/dT, dp/dT,
    dp0/dT)`` for ``mode="derived"`` (which co-evolves the time
    component; pass the current ``q0``, else the on-shell value is used)
    and ``(dx/dT, dp/dT)`` for
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
    This is the dense reference of the integrator's row kernels.
    """
    x, p = state
    f = fields_at.materialize()
    tau = frame.tau

    if mode == "paper_form":
        dx, dp, _ = characteristic_rhs(state, f, frame)
        return dx, dp - 2.0 * p
    if mode != "derived":
        raise ValueError(f"unknown mode {mode!r}")
    if q0 is None:
        q0 = compute_p0(f, p, frame, method="paper_primary")
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))

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
    """Output-step log of a characteristic integration.

    The per-particle fields are ``None`` in a summary log (see
    :func:`integrate_characteristics`); the per-row fields are always set.
    """

    T: np.ndarray                  # (m,)
    x: Optional[np.ndarray]        # (m, n, 3)
    p: Optional[np.ndarray]        # (m, n, 3)
    p0: Optional[np.ndarray]       # (m, n)
    massshell_residual: Optional[np.ndarray]  # (m, n)
    G: Optional[np.ndarray]        # (m, n)
    calG: np.ndarray               # (m,)
    max_residual: np.ndarray       # (m,) largest |massshell_residual| per row
    total_weight: np.ndarray       # (m,)
    flagged: np.ndarray            # (n,) bool: left the flow, frozen since


# Particles per chunk.  Each chunk is integrated over the whole run in
# its own buffers, about 47 cache-line-aligned rows of 8-byte floats per
# particle.  Tuned at 10^5 particles x 100 steps on two threads of a
# 2-vCPU VM with AVX-512, where 25000 runs fastest (1.5 s, 1.8 s before
# the rows were aligned): 16672, 50000 and 12500 took 6 %, 10 % and
# 19 % longer (medians of 6 alternating runs), and 20000 and 33334
# leave one worker a chunk more.  Chunks small enough for L2 (~4000)
# are faster on one thread (by 10 % with aligned rows) but several times
# slower on two, which then queue for the interpreter lock between the
# short numpy calls.
_CHUNK = 25_000


class _Flow:
    """Flow of one chunk of particles in the packed state ``y (7, n)``:
    each evaluation fills the field rows ``F`` at the positions ``y[0:3]``
    and runs a row kernel on ``p = y[3:6]`` and ``q0 = y[6]``.
    """

    def __init__(self, fill, tau0: float, size: int):
        self.fill = fill
        self.tau0 = tau0
        self.F = _field_rows(size)
        self.W = _rows(_SCRATCH_ROWS, size)

    def _fill_at(self, T: float, y: np.ndarray) -> float:
        """Fill the field rows at the positions of ``y``; return ``tau``."""
        self.fill(T, y[0:3], self.F, self.W)
        return make_time_frame(self.tau0, T).tau

    def p0(self, T: float, y: np.ndarray, out: np.ndarray) -> None:
        _p0_rows(self._fill_at(T, y), self.F, y[3:6], out, self.W)

    def rhs(self, T: float, y: np.ndarray, k: np.ndarray) -> None:
        _conformal_rhs(self._fill_at(T, y), y[3:6], y[6], self.F, k, self.W)

    def observe(self, T: float, y: np.ndarray, G: np.ndarray,
                residual: np.ndarray) -> None:
        tau = self._fill_at(T, y)
        _support_rows(self.F, y[3:6], G, self.W)
        _residual_rows(tau, self.F, y[3:6], y[6], residual, self.W)


def integrate_characteristics(ensemble: ParticleEnsemble,
                              fields: _RowProvider,
                              frame0: TimeFrame, Tend: float, h: float,
                              mode: str = "derived",
                              log_every: int = 100,
                              threads: int = 1,
                              full_log: bool = True) -> tuple:
    """Integrate the derived characteristic system with fixed-step RK4.

    ``fields`` must carry a row fill (``conformal_rows``; else
    ``TypeError``) and ``mode`` be ``"derived"`` (else ``ValueError``).
    Returns ``(TrajectoryLog, final ParticleEnsemble)``.  ``log_every``
    thins the output log; the final step is always logged.  The ensemble
    is split into chunks of ``_CHUNK`` particles, each integrated
    independently; ``threads`` caps the number of worker threads that
    share them.  Every particle's arithmetic is independent of the
    chunking, so the output is independent of the thread count.

    ``full_log=False`` records a summary: the log keeps only its per-row
    fields ``T``, ``calG``, ``max_residual``, ``total_weight`` and
    ``flagged``, its per-particle fields are ``None``, and the call
    returns ``(log, None)``.  Each chunk then observes ``G`` and the
    residual in its own scratch rows and keeps only their maxima.  A
    maximum does not depend on the order of reduction (and ``np.max``
    passes a NaN through), so the summary fields equal those of the full
    log bit for bit.
    """
    fill = getattr(fields, "conformal_rows", None)
    if fill is None:
        raise TypeError("integrate_characteristics needs a provider with a "
                        "row fill (conformal_rows), such as background_fields")
    if mode != "derived":
        raise ValueError(f"unknown mode {mode!r}: the characteristics "
                         "are integrated in mode='derived' only")
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

    def per_particle(*shape):
        return np.empty((m, n) + shape) if full_log else None

    log = TrajectoryLog(
        T=np.array([T0] + [T0 + step * h for step in logged]),
        x=per_particle(3), p=per_particle(3), p0=per_particle(),
        massshell_residual=per_particle(), G=per_particle(),
        calG=np.zeros(m), max_residual=np.zeros(m),
        total_weight=np.full(m, ensemble.total_weight()),
        flagged=np.zeros(n, dtype=bool))
    final = np.empty((6, n)) if full_log else None
    starts = range(0, n, _CHUNK)
    # largest G of a live particle and largest |residual|, per chunk and
    # log row
    top = np.full((len(starts), m), -np.inf)
    worst = np.zeros((len(starts), m))

    def run_chunk(i: int) -> None:
        lo = starts[i]
        hi = min(lo + _CHUNK, n)
        flow = _Flow(fill, tau0, hi - lo)
        # packed state: rows x0 x1 x2 p0 p1 p2 q0; the RK4 step's output
        # and scratch have its layout
        y, spare, k, acc = (_rows(7, hi - lo) for _ in range(4))
        y[0:3] = ensemble.x[lo:hi].T
        y[3:6] = ensemble.p[lo:hi].T
        flow.p0(T0, y, y[6])
        flagged = log.flagged[lo:hi]
        frozen = False
        observed = None if full_log else _rows(2, hi - lo)  # G, residual

        def record(row: int, T: float, y: np.ndarray) -> None:
            G, res = ((log.G[row, lo:hi], log.massshell_residual[row, lo:hi])
                      if full_log else observed)
            flow.observe(T, y, G, res)
            if full_log:
                log.p0[row, lo:hi] = y[6]
                log.x[row, lo:hi] = y[0:3].T
                log.p[row, lo:hi] = y[3:6].T
            live = G[~flagged] if frozen else G
            if live.size:
                top[i, row] = live.max()
            worst[i, row] = np.max(np.abs(res))

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
        if full_log:
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
        log.max_residual[:] = np.max(worst, axis=0)
    if not full_log:
        return log, None
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
    margin over ``T > T0`` (at ``T0`` the envelope equals ``calG``).
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
        "margin": float(np.min(margin[1:] if T.size > 1 else margin)),
    }
