"""Characteristic flow of the collisionless transport equation.

Characteristics are the geodesics of the raw spacetime metric written in
nondimensional variables ``(x, p, p0)``, for shift-free fields.  The
right-hand side (``mode="derived"``) is obtained by pushing the exact
geodesic equations through the rescaling.  The dilution of raw momenta
cancels the growth of the rescaling weight identically, and the
implementation groups the cancelling terms symbolically so that the
background right-hand side is an exact floating-point zero.  The time
component ``p0`` is co-integrated (never recomputed algebraically), so
the reconstructed mass-shell residual is a genuine measure of
integration quality.

All work happens in a local orthonormal frame of the reference metric,
where the spatial connection coefficients of the background vanish and
every contraction is a plain array operation.  Field providers supply
``(g, N, X, Sigma)`` and their needed derivatives as closed-form
functions of ``(T, x)`` on particle batches.

Hot path.  The integrator runs on conformal fields (``g = a I``) only.
It packs the state of a chunk of particles as one ``(7, n)`` array of
rows ``x0 x1 x2 p0 p1 p2 q0``, and at every RK4 stage the provider's
row fill (``conformal_rows``, set by :func:`manufactured_lapse_fields`)
writes the field rows ``(N, dN, dTN, a, u)`` in place for the row
kernel :func:`_bind_rhs`.  That fill is a binder, the one row-fill
protocol (see the comment above ``_SCRATCH_ROWS``), and the provider's
own ``(T, x)`` call runs it too.  The ``(n, 3)`` ``dN`` of the batched
:class:`~milne_lab.geometry.LocalGeometry` that call returns is a copy
of its rows, because ``np.einsum("na,na->n")`` sums a strided operand
in another order.

A step of a small chunk costs what its numpy calls cost, about 0.4 us
each whatever their length, so each chunk binds its hot loop once
(:class:`_Flow`): the row views of the fill and of the kernel per state
block and slope buffer, operands and outputs by position, and the stage
scalars as 0-d arrays written once per stage time (a ufunc converts a
Python float operand on every call).  The field block is laid out ``N
dTN a | dN u``, so one multiply by a ``(3, 1)`` column scales ``phi``
into ``N dTN a`` and one by a ``(2, 1, 1)`` column scales ``grad phi``
into ``dN u``.  Every element goes through the operations of the
unbound kernel in the same order, so the results are bitwise unchanged.
A step of one particle took about 150 us against 240 us unbound, and
one of 1000 particles about 270 against 320 us (2-vCPU Xeon VM, numpy
2.4).  The kernel's three dot products stay apart: stacked into one
``(3, 3, n)`` product block they saved calls but needed seven more
scratch rows, and a step ran about 6 % slower at 1000 and at 7143
particles.

Every row of the hot loop (state, stage, slope, field and scratch rows)
starts on a 64-byte cache line: :func:`_rows` cuts each block at a line
boundary and pads the row stride to whole lines.  ``np.empty`` makes no
such promise: a ``(7, n)`` block typically starts 16 bytes past a line,
and unless ``n`` doubles fill whole lines its rows drift across offsets.
A misaligned row splits every AVX-512 load and store across two lines;
a 25 000-element ``np.multiply`` took 7.6-7.8 us with aligned operands
against 15-17 us at offsets of 8 to 32 bytes (median of 2000 calls,
2-vCPU Xeon VM).  Most row passes of a stage are such multiplies, adds
and subtracts; ``divide``, ``exp`` and ``sqrt`` are bound by arithmetic
and do not care.  Where a row starts changes no result bit (the tests
run every offset).

The particles are split into at most ``threads`` contiguous shares,
one per worker process, and each share into chunks of at most
``_CHUNK``, each integrated over the whole run with its kernels bound
once.  The buffers of one chunk are ``_CHUNK_ROWS`` = 47 rows of one
float per particle, and ``_CHUNK`` is the most particles whose 47 rows
fill 15/16 of a 2 MiB per-core L2 (``_L2_BYTES``): 5228, 1.87 MiB.
The calling process integrates the first share and forks a child for
each other one; the children write their log rows into a shared
anonymous map.
Nothing couples particles, so the output is bitwise independent of the
chunk size and of the worker count.  The row-wise dot product
:func:`_dot3` adds its three products as ``(a0 b0 + a2 b2) + a1 b1``,
the order of ``np.einsum("na,na->n")`` on ``(n, 3)`` arrays, so the row
form gives bit for bit the results of the ``(n, 3)`` formulation it
replaced (``|p|^2`` enters ``calG``, the residual and every stage, and a
different rounding would change the logged trajectories).

A full log stores every particle's state, ``G`` and residual at each log
row; its last row is the final state.  A summary log (``full_log=False``,
what the ``characteristics`` scenario asks for) observes ``G`` and the
residual of a chunk in the first two rows of a slope buffer, which are
free at a log row (the step is done, and the next step's kernel writes
its slopes in full before it reads them), and keeps only their per-row
maxima, ``calG`` and ``max_residual``, and no final state.  A maximum is
exact in any order of reduction and ``np.max`` passes a NaN through, so
these equal the maxima of the full log bit for bit.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from ._rk4 import check_count, rk4_step_into
from .geometry import BACKGROUND_LAPSE, LocalGeometry, TimeFrame
# the flow computes tau itself, but make_time_frame stays a name of this
# module: perfbench/selftest.py checks that its tracer binds a span here
from .geometry import make_time_frame  # noqa: F401

__all__ = [
    "manufactured_lapse_fields",
    "ParticleEnsemble",
    "integrate_characteristics",
    "TrajectoryLog",
    "support_bound_check",
]


# ---------------------------------------------------------------------------
# field providers
# ---------------------------------------------------------------------------


# Row form of conformal fields: one ``(9, n)`` field block ``F`` laid out
# ``N dTN a | dN u``, with ``dN (3, n)`` the lapse gradient, ``a`` the
# conformal factor and ``u (3, n) = grad ln a``, so the rows that take the
# same factor are adjacent.  A provider's row fill ``conformal_rows(F,
# W)``, with the scratch rows ``W (_SCRATCH_ROWS, n)``, is a binder that
# returns ``(retime, at)``: ``retime(T)`` sets the time, and ``at(x)`` the
# fill of ``F`` at the position rows ``x (3, n)`` and the time last set, a
# function of no arguments with every row view it needs built once.  The
# integrator (:class:`_Flow`) and :func:`_conformal_batch` both run it.
_SCRATCH_ROWS = 10


class _RowProvider(Protocol):
    """A field provider that carries its row fill as ``conformal_rows``."""
    conformal_rows: Callable[[np.ndarray, np.ndarray], tuple]

    def __call__(self, T: float, x: np.ndarray) -> LocalGeometry: ...


def _rows(m: int, n: int) -> np.ndarray:
    """A new ``(m, n)`` float block whose rows each start on a cache line.

    The block is cut from a larger buffer at its first 64-byte boundary,
    with the row stride rounded up to whole lines of 8 doubles.
    """
    stride = -(-n // 8) * 8
    raw = np.empty(m * stride + 8)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + m * stride].reshape(m, stride)[:, :n]


def _scalar(value: float) -> np.ndarray:
    """A read-only 0-d array: a ufunc takes it as an operand about 0.2 us
    faster than the Python float, which it converts on every call."""
    out = np.array(value, dtype=float)
    out.flags.writeable = False
    return out


_multiply, _add, _subtract, _divide, _exp = (
    np.multiply, np.add, np.subtract, np.divide, np.exp)
_TWO, _TWO_THIRDS, _HALF = map(_scalar, (2.0, 2.0 / 3.0, 0.5))


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


def _conformal_batch(bind, T: float, x: np.ndarray) -> LocalGeometry:
    """Batched :class:`LocalGeometry` of the row fill ``bind`` at the
    positions ``x (n, 3)``."""
    n = x.shape[0]
    F = _rows(9, n)
    retime, at = bind(F, _rows(_SCRATCH_ROWS, n))
    retime(T)
    at(np.ascontiguousarray(x.T))()
    vector = np.broadcast_to(0.0, (n, 3))
    matrix = np.broadcast_to(0.0, (n, 3, 3))
    # dN is a C-contiguous copy, not a view of its rows:
    # np.einsum("na,na->n") adds the products of a strided operand in a
    # different order, which would change the sums of the dense formulas.
    # With the trace-free part and the shift at zero the frame metric
    # dilates as dg/dT = (2/3)(N - 3) g, so (a, u, N) fix the dense blocks.
    N, a, u = F[0], F[2], F[6:9].T
    g = a[:, None, None] * np.eye(3)
    return LocalGeometry(
        g=g, dg=g[:, :, :, None] * u[:, None, None, :],
        dTg=(2.0 / 3.0) * (N - BACKGROUND_LAPSE)[:, None, None] * g,
        N=N, dN=F[3:6].T.copy(), dTN=F[1],
        X=vector, dX=matrix, Sigma=matrix, dTX=vector)


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

    At ``eps = 0`` these are the background fields, row for row (up to
    the signs of zeros).  The returned provider also exposes closed-form sup-norm envelopes of the correction fields
    via the attribute ``norm_envelopes``, and its row form via
    ``conformal_rows``.
    """

    scale, lapse = _scalar(math.exp(1.5)), _scalar(BACKGROUND_LAPSE)
    minus_half = _scalar(-0.5)

    def bind(F: np.ndarray, W: np.ndarray) -> tuple:
        # (amp, -amp, grown) scale phi into the rows N dTN a, and (amp,
        # grown) scale grad phi into the rows dN u: one multiply each
        factors = np.zeros((3, 1))
        grad_factors = factors[0::2, :, None]
        N_dTN_a, dN_u = F[0:3], F[3:9].reshape(2, 3, F.shape[1])
        N, a = F[0], F[2]
        bump, prod, phi = W[0], W[1], W[2]
        pairs, dphi = W[3:6], W[6:9]
        pairs_10, x0x1 = pairs[1::-1], pairs[2]
        sq0, sq1, sq2 = dphi

        def retime(T: float) -> None:
            decay = math.exp(-T)
            amp = eps * decay
            factors[0] = amp
            factors[1] = -amp
            factors[2] = (2.0 * eps / 3.0) * (1.0 - decay)

        def at(x: np.ndarray) -> Callable[[], None]:
            x0, x1, x2 = x
            x0_x1 = x[0:2]

            def fill() -> None:
                _multiply(x, x, dphi)
                _add(sq0, sq2, bump)
                _add(bump, sq1, bump)             # |x|^2
                _multiply(bump, minus_half, bump)
                _exp(bump, bump)
                _multiply(bump, scale, bump)      # e^{3/2} exp(-|x|^2 / 2)
                _multiply(x0_x1, x2, pairs_10)    # x1 x2, x0 x2
                _multiply(x0, x1, x0x1)
                _multiply(x0x1, x2, prod)         # x0 x1 x2
                _multiply(bump, prod, phi)
                _multiply(x, prod, dphi)
                _subtract(pairs, dphi, dphi)
                _multiply(dphi, bump, dphi)       # grad phi
                _multiply(phi, factors, N_dTN_a)
                _add(N, lapse, N)
                _exp(a, a)
                _multiply(dphi, grad_factors, dN_u)
            return fill
        return retime, at

    def provider(T: float, x: np.ndarray) -> LocalGeometry:
        return _conformal_batch(bind, T, x)

    provider.conformal_rows = bind
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

    ``x, p`` are finite ``(n, 3)`` arrays, ``weights`` is ``(n,)``,
    finite, >= 0.
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
        for name in ("x", "p"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"ensemble {name} must be finite")

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def total_weight(self) -> float:
        return float(np.sum(self.weights))


# ---------------------------------------------------------------------------
# conformal flow in row form
# ---------------------------------------------------------------------------


def _bind_rhs(fill: Callable[[], None], y: np.ndarray, k: np.ndarray,
              F: np.ndarray, W: np.ndarray,
              scalars: tuple) -> Callable[[], None]:
    """Derived right-hand side of conformal fields at the state ``y (7,
    n)``, into the rows of ``k``, with its row views bound once.

    The returned function calls ``fill`` to write the field block ``F``
    at the positions ``y[0:3]``, then writes ``dx, dp, dq0`` of ``p =
    y[3:6]`` and the co-evolved time component ``q0 = y[6]``, reading the
    0-d stage ``scalars`` ``(tau, -tau, 2 tau, tau^2 / 3)``.  The
    conformal frame metric ``g = a I`` is shift-free with zero trace-free
    part, so the spatial connection is the gradient of ``ln a`` and every
    contraction closes in flat dot products; the inverse metric cancels
    the factor ``a`` inside the metric gradient, so ``Gamma(g) p p = <u,
    p> p - |p|^2 u / 2`` is ``a``-independent.  With ``c = (-tau) / q0``,
    which is ``-(tau / q0)`` bit for bit, the terms with ``+ tau / q0``
    are subtracted as ``- c``, so no pass negates a row.
    """
    tau, minus_tau, two_tau, tau2_3 = scalars
    n = y.shape[1]
    p, q0 = y[3:6], y[6]
    dp, dq0 = k[3:6], k[6]
    N, dTN, a, dN, u = F[0], F[1], F[2], F[3:6], F[6:9]
    p2, up, c, cp, nq, coef, w = W[0:7]
    tmp = W[7:10]
    tmp0, tmp1, tmp2 = tmp
    # [c; cp] scales p into [dx; dp] in one multiply
    c_cp, dx_dp = W[2:4].reshape(2, 1, n), k[0:6].reshape(2, 3, n)

    def rhs() -> None:
        fill()
        # the dot products of _dot3, written out
        _multiply(p, p, tmp)
        _add(tmp0, tmp2, p2)
        _add(p2, tmp1, p2)
        _multiply(u, p, tmp)
        _add(tmp0, tmp2, up)
        _add(up, tmp1, up)
        _divide(minus_tau, q0, c)               # c = -(tau / q0)
        # p coefficient: 2 (1 - N/3) from the corrected frame drag plus the
        # <u, p> part of the spatial connection
        _multiply(N, _TWO_THIRDS, cp)
        _subtract(_TWO, cp, cp)
        _multiply(c, up, w)
        _subtract(cp, w, cp)
        _multiply(c_cp, p, dx_dp)               # dx = c p, dp = cp p
        _multiply(N, q0, nq)
        _divide(nq, tau, coef)
        _divide(coef, a, coef)
        _multiply(coef, dN, tmp)
        _add(dp, tmp, dp)
        _multiply(c, _HALF, w)
        _multiply(w, p2, w)
        _multiply(w, u, tmp)
        _add(dp, tmp, dp)                       # - (tau / q0) |p|^2 u / 2
        # dg/dT = (2/3)(N - 3) g makes (2 g + dg/dT) p p = (2N/3) a |p|^2
        _multiply(dN, p, tmp)
        _add(tmp0, tmp2, up)
        _add(up, tmp1, up)                      # <grad N, p>
        _divide(dTN, N, c)
        _multiply(c, q0, c)
        _divide(two_tau, N, cp)
        _multiply(cp, up, cp)
        _subtract(cp, c, cp)
        _multiply(a, tau2_3, c)
        _multiply(c, p2, c)
        _divide(c, nq, c)
        _subtract(cp, c, dq0)
    return rhs


def _support_rows(F: np.ndarray, p: np.ndarray, out: np.ndarray,
                  W: np.ndarray) -> np.ndarray:
    """Squared momentum norm ``|p|^2_g = a |p|^2``, leaving ``|p|^2`` in
    the scratch row ``W[0]``."""
    _dot3(p, p, W[0], W[7:10])
    return np.multiply(W[0], F[2], out=out)


def _p0_rows(tau: float, F: np.ndarray, p: np.ndarray, out: np.ndarray,
             W: np.ndarray) -> np.ndarray:
    """On-shell time component ``sqrt(1 + tau^2 a |p|^2) / N``."""
    _support_rows(F, p, out, W)
    out *= tau**2
    out += 1.0
    np.sqrt(out, out=out)
    out /= F[0]
    return out


def _residual_rows(tau: float, F: np.ndarray, q0: np.ndarray,
                   out: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Mass-shell residual ``1 + tau^2 a |p|^2 - (N q0)^2`` of ``q0``, with
    ``|p|^2`` read from ``W[0]``, where :func:`_support_rows` leaves it."""
    N, a = F[0], F[2]
    p2, term = W[0], W[1]
    np.multiply(a, tau**2, out=term)
    term *= p2
    np.multiply(N, q0, out=out)
    np.square(out, out=out)
    np.negative(out, out=out)
    out += term
    out += 1.0
    return out


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


# The buffers of one chunk, in rows of one 8-byte float per particle: the
# four (7, n) blocks of an RK4 step (state, stage state, two slope
# buffers), the (9, n) field block and the scratch rows, in either log mode.
_CHUNK_ROWS = 4 * 7 + 9 + _SCRATCH_ROWS
# The per-core L2 the buffers of a chunk are sized for, assumed rather
# than probed: on another L2 a run loses speed, never a result bit.
_L2_BYTES = 2 << 20

# Particles per chunk: the most whose buffers fill 15/16 of the L2 (5228,
# 1.87 MiB), leaving a sixteenth to whatever else the loop touches.
# Each chunk is integrated over the whole run in its own buffers, with its
# kernels bound once.  Swept at 10^5 particles x 100 steps with a summary
# log on a 2-vCPU Xeon VM with a 2 MiB L2 per core (the chunks section of
# bench/bench.py: medians of five rounds, sizes in rotating order), 2048 /
# 3072 / 4096 / 5120 / 6144 / 7168 / 8192 took 3.00 / 1.78 / 1.86 / 1.69 /
# 1.84 / 1.99 / 2.02 s on one worker and 1.02 / 0.93 / 0.90 / 0.83 / 0.88
# / 0.96 / 0.96 s on two.  The cap cuts each share into chunks of 5000
# (1.79 MiB), as 5120 does: 0.83 of 8192's wall on one worker and 0.86 on
# two, paired by round.  Chunks past the L2 (6144 and up) wait on memory;
# smaller ones pay the fixed cost of a step (about 0.2 ms) more often.
# Each worker is a process of its own, so a chunk's short numpy calls
# never wait on another worker's.
_CHUNK = _L2_BYTES * 15 // 16 // (8 * _CHUNK_ROWS)


def _workers(threads: int, chunks: int) -> int:
    """Worker processes for ``chunks`` chunks on a budget of ``threads``:
    at most one per CPU this process may run on, and one where ``fork``
    is missing or unsafe: on a platform without ``os.sched_getaffinity``
    (not Linux), or while this process runs other threads, one of which
    may hold a lock the child would wait on forever."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return min(1, chunks)
    return min(threads, chunks, len(os.sched_getaffinity(0)))


def _split(n: int, workers: int) -> tuple:
    """Chunks of ``n`` particles for ``workers`` workers: the chunk
    bounds ``(lo, hi)`` and, per worker, the range of its chunks.

    Each worker gets one contiguous share; shares differ in size by at
    most one particle, and each is cut into equal chunks of at most
    ``_CHUNK``.
    """
    chunks, jobs = [], []
    for w in range(workers):
        lo, hi = n * w // workers, n * (w + 1) // workers
        k = -(-(hi - lo) // _CHUNK)
        jobs.append(range(len(chunks), len(chunks) + k))
        chunks += [(lo + (hi - lo) * j // k, lo + (hi - lo) * (j + 1) // k)
                   for j in range(k)]
    return chunks, jobs


def _shared(*specs) -> list:
    """Zeroed arrays of the given ``(shape, dtype)``, all in one anonymous
    shared map, each starting on a cache line: what a forked worker
    writes into them, its parent reads."""
    counts = [math.prod(shape) for shape, _ in specs]
    sizes = [-(-count * np.dtype(dtype).itemsize // 64) * 64
             for count, (_, dtype) in zip(counts, specs)]
    buf = mmap.mmap(-1, max(1, sum(sizes)))
    arrays, offset = [], 0
    for (shape, dtype), count, size in zip(specs, counts, sizes):
        arrays.append(np.frombuffer(buf, dtype, count, offset).reshape(shape))
        offset += size
    return arrays


def _fork_each(run: Callable, jobs: list) -> None:
    """``run(job)`` for every job: ``jobs[0]`` in this process and each
    other job in a forked child process.

    A child leaves only through ``os._exit``, never returning into the
    caller's stack.  Every child is reaped before this returns or
    raises, and killed first if this process's own job raises.  The job
    of a child that exits non-zero runs again here, so its exception
    reaches the caller.
    """
    children = {}
    try:
        for job in jobs[1:]:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    run(job)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = job
        if jobs:
            run(jobs[0])
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        failed = [job for pid, job in children.items()
                  if os.waitpid(pid, 0)[1] != 0]
    for job in failed:
        run(job)


class _Flow:
    """Flow of one chunk of particles in the packed state ``y (7, n)``:
    each evaluation fills the field block ``F`` at the positions
    ``y[0:3]`` and runs the row kernel on ``p = y[3:6]`` and ``q0 = y[6]``.

    The fill is bound once per state block and the kernel once per pair
    of state block and slope target, on first use: an RK4 step swaps two
    state blocks and writes two slope buffers, so a chunk binds four
    kernels.  The stage scalars are 0-d arrays, written when the time
    changes (the two half-step stages share theirs).
    """

    def __init__(self, bind, tau0: float, size: int):
        self.tau0 = tau0
        self.F = _rows(9, size)
        self.W = _rows(_SCRATCH_ROWS, size)
        self._retime, self._at = bind(self.F, self.W)
        self.T = None
        self.tau = tuple(np.zeros(()) for _ in range(4))
        # bindings keyed by the ids of the arrays they hold, which keeps
        # those alive and their ids unique
        self._fills, self._kernels = {}, {}

    def _time(self, T: float) -> None:
        """Set the stage time ``T`` and its scalars ``tau = tau0 e^{-T}``,
        ``-tau``, ``2 tau`` and ``tau^2 / 3``."""
        if T != self.T:
            self.T = T
            tau = self.tau0 * math.exp(-T)
            for scalar, value in zip(self.tau, (tau, -tau, 2.0 * tau,
                                                tau**2 / 3.0)):
                scalar[...] = value
            self._retime(T)

    def _fill(self, y: np.ndarray) -> Callable[[], None]:
        """The fill bound at the positions of ``y``."""
        entry = self._fills.get(id(y))
        if entry is None:
            entry = self._fills[id(y)] = (y, self._at(y[0:3]))
        return entry[1]

    def p0(self, T: float, y: np.ndarray, out: np.ndarray) -> None:
        self._time(T)
        self._fill(y)()
        _p0_rows(float(self.tau[0]), self.F, y[3:6], out, self.W)

    def rhs(self, T: float, y: np.ndarray, k: np.ndarray) -> None:
        self._time(T)
        entry = self._kernels.get((id(y), id(k)))
        if entry is None:
            entry = self._kernels[id(y), id(k)] = (
                y, k, _bind_rhs(self._fill(y), y, k, self.F, self.W,
                                self.tau))
        entry[2]()

    def observe(self, T: float, y: np.ndarray, G: np.ndarray,
                residual: np.ndarray) -> None:
        self._time(T)
        self._fill(y)()
        _support_rows(self.F, y[3:6], G, self.W)
        _residual_rows(float(self.tau[0]), self.F, y[6], residual, self.W)


def integrate_characteristics(ensemble: ParticleEnsemble,
                              fields: _RowProvider,
                              frame0: TimeFrame, Tend: float, h: float,
                              mode: str = "derived",
                              log_every: int = 100,
                              threads: int = 1,
                              full_log: bool = True) -> tuple:
    """Integrate the derived characteristic system with fixed-step RK4.

    ``fields`` must carry a row fill (``conformal_rows``; else
    ``TypeError``) and ``mode`` be ``"derived"`` (else ``ValueError``);
    ``h`` and ``Tend`` must be finite, and ``log_every`` and ``threads``
    positive integers (``TypeError`` or ``ValueError``).  Returns
    ``(TrajectoryLog, final ParticleEnsemble)``.  ``log_every`` thins the
    output log; the final step is always logged.

    ``threads`` caps the number of worker processes (see
    :func:`_workers`).  Each worker integrates one contiguous share of
    the particles, chunk by chunk (chunks of at most ``_CHUNK``); this
    process runs the first share and forks a child for each other one,
    and the log arrays are written in a shared map.  Every particle's
    arithmetic is independent of the chunking, so the output is
    independent of the worker count.  No child outlives the call; a
    child that fails has its share rerun here, so the caller sees the
    provider's own exception.

    ``full_log=False`` records a summary: the log keeps only its per-row
    fields ``T``, ``calG``, ``max_residual``, ``total_weight`` and
    ``flagged``, its per-particle fields are ``None``, and the call
    returns ``(log, None)``.  Each chunk then observes ``G`` and the
    residual in two rows of a slope buffer and keeps only their maxima.
    A maximum does not depend on the order of reduction (and ``np.max``
    passes a NaN through), so the summary fields equal those of the full
    log bit for bit.
    """
    bind = getattr(fields, "conformal_rows", None)
    if bind is None:
        raise TypeError("integrate_characteristics needs a provider with a "
                        "row fill (conformal_rows), such as "
                        "manufactured_lapse_fields(eps)")
    if mode != "derived":
        raise ValueError(f"unknown mode {mode!r}: the characteristics "
                         "are integrated in mode='derived' only")
    check_count("log_every", log_every)
    check_count("threads", threads)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size must be positive and finite, got {h}")
    if not math.isfinite(Tend):
        raise ValueError(f"Tend must be finite, got {Tend}")
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

    chunks, jobs = _split(n, _workers(threads, -(-n // _CHUNK)))
    # everything a worker writes: the largest G of a live particle and
    # the largest |residual| per chunk and log row, the flags, and the
    # per-particle rows of a full log
    per_particle = ((m, n, 3), (m, n, 3), (m, n), (m, n), (m, n))
    top, worst, flagged, *arrays = _shared(
        ((len(chunks), m), float), ((len(chunks), m), float), ((n,), bool),
        *((shape, float) for shape in per_particle if full_log))
    x, p, p0, residual, G = arrays if full_log else (None,) * 5
    log = TrajectoryLog(
        T=np.array([T0] + [T0 + step * h for step in logged]),
        x=x, p=p, p0=p0, massshell_residual=residual, G=G,
        calG=np.zeros(m), max_residual=np.zeros(m),
        total_weight=np.full(m, ensemble.total_weight()), flagged=flagged)

    def run_chunk(i: int) -> None:
        lo, hi = chunks[i]
        flow = _Flow(bind, tau0, hi - lo)
        # packed state: rows x0 x1 x2 p0 p1 p2 q0; the RK4 step's output
        # and scratch have its layout
        y, spare, k, acc = (_rows(7, hi - lo) for _ in range(4))
        y[0:3] = ensemble.x[lo:hi].T
        y[3:6] = ensemble.p[lo:hi].T
        flow.p0(T0, y, y[6])
        # the flags start clear, also when the chunk is rerun here after
        # its worker failed
        flagged = log.flagged[lo:hi]
        flagged[:] = False
        top[i] = -np.inf
        frozen = False

        def record(row: int, T: float, y: np.ndarray) -> None:
            # a summary observes G and the residual in the slope rows k[0:2],
            # free between steps
            G, res = ((log.G[row, lo:hi], log.massshell_residual[row, lo:hi])
                      if full_log else k[0:2])
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

    def run_share(ids: range) -> None:
        for i in ids:
            run_chunk(i)

    _fork_each(run_share, jobs)
    if chunks:
        G_max = top.max(axis=0)
        live = ~np.isneginf(G_max)  # rows where some particle is live
        log.calG[live] = np.sqrt(G_max[live])
        log.max_residual[:] = np.max(worst, axis=0)
    if not full_log:
        return log, None
    # the last step is always logged
    fin = ParticleEnsemble(x[-1].copy(), p[-1].copy(), ensemble.weights.copy())
    return log, fin


# ---------------------------------------------------------------------------
# Gronwall support bound
# ---------------------------------------------------------------------------


def support_bound_check(T: np.ndarray, calG: np.ndarray, envelopes: dict,
                        C: float = 10.0, tau0_abs: float = 1.0) -> dict:
    """Gronwall envelope for the momentum-support functional.

    ``envelopes`` maps the keys ``X, Sigma, Nm3, dTX, GammaStar,
    GammaStarStar`` to functions ``bound(T)`` of the sup-norms of the
    corresponding fields (a provider's ``norm_envelopes``), evaluated
    here at each time of ``T``; any other key is a ``ValueError``.  The
    envelope is::

        (calG(T0) + C * int_{T0}^{T} (s(r) ||dTX|| + ||GammaStar||/s(r)) dr)
        * exp(C * int_{T0}^{T} (||X||/s + ||Sigma|| + ||N-3||
                                + s^2 ||dTX|| + ||GammaStar||
                                + ||GammaStarStar||) dr)

    where ``s(r) = |tau0| e^{-r}`` is the scale factor along the run,
    with ``|tau0|`` given as ``tau0_abs`` (time weights are expressed
    through powers of the scale factor, anchored at the run's ``tau0``;
    the check is performed with ``|tau0| <= 1``).  Integrals use
    trapezoidal quadrature over the times ``T``.  Returns
    measured/envelope series, ``holds`` and the minimum margin over ``T >
    T0`` (at ``T0`` the envelope equals ``calG``).
    """
    required = ("X", "Sigma", "Nm3", "dTX", "GammaStar", "GammaStarStar")
    missing = [k for k in required if k not in envelopes]
    if missing:
        raise ValueError(f"missing norm series: {missing}")
    unknown = [k for k in envelopes if k not in required]
    if unknown:
        raise ValueError(f"unknown norm series: {unknown}")
    T = np.asarray(T, dtype=float)
    calG = np.asarray(calG, dtype=float)
    nm = {k: np.array([envelopes[k](t) for t in T]) for k in required}
    s = float(tau0_abs) * np.exp(-(T - T[0]))

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
