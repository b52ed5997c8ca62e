"""Norm and energy functionals with decay, smallness and completeness monitors.

The module provides

* weighted ``L^2``-Sobolev energies of radial distribution functions on
  the tangent bundle (``sasaki_energy``),
* the exponentially weighted total energy combining the geometric energy
  and the distribution-function energy (``total_energy``),
* log-linear decay-rate fitting (``decay_fit``), and
* the run monitors: smallness, total-energy decay envelope, continuation
  and causal-geodesic completeness (``monitors``).

Monitors measure margins on logged series; their thresholds are
configuration values with documented defaults, not theorems.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from ._quadrature import composite_gauss_legendre, trapezoid

__all__ = [
    "MONITOR_THRESHOLDS",
    "DecayFitError",
    "inverse_weight_integral",
    "sasaki_energy",
    "total_energy",
    "WeightConditionError",
    "WEIGHT_CONDITIONS",
    "validate_energy_weights",
    "decay_fit",
    "tail_span_needed",
    "tail_convergence",
    "monitors",
]

# the monitor thresholds a scenario configuration sets, with their defaults
MONITOR_THRESHOLDS = {
    "epsDecay": 0.2,
    "epsTot": 0.05,
    "epsLoc": 0.1,
    "smallnessDelta": 0.5,
    "deltaE": 0.05,
    "deltaEcal": 0.9,
}
# fixed tolerances of the completeness conditions
METRIC_LOWER_BOUND = 0.02
LAPSE_UPPER_TOL = 1e-9
SHIFT_TOL = 1e-10
# horizon doublings of the tail-integral test (tail_convergence)
TAIL_DOUBLINGS = 3
# Gauss-Legendre nodes of each row's integral in sasaki_energy
_ENERGY_NODES = 64
# fewest samples in its window that decay_fit fits
_FIT_SAMPLES = 8


# ---------------------------------------------------------------------------
# weight integrals and energies
# ---------------------------------------------------------------------------


def inverse_weight_integral(mu: float) -> float:
    """Radial integral ``int_0^inf q^2 (1 + q^2)^{-mu} dq`` in closed form.

    Equals ``(sqrt(pi)/4) Gamma(mu - 3/2) / Gamma(mu)``; finite for
    ``mu > 3/2``.  The value enters the explicit Cauchy-Schwarz constant
    of the moment bounds (``mu = 3`` gives ``pi/16``, ``mu = 4`` gives
    ``pi/32``).
    """
    if mu <= 1.5:
        raise ValueError("inverse weight integral diverges for mu <= 3/2")
    return 0.25 * math.sqrt(math.pi) * math.gamma(mu - 1.5) / math.gamma(mu)


def _dgtsv_row(dl, d, du, b):
    """Reference LAPACK ``dgtsv`` with one right-hand side, on lists.

    ``dl``, ``d``, ``du`` and ``b`` hold the sub-, main and
    superdiagonal and the right-hand side of one system of ``n = len(d)``
    unknowns; all four are overwritten and the solution is returned in
    ``b``.  Each elimination step takes dgtsv's branch: no interchange
    while ``|d_i| >= |dl_i|``, else rows ``i`` and ``i + 1`` swap and the
    second superdiagonal fills in (kept in ``dl``, as dgtsv keeps it).
    The operations and their order are dgtsv's, so the solution is its
    bits, and a zero pivot is a ``LinAlgError``.
    """
    n = len(d)
    du.append(0.0)  # dgtsv's last step writes no fill-in; this takes it
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            temp = d[i + 1]
            d[i], d[i + 1] = dl[i], du[i] - fact * temp
            dl[i] = du[i + 1]
            du[i], du[i + 1] = temp, -fact * du[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise LinAlgError("singular matrix")
    b[n - 1] /= d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _solve_tridiagonal_rows(W, dl, assemble):
    """``solve_banded((1, 1), ...)`` of each row's tridiagonal system,
    bitwise, on systems laid out by column.

    ``W[i]`` of ``W`` ``(n, 3, m)`` holds ``(d, b, du)`` (diagonal,
    right-hand side, superdiagonal; the last ``du`` is not read) of
    column ``i`` of all ``m`` rows, ``dl`` ``(n - 1, m)`` the
    subdiagonals, and ``assemble(rows)`` gives ``(W, dl)`` anew for the
    rows of the slice ``rows``.  ``solve_banded`` hands such a system to
    LAPACK's ``dgtsv``, and this is a numpy transcription of reference
    dgtsv, so importing it loads no scipy.  A stack of two or more rows
    first runs dgtsv's no-interchange elimination and back substitution
    on all rows at once, column by column, in ``W``: a step updates
    ``(d, b)`` of the next column from ``(du, b)`` of its own in one
    multiply and one subtract.  The sweep leaves out the back
    substitution's ``- du2_i x_{i+2}``, a zero term without interchanges
    that can only flip the sign of a zero ``x_i`` (or make a non-finite
    ``x_{i+2}`` spread).  A row has dgtsv's bits when it took the
    no-interchange branch at every step, that is each pivot is nonzero
    and at least its subdiagonal entry in size, and its solution holds
    no zero and no inf or nan; the other rows, and a stack of one row,
    are assembled again on their own and go through dgtsv itself on
    Python floats (:func:`_dgtsv_row`).  At 64 rows of 257 nodes the
    solve took 1.4 ms against 0.4 ms for ``dgtsv`` on the rows chained
    into one system; one row of 1028 nodes took 0.40 ms in Python
    against 3.4 ms swept and 0.03 ms in ``dgtsv`` (medians of 15
    repeats, 2-vCPU VM).  A singular system is a ``LinAlgError``, as in
    ``solve_banded``.  ``W`` and ``dl`` are overwritten, and the
    solutions are returned as the ``(m, n)`` view ``W[:, 1].T``.
    """
    fast = _no_interchange_rows(W, dl) if W.shape[-1] > 1 else [False]
    x = W[:, 1].T
    for row in np.flatnonzero(np.logical_not(fast)):
        W_row, dl_row = assemble(slice(row, row + 1))
        d, b, du = W_row[..., 0].T
        bands = dl_row[:, 0], d, du[:-1], b
        try:
            x[row] = _dgtsv_row(*(band.tolist() for band in bands))
        except ZeroDivisionError:  # a nan pivot over a zero subdiagonal
            with np.errstate(all="ignore"):  # IEEE 754 division
                x[row] = _dgtsv_row(*(list(band) for band in bands))
    return x


def _no_interchange_rows(W, dl):
    """dgtsv's no-interchange elimination and back substitution on every
    row of :func:`_solve_tridiagonal_rows`' stack at once, in ``W``.

    Returns a mask of the rows whose solutions are dgtsv's bits.
    """
    m = W.shape[-1]
    d, x, du = W[:, 0], W[:, 1], W[:-1, 2]
    fact, term = np.empty(m), np.empty((2, m))
    du_x = term[0]
    divide, multiply, subtract = np.divide, np.multiply, np.subtract
    # each step's row views, made before the loops: 6 ufunc calls a column
    forward = zip(dl, d, [w[2:0:-1] for w in W[:-1]], [w[:2] for w in W[1:]])
    back = zip(x[-2::-1], du[::-1], x[:0:-1], d[-2::-1])
    with np.errstate(all="ignore"):
        for dl_i, d_i, du_b, d_b_next in forward:
            divide(dl_i, d_i, fact)
            multiply(fact, du_b, term)
            subtract(d_b_next, term, d_b_next)
        divide(x[-1], d[-1], x[-1])
        for x_i, du_i, x_next, d_i in back:
            multiply(du_i, x_next, du_x)
            subtract(x_i, du_x, x_i)
            divide(x_i, d_i, x_i)
        # d, dl and du are spent: the checks take their memory
        size = np.abs(x, out=W[:, 2])
        np.abs(d, out=d)
        np.abs(dl, out=dl)
        fast = ((d[:-1] >= dl).all(axis=0) & (d != 0.0).all(axis=0)
                & ((0.0 < size) & (size < np.inf)).all(axis=0))
    return fast


def _slope_systems(x, y):
    """``(W, dl)`` of :func:`_solve_tridiagonal_rows` for the not-a-knot
    slope systems of the rows of ``x`` and ``y`` ``(m, n >= 4)``: each
    entry the numpy expression of ``CubicSpline.__init__`` for its banded
    ``A`` or ``b``, written where the sweep reads it.  ``x`` must strictly
    increase along each row, else a ``ValueError``."""
    m, n = x.shape
    dx = np.subtract(x[:, 1:], x[:, :-1])  # np.diff
    if np.any(dx <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    slope = np.subtract(y[:, 1:], y[:, :-1])
    np.divide(slope, dx, out=slope)
    dx, slope = dx.T, slope.T  # by column, as W
    W, dl = np.empty((n, 3, m)), np.empty((n - 1, m))
    d, b, du = W[:, 0], W[:, 1], W[:-1, 2]
    np.add(dx[:-1], dx[1:], out=d[1:-1])
    np.multiply(2, d[1:-1], out=d[1:-1])
    # dl serves as scratch until it is filled
    np.multiply(dx[1:], slope[:-1], out=b[1:-1])
    np.multiply(dx[:-1], slope[1:], out=dl[:-1])
    np.add(b[1:-1], dl[:-1], out=b[1:-1])
    np.multiply(3, b[1:-1], out=b[1:-1])
    du[1:] = dx[:-1]
    dl[:-1] = dx[1:]
    # scipy squares the end steps as float64 scalars, through C pow, which
    # can differ by an ulp from the exact square that ** 2 of an array is
    first_sq, last_sq = (np.array([v**2 for v in dx[j].tolist()])
                         for j in (0, -1))
    d[0] = dx[1]
    du[0] = e = x[:, 2] - x[:, 0]
    b[0] = ((dx[0] + 2*e) * dx[1] * slope[0] + first_sq * slope[1]) / e
    d[-1] = dx[-2]
    dl[-1] = e = x[:, -1] - x[:, -3]
    b[-1] = (last_sq*slope[-2] + (2*e + dx[-1])*dx[-2]*slope[-1]) / e
    return W, dl


def _not_a_knot_slopes(x, y):
    """``(x, y, s)``: ``x`` and ``y`` of shape ``(n,)`` or ``(m, n)`` as
    ``(m, n)`` float arrays (views of the inputs where they are such) and
    the slopes ``s`` ``(m, n)`` of each row's not-a-knot spline at its
    knots.

    It keeps the input checks of scipy 1.17.1's ``prepare_input``
    (finite ``x`` and ``y``, strictly increasing ``x``, each a
    ``ValueError``) and solves the slope systems
    (:func:`_slope_systems`, :func:`_solve_tridiagonal_rows`; a singular
    one is a ``LinAlgError``, as in ``solve_banded``).  On grids of two
    or three nodes ``s`` is ``None``: there scipy's not-a-knot spline is
    the line or the parabola through the points, built by other code
    than the banded system.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim not in (1, 2) or y.shape != x.shape:
        raise ValueError("`x` and `y` must be 1-D (or stacks of 1-D rows) "
                         "of the same length.")
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    if x.shape[1] < 4:  # scipy fits a line (n = 2) or a parabola (n = 3)
        return x, y, None
    if not np.all(np.isfinite(x)):
        raise ValueError("`x` must contain only finite values.")
    if not np.all(np.isfinite(y)):
        raise ValueError("`y` must contain only finite values.")
    s = _solve_tridiagonal_rows(*_slope_systems(x, y),
                                lambda rows: _slope_systems(x[rows], y[rows]))
    return x, y, s


def _cubic_pieces(x, y, s, at, to):
    """The pieces ``(t / dx, (slope - s0) / dx - t, s0, y0)``, highest
    order first, of the cubics from the knots ``at`` to the knots ``to``
    (``[:, :-1]`` and ``[:, 1:]``, or ``(rows, j)`` and ``(rows, j + 1)``)
    of the splines with values ``y`` and slopes ``s`` at the knots ``x``:
    the numpy expressions of ``CubicHermiteSpline.__init__``, with ``dx =
    x1 - x0``, ``slope = (y1 - y0) / dx`` and ``t = (s0 + s1 - 2 slope) /
    dx``."""
    s0 = s[at]
    dx = x[to] - x[at]
    slope = (y[to] - y[at]) / dx
    t = (s0 + s[to] - 2 * slope) / dx
    return t / dx, (slope - s0) / dx - t, s0, y[at]


def _not_a_knot_coefficients(x, y):
    """Breakpoints and coefficients of not-a-knot cubic splines.

    ``x`` and ``y`` of shape ``(n,)`` or ``(m, n)``, one spline per row;
    returns ``x`` as an ``(m, n)`` float array (a view of the input where
    it is one) and the coefficients ``c`` of shape ``(m, 4, n - 1)``,
    each ``c[i]`` bitwise the ``c`` of ``scipy.interpolate.CubicSpline(
    x[i], y[i])`` without its front end (array-API shims, a second
    validation in the ``CubicHermiteSpline`` round trip): the pieces
    (:func:`_cubic_pieces`) of every interval from the slopes of
    :func:`_not_a_knot_slopes`, or on two or three nodes ``CubicSpline``
    itself, row by row.  Only that branch imports scipy
    (``scipy.interpolate``, which with the subpackages it loads adds
    about 50 MB to a run's RSS).  The tests compare the helper bitwise
    with ``CubicSpline`` and ``solve_banded``, so a scipy release that
    changes the arithmetic fails there instead of drifting.
    """
    x, y, s = _not_a_knot_slopes(x, y)
    if s is None:
        from scipy.interpolate import CubicSpline

        return x, np.array([CubicSpline(xi, yi).c for xi, yi in zip(x, y)])
    return x, np.stack(_cubic_pieces(x, y, s, np.s_[:, :-1], np.s_[:, 1:]),
                       axis=1)


def _power_form(c, s, out):
    """``0.0 + c0 + c1 s + c2 s^2 + c3 (s^2 s)``, the value that scipy's
    ``evaluate_poly1`` gives for the cubic pieces ``c = (c3, c2, c1, c0)``
    gathered at the points (highest order first) at their offsets ``s``,
    summed left to right in place: ``c[:3]`` are overwritten and the
    values written into ``out`` (``c[3]`` may be it), which is returned.
    """
    c3, c2, c1, c0 = c
    np.add(0.0, c0, out=out)
    np.multiply(c1, s, out=c1)
    np.add(out, c1, out=out)
    np.multiply(s, s, out=c1)
    np.multiply(c2, c1, out=c2)
    np.add(out, c2, out=out)
    np.multiply(c1, s, out=c1)
    np.multiply(c3, c1, out=c3)
    return np.add(out, c3, out=out)


def _interval(x, q):
    """The interval ``x[j] <= q < x[j + 1]`` of each point of ``q`` on
    the knots ``x``, by scipy's ``PPoly`` rule: the last interval closed,
    points outside the span in the end intervals and nan in the last.
    Knots ``x`` ``(n,)`` take points of any shape in one ``searchsorted``
    call, rows ``x`` ``(m, n)`` take ``q`` ``(m, k)`` in one call a row;
    O(log n) a point."""
    j = (x.searchsorted(q, "right") if x.ndim == 1 else
         np.array([xi.searchsorted(qi, "right") for xi, qi in zip(x, q)]))
    np.subtract(j, 1, out=j)
    return np.clip(j, 0, x.shape[-1] - 2, out=j)


def _spline_values(x, c, q):
    """Values at the points ``q`` (any shape) of the spline
    ``PPoly.construct_fast(c, x)``, ``x`` ``(n,)`` and ``c`` ``(4, n -
    1)``, bitwise ``PPoly.__call__``: each point takes the value
    :func:`_power_form` of its interval (:func:`_interval`).  Gathered by
    ``np.take``, 64 rows of 257 nodes took 0.68 ms against 0.74 ms for
    ``PPoly.__call__``, and about 1.5 times as long gathered by ``c[:,
    j]`` (medians of 21 interleaved pairs, 2-vCPU VM).  The constant
    terms are gathered apart and take the values, so the three other
    pieces are freed on return: a log-point block that kept them alive
    pushed its later temporaries onto fresh heap pages, about 700 minor
    page faults a warm default run.
    """
    j = _interval(x, q)
    s = np.take(x, j)
    np.subtract(q, s, out=s)
    values = np.take(c[3], j)
    return _power_form((*np.take(c[:3], j, axis=1), values), s, values)


def _cubic_derivatives(x, y, q):
    """``[CubicSpline(x[i], y[i])(q[i], nu) for nu in (0, 1, 2)]`` row by
    row, bitwise, as one ``(3, m, k)`` array, for ``x`` and ``y`` ``(m,
    n)`` and ``q`` ``(m, k)``.

    Each row's points find their intervals with one ``searchsorted``
    (:func:`_interval`), and only the pieces (:func:`_cubic_pieces`) of
    those intervals are formed, at most ``k`` of a row's ``n - 1``; on
    two or three nodes scipy's are gathered.  The values are
    :func:`_power_form`, and the derivatives sum the terms ``(c z)
    prefactor`` of scipy's ``evaluate_poly1`` from ``0.0`` in the same
    way.
    """
    x, y, s = _not_a_knot_slopes(x, y)
    if s is None:  # scipy's pieces, checked there before the search
        c = _not_a_knot_coefficients(x, y)[1].transpose(1, 0, 2)
    j = _interval(x, q)
    rows = np.arange(len(q))[:, None]
    pieces = (c[:, rows, j] if s is None else
              _cubic_pieces(x, y, s, (rows, j), (rows, j + 1)))
    z = q - x[rows, j]
    c3, c2, c1, _ = pieces
    z2 = z * z
    out = np.empty((3,) + q.shape)
    out[1] = 0.0 + c1 + c2 * z * 2.0 + c3 * z2 * 3.0
    out[2] = 0.0 + c2 * 2.0 + c3 * z * 6.0
    _power_form(pieces, z, out[0])
    return out


def sasaki_energy(grid, values, qmax, ell: int, mu: float,
                  ladder_ell: Optional[int] = None, vol=1.0) -> np.ndarray:
    """Weighted ``L^2``-Sobolev energies of radial distribution functions.

    For a homogeneous isotropic ``f(q)`` (``q`` the frame-metric momentum
    magnitude) the horizontal derivatives vanish and only the vertical
    ones contribute.  Derivative orders are capped at two — the radial
    reduction of the vertical gradient and Hessian of ``f(q)`` is::

        |grad f|^2 = f'(q)^2,
        |Hess f|^2 = f''(q)^2 + 2 (f'(q)/q)^2,

    while the momentum-weight ladder may run to a higher order
    ``ladder_ell`` (each missing derivative raises the weight exponent by
    four; each vertical index lowers it by two)::

        E^2 = vol * sum_{k <= ell}
              4 pi int_0^qmax pbar^{2 mu + 4 (L - k) - 2 k} d_k(q) q^2 dq,

    with ``pbar = sqrt(1 + q^2)``, ``L = ladder_ell`` and ``vol`` the
    metric volume of the homogeneous cell, ``sqrt(det g)`` times its
    coordinate volume.

    Row ``i`` of the ``(m, n)`` blocks ``grid`` and ``values`` samples
    one distribution with support radius ``qmax[i]`` of the ``(m,)``
    array ``qmax``, and ``vol`` is one cell volume for all rows or an
    ``(m,)`` array of one per row; the energies come back as an ``(m,)``
    array.  Each row's not-a-knot cubic spline gives ``f``, ``f'`` and
    ``f''`` at the nodes of a 64-node composite Gauss-Legendre rule on
    ``[0, qmax[i]]``.  The rows are evaluated together (one quadrature
    rule, one solve of the slope systems, one ``searchsorted`` a row for
    the intervals that hold nodes and the cubic pieces of only those,
    2-D sums; :func:`_cubic_derivatives`), each entry bitwise the value
    of its own one-row call, and the blocks are read without copying
    them.  Blocks of other shapes, empty ones included, are a
    ``ValueError``, and so is a row with ``qmax <= 0`` or a non-finite
    ``qmax`` (the quadrature's).

    Raises ``ValueError`` for ``ell > 2`` (documented desk-scale cap on
    the derivative count; use ``ladder_ell`` for the weight order).
    """
    if ell < 0:
        raise ValueError("negative derivative order")
    if ell > 2:
        raise ValueError(
            "derivative orders above 2 are not representable on the radial "
            "grid; pass ladder_ell for the weight ladder instead")
    L = ell if ladder_ell is None else ladder_ell
    if L < ell:
        raise ValueError("ladder_ell must be >= ell")
    if np.ndim(grid) != 2 or np.shape(qmax) != (len(grid),) or not len(grid):
        raise ValueError("grid and values must be (m, n) blocks, m >= 1, "
                         "and qmax an (m,) array")
    q, w = composite_gauss_legendre(0.0, qmax, _ENERGY_NODES)
    f0, f1, f2 = _cubic_derivatives(grid, values, q)
    pbar2 = 1.0 + q**2
    total = np.zeros(q.shape[0])
    for k in range(ell + 1):
        if k == 0:
            dk = f0**2
        elif k == 1:
            dk = f1**2
        else:
            dk = f2**2 + 2.0 * (f1 / q) ** 2
        expo = 2.0 * mu + 4.0 * (L - k) - 2.0 * k
        total += 4.0 * math.pi * np.sum(
            w * pbar2 ** (expo / 2.0) * dk * q**2, axis=-1)
    return np.sqrt(vol * total)


class WeightConditionError(ValueError):
    """An energy-weight side condition fails; the message names it."""


# the energy-weight side conditions on (deltaE, deltaEcal), by name, in
# the order they are checked
WEIGHT_CONDITIONS = (
    ("deltaE < 1/2", lambda dE, dEcal: 0.0 < dE < 0.5),
    ("deltaEcal > 1/2", lambda dE, dEcal: dEcal > 0.5),
    ("deltaE + deltaEcal < 1", lambda dE, dEcal: dE + dEcal < 1.0),
)


def validate_energy_weights(deltaE: float, deltaEcal: float) -> None:
    """Check :data:`WEIGHT_CONDITIONS`, raising
    :class:`WeightConditionError` named by the first that fails."""
    for name, holds in WEIGHT_CONDITIONS:
        if not holds(deltaE, deltaEcal):
            raise WeightConditionError(name)


def total_energy(E6: float, sasaki54sq: float, T: float,
                 deltaE: float = MONITOR_THRESHOLDS["deltaE"],
                 deltaEcal: float = MONITOR_THRESHOLDS["deltaEcal"]) -> float:
    """Exponentially weighted total energy.

    ``E_tot = e^{(1 + deltaE) T} E6 + e^{-deltaEcal T} E^2_{5,4}`` with the
    side conditions ``deltaE < 1/2 < deltaEcal`` and
    ``deltaE + deltaEcal < 1`` enforced.
    """
    validate_energy_weights(deltaE, deltaEcal)
    return math.exp((1.0 + deltaE) * T) * E6 + math.exp(-deltaEcal * T) * sasaki54sq


class DecayFitError(ValueError):
    """A decay rate cannot be fitted: too few samples, or a value <= 0."""


def decay_fit(T, v, window: Optional[tuple] = None) -> float:
    """Rate of the least-squares fit ``v = A e^{-rate T}`` on ``ln v``.

    Fits over the samples with ``T`` in ``window`` (the whole series by
    default).  Requires at least ``_FIT_SAMPLES`` (8) strictly positive
    samples there, and raises :class:`DecayFitError` otherwise.
    """
    T = np.asarray(T, dtype=float)
    v = np.asarray(v, dtype=float)
    if window is None:
        window = (float(T[0]), float(T[-1]))
    mask = (T >= window[0]) & (T <= window[1])
    Tw, vw = T[mask], v[mask]
    if Tw.size < _FIT_SAMPLES:
        raise DecayFitError(f"decay fit needs at least {_FIT_SAMPLES} "
                            f"samples in the window")
    if np.any(vw <= 0):
        raise DecayFitError("decay fit requires strictly positive values")
    A = np.stack([Tw, np.ones_like(Tw)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(vw), rcond=None)
    return -float(coef[0])


def _fit_rate(into: dict, key: str, T, v, window=None) -> None:
    """Store the decay rate of ``v`` at ``into[key]``.

    A series that cannot be fitted stores ``None``, with the reason at
    ``into["unfitted"][key]``.
    """
    try:
        into[key] = decay_fit(T, v, window=window)
    except DecayFitError as exc:
        into[key] = None
        into.setdefault("unfitted", {})[key] = str(exc)


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------


def tail_span_needed() -> float:
    """Shortest run span that ``tail_convergence`` accepts."""
    return (TAIL_DOUBLINGS + 1) * math.log(2.0)


def tail_convergence(T, y, t) -> dict:
    """Numerical integrability proxy for ``int y dt`` up to the run horizon.

    Computes finite-horizon tail integrals ``tail_k = int_{T_k}^{T_end}
    y t dT`` (``dt = t dT`` for the physical time ``t``) at
    ``TAIL_DOUBLINGS + 1`` horizon starts doubling in ``t`` (``T_{k+1} =
    T_k + ln 2``), and requires every successive tail ratio to stay below
    one half.  For integrands decaying at least like ``1/t^2`` the finite
    upper horizon makes the ratio strictly smaller than ``1/2``.
    """
    T = np.asarray(T, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    integrand = y * t
    span = T[-1] - T[0]
    if span <= tail_span_needed():
        raise ValueError("run too short for the tail doublings")
    tails = []
    for k in range(TAIL_DOUBLINGS + 1):
        Tk = T[0] + k * math.log(2.0)
        mask = T >= Tk
        Ts = np.concatenate([[Tk], T[mask]])
        ys = np.concatenate([[np.interp(Tk, T, integrand)], integrand[mask]])
        tails.append(float(trapezoid(ys, Ts)))
    ratios = []
    for a, b in zip(tails[:-1], tails[1:]):
        if a == 0.0:
            ratios.append(0.0 if b == 0.0 else math.inf)
        else:
            ratios.append(b / a)
    worst = max(ratios) if ratios else 0.0
    return {"tails": tails, "ratios": ratios,
            "holds": bool(worst < 0.5), "margin": 0.5 - worst}


def monitors(run: dict, config: Optional[dict] = None) -> dict:
    """Evaluate the four run monitors on a logged series bundle.

    ``run`` maps series names to arrays aligned with ``run["T"]``:
    required ``T, s`` (scale factor ``|tau|``); optional ``E6,
    sasaki54sq, N, b, rho, eta_under, Xnorm``.  Missing optional series
    default to their background values.  Returns per-monitor dicts with
    ``holds`` and ``margin``:

    * ``smallness`` — every deviation indicator (sqrt geometric energy,
      ``|N-3|``, ``s rho``, ``s^2 eta_under``) stays inside the
      configured ball radius.
    * ``totalDecay`` — the total energy obeys the factor-4 exponential
      envelope ``E_tot(T) <= 4 E_tot(T0) e^{-(1-epsDecay)(T-T0)}``.
    * ``continuation`` — the same indicators at the final time stay
      below ``epsLoc``, so the run ends strictly inside the ball it
      started in.
    * ``completeness`` — five conditions: (i) lapse bounded in
      ``(0, 3]``; (ii) the physical spatial metric stays above a fixed
      multiple of its initial size; (iii) the shift norm vanishes at the
      logged tolerance; (iv) the lapse-gradient proxy ``s (3 - N)`` and
      (v) the shear proxy ``s sqrt(E6)`` have numerically convergent
      tail integrals in physical time (``tail_convergence``).

    ``config`` overrides entries of :data:`MONITOR_THRESHOLDS`; any other
    key raises ``ValueError``.
    """
    cfg = {**MONITOR_THRESHOLDS, **(config or {})}
    if len(cfg) > len(MONITOR_THRESHOLDS):
        raise ValueError(f"unknown monitor thresholds "
                         f"{sorted(set(cfg) - set(MONITOR_THRESHOLDS))}")
    T = np.asarray(run["T"], dtype=float)
    s = np.asarray(run["s"], dtype=float)
    n = T.shape[0]

    def series(name, default):
        v = run.get(name)
        if v is None:
            return np.full(n, default, dtype=float)
        return np.asarray(v, dtype=float)

    E6 = series("E6", 0.0)
    sas54sq = series("sasaki54sq", 0.0)
    N = series("N", 3.0)
    b = series("b", 1.0)
    rho = series("rho", 0.0)
    eta_under = series("eta_under", 0.0)
    Xnorm = series("Xnorm", 0.0)

    indicators = {
        "geom": np.sqrt(E6),
        "lapse": np.abs(N - 3.0),
        "srho": s * rho,
        "s2eta": s**2 * eta_under,
    }

    delta = cfg["smallnessDelta"]
    worst_name, worst_val = max(((k, float(np.max(v))) for k, v in indicators.items()),
                                key=lambda kv: kv[1])
    smallness = {"holds": bool(worst_val <= delta), "margin": delta - worst_val,
                 "worst": worst_name, "delta": delta}

    Etot = np.array([total_energy(e, q, t, cfg["deltaE"], cfg["deltaEcal"])
                     for e, q, t in zip(E6, sas54sq, T)])
    env = 4.0 * Etot[0] * np.exp(-(1.0 - cfg["epsDecay"]) * (T - T[0]))
    gap = env - Etot
    totaldecay = {"holds": bool(np.all(Etot <= env * (1 + 1e-12))),
                  "margin": float(np.min(gap)),
                  "Etot0": float(Etot[0])}

    q_cont = float(sum(v[-1] for v in indicators.values()))
    continuation = {"holds": bool(q_cont < cfg["epsLoc"]), "Q_cont": q_cont,
                    "margin": cfg["epsLoc"] - q_cont, "epsLoc": cfg["epsLoc"]}

    t_phys = 3.0 / s
    conds = {}
    nmin, nmax = float(np.min(N)), float(np.max(N))
    conds["i_lapse_bounded"] = {
        "holds": bool(nmin > 0.0 and nmax <= 3.0 * (1.0 + LAPSE_UPPER_TOL)),
        "min": nmin, "max": nmax}
    # physical metric ~ b / s^2; monotone growth means the initial time binds
    metric_measure = float(np.min(b * s[0] ** 2 / (9.0 * s**2)))
    conds["ii_metric_lower_bound"] = {
        "holds": bool(metric_measure >= METRIC_LOWER_BOUND),
        "measured": metric_measure, "bound": METRIC_LOWER_BOUND}
    xworst = float(np.max(Xnorm))
    conds["iii_shift_decay"] = {"holds": bool(xworst <= SHIFT_TOL),
                                "max": xworst}
    conds["iv_lapse_gradient_integrable"] = tail_convergence(T, s * (3.0 - N), t_phys)
    conds["v_shear_integrable"] = tail_convergence(T, s * np.sqrt(E6), t_phys)
    failing = [k for k, v in conds.items() if not v["holds"]]
    completeness = {"holds": not failing, "failing": failing, "conditions": conds}

    return {"smallness": smallness, "totalDecay": totaldecay,
            "continuation": continuation, "completeness": completeness}
