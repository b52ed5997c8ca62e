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


def _solve_tridiagonal_rows(A, b):
    """``solve_banded((1, 1), A[:, i], b[i])`` for each row ``i``, bitwise.

    ``A`` of shape ``(3, m, n)`` holds each system ``A[:, i]`` in
    ``solve_banded``'s banded storage and ``b`` of shape ``(m, n)`` the
    right-hand sides.  One call of the LAPACK ``dgtsv`` that
    ``solve_banded`` dispatches to solves all rows as one system of ``m
    n`` unknowns: the corners banded storage leaves unused, ``A[0, i,
    0]`` and ``A[2, i, -1]``, are zeroed and couple consecutive rows.
    Across a zero coupling the elimination moves only zeros, which
    changes no bit of a finite solution unless it meets a -0.0 on a
    right-hand side or the diagonal (it can come out as +0.0); the slope
    systems' diagonals are positive, and rows whose right-hand side
    holds a -0.0 are solved again on their own.  At 64 rows of 257 nodes
    this took 0.47 ms against 0.65 ms with a call per row (medians of 15
    interleaved pairs, 2-vCPU VM).  A singular system is a
    ``LinAlgError``, as in ``solve_banded``.  ``A`` and ``b`` are
    overwritten; the solution is returned in ``b``'s memory.
    """
    from scipy.linalg import LinAlgError
    from scipy.linalg.lapack import dgtsv

    def solve(du, d, dl, rhs):
        x, info = dgtsv(dl, d, du, rhs, 1, 1, 1, 1)[3:]
        if info > 0:
            raise LinAlgError("singular matrix")
        return x

    # -0.0 has the bits of the least int64
    negative_zero = b.view(np.int64) == np.iinfo(np.int64).min
    signed = np.flatnonzero(negative_zero.any(axis=1))
    alone = [(A[:, row].copy(), b[row].copy()) for row in signed]
    A[0, :, 0] = A[2, :, -1] = 0.0
    x = solve(A[0].reshape(-1)[1:], A[1].reshape(-1), A[2].reshape(-1)[:-1],
              b.reshape(-1)).reshape(b.shape)
    for row, (a, rhs) in zip(signed, alone):
        x[row] = solve(a[0, 1:], a[1], a[2, :-1], rhs)
    return x


def _not_a_knot_coefficients(x, y):
    """Breakpoints and coefficients of not-a-knot cubic splines.

    ``x`` and ``y`` of shape ``(n,)`` or ``(m, n)``, one spline per row;
    returns ``x`` as an ``(m, n)`` float array (a view of the input where
    it is one) and the coefficients ``c`` of shape ``(m, 4, n - 1)``,
    each ``c[i]`` bitwise the ``c`` of ``scipy.interpolate.CubicSpline(
    x[i], y[i])`` without its front end (array-API shims, a second
    validation in the ``CubicHermiteSpline`` round trip).  It keeps the
    input checks of scipy 1.17.1's ``prepare_input`` (finite ``x`` and
    ``y``, strictly increasing ``x``, each a ``ValueError``), repeats the
    numpy expressions of ``CubicSpline.__init__`` for the tridiagonal
    slope system, solves the rows' systems in one LAPACK call
    (:func:`_solve_tridiagonal_rows`; ``LinAlgError`` for a singular
    system, as in ``solve_banded``), then repeats those of
    ``CubicHermiteSpline.__init__`` for the coefficients, every
    ``(m, n)``-sized operand and result (``c`` too) written with ``out=``
    into one array made per call: at 64 rows of 257 nodes 1.16 ms
    against 1.35 ms with an array per operation and a solve per row
    (medians of 15 interleaved pairs, 2-vCPU VM).  Grids of two or three
    nodes go to ``CubicSpline`` itself, row by row: there scipy's
    not-a-knot spline is the line or the parabola through the points,
    built by other code than the banded system.  Only that branch
    imports ``scipy.interpolate``, which with the subpackages it loads
    adds about 50 MB to a run's RSS.  The tests compare the helper
    bitwise with ``CubicSpline`` and ``solve_banded``, so a scipy release
    that changes the arithmetic fails there instead of drifting.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim not in (1, 2) or y.shape != x.shape:
        raise ValueError("`x` and `y` must be 1-D (or stacks of 1-D rows) "
                         "of the same length.")
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    m, n = x.shape
    if n < 4:  # scipy fits a line (n = 2) or a parabola (n = 3) here
        from scipy.interpolate import CubicSpline

        return x, np.array([CubicSpline(xi, yi).c for xi, yi in zip(x, y)])
    if not np.all(np.isfinite(x)):
        raise ValueError("`x` must contain only finite values.")
    if not np.all(np.isfinite(y)):
        raise ValueError("`y` must contain only finite values.")
    # c, dx, slope and t, then the banded systems and the right-hand sides
    work = np.empty(7 * m * (n - 1) + 4 * m * n)
    c = work[:4 * m * (n - 1)].reshape(m, 4, n - 1)
    dx, slope, t = work[c.size:7 * m * (n - 1)].reshape(3, m, n - 1)
    systems = work[7 * m * (n - 1):].reshape(4, m, n)
    A, b = systems[:3], systems[3]
    np.subtract(x[:, 1:], x[:, :-1], out=dx)  # np.diff
    if np.any(dx <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    np.subtract(y[:, 1:], y[:, :-1], out=slope)
    np.divide(slope, dx, out=slope)

    # A[:, i] is the banded storage of row i's slope system; t and c[:, 0]
    # serve as scratch until they are computed
    np.add(dx[:, :-1], dx[:, 1:], out=A[1, :, 1:-1])
    np.multiply(2, A[1, :, 1:-1], out=A[1, :, 1:-1])
    A[0, :, 2:] = dx[:, :-1]
    A[2, :, :-2] = dx[:, 1:]
    np.multiply(dx[:, 1:], slope[:, :-1], out=b[:, 1:-1])
    np.multiply(dx[:, :-1], slope[:, 1:], out=t[:, 1:])
    np.add(b[:, 1:-1], t[:, 1:], out=b[:, 1:-1])
    np.multiply(3, b[:, 1:-1], out=b[:, 1:-1])
    A[1, :, 0] = dx[:, 1]
    A[0, :, 1] = x[:, 2] - x[:, 0]
    # scipy squares the end steps as float64 scalars, through C pow, which
    # can differ by an ulp from the exact square that ** 2 of an array is
    first_sq, last_sq = (np.array([v**2 for v in dx[:, j].tolist()])
                         for j in (0, -1))
    d = x[:, 2] - x[:, 0]
    b[:, 0] = ((dx[:, 0] + 2*d) * dx[:, 1] * slope[:, 0]
               + first_sq * slope[:, 1]) / d
    A[1, :, -1] = dx[:, -2]
    A[2, :, -2] = x[:, -1] - x[:, -3]
    d = x[:, -1] - x[:, -3]
    b[:, -1] = ((last_sq*slope[:, -2]
                 + (2*d + dx[:, -1])*dx[:, -2]*slope[:, -1]) / d)
    s = _solve_tridiagonal_rows(A, b)

    # t = (s[:-1] + s[1:] - 2 slope) / dx, then the coefficients
    # (t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])
    np.add(s[:, :-1], s[:, 1:], out=t)
    np.multiply(2, slope, out=c[:, 0])
    np.subtract(t, c[:, 0], out=t)
    np.divide(t, dx, out=t)
    np.divide(t, dx, out=c[:, 0])
    np.subtract(slope, s[:, :-1], out=c[:, 1])
    np.divide(c[:, 1], dx, out=c[:, 1])
    np.subtract(c[:, 1], t, out=c[:, 1])
    c[:, 2] = s[:, :-1]
    c[:, 3] = y[:, :-1]
    return x, c


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


def _spline_values(x, c, q):
    """Values at the points ``q`` (any shape) of the spline
    ``PPoly.construct_fast(c, x)``, ``x`` ``(n,)`` and ``c`` ``(4, n -
    1)``, bitwise ``PPoly.__call__``: as in scipy's ``_ppoly.evaluate``,
    each point lies in the interval ``x[j] <= q < x[j + 1]`` (the last
    closed, points outside the span in the end intervals), and takes the
    value :func:`_power_form`.  Gathered by ``np.take``, 64 rows of 257
    nodes took 0.68 ms against 0.74 ms for ``PPoly.__call__``, and about
    1.5 times as long gathered by ``c[:, j]`` (medians of 21 interleaved
    pairs, 2-vCPU VM).  The constant terms are gathered apart and take
    the values, so the three other pieces are freed on return: a block
    flush that kept them alive pushed its later temporaries onto fresh
    heap pages, about 700 minor page faults a warm default run.
    """
    j = x.searchsorted(q, "right")
    np.subtract(j, 1, out=j)
    np.clip(j, 0, len(x) - 2, out=j)
    s = np.take(x, j)
    np.subtract(q, s, out=s)
    values = np.take(c[3], j)
    return _power_form((*np.take(c[:3], j, axis=1), values), s, values)


def _cubic_derivatives(x, c, q):
    """Values, first and second derivatives of stacked piecewise cubics.

    Row ``i`` of ``x`` ``(m, n)`` and ``c`` ``(m, 4, n - 1)`` is the
    spline ``PPoly.construct_fast(c[i], x[i])``, evaluated at the points
    ``q[i]`` of ``q`` ``(m, k)``; returns a ``(3, m, k)`` array that is
    bitwise ``[spline(q[i], nu) for nu in (0, 1, 2)]`` row by row.  Each
    row finds its intervals as :func:`_spline_values` does; the values
    are :func:`_power_form`, and the derivatives sum the terms ``(c z)
    prefactor`` of scipy's ``evaluate_poly1`` from ``0.0`` in the same
    way.
    """
    j = np.empty(q.shape, dtype=np.intp)
    for row, (xi, qi) in enumerate(zip(x, q)):
        j[row] = xi.searchsorted(qi, "right")
    np.clip(j - 1, 0, x.shape[-1] - 2, out=j)
    rows = np.arange(len(q))[:, None]
    s = q - x[rows, j]
    pieces = c.transpose(1, 0, 2)[:, rows, j]
    c3, c2, c1, _ = pieces
    s2 = s * s
    out = np.empty((3,) + q.shape)
    out[1] = 0.0 + c1 + c2 * s * 2.0 + c3 * s2 * 3.0
    out[2] = 0.0 + c2 * 2.0 + c3 * s * 6.0
    _power_form(pieces, s, out[0])
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
    ``[0, qmax[i]]``.  The rows are evaluated in one pass (one
    quadrature rule, one spline build, 2-D sums), each entry bitwise the
    value of its own one-row call, and the blocks are read without
    copying them.  Blocks of other shapes, empty ones included, are a
    ``ValueError``, and so is a row with ``qmax <= 0`` (the
    quadrature's).

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
    f0, f1, f2 = _cubic_derivatives(*_not_a_knot_coefficients(grid, values),
                                    q)
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
    default).  Requires at least 8 strictly positive samples there, and
    raises :class:`DecayFitError` otherwise.
    """
    T = np.asarray(T, dtype=float)
    v = np.asarray(v, dtype=float)
    if window is None:
        window = (float(T[0]), float(T[-1]))
    mask = (T >= window[0]) & (T <= window[1])
    Tw, vw = T[mask], v[mask]
    if Tw.size < 8:
        raise DecayFitError("decay fit needs at least 8 samples in the window")
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
