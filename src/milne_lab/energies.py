"""Norm and energy functionals with decay, smallness and completeness monitors.

The module provides

* weighted ``L^2``-Sobolev energies of radial distribution functions on
  the tangent bundle (``sasaki_energy``),
* the plain ``L^2`` energy of the energy density on the homogeneous cell
  (``rho_energy``),
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
    "rho_energy",
    "total_energy",
    "WeightConditionError",
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
    """``solve_banded((1, 1), A[i], b[i])`` for each row ``i``, bitwise.

    ``A`` of shape ``(m, 3, n)`` holds each system in ``solve_banded``'s
    banded storage and ``b`` of shape ``(m, n)`` the right-hand sides.
    Each row goes straight to the LAPACK ``dgtsv`` that ``solve_banded``
    dispatches to for one band on each side (about 9 us a call against
    32 us for ``solve_banded`` at 257 nodes); a singular system is a
    ``LinAlgError``, as there.  ``A`` is overwritten.
    """
    from scipy.linalg import LinAlgError
    from scipy.linalg.lapack import dgtsv

    s = np.empty_like(b)
    for row in range(len(b)):
        du, d, dl = A[row, 0, 1:], A[row, 1], A[row, 2, :-1]
        s[row], info = dgtsv(dl, d, du, b[row], 1, 1, 1, 0)[3:]
        if info > 0:
            raise LinAlgError("singular matrix")
    return s


def _not_a_knot_spline(x, y):
    """Not-a-knot cubic spline through ``(x, y)``, a scipy ``PPoly``.

    ``x`` and ``y`` of shape ``(n,)`` give one spline; a stack of shape
    ``(m, n)`` gives a list of ``m`` splines, one per row, built in one
    pass.  Each is bitwise equal to ``scipy.interpolate.CubicSpline(x,
    y)`` for 1-D real data: ``PPoly.construct_fast`` over the rows of
    :func:`_not_a_knot_coefficients`.
    """
    from scipy.interpolate import PPoly

    single = np.ndim(x) == 1
    x, c = _not_a_knot_coefficients(x, y)
    splines = [PPoly.construct_fast(ci, xi) for ci, xi in zip(c, x)]
    return splines[0] if single else splines


def _not_a_knot_coefficients(x, y):
    """Breakpoints and coefficients of not-a-knot cubic splines.

    ``x`` and ``y`` of shape ``(n,)`` or ``(m, n)``, one spline per row;
    returns ``x`` as an ``(m, n)`` float array and the coefficients ``c``
    of shape ``(m, 4, n - 1)``, each ``c[i]`` bitwise the ``c`` of
    ``scipy.interpolate.CubicSpline(x[i], y[i])`` without its front end
    (array-API shims, a second validation in the ``CubicHermiteSpline``
    round trip).  It keeps the input checks of scipy 1.17.1's
    ``prepare_input`` (finite ``x`` and ``y``, strictly increasing ``x``,
    each a ``ValueError``), repeats the numpy expressions of
    ``CubicSpline.__init__`` for the tridiagonal slope system, solves each
    row with the LAPACK ``dgtsv`` that ``solve_banded((1, 1), ...)``
    dispatches to (``LinAlgError`` for a singular system, as there), then
    repeats those of ``CubicHermiteSpline.__init__`` for the coefficients.
    Grids of two or three nodes go to ``CubicSpline`` itself, row by row:
    there scipy's not-a-knot spline is the line or the parabola through
    the points, built by other code than the banded system.  The tests
    compare the helper bitwise with ``CubicSpline`` and ``solve_banded``,
    so a scipy release that changes the arithmetic fails there instead of
    drifting.
    """
    from scipy.interpolate import CubicSpline

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim not in (1, 2) or y.shape != x.shape:
        raise ValueError("`x` and `y` must be 1-D (or stacks of 1-D rows) "
                         "of the same length.")
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    n = x.shape[-1]
    if n < 4:  # scipy fits a line (n = 2) or a parabola (n = 3) here
        return x, np.array([CubicSpline(xi, yi).c for xi, yi in zip(x, y)])
    if not np.all(np.isfinite(x)):
        raise ValueError("`x` must contain only finite values.")
    if not np.all(np.isfinite(y)):
        raise ValueError("`y` must contain only finite values.")
    dx = np.diff(x, axis=-1)
    if np.any(dx <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    slope = np.diff(y, axis=-1) / dx

    A = np.zeros((len(x), 3, n))  # banded storage of each slope system
    b = np.empty((len(x), n))
    A[:, 1, 1:-1] = 2 * (dx[:, :-1] + dx[:, 1:])
    A[:, 0, 2:] = dx[:, :-1]
    A[:, -1, :-2] = dx[:, 1:]
    b[:, 1:-1] = 3 * (dx[:, 1:] * slope[:, :-1] + dx[:, :-1] * slope[:, 1:])
    A[:, 1, 0] = dx[:, 1]
    A[:, 0, 1] = x[:, 2] - x[:, 0]
    d = x[:, 2] - x[:, 0]
    b[:, 0] = ((dx[:, 0] + 2*d) * dx[:, 1] * slope[:, 0]
               + dx[:, 0]**2 * slope[:, 1]) / d
    A[:, 1, -1] = dx[:, -2]
    A[:, -1, -2] = x[:, -1] - x[:, -3]
    d = x[:, -1] - x[:, -3]
    b[:, -1] = ((dx[:, -1]**2*slope[:, -2]
                 + (2*d + dx[:, -1])*dx[:, -2]*slope[:, -1]) / d)
    s = _solve_tridiagonal_rows(A, b)

    t = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
    return x, np.stack((t / dx, (slope - s[:, :-1]) / dx - t, s[:, :-1],
                        y[:, :-1]), axis=1)


def _cubic_derivatives(x, c, q):
    """Values, first and second derivatives of stacked piecewise cubics.

    Row ``i`` of ``x`` ``(m, n)`` and ``c`` ``(m, 4, n - 1)`` is the
    spline ``PPoly.construct_fast(c[i], x[i])``, evaluated at the points
    ``q[i]`` of ``q`` ``(m, k)``; returns a ``(3, m, k)`` array that is
    bitwise ``[spline(q[i], nu) for nu in (0, 1, 2)]`` row by row.  It
    repeats scipy's ``_ppoly.evaluate``: each point lies in the interval
    ``x[j] <= q < x[j + 1]`` (the last closed, points outside the span in
    the end intervals), and ``evaluate_poly1`` sums the power form from
    ``0.0`` with ``z = s, s s, s s s`` built by repeated multiplication
    and each term ``(c z) prefactor``.
    """
    j = np.empty(q.shape, dtype=np.intp)
    for row, (xi, qi) in enumerate(zip(x, q)):
        j[row] = np.searchsorted(xi, qi, side="right")
    np.clip(j - 1, 0, x.shape[-1] - 2, out=j)
    rows = np.arange(len(q))[:, None]
    s = q - x[rows, j]
    c3, c2, c1, c0 = c.transpose(1, 0, 2)[:, rows, j]
    s2 = s * s
    out = np.empty((3,) + q.shape)
    out[0] = 0.0 + c0 + c1 * s + c2 * s2 + c3 * (s2 * s)
    out[1] = 0.0 + c1 + c2 * s * 2.0 + c3 * s2 * 3.0
    out[2] = 0.0 + c2 * 2.0 + c3 * s * 6.0
    return out


def _radial_derivatives(fs, qmax: np.ndarray, n_nodes: int):
    """Quadrature nodes plus f, f', f'' sampled there via a cubic spline.

    One row per distribution of ``fs`` (grids of one length), ``qmax``
    the array of their support radii.
    """
    q, w = composite_gauss_legendre(0.0, qmax, n_nodes)
    grid = np.array([f.grid for f in fs], dtype=float)
    vals = np.array([
        f.profile(g) if getattr(f, "profile", None) is not None
        else f.values for f, g in zip(fs, grid)], dtype=float)
    return q, w, *_cubic_derivatives(*_not_a_knot_coefficients(grid, vals),
                                     q)


def sasaki_energy(f, geom, ell: int, mu: float, ladder_ell: Optional[int] = None,
                  vol_cell=1.0, n_nodes: int = 64, base: str = "g"):
    """Weighted ``L^2``-Sobolev energy of a radial distribution function.

    For a homogeneous isotropic ``f(q)`` (``q`` the frame-metric momentum
    magnitude) the horizontal derivatives vanish and only the vertical
    ones contribute.  Derivative orders are capped at two — the radial
    reduction of the vertical gradient and Hessian of ``f(q)`` is::

        |grad f|^2 = f'(q)^2,
        |Hess f|^2 = f''(q)^2 + 2 (f'(q)/q)^2,

    while the momentum-weight ladder may run to a higher order
    ``ladder_ell`` (each missing derivative raises the weight exponent by
    four; each vertical index lowers it by two)::

        E^2 = vol * sum_{k <= min(ell,2)}
              4 pi int pbar^{2 mu + 4 (L - k) - 2 k} d_k(q) q^2 dq,

    with ``pbar = sqrt(1 + q^2)``, ``L = ladder_ell`` and ``vol`` the
    metric volume of the homogeneous cell.  ``base="gamma"`` evaluates
    the same functional with weights and measure of the reference metric
    (the two are equivalent for conformal factors near one).

    The geometry enters only through ``det g``: for ``base="g"`` only as
    ``vol = sqrt(det g) * vol_cell``, and ``geom=None`` stands for
    ``det g = 1``.  So ``sasaki_energy(f, None, ..., vol_cell=sqrt(det g)
    * v)`` is bitwise the value with ``geom`` and ``vol_cell=v``, with no
    geometry object built.

    ``f`` is one distribution, and the energy a float; or a list of
    distributions whose grids have one length, and the energies a 1-D
    array in the same order, with ``vol_cell`` a float or an array of one
    cell volume per distribution.  A stack is evaluated in one pass (one
    quadrature rule, one spline build, 2-D sums), and each entry is
    bitwise the value of its own call; a single distribution is a stack
    of one.  A distribution with ``qmax <= 0`` has energy 0.  Of each
    distribution only ``qmax``, ``grid`` and ``values`` (or a
    ``profile``, where it has one) are read.

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
    stack = isinstance(f, (list, tuple))
    fs = list(f) if stack else [f]
    qmax = np.array([float(fi.qmax) for fi in fs])
    live = qmax > 0
    energy = np.zeros(len(fs))
    if not live.any():
        return energy if stack else 0.0
    vol_cell = np.asarray(vol_cell, dtype=float)
    if vol_cell.ndim:  # one cell volume per distribution
        vol_cell = vol_cell[live]
    detg = float(np.linalg.det(geom.g)) if geom is not None else 1.0
    scale = detg ** (1.0 / 6.0)  # isotropic conformal stretch sqrt(b)

    q, w, f0, f1, f2 = _radial_derivatives(
        [fi for fi, ok in zip(fs, live) if ok], qmax[live], n_nodes)
    if base == "g":
        vol = math.sqrt(detg) * vol_cell
        s, ds = q, 1.0  # integrate directly in frame-metric magnitude
    elif base == "gamma":
        # substitute q = scale * s: reference-metric magnitude s, with
        # derivatives of f with respect to s picking up one scale factor
        vol = vol_cell
        s, ds = q / scale, scale
        f1 = f1 * scale
        f2 = f2 * scale**2
    else:
        raise ValueError(f"unknown base {base!r}")
    pbar2 = 1.0 + s**2
    total = np.zeros(q.shape[0])
    for k in range(min(ell, 2) + 1):
        if k == 0:
            dk = f0**2
        elif k == 1:
            dk = f1**2
        else:
            dk = f2**2 + 2.0 * (f1 / q * ds) ** 2
        expo = 2.0 * mu + 4.0 * (L - k) - 2.0 * k
        total += 4.0 * math.pi * np.sum(
            w / ds * pbar2 ** (expo / 2.0) * dk * s**2, axis=-1)
    energy[live] = np.sqrt(vol * total)
    return energy if stack else float(energy[0])


def rho_energy(rho: float, geom) -> float:
    """Sobolev energy of the energy density over the homogeneous cell.

    With vanishing spatial gradients every derivative order collapses to
    the zeroth one, ``|rho| sqrt(det g)`` over the unit cell (``geom=None``
    stands for ``det g = 1``).
    """
    detg = float(np.linalg.det(geom.g)) if geom is not None else 1.0
    return abs(float(rho)) * math.sqrt(detg)


class WeightConditionError(ValueError):
    """An energy-weight side condition fails; the message names it."""


def validate_energy_weights(deltaE: float, deltaEcal: float) -> None:
    """Check ``0 < deltaE < 1/2``, ``deltaEcal > 1/2`` and
    ``deltaE + deltaEcal < 1``, raising :class:`WeightConditionError`."""
    if not 0.0 < deltaE < 0.5:
        raise WeightConditionError("deltaE < 1/2")
    if not deltaEcal > 0.5:
        raise WeightConditionError("deltaEcal > 1/2")
    if not deltaE + deltaEcal < 1.0:
        raise WeightConditionError("deltaE + deltaEcal < 1")


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
    zeros = np.zeros(n)

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
