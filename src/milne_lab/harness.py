"""Scenario configuration, run orchestration, persistence, and the CLI.

Scenarios are configured by versioned JSON documents validated against
:data:`CONFIG_SCHEMA`, which is derived from the fields, types and
defaults of :class:`ScenarioConfig`; the monitor thresholds default to
``energies.MONITOR_THRESHOLDS``.  Side conditions (the energy-weight
constants among them) are checked by name, so a violated inequality is
reported verbatim.  The five scenarios are

* ``background_check`` — residual audit of the attractor fixed point,
* ``modes`` — eigenvalue sweep of the linear perturbation oscillators,
* ``homogeneous`` — the reduced kinetic cosmology with its monitors,
* ``characteristics`` — mass-shell-conserving geodesic transport with
  the momentum-support envelope,
* ``full_report`` — homogeneous matter plus the vacuum mode sector,
  feeding every run monitor (smallness, total-energy decay,
  continuation, completeness).

Outputs are a per-scenario CSV log and a JSON report, both byte-stable
for a fixed ``(config, seed)`` pair; the CSV is written row by row from
the columns of a :class:`RunLog`.  The process exit code is 0 exactly
when every enabled monitor holds (``--strict`` additionally enforces a
margin floor).  The ``MILNE_LAB_THREADS`` environment variable caps
the worker processes among which the characteristic integrator shares
the particles (see :func:`milne_lab.transport.integrate_characteristics`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import matter, modes, homogeneous, transport, energies
from ._quadrature import PANELS
from .geometry import (BACKGROUND_LAPSE, background_geometry,
                       correction_constants, make_time_frame,
                       rescaled_christoffels)
from .massshell import compute_p0, mass_shell_residual

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "RunLog",
    "CONFIG_SCHEMA",
    "REPORT_SCHEMA",
    "validate_config",
    "validate_report",
    "run_scenario",
    "emit_report",
    "main",
]

SCENARIOS = ("background_check", "modes", "homogeneous", "characteristics",
             "full_report")

REPORT_SCHEMA = {
    "schemaVersion": 1,
    "required": ["schemaVersion", "scenario", "seed", "ok", "monitors",
                 "summary"],
    "monitor_fields": ["holds"],
}


class ConfigError(ValueError):
    """Configuration rejected; the message names the violated condition."""


_THRESHOLDS = energies.MONITOR_THRESHOLDS


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario configuration.

    The one declaration of the configuration fields: :data:`CONFIG_SCHEMA`
    is derived from the annotations and defaults below, and fields
    without a default are required.
    """

    scenario: str = field(metadata={"choices": SCENARIOS})
    seed: int
    schemaVersion: int = 1
    tau0: float = -1.0
    T0: float = 0.0
    Tend: float = 5.0
    h: float = 1e-3
    lambdaGrid: tuple = (1.0 / 9.0, 0.2, 5.0 / 9.0, 1.0, 2.0)
    epsPrime: float = 1.0 / 900.0
    deltaAlpha: float = 0.0
    deltaE: float = _THRESHOLDS["deltaE"]
    deltaEcal: float = _THRESHOLDS["deltaEcal"]
    epsDecay: float = _THRESHOLDS["epsDecay"]
    epsTot: float = _THRESHOLDS["epsTot"]
    epsLoc: float = _THRESHOLDS["epsLoc"]
    smallnessDelta: float = _THRESHOLDS["smallnessDelta"]
    radialNodes: int = 257
    quadNodes: int = 96
    particleCount: int = 1000
    perturbationEps: float = 1e-3
    matterAmp: float = 2e-4
    matterQmax: float = 2.0
    modeAmp: float = 1e-2
    gronwallC: float = 10.0
    logEvery: int = 10
    strictMarginFloor: float = 0.0
    out: Optional[str] = None


# schema type of each annotation used above
_SCHEMA_TYPES = {"int": "int", "float": "float", "tuple": "list[float]",
                 "str": "str", "Optional[str]": "str"}


def _schema_field(f: dataclasses.Field) -> dict:
    spec = {"type": _SCHEMA_TYPES[f.type]}
    if f.default is dataclasses.MISSING:
        spec["required"] = True
    else:  # defaults in their JSON form
        spec["default"] = (list(f.default) if isinstance(f.default, tuple)
                           else f.default)
    spec.update(f.metadata)
    return spec


def _named_check(cond: bool, name: str, detail: str) -> None:
    if not cond:
        raise ConfigError(f"config error [{name}]: {detail}")


def _finite_number(value) -> bool:
    # also rejects integers beyond the float range
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _has_type(value, spec: dict) -> bool:
    """Whether ``value`` matches the ``type`` of a schema field."""
    kind = spec["type"]
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "float":
        return _finite_number(value)
    if kind == "list[float]":
        return (isinstance(value, (list, tuple))
                and all(_finite_number(v) for v in value))
    if value is None:  # an optional string left unset
        return "default" in spec and spec["default"] is None
    return isinstance(value, str)


def _json_object(text) -> dict:
    """The JSON object in ``text``; anything else is a named error."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise ConfigError(f"config error [json]: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config error [json]: top level must be an object")
    return data


def _read_config(path: str) -> dict:
    """The JSON object in the file at ``path``; a file that cannot be read
    is the named error ``[config-file]``."""
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config error [config-file]: cannot read "
                          f"{path!r}: {exc.strerror}") from exc
    return _json_object(text)


def validate_config(raw) -> ScenarioConfig:
    """Parse and validate a configuration document, a JSON string or a
    mapping: its form (keys, types, version, scenario), then the side
    conditions of its scenario in the order of ``CONFIG_SCHEMA
    ["conditions"]``; the first that fails is a named ConfigError."""
    if isinstance(raw, (str, bytes)):
        data = _json_object(raw)
    else:
        _named_check(isinstance(raw, Mapping), "json",
                     f"config must be a JSON string or a mapping, got "
                     f"{type(raw).__name__}")
        data = dict(raw)
    fields = CONFIG_SCHEMA["fields"]
    unknown = sorted(set(data) - set(fields))
    _named_check(not unknown, "unknown-keys", f"unrecognised keys {unknown}")
    for name, spec in fields.items():
        if spec.get("required") and name not in data:
            raise ConfigError(f"config error [missing]: {name!r} is required")
    c = {name: data.get(name, spec.get("default"))
         for name, spec in fields.items()}
    for name, spec in fields.items():
        _named_check(_has_type(c[name], spec), name,
                     f"{name} must be of type {spec['type']} (finite "
                     f"numbers only), got {c[name]!r}")
    _named_check(c["schemaVersion"] == CONFIG_SCHEMA["schemaVersion"],
                 "schemaVersion",
                 f"expected {CONFIG_SCHEMA['schemaVersion']}, "
                 f"got {c['schemaVersion']}")
    _named_check(c["scenario"] in SCENARIOS, "scenario",
                 f"scenario must be one of {SCENARIOS}, got "
                 f"{c['scenario']!r}")
    c["lambdaGrid"] = tuple(float(v) for v in c["lambdaGrid"])
    cfg = ScenarioConfig(**c)
    for name, scenarios, check, detail in _CONDITIONS:
        try:
            if cfg.scenario not in scenarios or check(cfg):
                continue
        except ValueError as exc:  # a check that computes names the fault
            raise ConfigError(f"config error [{name}]: {exc}") from exc
        text = (detail(cfg) if callable(detail) else ", ".join(
            f"{f}={getattr(cfg, f)}" for f in detail.split()))
        raise ConfigError(f"config error [{name}]: {text}")
    return cfg


def _steps(cfg: ScenarioConfig) -> float:
    return (cfg.Tend - cfg.T0) / cfg.h


def _mode_constants(cfg: ScenarioConfig) -> list:
    # an epsPrime too small to resolve against 1/9 (about 7e-18) leaves
    # the borderline mode's corrected energy without coercivity: a
    # ValueError
    return [correction_constants(lam, cfg.epsPrime)
            for lam in cfg.lambdaGrid]


def _shared_keys(cfg: ScenarioConfig) -> list:
    # the report holds one entry per key, so two modes under one key
    # would hide the first one's verdict
    keys = Counter(_mode_key(v) for v in cfg.lambdaGrid)
    return sorted(k for k, n in keys.items() if n > 1)


def _profile_curvature_fits(cfg: ScenarioConfig) -> bool:
    _matter_profile(cfg)  # a ValueError when matterQmax is too small to grid
    # the log-point energy squares the profile's second derivative,
    # -2 matterAmp / matterQmax^2, which must stay far inside the float
    # range (the spline of the profile overflows first); the square is a
    # product, as ** raises past the float range
    return cfg.matterAmp <= 1e150 * (cfg.matterQmax * cfg.matterQmax)


def _tau_rho0(cfg: ScenarioConfig) -> float:
    s0 = abs(float(cfg.tau0))
    with np.errstate(over="ignore", invalid="ignore"):  # to inf, named
        return s0 * homogeneous.isotropic_moments(
            _matter_profile(cfg), s0, cfg.quadNodes)[0]


# every mode of the full_report sector starts at (a, -a) and is
# a e^{-(T - T0)} times a bounded oscillation (the roots have real part -1,
# and this start has no T e^{-T} part at the double root): the corrected
# energies are largest at T0, where they must be finite, and the squared
# mode metric falls to about (a e^{-span})^2, which must stay normal for
# its decay rate to be fitted
def _initial_mode_energy(cfg: ScenarioConfig) -> float:
    a = cfg.modeAmp
    with np.errstate(over="ignore", invalid="ignore"):
        return sum(modes.corrected_energy(a, -a, lam, c, order=6)
                   for lam, c in zip(cfg.lambdaGrid, _mode_constants(cfg)))


def _final_mode_metric(cfg: ScenarioConfig) -> float:
    end = cfg.modeAmp * math.exp(-(cfg.Tend - cfg.T0))
    return end * end


def _log_stride(cfg: ScenarioConfig) -> int:
    return max(1, int(round(0.05 / cfg.h)))


def _envelope_growth(cfg: ScenarioConfig) -> float:
    # the support envelope of the characteristics run at calG = 1, from the
    # closed-form norm envelopes on its log rows: at most the envelope over
    # max(calG(T0), 1), as the envelope grows with T
    n = round(_steps(cfg))
    T = cfg.T0 + cfg.h * np.r_[0:n:_log_stride(cfg), n]
    with np.errstate(over="ignore"):  # to inf, named
        return float(transport.support_bound_check(
            T, np.ones_like(T), transport.manufactured_lapse_fields(
                cfg.perturbationEps).norm_envelopes,
            C=cfg.gronwallC, tau0_abs=abs(cfg.tau0))["envelope"][-1])


def _fit_rows(cfg: ScenarioConfig) -> int:
    # the homogeneous run's log times, as it steps them, in the window of
    # its decay fits
    n = _homogeneous_steps(cfg)
    T = np.arange(0, n + 1, cfg.logEvery) * ((cfg.Tend - cfg.T0) / n)
    lo, hi = _fit_window(T)
    return int(np.count_nonzero((T >= lo) & (T <= hi)))


def _rk4_row(scenarios: tuple, mode_step) -> tuple:
    def unstable(c):
        return modes.unstable_eigenvalue(c.lambdaGrid, mode_step(c))

    return ("lambdaGrid: RK4 stable at h", scenarios,
            lambda c: unstable(c) is None,
            lambda c: f"lambda={unstable(c)} has |R(hz)| >= 1 at the mode "
                      f"step h={mode_step(c)}")


_ALL = SCENARIOS
_HOMOGENEOUS = ("homogeneous", "full_report")
_WITH_TAU = tuple(s for s in SCENARIOS if s != "modes")
_STEPPED = ("modes", "homogeneous", "characteristics", "full_report")
# The side conditions of a configuration, checked in this order by
# validate_config: each row is (name, scenarios it applies to, check,
# detail).  A check returns whether the condition holds, or raises a
# ValueError whose text is the detail.  A detail is a function of the
# config, or the names of the fields it shows as name=value.  The caps
# keep an accepted run to minutes: on a 2-vCPU VM (bench/bench.py, scaled
# rows) a particle-step costs 100-400 ns, so 10^9 take 2-7 minutes, and
# a scalar step of one mode about 0.5 us, so 10^8 take about a minute.
_CONDITIONS = (
    ("seed >= 0", _ALL, lambda c: c.seed >= 0, "seed"),
    ("tau0 < 0", _ALL, lambda c: c.tau0 < 0.0, "tau0"),
    # the runs square tau (the characteristic flow, the Christoffel
    # symbols) and cube s = |tau| (the homogeneous log points); at 1e100
    # every power stays finite
    ("|tau0| <= 1e100", _ALL, lambda c: abs(c.tau0) <= 1e100, "tau0"),
    ("T0 >= 0", _ALL, lambda c: c.T0 >= 0.0, "T0"),
    ("h > 0", _ALL, lambda c: c.h > 0.0, "h"),
    ("Tend > T0", _ALL, lambda c: c.Tend > c.T0, "T0 Tend"),
    (f"Tend - T0 > {energies.TAIL_DOUBLINGS + 1} ln 2", _HOMOGENEOUS,
     lambda c: c.Tend - c.T0 > energies.tail_span_needed(),
     lambda c: f"span={c.Tend - c.T0} is too short for the completeness "
               f"tail doublings"),
    # the homogeneous run starts from tau0 at T = 0 and reads only the span
    ("T0 = 0", _HOMOGENEOUS, lambda c: c.T0 == 0.0,
     lambda c: f"T0={c.T0}: {c.scenario} starts at T = 0"),
    ("h divides Tend - T0", ("characteristics",), lambda c: math.isfinite(
        _steps(c)) and abs(c.T0 + round(_steps(c)) * c.h - c.Tend) <= 1e-9,
     "T0 Tend h"),
    ("matterQmax > 0", _ALL, lambda c: c.matterQmax > 0.0, "matterQmax"),
    ("matterAmp >= 0", _ALL, lambda c: c.matterAmp >= 0.0, "matterAmp"),
    *((name, _ALL, lambda c, holds=holds: holds(c.deltaE, c.deltaEcal),
       "deltaE deltaEcal") for name, holds in energies.WEIGHT_CONDITIONS),
    ("0 < epsDecay < 1", _ALL, lambda c: 0.0 < c.epsDecay < 1.0, "epsDecay"),
    # the radii of the smallness and continuation balls, which hold
    # nonnegative deviations: at zero only a vacuum run passes smallness
    # and no run passes continuation, and below zero no run passes either
    *((f"{name} > 0", _HOMOGENEOUS,
       lambda c, name=name: getattr(c, name) > 0.0, name)
      for name in ("smallnessDelta", "epsLoc")),
    # the decay budgets; deltaAlpha is the configured budget, not the
    # borderline mode's own rate loss, which the modes rate table checks
    # against 2 alpha
    *((f"{lhs_name} > 1 - epsDecay", _ALL,
       lambda c, lhs=lhs: lhs(c) > 1.0 - c.epsDecay,
       lambda c, lhs=lhs: f"lhs={lhs(c)}, rhs={1.0 - c.epsDecay}")
      for lhs_name, lhs in (
          ("1 - 2 deltaAlpha - deltaE - epsTot",
           lambda c: 1.0 - 2.0 * c.deltaAlpha - c.deltaE - c.epsTot),
          ("deltaEcal - epsTot", lambda c: c.deltaEcal - c.epsTot))),
    ("lambdaGrid >= 1/9", _ALL, lambda c: len(c.lambdaGrid) > 0 and all(
        v >= 1.0 / 9.0 - 1e-12 for v in c.lambdaGrid), "lambdaGrid"),
    ("0 < epsPrime < 1/9", _ALL, lambda c: 0.0 < c.epsPrime < 1.0 / 9.0,
     "epsPrime"),
    *((f"{name} > 0", _ALL, lambda c, name=name: getattr(c, name) > 0, name)
      for name in ("radialNodes", "quadNodes", "particleCount", "logEvery")),
    (f"quadNodes multiple of {PANELS}", _ALL,
     lambda c: c.quadNodes % PANELS == 0, "quadNodes"),
    ("radialNodes >= 2", _ALL, lambda c: c.radialNodes >= 2, "radialNodes"),
    # keeps the manufactured lapse 3 + eps e^{-T} phi, |phi| <= 1, positive
    ("|perturbationEps| < 3", _ALL, lambda c: abs(c.perturbationEps) < 3.0,
     "perturbationEps"),
    # the support envelope is a Gronwall bound, which needs a positive
    # constant: at C <= 0 it never rises above calG(T0)
    ("gronwallC > 0", _ALL, lambda c: c.gronwallC > 0.0, "gronwallC"),
    # tau = tau0 e^{-T} stays normal with its square, which the runs divide
    # by (the connection blocks, the metric measure, the characteristic
    # flow); modes has no tau
    ("|tau0| e^-Tend normal", _WITH_TAU, lambda c: abs(c.tau0) * math.exp(
        -c.Tend) >= math.sqrt(sys.float_info.min), "tau0 Tend"),
    *((f"{name} <= 10^4", _ALL,
       lambda c, name=name: getattr(c, name) <= 10**4, name)
      for name in ("radialNodes", "quadNodes")),
    ("len(lambdaGrid) <= 10^4", _ALL, lambda c: len(c.lambdaGrid) <= 10**4,
     lambda c: f"len(lambdaGrid)={len(c.lambdaGrid)}"),
    ("particleCount <= 10^6", _ALL, lambda c: c.particleCount <= 10**6,
     "particleCount"),
    ("h <= Tend - T0", _STEPPED, lambda c: _steps(c) >= 1.0, "T0 Tend h"),
    ("steps <= 10^6", _STEPPED, lambda c: _steps(c) <= 10**6,
     lambda c: f"steps={_steps(c)}"),
    # the homogeneous runs round their steps up to whole log intervals
    ("steps <= 10^6", _HOMOGENEOUS, lambda c: _homogeneous_steps(c) <= 10**6,
     lambda c: f"steps={_homogeneous_steps(c)}"),
    ("particleCount x steps <= 10^9", ("characteristics",),
     lambda c: c.particleCount * _steps(c) <= 10**9,
     lambda c: f"particleCount={c.particleCount}, steps={_steps(c)}"),
    ("len(lambdaGrid) x mode steps <= 10^8", ("full_report",),
     lambda c: len(c.lambdaGrid) * _mode_steps(c)[1] <= 10**8,
     lambda c: f"len(lambdaGrid)={len(c.lambdaGrid)}, "
               f"mode steps={_mode_steps(c)[1]}"),
    # each decay rate that decay_rates holds to is fitted in this window
    (f"{energies._FIT_SAMPLES} log rows in the fit window", ("full_report",),
     lambda c: _fit_rows(c) >= energies._FIT_SAMPLES,
     lambda c: f"log rows in the last 60 % of the span: {_fit_rows(c)} at "
               f"h={c.h}, logEvery={c.logEvery}"),
    ("epsPrime", ("modes", "full_report"),
     lambda c: len(_mode_constants(c)) > 0, None),
    ("lambdaGrid keys distinct", ("modes",), lambda c: not _shared_keys(c),
     lambda c: f"modes {_shared_keys(c)} share a report key (lambda to six "
               f"significant digits)"),
    ("matterQmax", _HOMOGENEOUS, _profile_curvature_fits,
     lambda c: f"matterAmp / matterQmax^2 must be <= 1e150, got "
               f"matterAmp={c.matterAmp}, matterQmax={c.matterQmax}"),
    ("|tau0| rho0 < 1/6", _HOMOGENEOUS, lambda c: _tau_rho0(c) < 1.0 / 6.0,
     lambda c: f"|tau0| rho0={_tau_rho0(c)} reaches the constraint pole"),
    ("modeAmp: mode energies finite", ("full_report",),
     lambda c: math.isfinite(_initial_mode_energy(c)),
     lambda c: f"modeAmp={c.modeAmp} gives E6={_initial_mode_energy(c)} at "
               f"T0 on lambdaGrid up to {max(c.lambdaGrid)}"),
    ("modeAmp: mode metric normal", ("full_report",),
     lambda c: _final_mode_metric(c) >= sys.float_info.min,
     lambda c: f"modeAmp={c.modeAmp} gives a squared mode metric of about "
               f"{_final_mode_metric(c)} at Tend"),
    # at the mode step each scenario takes
    _rk4_row(("modes",), lambda c: (c.Tend - c.T0) / round(_steps(c))),
    _rk4_row(("full_report",), lambda c: (c.Tend - c.T0)
             / _mode_steps(c)[1]),
    # calG(T0) is a few units, so 1e300 leaves room below the float range
    ("gronwallC: support envelope finite", ("characteristics",),
     lambda c: _envelope_growth(c) <= 1e300,
     lambda c: f"gronwallC={c.gronwallC}: the support envelope from calG = "
               f"1 reaches {_envelope_growth(c):.4g} by Tend, past 1e300"),
)

CONFIG_SCHEMA = {
    "schemaVersion": ScenarioConfig.schemaVersion,
    "fields": {f.name: _schema_field(f)
               for f in dataclasses.fields(ScenarioConfig)},
    "conditions": [{"name": name, "scenarios": scenarios}
                   for name, scenarios, _, _ in _CONDITIONS],
}


@dataclass
class RunLog:
    """The CSV table of a run as columns: one sequence of values per name
    (none if the log has no rows), all of one length, the run's own float
    array where it has one, written row by row by :func:`emit_report`.  A
    ``T`` column must increase strictly; a fault is a ``ValueError``.
    """

    columns: list
    values: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if (len(self.values) not in (0, len(self.columns))
                or len(set(map(len, self.values))) > 1):
            raise ValueError("one column per name, all of one length")
        T = np.asarray(dict(zip(self.columns, self.values)).get("T", ()),
                       dtype=float)
        if not np.all(T[1:] > T[:-1]):  # NaN fails too
            raise ValueError("time column must be strictly increasing")


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def _thread_budget() -> int:
    raw = os.environ.get("MILNE_LAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:  # named below, with the values <= 0
        n = 0
    _named_check(n > 0, "MILNE_LAB_THREADS",
                 f"must be a positive integer, got {raw!r}")
    return n


def _matter_profile(cfg: ScenarioConfig):
    amp, qmax = cfg.matterAmp, cfg.matterQmax
    prof = lambda q: amp * np.maximum(0.0, 1.0 - (q / qmax) ** 2)
    return matter.RadialDistribution(grid=np.linspace(0.0, qmax, 200),
                                     qmax=qmax, profile=prof)


def _run_background_check(cfg: ScenarioConfig) -> dict:
    frame = make_time_frame(cfg.tau0, cfg.T0)
    geom = background_geometry()
    blocks = rescaled_christoffels(geom, frame)
    checks = {
        "gamma_star": float(np.max(np.abs(blocks["gamma_star"]))),
        "gamma_star_star": float(np.max(np.abs(blocks["gamma_star_star"]))),
    }
    # homogeneous evolution right-hand side at the vacuum fixed point
    N0 = homogeneous.solve_lapse_algebraic(0.0)
    checks["scale_factor_rhs"] = abs(2.0 * (N0 / 3.0 - 1.0) * 1.0)
    drho, dj = matter.continuity_rhs(0.0, np.zeros(3), geom, frame, 0.0)
    checks["continuity_rho_rhs"] = abs(drho)
    checks["continuity_j_rhs"] = float(np.max(np.abs(dj)))
    du, dw = modes.mode_rhs(0.0, 0.0, 5.0 / 9.0, cfg.T0)
    checks["mode_rhs"] = max(abs(du), abs(dw))
    rng = np.random.default_rng(cfg.seed)
    p = rng.normal(size=(min(cfg.particleCount, 256), 3))
    p0 = compute_p0(geom, p, frame, method="paper_primary")
    checks["massshell_residual"] = float(
        np.max(np.abs(mass_shell_residual(geom, p, p0, frame))))
    checks["hamiltonian_b_minus_1"] = abs(
        homogeneous.hamiltonian_constraint_b(0.0, frame) - 1.0)

    log = RunLog(["check", "residual"], [*zip(*sorted(checks.items()))])
    lapse_exact = (N0 == BACKGROUND_LAPSE)
    worst = max(checks.values())
    monitors = {"fixed_point": {"holds": bool(worst < 1e-12),
                                "margin": 1e-12 - worst},
                "algebraic_lapse_exact": {"holds": bool(lapse_exact),
                                          "value": N0}}
    return {"log": log, "monitors": monitors,
            "summary": {"worst_residual": worst, "lapse": N0}}


def _mode_key(lam: float) -> str:
    """The key of a mode's entry in the ``modes`` report."""
    return f"lambda={lam:.6g}"


def _run_modes(cfg: ScenarioConfig) -> dict:
    sweep = modes.mode_sweep(cfg.lambdaGrid, (cfg.T0, cfg.Tend),
                             round(_steps(cfg)), cfg.epsPrime)
    log = RunLog(modes.MODE_CSV_COLUMNS,
                 [[m[k] for m in sweep] for k in modes.MODE_CSV_COLUMNS])
    per_mode = {_mode_key(m["lambda"]):
                {k: v for k, v in m.items() if k != "lambda"} for m in sweep}
    monitors = {"rate_table": {"holds": all(v["holds"]
                                            for v in per_mode.values()),
                               "modes": per_mode}}
    return {"log": log, "monitors": monitors,
            "summary": {"n_modes": len(sweep)}}


def _fit_window(T: np.ndarray) -> tuple:
    """Fit on the late part of the run, past the order-one transient."""
    lo = T[0] + 0.4 * (T[-1] - T[0])
    return (float(lo), float(T[-1]))


def _homogeneous_steps(cfg: ScenarioConfig) -> int:
    """``(Tend - T0) / h`` rounded up to whole log intervals."""
    n_steps = max(cfg.logEvery, round(_steps(cfg)))
    return n_steps + (-n_steps) % cfg.logEvery


def _homogeneous_run(cfg: ScenarioConfig):
    return homogeneous.evolve_homogeneous(
        _matter_profile(cfg), tau0=cfg.tau0, T_end=cfg.Tend - cfg.T0,
        n_steps=_homogeneous_steps(cfg), n_q=cfg.radialNodes,
        log_every=cfg.logEvery, n_nodes=cfg.quadNodes)


def _homogeneous_verdict(cfg: ScenarioConfig, run, E6=None) -> tuple:
    """``(monitors, summary)`` of a completed homogeneous run."""
    s = abs(cfg.tau0) * np.exp(-run.T)
    series = {"T": run.T, "s": s, "N": run.N, "b": run.b_ode, "rho": run.rho,
              "eta_under": run.eta_under, "sasaki54sq": run.E_report**2,
              "E6": E6}
    mons = energies.monitors(series, {name: getattr(cfg, name)
                                      for name in _THRESHOLDS})
    window = _fit_window(run.T)
    mask = run.T >= run.T[-1] - 1.0
    rho_final = run.rho[mask]
    summary = {
        "rho_drift_per_efold": None,
        "fit_window": list(window),
        "constraint_defect": float(np.max(np.abs(run.b_ode
                                                 - run.b_constraint))),
        "continuity_defect": float(np.max(np.abs(run.rho - run.rho_cont))),
    }
    if rho_final[-1] > 0.0:
        summary["rho_drift_per_efold"] = float(
            abs(rho_final[-1] - rho_final[0]) / rho_final[-1])
    else:  # no matter: a relative drift of zero density is undefined
        summary.setdefault("unfitted", {})["rho_drift_per_efold"] = \
            "density is zero at the end of the run"
    energies._fit_rate(summary, "lapse_rate", run.T, np.abs(run.N - 3.0),
                       window)
    energies._fit_rate(summary, "tau2_eta_under_rate", run.T,
                       s**2 * run.eta_under, window)
    return mons, summary


def _columns(run) -> list:  # the series of the homogeneous CSV columns
    return [getattr(run, name) for name in homogeneous.HOMOGENEOUS_CSV_COLUMNS]


def _run_homogeneous(cfg: ScenarioConfig) -> dict:
    run = _homogeneous_run(cfg)
    log = RunLog(homogeneous.HOMOGENEOUS_CSV_COLUMNS, _columns(run))
    if not run.completed:
        return {"log": log, "monitors": {},
                "summary": {"abort": run.abort_reason}}
    mons, summary = _homogeneous_verdict(cfg, run)
    summary["b0"] = run.b0
    return {"log": log, "monitors": mons, "summary": summary}


def _run_characteristics(cfg: ScenarioConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.particleCount
    ens = transport.ParticleEnsemble(
        x=rng.uniform(-1.2, 1.2, size=(n, 3)),
        p=rng.normal(scale=0.7, size=(n, 3)),
        weights=np.full(n, 1.0 / n))
    frame0 = make_time_frame(cfg.tau0, cfg.T0)
    provider = transport.manufactured_lapse_fields(cfg.perturbationEps)
    threads = _thread_budget()
    log_t, _ = transport.integrate_characteristics(
        ens, provider, frame0, cfg.Tend, cfg.h, mode="derived",
        log_every=_log_stride(cfg), threads=threads,
        full_log=False)
    gron = transport.support_bound_check(
        log_t.T, log_t.calG, provider.norm_envelopes, C=cfg.gronwallC,
        tau0_abs=abs(cfg.tau0))
    max_res = float(np.max(log_t.max_residual))
    flagged = int(np.sum(log_t.flagged))
    monitors = {
        "massshell": {"holds": bool(max_res < 1e-8 and flagged == 0),
                      "max_residual": max_res, "flagged": flagged},
        "support_envelope": {"holds": gron["holds"],
                             "margin": gron["margin"]},
    }
    log = RunLog(["T", "calG", "max_residual", "envelope"],
                 [log_t.T, log_t.calG, log_t.max_residual, gron["envelope"]])
    return {"log": log, "monitors": monitors,
            "summary": {"max_residual": max_res, "flagged": flagged,
                        "final_calG": float(log_t.calG[-1])}}


def _mode_steps(cfg: ScenarioConfig) -> tuple:
    """``(stride, steps)`` of the ``full_report`` mode sector: at least
    2000 steps, 20 or more per log interval of the matter run, and each
    interval a whole number (``stride``) of steps."""
    intervals = _homogeneous_steps(cfg) // cfg.logEvery
    stride = max(20, -(-2000 // intervals))
    return stride, stride * intervals


def _run_full_report(cfg: ScenarioConfig) -> dict:
    run = _homogeneous_run(cfg)
    if not run.completed:
        return {"log": RunLog(columns=homogeneous.HOMOGENEOUS_CSV_COLUMNS),
                "monitors": {}, "summary": {"abort": run.abort_reason}}
    # vacuum mode sector integrated on the same log grid
    a = cfg.modeAmp
    stride, n_steps = _mode_steps(cfg)
    E6 = np.zeros_like(run.T)
    g_norm_sq = np.zeros_like(run.T)
    for lam in cfg.lambdaGrid:
        traj = modes.integrate_mode(lam, a, -a, (float(run.T[0]),
                                                 float(run.T[-1])),
                                    n_steps, eps_prime=cfg.epsPrime,
                                    record_every=stride)
        E6 += modes.corrected_energy(traj.u, traj.w, traj.lam,
                                     traj.constants, order=6)
        g_norm_sq += 4.5 * traj.lam * traj.u**2

    mons, summary = _homogeneous_verdict(cfg, run, E6)
    energies._fit_rate(summary, "mode_metric_rate", run.T,
                       np.sqrt(g_norm_sq), _fit_window(run.T))
    summary["mode_metric_rate_floor"] = 1.0 - cfg.deltaE - 0.05
    summary["Etot_T0"] = mons["totalDecay"]["Etot0"]

    log = RunLog(homogeneous.HOMOGENEOUS_CSV_COLUMNS + ["E6"],
                 _columns(run) + [E6])
    rates_ok = ("unfitted" not in summary
                and abs(summary["lapse_rate"] - 1.0) <= 0.1
                and abs(summary["tau2_eta_under_rate"] - 2.0) <= 0.1
                and summary["rho_drift_per_efold"] < 0.01
                and summary["mode_metric_rate"]
                >= summary["mode_metric_rate_floor"])
    mons["decay_rates"] = {"holds": bool(rates_ok)}
    for key in ("lapse_rate", "tau2_eta_under_rate", "rho_drift_per_efold",
                "mode_metric_rate", "unfitted"):
        if key in summary:
            mons["decay_rates"][key] = summary[key]
    return {"log": log, "monitors": mons, "summary": summary}


_RUNNERS = {
    "background_check": _run_background_check,
    "modes": _run_modes,
    "homogeneous": _run_homogeneous,
    "characteristics": _run_characteristics,
    "full_report": _run_full_report,
}


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Dispatch a validated configuration to its scenario runner.

    Returns ``{"log": RunLog, "monitors": ..., "summary": ..., "ok": bool,
    "config": cfg}``; deterministic for fixed ``(config, seed)``.  ``ok``
    holds when the run did not abort and every monitor holds.
    """
    result = _RUNNERS[cfg.scenario](cfg)
    result["ok"] = ("abort" not in result["summary"]
                    and all(m["holds"] for m in result["monitors"].values()))
    result["config"] = cfg
    return result


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _json_default(obj):
    """The JSON form of a numpy array or scalar (``json.dump`` hook)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


def _fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


# rows of a log that emit_report turns into Python objects at a time
_WRITE_ROWS = 4096


def validate_report(report: dict) -> None:
    """Self-test a JSON report against :data:`REPORT_SCHEMA`."""
    for key in REPORT_SCHEMA["required"]:
        if key not in report:
            raise ValueError(f"report missing required key {key!r}")
    if report["schemaVersion"] != REPORT_SCHEMA["schemaVersion"]:
        raise ValueError("report schema version mismatch")
    for name, mon in report["monitors"].items():
        for fld in REPORT_SCHEMA["monitor_fields"]:
            if fld not in mon:
                raise ValueError(f"monitor {name!r} missing field {fld!r}")


def emit_report(result: dict, out_dir: str) -> dict:
    """Write the CSV log and JSON report; returns the written paths.

    Floats are serialised with ``repr`` (shortest round-trip form) and
    newlines are fixed to ``\\n``, so outputs are byte-stable for
    identical inputs.
    """
    os.makedirs(out_dir, exist_ok=True)
    cfg = result["config"]
    log = result["log"]
    csv_path = os.path.join(out_dir, f"{cfg.scenario}_log.csv")
    with open(csv_path, "w", newline="\n") as fh:
        fh.write(",".join(log.columns) + "\n")
        for lo in range(0, max(map(len, log.values), default=0), _WRITE_ROWS):
            # Python floats for _fmt, which would write a float64 as
            # np.float64(x)
            block = (v[lo:lo + _WRITE_ROWS] for v in log.values)
            for row in zip(*(v.tolist() if isinstance(v, np.ndarray) else v
                             for v in block)):
                fh.write(",".join(map(_fmt, row)) + "\n")
    report = {
        "schemaVersion": REPORT_SCHEMA["schemaVersion"],
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "ok": bool(result["ok"]),
        "monitors": result["monitors"],
        "summary": result["summary"],
        # the destination directory is not part of the run's identity
        "config": {k: v for k, v in dataclasses.asdict(cfg).items()
                   if k != "out"},
    }
    validate_report(report)
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")
    return {"csv": csv_path, "json": json_path}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_CLI_SCENARIOS = {
    "background-check": "background_check",
    "modes": "modes",
    "homogeneous": "homogeneous",
    "characteristics": "characteristics",
    "report": "full_report",
}


def _strict_margins(monitors: dict, floor: float) -> list:
    """Names of monitors whose margin falls below the strict floor."""
    return [name for name, mon in monitors.items()
            if mon.get("margin") is not None and mon["margin"] < floor]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="milne-lab",
        description="Scenario runner for the kinetic cosmology lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for cli_name in _CLI_SCENARIOS:
        p = sub.add_parser(cli_name)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="JSON configuration file (defaults used if omitted)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory for CSV/JSON artifacts")
        p.add_argument("--seed", metavar="N", type=int, default=None,
                       help="override the configured RNG seed")
        p.add_argument("--strict", action="store_true",
                       help="fail when any monitor margin is below the "
                            "configured floor")
    args = parser.parse_args(argv)

    try:
        raw = {} if args.config is None else _read_config(args.config)
        raw.setdefault("scenario", _CLI_SCENARIOS[args.command])
        _named_check(raw["scenario"] == _CLI_SCENARIOS[args.command],
                     "scenario", f"config scenario {raw['scenario']!r} does "
                     f"not match subcommand {args.command!r}")
        if args.seed is not None:
            raw["seed"] = args.seed
        raw.setdefault("seed", 0)
        if args.out is not None:
            raw["out"] = args.out
        cfg = validate_config(raw)
        if cfg.out is not None:  # fail before the run, not after it
            try:
                os.makedirs(cfg.out, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"config error [out]: cannot create "
                                  f"{cfg.out!r}: {exc.strerror}") from exc
        result = run_scenario(cfg)  # reads the worker budget
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    ok = bool(result["ok"])
    if args.strict and ok:
        failing = _strict_margins(result["monitors"], cfg.strictMarginFloor)
        if failing:
            ok = False
            result["summary"]["strict_failures"] = failing
    if cfg.out is not None:
        paths = emit_report(result, cfg.out)
        print(f"wrote {paths['csv']} and {paths['json']}")
    for name, mon in sorted(result["monitors"].items()):
        state = "ok" if mon.get("holds") else "FAIL"
        margin = mon.get("margin")
        extra = f" margin={margin:.3e}" if margin is not None else ""
        print(f"monitor {name}: {state}{extra}")
    print(f"scenario {cfg.scenario}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
