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
for a fixed ``(config, seed)`` pair; the process exit code is 0 exactly
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


CONFIG_SCHEMA = {
    "schemaVersion": ScenarioConfig.schemaVersion,
    "fields": {f.name: _schema_field(f)
               for f in dataclasses.fields(ScenarioConfig)},
}


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
    """Parse and validate a configuration document.

    ``raw`` may be a JSON string or an already-decoded mapping; anything
    else is the named error ``[json]``.  Unknown keys are rejected,
    defaults are filled in, and every side condition is checked with a
    named error, including the energy-weight
    inequalities of ``energies.validate_energy_weights`` (``0 < deltaE <
    1/2``, ``deltaEcal > 1/2``, ``deltaE + deltaEcal < 1``), the
    decay-budget conditions
    ``1 - 2 deltaAlpha - deltaE - epsTot > 1 - epsDecay`` and
    ``deltaEcal - epsTot > 1 - epsDecay``, caps on the run size, the bound
    ``|tau0| <= 1e100``, and a ``full_report`` ``modeAmp`` whose mode
    energies stay finite and mode metric normal over the run span.
    """
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
    _named_check(c["seed"] >= 0, "seed >= 0", f"seed={c['seed']}")
    _named_check(c["tau0"] < 0.0, "tau0 < 0", f"tau0={c['tau0']}")
    _named_check(abs(c["tau0"]) <= _MAX_ABS_TAU0, "|tau0| <= 1e100",
                 f"tau0={c['tau0']}")
    _named_check(c["T0"] >= 0.0, "T0 >= 0", f"T0={c['T0']}")
    _named_check(c["h"] > 0.0, "h > 0", f"h={c['h']}")
    _named_check(c["Tend"] > c["T0"], "Tend > T0",
                 f"T0={c['T0']}, Tend={c['Tend']}")
    span = c["Tend"] - c["T0"]
    if c["scenario"] in ("homogeneous", "full_report"):
        _named_check(span > energies.tail_span_needed(), "Tend - T0 > 4 ln 2",
                     f"span={span} is too short for the completeness "
                     f"tail doublings")
        # the homogeneous run starts from tau0 at T = 0 and reads only the span
        _named_check(c["T0"] == 0.0, "T0 = 0",
                     f"T0={c['T0']}: {c['scenario']} starts at T = 0")
    if c["scenario"] == "characteristics":
        steps = span / c["h"]
        _named_check(math.isfinite(steps)
                     and abs(c["T0"] + round(steps) * c["h"] - c["Tend"])
                     <= 1e-9,
                     "h divides Tend - T0",
                     f"T0={c['T0']}, Tend={c['Tend']}, h={c['h']}")
    _named_check(c["matterQmax"] > 0.0, "matterQmax > 0",
                 f"matterQmax={c['matterQmax']}")
    _named_check(c["matterAmp"] >= 0.0, "matterAmp >= 0",
                 f"matterAmp={c['matterAmp']}")
    try:
        energies.validate_energy_weights(c["deltaE"], c["deltaEcal"])
    except energies.WeightConditionError as exc:
        raise ConfigError(f"config error [{exc}]: deltaE={c['deltaE']}, "
                          f"deltaEcal={c['deltaEcal']}") from exc
    _named_check(0.0 < c["epsDecay"] < 1.0, "0 < epsDecay < 1",
                 f"epsDecay={c['epsDecay']}")
    lhs1 = 1.0 - 2.0 * c["deltaAlpha"] - c["deltaE"] - c["epsTot"]
    _named_check(lhs1 > 1.0 - c["epsDecay"],
                 "1 - 2 deltaAlpha - deltaE - epsTot > 1 - epsDecay",
                 f"lhs={lhs1}, rhs={1.0 - c['epsDecay']}")
    lhs2 = c["deltaEcal"] - c["epsTot"]
    _named_check(lhs2 > 1.0 - c["epsDecay"],
                 "deltaEcal - epsTot > 1 - epsDecay",
                 f"lhs={lhs2}, rhs={1.0 - c['epsDecay']}")
    lam = tuple(float(v) for v in c["lambdaGrid"])
    _named_check(len(lam) > 0 and all(v >= 1.0 / 9.0 - 1e-12 for v in lam),
                 "lambdaGrid >= 1/9", f"lambdaGrid={lam}")
    _named_check(0.0 < c["epsPrime"] < 1.0 / 9.0, "0 < epsPrime < 1/9",
                 f"epsPrime={c['epsPrime']}")
    for name in ("radialNodes", "quadNodes", "particleCount", "logEvery"):
        _named_check(c[name] > 0, f"{name} > 0", f"{name}={c[name]}")
    _named_check(c["quadNodes"] % PANELS == 0, "quadNodes multiple of 8",
                 f"quadNodes={c['quadNodes']}")
    _named_check(c["radialNodes"] >= 2, "radialNodes >= 2",
                 f"radialNodes={c['radialNodes']}")
    # keeps the manufactured lapse 3 + eps e^{-T} phi, |phi| <= 1, positive
    _named_check(abs(c["perturbationEps"]) < 3.0, "|perturbationEps| < 3",
                 f"perturbationEps={c['perturbationEps']}")
    # the time frame divides by tau = tau0 e^{-T}
    _named_check(abs(c["tau0"]) * math.exp(-c["Tend"]) >= sys.float_info.min,
                 "|tau0| e^-Tend normal",
                 f"tau0={c['tau0']}, Tend={c['Tend']}")
    c["lambdaGrid"] = lam
    cfg = ScenarioConfig(**c)
    _check_run_size(cfg)
    if cfg.scenario == "modes":
        # the report holds one entry per key, so two modes under one key
        # would hide the first one's verdict
        keys = Counter(_mode_key(v) for v in cfg.lambdaGrid)
        shared = sorted(k for k, n in keys.items() if n > 1)
        _named_check(not shared, "lambdaGrid keys distinct",
                     f"modes {shared} share a report key (lambda to six "
                     f"significant digits)")
    if cfg.scenario in ("homogeneous", "full_report"):
        try:
            f0 = _matter_profile(cfg)
        except ValueError as exc:  # a matterQmax too small to grid
            raise ConfigError(f"config error [matterQmax]: {exc}") from exc
        # the log-point energy squares the profile's second derivative,
        # -2 matterAmp / matterQmax^2, which must stay far inside the
        # float range (the spline of the profile overflows first)
        _named_check(cfg.matterAmp <= _MAX_CURVATURE * cfg.matterQmax**2,
                     "matterQmax",
                     f"matterAmp / matterQmax^2 must be <= 1e150, got "
                     f"matterAmp={cfg.matterAmp}, "
                     f"matterQmax={cfg.matterQmax}")
        rho0 = homogeneous.initial_density(f0, cfg.tau0, cfg.quadNodes)
        _named_check(abs(cfg.tau0) * rho0 < 1.0 / 6.0, "|tau0| rho0 < 1/6",
                     f"|tau0| rho0={abs(cfg.tau0) * rho0} reaches the "
                     f"constraint pole")
    if cfg.scenario == "full_report":
        # every mode of the sector starts at (a, -a) and is a e^{-(T - T0)}
        # times a bounded oscillation (the roots have real part -1, and
        # this start has no T e^{-T} part at the double root): the
        # corrected energies are largest at T0, where they must be finite,
        # and the squared mode metric falls to about (a e^{-span})^2, which
        # must stay normal for its decay rate to be fitted
        a = cfg.modeAmp
        with np.errstate(over="ignore", invalid="ignore"):
            E6 = sum(modes.corrected_energy(
                a, -a, lam, correction_constants(lam, cfg.epsPrime), order=6)
                for lam in cfg.lambdaGrid)
        _named_check(math.isfinite(E6), "modeAmp: mode energies finite",
                     f"modeAmp={a} gives E6={E6} at T0")
        end = a * math.exp(-span)
        _named_check(end * end >= sys.float_info.min,
                     "modeAmp: mode metric normal",
                     f"modeAmp={a} gives a squared mode metric of about "
                     f"{end * end} at Tend")
    return cfg


_MAX_NODES = 10**4
_MAX_PARTICLES = 10**6
_MAX_STEPS = 10**6
_MAX_PARTICLE_STEPS = 10**9
_MAX_MODE_STEPS = 10**8
_MAX_CURVATURE = 1e150
# the runs square tau (the characteristic flow, the Christoffel symbols)
# and cube s = |tau| (the homogeneous log points); at 1e100 every power
# stays finite
_MAX_ABS_TAU0 = 1e100


def _check_run_size(cfg: ScenarioConfig) -> None:
    """Named checks on the step count and the run size.

    The caps keep an accepted run to minutes.  Measured on a 2-vCPU VM
    (``bench/bench.py``, scaled rows), a particle-step costs 100-400 ns
    (10^4-10^5 particles on two worker processes to 10^3 particles on
    one), so 10^9 particle-steps take 2-7 minutes; a scalar step of one
    mode costs about 0.5 us, so the 10^8 mode steps of ``full_report``
    take about a minute.
    """
    for name in ("radialNodes", "quadNodes"):
        _named_check(getattr(cfg, name) <= _MAX_NODES, f"{name} <= 10^4",
                     f"{name}={getattr(cfg, name)}")
    _named_check(len(cfg.lambdaGrid) <= _MAX_NODES, "len(lambdaGrid) <= 10^4",
                 f"len(lambdaGrid)={len(cfg.lambdaGrid)}")
    _named_check(cfg.particleCount <= _MAX_PARTICLES, "particleCount <= 10^6",
                 f"particleCount={cfg.particleCount}")
    if cfg.scenario == "background_check":  # takes no steps
        return
    steps = (cfg.Tend - cfg.T0) / cfg.h
    _named_check(steps >= 1.0, "h <= Tend - T0",
                 f"T0={cfg.T0}, Tend={cfg.Tend}, h={cfg.h}")
    if steps <= _MAX_STEPS and cfg.scenario in ("homogeneous", "full_report"):
        steps = _homogeneous_steps(cfg)
    _named_check(steps <= _MAX_STEPS, "steps <= 10^6", f"steps={steps}")
    if cfg.scenario == "characteristics":
        _named_check(cfg.particleCount * steps <= _MAX_PARTICLE_STEPS,
                     "particleCount x steps <= 10^9",
                     f"particleCount={cfg.particleCount}, steps={steps}")
    if cfg.scenario == "full_report":
        _, mode_steps = _mode_steps(steps // cfg.logEvery)
        _named_check(len(cfg.lambdaGrid) * mode_steps <= _MAX_MODE_STEPS,
                     "len(lambdaGrid) x mode steps <= 10^8",
                     f"len(lambdaGrid)={len(cfg.lambdaGrid)}, "
                     f"mode steps={mode_steps}")


@dataclass
class RunLog:
    """The CSV table of a run: its column names and its rows.

    Every row must be as wide as ``columns``, and a ``T`` column must
    increase strictly down the rows; either fault is a ``ValueError``
    when the log is built.
    """

    columns: list
    rows: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if any(len(row) != len(self.columns) for row in self.rows):
            raise ValueError("row width does not match the columns")
        if "T" in self.columns:
            i = self.columns.index("T")
            if any(not b[i] > a[i] for a, b in zip(self.rows, self.rows[1:])):
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
    N0 = homogeneous.solve_lapse_algebraic(0.0, 0.0)
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

    log = RunLog(["check", "residual"],
                 [[name, val] for name, val in sorted(checks.items())])
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
    n_steps = int(round((cfg.Tend - cfg.T0) / cfg.h))
    sweep = modes.mode_sweep(cfg.lambdaGrid, (cfg.T0, cfg.Tend), n_steps,
                             cfg.epsPrime)
    log = RunLog(modes.MODE_CSV_COLUMNS,
                 [[m[k] for k in modes.MODE_CSV_COLUMNS] for m in sweep])
    per_mode = {_mode_key(m["lambda"]):
                {k: v for k, v in m.items() if k != "lambda"} for m in sweep}
    monitors = {"rate_table": {"holds": all(v["holds"]
                                            for v in per_mode.values()),
                               "modes": per_mode}}
    return {"log": log, "monitors": monitors,
            "summary": {"n_modes": len(log.rows)}}


def _fit_window(T: np.ndarray) -> tuple:
    """Fit on the late part of the run, past the order-one transient."""
    lo = T[0] + 0.4 * (T[-1] - T[0])
    return (float(lo), float(T[-1]))


def _homogeneous_steps(cfg: ScenarioConfig) -> int:
    """``(Tend - T0) / h`` rounded up to whole log intervals."""
    n_steps = max(cfg.logEvery, int(round((cfg.Tend - cfg.T0) / cfg.h)))
    return n_steps + (-n_steps) % cfg.logEvery


def _homogeneous_run(cfg: ScenarioConfig):
    return homogeneous.evolve_homogeneous(
        _matter_profile(cfg), tau0=cfg.tau0, T_end=cfg.Tend - cfg.T0,
        n_steps=_homogeneous_steps(cfg), n_q=cfg.radialNodes,
        log_every=cfg.logEvery, n_nodes=cfg.quadNodes)


def _homogeneous_series(cfg: ScenarioConfig, run) -> dict:
    s0 = abs(cfg.tau0)
    return {
        "T": run.T, "s": s0 * np.exp(-run.T), "N": run.N, "b": run.b_ode,
        "rho": run.rho, "eta_under": run.eta_under,
        "sasaki54sq": run.E_report**2,
    }


def _monitor_config(cfg: ScenarioConfig) -> dict:
    return {name: getattr(cfg, name) for name in _THRESHOLDS}


def _decay_summary(cfg: ScenarioConfig, run) -> dict:
    s = abs(cfg.tau0) * np.exp(-run.T)
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
    return summary


def _run_homogeneous(cfg: ScenarioConfig) -> dict:
    run = _homogeneous_run(cfg)
    log = RunLog(homogeneous.HOMOGENEOUS_CSV_COLUMNS, run.rows())
    if not run.completed:
        return {"log": log, "monitors": {},
                "summary": {"abort": run.abort_reason}}
    mons = energies.monitors(_homogeneous_series(cfg, run),
                             _monitor_config(cfg))
    summary = _decay_summary(cfg, run)
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
        log_every=max(1, int(round(0.05 / cfg.h))), threads=threads,
        full_log=False)
    norms = {key: np.array([bound(t) for t in log_t.T])
             for key, bound in provider.norm_envelopes.items()}
    gron = transport.support_bound_check(log_t.T, log_t.calG, norms,
                                         C=cfg.gronwallC,
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
                 [[float(t), float(g), float(r), float(e)]
                  for t, g, r, e in zip(log_t.T, log_t.calG,
                                        log_t.max_residual, gron["envelope"])])
    return {"log": log, "monitors": monitors,
            "summary": {"max_residual": max_res, "flagged": flagged,
                        "final_calG": float(log_t.calG[-1])}}


def _mode_steps(intervals: int) -> tuple:
    """``(stride, steps)`` of the ``full_report`` mode sector.

    At least 2000 steps, 20 or more per log interval, and every one of
    the ``intervals`` log intervals a whole number (``stride``) of steps.
    """
    stride = max(20, -(-2000 // intervals))
    return stride, stride * intervals


def _run_full_report(cfg: ScenarioConfig) -> dict:
    run = _homogeneous_run(cfg)
    if not run.completed:
        return {"log": RunLog(columns=homogeneous.HOMOGENEOUS_CSV_COLUMNS),
                "monitors": {}, "summary": {"abort": run.abort_reason}}
    # vacuum mode sector integrated on the same log grid
    a = cfg.modeAmp
    stride, n_steps = _mode_steps(run.T.size - 1)
    E6 = np.zeros_like(run.T)
    g_norm_sq = np.zeros_like(run.T)
    for lam in cfg.lambdaGrid:
        traj = modes.integrate_mode(lam, a, -a, (float(run.T[0]),
                                                 float(run.T[-1])),
                                    n_steps, eps_prime=cfg.epsPrime)
        u = traj.u[::stride]
        w = traj.w[::stride]
        E6 += modes.corrected_energy(u, w, traj.lam, traj.constants, order=6)
        g_norm_sq += 4.5 * traj.lam * u**2

    series = _homogeneous_series(cfg, run)
    series["E6"] = E6
    mons = energies.monitors(series, _monitor_config(cfg))

    summary = _decay_summary(cfg, run)
    energies._fit_rate(summary, "mode_metric_rate", run.T,
                       np.sqrt(g_norm_sq), _fit_window(run.T))
    summary["mode_metric_rate_floor"] = 1.0 - cfg.deltaE - 0.05
    summary["Etot_T0"] = mons["totalDecay"]["Etot0"]

    log = RunLog(homogeneous.HOMOGENEOUS_CSV_COLUMNS + ["E6"],
                 [row + [float(e)] for row, e in zip(run.rows(), E6)])
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


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_default(obj):
    """The JSON form of a numpy array or scalar (``json.dump`` hook)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


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
        for row in log.rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
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
    failing = []
    for name, mon in monitors.items():
        margin = mon.get("margin")
        if margin is not None and margin < floor:
            failing.append(name)
    return failing


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
