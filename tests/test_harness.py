import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import milne_lab
from milne_lab import harness, homogeneous, modes, transport
from milne_lab._quadrature import PANELS
from milne_lab.energies import MONITOR_THRESHOLDS, TAIL_DOUBLINGS
from milne_lab.harness import (
    CONFIG_SCHEMA,
    SCENARIOS,
    ConfigError,
    RunLog,
    ScenarioConfig,
    emit_report,
    main,
    run_scenario,
    validate_config,
    validate_report,
)


def base_config(**extra):
    cfg = {"scenario": "background_check", "seed": 7}
    cfg.update(extra)
    return cfg


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = validate_config(base_config())
        assert cfg.tau0 == -1.0 and cfg.h == 1e-3
        assert cfg.lambdaGrid == (1.0 / 9.0, 0.2, 5.0 / 9.0, 1.0, 2.0)
        assert cfg.deltaE == 0.05 and cfg.deltaEcal == 0.9
        assert cfg.deltaAlpha == 0.0

    def test_json_string_accepted(self):
        cfg = validate_config(json.dumps(base_config(Tend=2.0)))
        assert cfg.Tend == 2.0

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="missing"):
            validate_config({"scenario": "modes"})

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match="missing"):
            validate_config({"seed": 1})

    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match="unknown-keys"):
            validate_config(base_config(stepsize=0.1))

    def test_schema_version_mismatch(self):
        with pytest.raises(ConfigError, match="schemaVersion"):
            validate_config(base_config(schemaVersion=2))

    def test_positive_tau0_rejected(self):
        with pytest.raises(ConfigError, match=r"tau0 < 0"):
            validate_config(base_config(tau0=1.0))

    def test_energy_weight_condition_named(self):
        with pytest.raises(ConfigError, match=r"deltaE < 1/2"):
            validate_config(base_config(deltaE=0.6))

    def test_weight_sum_condition(self):
        with pytest.raises(ConfigError, match=r"deltaE \+ deltaEcal < 1"):
            validate_config(base_config(deltaE=0.3, deltaEcal=0.8,
                                        epsDecay=0.45))

    def test_decay_budget_condition(self):
        with pytest.raises(ConfigError, match="epsTot"):
            validate_config(base_config(deltaAlpha=0.1))

    def test_lambda_grid_floor(self):
        with pytest.raises(ConfigError, match="lambdaGrid"):
            validate_config(base_config(lambdaGrid=[0.05, 1.0]))

    def test_invalid_json_named(self):
        with pytest.raises(ConfigError, match="json"):
            validate_config("{not json")

    def test_error_names_state_the_package_constants(self):
        # the names spell the constants out; a changed constant must not
        # leave its error misstating the condition
        name = f"[quadNodes multiple of {PANELS}]"
        with pytest.raises(ConfigError, match=re.escape(name)):
            validate_config(base_config(quadNodes=12 * PANELS + 1))
        name = f"[Tend - T0 > {TAIL_DOUBLINGS + 1} ln 2]"
        with pytest.raises(ConfigError, match=re.escape(name)):
            validate_config(base_config(
                scenario="homogeneous",
                Tend=(TAIL_DOUBLINGS + 1) * math.log(2.0)))

    def test_colliding_mode_keys_named(self, tmp_path, capsys):
        # the modes report keys each mode by lambda to six digits, so a
        # repeated value would share one verdict with its twin
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"Tend": 8,
                                    "lambdaGrid": [1 / 9, 0.3, 3, 3]}))
        assert main(["modes", "--config", str(path)]) == 2
        assert "[lambdaGrid keys distinct]" in capsys.readouterr().err
        with pytest.raises(ConfigError, match=r"\[lambdaGrid keys distinct\]"):
            validate_config(base_config(scenario="modes",
                                        lambdaGrid=[0.3, 0.3 + 1e-9]))
        cfg = validate_config(base_config(scenario="modes",
                                          lambdaGrid=[0.3, 0.30001]))
        assert cfg.lambdaGrid == (0.3, 0.30001)

    @pytest.mark.parametrize("amp, name", [
        # the corrected energies overflow: NaN in the report
        (1e154, "modeAmp: mode energies finite"),
        (-1e154, "modeAmp: mode energies finite"),
        # the mode metric is zero or underflows: its rate is unfitted
        (0.0, "modeAmp: mode metric normal"),
        (1e-160, "modeAmp: mode metric normal"),
    ])
    def test_mode_amplitude_out_of_range_named(self, tmp_path, capsys, amp,
                                               name):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"modeAmp": amp}))
        out = tmp_path / "out"
        assert main(["report", "--config", str(path), "--out",
                     str(out)]) == 2
        assert f"[{name}]" in capsys.readouterr().err
        assert not out.exists()

    def test_ordinary_mode_amplitudes_accepted(self):
        # modeAmp is read by full_report only
        validate_config(base_config(modeAmp=0.0))
        for amp in (1e-150, -1e-150, 1e-2, 1e10):
            validate_config(base_config(scenario="full_report", modeAmp=amp))
        result = run_scenario(validate_config(
            base_config(scenario="full_report", modeAmp=1e-150)))
        assert result["summary"]["mode_metric_rate"] > 0.9


class TestConfigRobustness:
    @pytest.mark.parametrize("extra, name", [
        ({"h": "0.1"}, "h"),
        ({"lambdaGrid": 5}, "lambdaGrid"),
        ({"lambdaGrid": [0.5, "x"]}, "lambdaGrid"),
        ({"Tend": math.inf}, "Tend"),
        ({"seed": True}, "seed"),
        ({"seed": -1}, "seed >= 0"),
        ({"out": 3}, "out"),
        ({"T0": -0.5}, "T0 >= 0"),
        ({"scenario": "homogeneous", "Tend": 1.0}, "Tend - T0 > 4 ln 2"),
        ({"scenario": "full_report", "T0": 2.0, "Tend": 4.0},
         "Tend - T0 > 4 ln 2"),
        ({"scenario": "characteristics", "Tend": 1.0005, "h": 1e-2},
         "h divides Tend - T0"),
        ({"quadNodes": 20}, "quadNodes multiple of 8"),
        ({"matterQmax": 0.0}, "matterQmax > 0"),
        ({"matterAmp": -1e-4}, "matterAmp >= 0"),
        ({"deltaE": 0.0}, "deltaE < 1/2"),
        ({"deltaEcal": 0.5}, "deltaEcal > 1/2"),
        ({"perturbationEps": 1e6}, "|perturbationEps| < 3"),
        ({"radialNodes": 1}, "radialNodes >= 2"),
        ({"scenario": "homogeneous", "matterAmp": 0.05}, "|tau0| rho0 < 1/6"),
        ({"scenario": "full_report", "tau0": -1e6}, "|tau0| rho0 < 1/6"),
        ({"scenario": "characteristics", "T0": 1000.0, "Tend": 1000.01},
         "|tau0| e^-Tend normal"),
        ({"scenario": "homogeneous", "Tend": 800.0}, "|tau0| e^-Tend normal"),
        ({"scenario": "modes", "h": 10.0}, "h <= Tend - T0"),
        # run-size caps, checked by validation only: never run these
        ({"scenario": "modes", "h": 1e-9}, "steps <= 10^6"),
        ({"scenario": "homogeneous", "logEvery": 10**9}, "steps <= 10^6"),
        ({"particleCount": 10**6 + 1}, "particleCount <= 10^6"),
        ({"scenario": "characteristics", "particleCount": 10**6},
         "particleCount x steps <= 10^9"),
        ({"radialNodes": 10**4 + 1}, "radialNodes <= 10^4"),
        ({"quadNodes": 10**4 + 8}, "quadNodes <= 10^4"),
        ({"lambdaGrid": [1.0] * (10**4 + 1)}, "len(lambdaGrid) <= 10^4"),
        ({"scenario": "homogeneous", "matterQmax": 5e-324}, "matterQmax"),
        # the profile's curvature matterAmp / matterQmax^2 overflows the
        # spline and the energy at the log points
        ({"scenario": "homogeneous", "matterQmax": 1e-300, "Tend": 3.0,
          "h": 0.01}, "matterQmax"),
        ({"scenario": "full_report", "matterQmax": 1e-80}, "matterQmax"),
        # 10^4 modes of 2 x 10^7 steps each: validation only
        ({"scenario": "full_report", "logEvery": 1, "h": 5e-6,
          "lambdaGrid": [1.0] * 10**4},
         "len(lambdaGrid) x mode steps <= 10^8"),
        # homogeneous runs start at T = 0
        ({"scenario": "homogeneous", "T0": 1.0, "Tend": 6.0}, "T0 = 0"),
        ({"scenario": "full_report", "T0": 0.5, "Tend": 5.0}, "T0 = 0"),
        # a config that is neither a JSON string nor a mapping goes in as is
        ([1], "json"),
        (5, "json"),
        (None, "json"),
        ([("scenario", "modes"), ("seed", 0)], "json"),
    ])
    def test_bad_value_named(self, extra, name):
        raw = base_config(**extra) if isinstance(extra, dict) else extra
        with pytest.raises(ConfigError) as info:
            validate_config(raw)
        assert f"[{name}]" in str(info.value)

    def test_json_infinity_rejected(self):
        with pytest.raises(ConfigError, match=r"\[Tend\]"):
            validate_config('{"scenario": "modes", "seed": 0, '
                            '"Tend": Infinity}')

    def test_huge_run_rejected(self):
        # validation only: this run would take days
        with pytest.raises(ConfigError):
            validate_config(base_config(scenario="characteristics", Tend=1e6,
                                        particleCount=10**9))

    def test_mode_step_cap_counts_the_mode_sector(self):
        # validation only: 10^4 modes of the default 10^4 mode steps sit
        # on the cap; halving logEvery doubles the mode steps
        validate_config(base_config(scenario="full_report",
                                    lambdaGrid=[1.0] * 10**4))
        with pytest.raises(ConfigError, match="mode steps"):
            validate_config(base_config(scenario="full_report", logEvery=5,
                                        lambdaGrid=[1.0] * 10**4))

    def test_characteristics_step_dividing_span_accepted(self):
        cfg = validate_config(base_config(scenario="characteristics",
                                          T0=0.5, Tend=0.75, h=0.05))
        assert cfg.h == 0.05


# a config that violates each row of CONFIG_SCHEMA["conditions"] and no
# row before it, by the row's name; validation only, never run
_VIOLATIONS = [
    ("seed >= 0", {"seed": -1}),
    ("tau0 < 0", {"tau0": 0.0}),
    ("|tau0| <= 1e100", {"tau0": -1.5e100}),
    ("T0 >= 0", {"T0": -0.5}),
    ("h > 0", {"h": 0.0}),
    ("Tend > T0", {"T0": 2.0, "Tend": 2.0}),
    (f"Tend - T0 > {TAIL_DOUBLINGS + 1} ln 2",
     {"scenario": "homogeneous", "Tend": (TAIL_DOUBLINGS + 1) * math.log(2.0)}),
    ("T0 = 0", {"scenario": "full_report", "T0": 0.5, "Tend": 5.0}),
    ("h divides Tend - T0",
     {"scenario": "characteristics", "Tend": 1.0005, "h": 1e-2}),
    ("matterQmax > 0", {"matterQmax": 0.0}),
    ("matterAmp >= 0", {"matterAmp": -1e-4}),
    ("deltaE < 1/2", {"deltaE": 0.5}),
    ("deltaEcal > 1/2", {"deltaEcal": 0.5}),
    ("deltaE + deltaEcal < 1",
     {"deltaE": 0.3, "deltaEcal": 0.8, "epsDecay": 0.45}),
    ("0 < epsDecay < 1", {"epsDecay": 1.0}),
    ("1 - 2 deltaAlpha - deltaE - epsTot > 1 - epsDecay",
     {"deltaAlpha": 0.05}),
    ("deltaEcal - epsTot > 1 - epsDecay", {"deltaEcal": 0.85}),
    ("lambdaGrid >= 1/9", {"lambdaGrid": []}),
    ("0 < epsPrime < 1/9", {"epsPrime": 1.0 / 9.0}),
    ("radialNodes > 0", {"radialNodes": 0}),
    ("quadNodes > 0", {"quadNodes": 0}),
    ("particleCount > 0", {"particleCount": 0}),
    ("logEvery > 0", {"logEvery": 0}),
    (f"quadNodes multiple of {PANELS}", {"quadNodes": PANELS + 1}),
    ("radialNodes >= 2", {"radialNodes": 1}),
    ("|perturbationEps| < 3", {"perturbationEps": -3.0}),
    ("gronwallC > 0", {"gronwallC": 0.0}),
    ("|tau0| e^-Tend normal", {"tau0": -1e-300, "Tend": 20.0}),
    ("radialNodes <= 10^4", {"radialNodes": 10**4 + 1}),
    ("quadNodes <= 10^4", {"quadNodes": 10**4 + PANELS}),
    ("len(lambdaGrid) <= 10^4", {"lambdaGrid": [1.0] * (10**4 + 1)}),
    ("particleCount <= 10^6", {"particleCount": 10**6 + 1}),
    ("h <= Tend - T0", {"scenario": "modes", "h": 5.001}),
    ("steps <= 10^6", {"scenario": "modes", "h": 5e-6 * 0.999}),
    # 5000 steps, rounded up to one log interval of 2 x 10^6
    ("steps <= 10^6", {"scenario": "homogeneous", "logEvery": 2 * 10**6}),
    ("particleCount x steps <= 10^9",
     {"scenario": "characteristics", "particleCount": 2 * 10**5,
      "h": 1e-3 * 0.8}),
    ("len(lambdaGrid) x mode steps <= 10^8",
     {"scenario": "full_report", "logEvery": 5, "lambdaGrid": [1.0] * 10**4}),
    ("epsPrime", {"scenario": "modes", "epsPrime": 5e-18}),
    ("lambdaGrid keys distinct",
     {"scenario": "modes", "lambdaGrid": [0.3, 0.3 + 1e-9]}),
    ("matterQmax", {"scenario": "full_report", "matterQmax": 1e-80}),
    ("|tau0| rho0 < 1/6", {"scenario": "homogeneous", "matterAmp": 0.05}),
    ("modeAmp: mode energies finite",
     {"scenario": "full_report", "modeAmp": -1e154}),
    ("modeAmp: mode metric normal",
     {"scenario": "full_report", "modeAmp": 1e-160}),
    ("lambdaGrid: RK4 stable at h",
     {"scenario": "modes", "lambdaGrid": [1e30], "h": 0.01}),
    ("lambdaGrid: RK4 stable at h",
     {"scenario": "full_report", "lambdaGrid": [1e51]}),
    ("gronwallC: support envelope finite",
     {"scenario": "characteristics", "gronwallC": 1e300}),
    # rows after 0 < epsDecay < 1, listed last to keep the case ids above
    ("smallnessDelta > 0", {"scenario": "homogeneous", "smallnessDelta": 0.0}),
    ("epsLoc > 0", {"scenario": "full_report", "epsLoc": -0.1}),
]
# later rows' cases, with ids name-scenario, which no insertion shifts
_NAMED_VIOLATIONS = [
    # a log row every 5000 steps: two rows, one in the fit window
    ("8 log rows in the fit window",
     {"scenario": "full_report", "logEvery": 5000}),
]


@pytest.mark.parametrize(
    "name, extra", _VIOLATIONS + _NAMED_VIOLATIONS,
    ids=[None] * len(_VIOLATIONS) + [f"{name}-{extra['scenario']}"
                                     for name, extra in _NAMED_VIOLATIONS])
def test_each_condition_rejects_its_violation(name, extra):
    with pytest.raises(ConfigError) as info:
        validate_config(base_config(**extra))
    assert str(info.value).startswith(f"config error [{name}]: ")


def test_every_condition_has_a_violation():
    rows = CONFIG_SCHEMA["conditions"]
    cases = {(name, extra.get("scenario", "background_check"))
             for name, extra in _VIOLATIONS + _NAMED_VIOLATIONS}
    assert {name for name, _ in cases} == {row["name"] for row in rows}
    for row in rows:  # rows that share a name each have a scenario's case
        assert any((row["name"], s) in cases for s in row["scenarios"]), row


def test_readme_names_every_condition():
    readme = (pathlib.Path(__file__).resolve().parents[1]
              / "README.md").read_text()
    missing = [row["name"] for row in CONFIG_SCHEMA["conditions"]
               if f"`{row['name']}`" not in readme]
    assert not missing


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
_PLAUSIBLE = {
    "int": st.integers(min_value=-3, max_value=300),
    "float": st.floats(min_value=-10.0, max_value=10.0),
    "list[float]": st.lists(st.floats(min_value=-1.0, max_value=3.0),
                            max_size=4),
    "str": st.sampled_from(SCENARIOS + ("none",)),
}
_OPTIONAL = {name: _JSON_VALUES | _PLAUSIBLE[spec["type"]]
             for name, spec in CONFIG_SCHEMA["fields"].items()}
_CONFIG_OBJECTS = (
    # mostly past the required keys, so the field checks are reached
    st.fixed_dictionaries({"scenario": st.sampled_from(SCENARIOS),
                           "seed": st.integers(min_value=0, max_value=9)},
                          optional={k: v for k, v in _OPTIONAL.items()
                                    if k not in ("scenario", "seed")})
    | st.fixed_dictionaries({}, optional=_OPTIONAL)
    | st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=4))


@settings(max_examples=400, deadline=None)
@given(_CONFIG_OBJECTS)
def test_any_json_object_validates_or_raises_config_error(obj):
    # validation only: a config is never run here, whatever its size
    for raw in (obj, json.dumps(obj)):
        try:
            cfg = validate_config(raw)
        except ConfigError:
            continue
        assert isinstance(cfg, ScenarioConfig)


class TestConfigSchema:
    def test_schema_is_derived_from_the_dataclass(self):
        fields = CONFIG_SCHEMA["fields"]
        assert list(fields) == [f.name for f in dataclasses.fields(
            ScenarioConfig)]
        assert fields["scenario"]["choices"] == SCENARIOS
        assert {n for n, spec in fields.items()
                if spec.get("required")} == {"scenario", "seed"}
        cfg = ScenarioConfig(scenario="modes", seed=0)
        for name, spec in fields.items():
            if "default" in spec:
                default = getattr(cfg, name)
                if isinstance(default, tuple):
                    default = list(default)
                assert spec["default"] == default, name

    def test_threshold_defaults_come_from_the_energies_table(self):
        cfg = validate_config(base_config())
        for name, value in MONITOR_THRESHOLDS.items():
            assert getattr(cfg, name) == value


class TestRunLog:
    def test_constructor_keeps_checked_rows(self):
        T, v = np.array([0.0, 0.5]), [1.0, 0.5]
        log = RunLog(["T", "v"], [T, v])
        assert log.values[0] is T and log.values[1] is v

    def test_time_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            RunLog(["T", "v"], [[0.0, 0.0], [1.0, 0.9]])

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            RunLog(["T", "v"], [np.array([0.0, np.nan, 1.0]), [1.0] * 3])

    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="length"):
            RunLog(["T", "v"], [[0.0, 0.5], [1.0]])
        with pytest.raises(ValueError, match="length"):
            RunLog(["T", "v"], [[0.0, 0.5]])

    def test_array_and_list_columns_write_the_same_bytes(self, tmp_path):
        # numpy 2 writes repr(np.float64(x)) as np.float64(x), so an array
        # column must reach the CSV as Python floats
        values = [-0.0, 5e-324, 1e300, 0.1, 1.0 / 3.0]
        blobs = []
        for sub, column in (("array", np.array(values)), ("list", values)):
            result = {"config": validate_config(base_config()),
                      "log": RunLog(["T", "v"], [np.arange(5.0), column]),
                      "monitors": {}, "summary": {}, "ok": True}
            blobs.append(open(emit_report(result, str(tmp_path / sub))["csv"],
                              "rb").read())
        assert blobs[0] == blobs[1]
        assert blobs[0].splitlines()[1:] == [
            f"{float(i)!r},{v!r}".encode() for i, v in enumerate(values)]


class TestScenarios:
    def test_background_check_passes(self):
        result = run_scenario(validate_config(base_config()))
        assert result["ok"]
        assert result["monitors"]["fixed_point"]["holds"]
        assert result["monitors"]["algebraic_lapse_exact"]["holds"]
        assert result["summary"]["worst_residual"] < 1e-12

    def test_halving_h_changes_homogeneous_log(self):
        logs = []
        for h, every in ((1e-3, 20), (5e-4, 40)):  # same log times
            cfg = validate_config(base_config(scenario="homogeneous",
                                              Tend=3.0, h=h, logEvery=every))
            logs.append(np.array(run_scenario(cfg)["log"].values).T)
        coarse, fine = logs
        assert coarse.shape == fine.shape
        assert np.array_equal(coarse[:, 0], fine[:, 0])
        assert not np.array_equal(coarse, fine)
        assert np.allclose(coarse, fine, rtol=1e-9, atol=0.0)

    def test_halving_h_changes_modes_log(self):
        logs = [run_scenario(validate_config(base_config(
            scenario="modes", h=h)))["log"].values for h in (0.01, 0.005)]
        assert logs[0] != logs[1]

    def test_unfittable_homogeneous_rates_are_null(self):
        for extra in ({"logEvery": 2500}, {"Tend": 60.0, "h": 0.01}):
            result = run_scenario(validate_config(
                base_config(scenario="homogeneous", **extra)))
            summary = result["summary"]
            assert summary["lapse_rate"] is None
            assert "lapse_rate" in summary["unfitted"]

    @pytest.mark.parametrize("scenario", ["homogeneous", "full_report"])
    def test_matter_free_drift_is_null_and_report_strict_json(
            self, scenario, tmp_path):
        def reject(name):
            raise ValueError(f"report.json carries the bare constant {name}")

        cfg = validate_config(base_config(scenario=scenario, matterAmp=0.0,
                                          Tend=4.0, h=0.005))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_scenario(cfg)
        summary = result["summary"]
        assert summary["rho_drift_per_efold"] is None
        assert "rho_drift_per_efold" in summary["unfitted"]
        paths = emit_report(result, str(tmp_path))
        report = json.loads(open(paths["json"]).read(),
                            parse_constant=reject)
        assert report["summary"]["rho_drift_per_efold"] is None
        if scenario == "full_report":
            assert not result["ok"]
            assert report["monitors"]["decay_rates"]["holds"] is False

    def test_unfittable_mode_energy_fails_rate_table(self, tmp_path):
        cfg = tmp_path / "modes.json"
        cfg.write_text(json.dumps({"Tend": 400.0, "h": 0.01}))
        out = tmp_path / "out"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 1
        table = json.load(open(out / "report.json"))["monitors"]["rate_table"]
        assert not table["holds"]
        unfitted = [m for m in table["modes"].values()
                    if m["fitted_rate"] is None]
        assert unfitted and all(not m["holds"] and m["unfitted"]
                                for m in unfitted)

    def test_characteristics_report_independent_of_chunks_and_threads(
            self, tmp_path, monkeypatch):
        cfg = validate_config({"scenario": "characteristics", "seed": 4,
                               "particleCount": 50, "Tend": 0.5, "h": 1e-2})
        blobs = []
        for sub, chunk, threads in (("default", transport._CHUNK, "1"),
                                    ("chunked", 7, "2")):
            monkeypatch.setattr(transport, "_CHUNK", chunk)
            monkeypatch.setenv("MILNE_LAB_THREADS", threads)
            paths = emit_report(run_scenario(cfg), str(tmp_path / sub))
            blobs.append((open(paths["csv"], "rb").read(),
                          open(paths["json"], "rb").read()))
        assert blobs[0] == blobs[1]

    def test_negative_perturbation_holds_support_envelope(self):
        result = run_scenario(validate_config(base_config(
            scenario="characteristics", perturbationEps=-0.5, Tend=0.5)))
        assert result["monitors"]["support_envelope"]["holds"]

    @pytest.mark.parametrize("extra", [
        {"scenario": "homogeneous", "Tend": 4.0, "h": 0.01},
        {"scenario": "full_report", "Tend": 4.0, "h": 0.01},
        {"scenario": "characteristics", "particleCount": 8, "Tend": 0.2,
         "h": 0.01}], ids=lambda extra: extra["scenario"])
    def test_log_columns_are_the_run_arrays(self, extra):
        # the log holds the run's float64 series, not a list per row
        assert not hasattr(homogeneous.HomogeneousRun, "rows")
        log = run_scenario(validate_config(base_config(**extra)))["log"]
        assert len(log.values[0]) > 1
        for name, column in zip(log.columns, log.values):
            assert isinstance(column, np.ndarray), name
            assert column.ndim == 1 and column.dtype == np.float64, name

    def test_modes_scenario_rate_table(self):
        result = run_scenario(validate_config(
            base_config(scenario="modes", Tend=8.0)))
        assert result["ok"]
        assert len(result["log"].values[0]) == 5


class TestGuardsSeeTheirRun:
    """The conditions that predict a run quantity derive it as the run
    does: a spy records what the guard and the run each pass on."""

    @pytest.mark.parametrize("extra, rows", [
        ({"Tend": 1.0}, 21),
        ({"T0": 0.5, "Tend": 1.3, "h": 0.004}, 18),
    ])
    def test_support_envelope_guard_sees_the_log_times(self, extra, rows,
                                                       monkeypatch):
        times = []
        check = transport.support_bound_check

        def spy(T, *args, **kwargs):
            times.append(np.array(T))
            return check(T, *args, **kwargs)

        monkeypatch.setattr(transport, "support_bound_check", spy)
        cfg = validate_config(base_config(scenario="characteristics",
                                          particleCount=8, **extra))
        assert len(times) == 1  # [gronwallC: support envelope finite]
        run_scenario(cfg)
        guard, run = times
        assert run.size == rows
        assert guard.dtype == run.dtype and guard.tobytes() == run.tobytes()

    @pytest.mark.parametrize("extra, steps", [
        ({}, 10000),
        ({"h": 0.003, "logEvery": 7}, 4780),
    ])
    def test_mode_step_guard_sees_the_mode_sector(self, extra, steps,
                                                  monkeypatch):
        taken = []
        integrate = modes.integrate_mode

        def spy(lam, u0, w0, span, n_steps, **kwargs):
            taken.append(n_steps)
            return integrate(lam, u0, w0, span, n_steps, **kwargs)

        monkeypatch.setattr(modes, "integrate_mode", spy)
        cfg = validate_config(base_config(scenario="full_report", **extra))
        assert harness._mode_steps(cfg)[1] == steps
        run_scenario(cfg)
        assert taken == [steps] * len(cfg.lambdaGrid)

    @pytest.mark.parametrize("extra, rows", [
        ({}, 301),
        ({"h": 0.003, "logEvery": 7}, 144),
    ])
    def test_fit_row_guard_sees_the_log_times(self, extra, rows,
                                              monkeypatch):
        times = []
        fit_window = harness._fit_window

        def spy(T):
            times.append(np.array(T))
            return fit_window(T)

        monkeypatch.setattr(harness, "_fit_window", spy)
        cfg = validate_config(base_config(scenario="full_report", **extra))
        assert len(times) == 1  # [8 log rows in the fit window]
        lo, hi = fit_window(times[0])
        assert np.count_nonzero((times[0] >= lo) & (times[0] <= hi)) == rows
        run_scenario(cfg)
        guard, *runs = times
        assert len(runs) == 2  # the matter fits and the mode metric fit
        for run in runs:
            assert guard.dtype == run.dtype
            assert guard.tobytes() == run.tobytes()


class TestReports:
    def test_emit_is_byte_stable(self, tmp_path):
        cfg = validate_config(base_config())
        blobs = []
        for sub in ("a", "b"):
            result = run_scenario(cfg)
            paths = emit_report(result, str(tmp_path / sub))
            blobs.append((open(paths["csv"], "rb").read(),
                          open(paths["json"], "rb").read()))
        assert blobs[0] == blobs[1]

    def test_empty_log_writes_header_only(self, tmp_path):
        result = {"config": validate_config(base_config()),
                  "log": RunLog(columns=["T", "v"]),
                  "monitors": {}, "summary": {}, "ok": True}
        paths = emit_report(result, str(tmp_path))
        assert open(paths["csv"]).read() == "T,v\n"

    def test_report_self_validates(self, tmp_path):
        result = run_scenario(validate_config(base_config()))
        paths = emit_report(result, str(tmp_path))
        report = json.load(open(paths["json"]))
        validate_report(report)
        assert "out" not in report["config"]

    def test_validate_report_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            validate_report({"schemaVersion": 1})


class TestCli:
    def test_pass_exit_code(self, capsys):
        assert main(["background-check", "--seed", "1"]) == 0
        assert "monitor fixed_point: ok" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(base_config(deltaE=0.6)))
        assert main(["background-check", "--config", str(cfg)]) == 2
        assert "deltaE" in capsys.readouterr().err

    def test_scenario_subcommand_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "mismatch.json"
        cfg.write_text(json.dumps(base_config(scenario="modes")))
        assert main(["background-check", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("content, name", [
        (None, "[config-file]"),
        ("{not json", "[json]"),
        ("[1]", "[json]"),
    ], ids=["missing", "malformed", "not-an-object"])
    def test_unreadable_config_file_exits_2(self, content, name, tmp_path,
                                            capsys):
        cfg = tmp_path / "config.json"
        if content is not None:
            cfg.write_text(content)
        assert main(["modes", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    @pytest.mark.parametrize("extra", [{"logEvery": 5000}, {"h": 0.5}],
                             ids=["logEvery", "h"])
    def test_report_too_short_to_fit_exits_2(self, extra, tmp_path, capsys,
                                             monkeypatch):
        # two log rows, one of them in the fit window: a run that could
        # only fail decay_rates (exit 1) is rejected before it starts
        cfg = tmp_path / "report.json"
        cfg.write_text(json.dumps(extra))
        ran = []
        monkeypatch.setattr(harness, "run_scenario", ran.append)
        assert main(["report", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "[8 log rows in the fit window]" in err
        assert "Traceback" not in err and not ran

    def test_out_writes_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["background-check", "--seed", "3",
                     "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "background_check_log.csv").exists()

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_that_cannot_be_created_exits_2(self, out, tmp_path,
                                                capsys, monkeypatch):
        (tmp_path / "file").write_text("not a directory")
        ran = []
        monkeypatch.setattr(harness, "run_scenario", ran.append)
        assert main(["background-check", "--out",
                     str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert "[out]" in err and "Traceback" not in err
        assert not ran  # rejected before the run

    def test_bad_thread_env_rejected(self, monkeypatch):
        monkeypatch.setenv("MILNE_LAB_THREADS", "many")
        with pytest.raises(ConfigError, match="MILNE_LAB_THREADS"):
            run_scenario(validate_config(
                base_config(scenario="characteristics", Tend=0.01, h=1e-3,
                            particleCount=4)))

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_thread_env_exits_2_without_traceback(self, value, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setenv("MILNE_LAB_THREADS", value)
        cfg = tmp_path / "chars.json"
        cfg.write_text(json.dumps({"Tend": 0.01, "h": 1e-3,
                                   "particleCount": 4}))
        assert main(["characteristics", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "[MILNE_LAB_THREADS]" in err and repr(value) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["homogeneous", "report"])
    def test_homogeneous_start_other_than_zero_exits_2(self, command,
                                                       tmp_path, capsys):
        # these runs start at T = 0, so T0 = 1 must not run as T0 = 0
        cfg = tmp_path / "late_start.json"
        cfg.write_text(json.dumps({"T0": 1, "Tend": 6}))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "[T0 = 0]" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, extra", [
        ("characteristics", {"tau0": -1e160}),
        ("background-check", {"tau0": -1e160}),
        ("homogeneous", {"tau0": -1e110, "matterAmp": 0}),
        ("report", {"tau0": -1e110, "matterAmp": 0}),
        ("report", {"tau0": -1e300, "matterAmp": 0}),
    ])
    def test_huge_tau0_exits_2(self, command, extra, tmp_path, capsys):
        # tau^2 and s^3 overflow past the bound; at it the config is valid
        cfg = tmp_path / "huge_tau0.json"
        cfg.write_text(json.dumps(extra))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "[|tau0| <= 1e100]" in err and "Traceback" not in err
        validate_config({**extra, "tau0": -1e100, "seed": 0,
                         "scenario": harness._CLI_SCENARIOS[command]})

    @pytest.mark.parametrize("command, bad, name, good", [
        # matterQmax^2 overflows; the profile's rho0 does, and is named
        ("homogeneous", {"matterQmax": 1e160}, "|tau0| rho0 < 1/6", None),
        ("report", {"matterQmax": 1e160}, "|tau0| rho0 < 1/6", None),
        # lam^6 of the order-6 mode energy overflows
        ("report", {"lambdaGrid": [1e52]}, "modeAmp: mode energies finite",
         {"lambdaGrid": [1e5]}),
        # RK4 leaves its stability region at the mode step, and the mode
        # energies overflow during the run
        ("modes", {"lambdaGrid": [1e30], "h": 0.01, "Tend": 5},
         "lambdaGrid: RK4 stable at h",
         {"lambdaGrid": [1e3], "h": 0.01, "Tend": 5}),
        ("report", {"lambdaGrid": [1e51]}, "lambdaGrid: RK4 stable at h",
         {"lambdaGrid": [1e5]}),
        # 9 (1/9 - epsPrime) rounds to 1, which is not coercive at 1/9
        ("modes", {"epsPrime": 5e-18}, "epsPrime", {"epsPrime": 1e-16}),
        ("report", {"epsPrime": 5e-18}, "epsPrime", {"epsPrime": 1e-16}),
        # the envelope's exp, or its source times the exp, overflows; at
        # 1e300 the margin was Infinity in report.json, which is not JSON
        ("characteristics", {"gronwallC": 1.2e5},
         "gronwallC: support envelope finite", {"gronwallC": 1e4}),
        ("characteristics", {"tau0": -1e-150, "gronwallC": 1e5},
         "gronwallC: support envelope finite",
         {"tau0": -1e-150, "gronwallC": 1e3}),
        ("characteristics", {"gronwallC": 1e300},
         "gronwallC: support envelope finite", None),
        # tau^2 leaves the normal range: invalid divides, and an overflow
        # in the flow
        ("background-check", {"tau0": -1e-170}, "|tau0| e^-Tend normal",
         {"tau0": -1e-150}),
        ("homogeneous", {"tau0": -1e-170}, "|tau0| e^-Tend normal",
         {"tau0": -1e-150}),
        ("characteristics", {"tau0": -1e-170}, "|tau0| e^-Tend normal",
         {"tau0": -1e-150}),
        ("characteristics", {"tau0": -1e-160, "Tend": 0.3},
         "|tau0| e^-Tend normal", {"tau0": -1e-150, "Tend": 0.3}),
    ], ids=["homogeneous-matterQmax", "report-matterQmax", "report-lambdaGrid",
            "modes-lambdaGrid-rk4", "report-lambdaGrid-rk4", "modes-epsPrime",
            "report-epsPrime", "characteristics-gronwallC",
            "characteristics-tiny-tau0-gronwallC",
            "characteristics-huge-gronwallC", "background-check-tiny-tau0",
            "homogeneous-tiny-tau0", "characteristics-tiny-tau0",
            "characteristics-tiny-tau0-short"])
    def test_extreme_values_exit_2(self, command, bad, name, good, tmp_path,
                                   capsys):
        cfg = tmp_path / "extreme.json"
        cfg.write_text(json.dumps(bad))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"[{name}]" in err and "Traceback" not in err
        if good is not None:
            validate_config({**good, "seed": 0,
                             "scenario": harness._CLI_SCENARIOS[command]})

    @pytest.mark.parametrize("value", [0, -1])
    def test_nonpositive_gronwall_constant_exits_2(self, value, tmp_path,
                                                   capsys):
        # the envelope of C <= 0 never rises above calG(T0), so a run
        # would fail support_envelope and exit 1
        cfg = tmp_path / "gronwall.json"
        small = {"particleCount": 4, "Tend": 0.3}
        cfg.write_text(json.dumps({**small, "gronwallC": value}))
        assert main(["characteristics", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "[gronwallC > 0]" in err and "Traceback" not in err
        cfg.write_text(json.dumps(small))  # the default 10.0
        assert main(["characteristics", "--config", str(cfg)]) == 0

    # defaults inside the envelope and tiny-tau0 bounds run with no numpy
    # warning and write a report that is JSON (no Infinity, no NaN)
    @pytest.mark.parametrize("command, extra", [
        ("background-check", {"tau0": -1e-150}),
        ("homogeneous", {"tau0": -1e-150}),
        ("characteristics", {"tau0": -1e-150}),
        ("characteristics", {"gronwallC": 1e4}),
    ])
    def test_configs_inside_the_bounds_run_clean(self, command, extra,
                                                 tmp_path):
        cfg = tmp_path / "inside.json"
        cfg.write_text(json.dumps(extra))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
        json.loads((tmp_path / "out" / "report.json").read_text(),
                   parse_constant=pytest.fail)

    def test_lapse_deviation_rounded_to_zero_fails_report(self, tmp_path):
        # at tau0 -1e-12, 1 + 3 s eta rounds to 1 in the fit window, so
        # N - 3 is exactly 0 there: the lapse rate is null with its reason
        # and decay_rates fails, with no numpy warning; -1e-8 passes
        cfg = tmp_path / "tiny_tau0.json"
        out = tmp_path / "out"
        for tau0, code in ((-1e-8, 0), (-1e-12, 1)):
            cfg.write_text(json.dumps({"tau0": tau0}))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["report", "--config", str(cfg),
                             "--out", str(out)]) == code
        rates = json.loads((out / "report.json").read_text())["monitors"][
            "decay_rates"]
        assert rates["holds"] is False and rates["lapse_rate"] is None
        assert rates["unfitted"] == {
            "lapse_rate": "decay fit requires strictly positive values"}

    def test_large_thread_budget_accepted(self, monkeypatch):
        # validated only: a run never starts more workers than chunks
        monkeypatch.setenv("MILNE_LAB_THREADS", "1000000")
        assert harness._thread_budget() == 1000000

    def test_strict_floor_turns_thin_margins_into_failure(self, tmp_path):
        # an absurd strict floor must flip an otherwise passing run
        cfg = tmp_path / "strict.json"
        cfg.write_text(json.dumps(base_config(strictMarginFloor=1e6)))
        assert main(["background-check", "--config", str(cfg),
                     "--strict"]) == 1
        assert main(["background-check", "--config", str(cfg)]) == 0

    def test_strict_support_envelope_margin_is_taken_past_T0(self, tmp_path,
                                                              capsys):
        # the envelope equals calG at T0, where a margin reads 0 and failed
        # every positive floor while both monitors held
        cfg = tmp_path / "strict.json"
        cfg.write_text(json.dumps({"Tend": 0.2, "strictMarginFloor": 1e-9}))
        assert main(["characteristics", "--config", str(cfg),
                     "--strict"]) == 0
        out = capsys.readouterr().out
        assert "monitor support_envelope: ok" in out and "PASS" in out

    def test_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(milne_lab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, milne_lab; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_default_runs_load_no_scipy_interpolate(self):
        # importing scipy.linalg adds about 25 MB of RSS to a run, and
        # scipy.interpolate with the subpackages it imports about 50 MB: no
        # default scenario loads any scipy module.  Two fresh processes,
        # run at once, each run their scenarios in turn and list the scipy
        # modules loaded after each
        src = os.path.dirname(os.path.dirname(milne_lab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        env.pop("MILNE_LAB_THREADS", None)
        run = ("import json, sys\n"
               "from milne_lab import harness\n"
               "for scenario in sys.argv[1:]:\n"
               "    harness.run_scenario(harness.validate_config(\n"
               "        {'scenario': scenario, 'seed': 0}))\n"
               "    print(json.dumps(sorted(m for m in sys.modules\n"
               "                            if m.split('.')[0] == 'scipy')))")
        with_splines = ("homogeneous", "full_report")
        groups = [[s for s in harness.SCENARIOS if s not in with_splines],
                  list(with_splines)]
        procs = [subprocess.Popen(
            [sys.executable, "-c", run, *group], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env) for group in groups]
        outputs = [proc.communicate(timeout=120) for proc in procs]
        for group, proc, (out, err) in zip(groups, procs, outputs):
            assert proc.returncode == 0, err
            for scenario, line in zip(group, out.splitlines(), strict=True):
                assert json.loads(line) == [], scenario

    def test_package_runs_as_module(self):
        src = os.path.dirname(os.path.dirname(milne_lab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "milne_lab", "background-check",
             "--seed", "0"], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "scenario background_check: PASS" in proc.stdout
        assert "Warning" not in proc.stderr


# small configs of every scenario, valid or not: a run takes at most
# about 0.1 s, and the whole property about 5 s.  Tend, h and radialNodes
# are always set, since their defaults make runs of a second.
_SMALL_CAPS = {
    "h": st.sampled_from([0.01, 0.025, 0.05, 0.0]),
    "radialNodes": st.integers(min_value=1, max_value=40),
}
_SMALL_FIELDS = {
    "tau0": st.sampled_from([-1.0, -0.5, 0.0]),
    "T0": st.sampled_from([0.0, 0.5, -0.1]),
    "lambdaGrid": st.lists(st.sampled_from([0.05, 1.0 / 9.0, 1.0, 2.0]),
                           max_size=2),
    "quadNodes": st.sampled_from([8, 12, 16, 48]),
    "particleCount": st.integers(min_value=0, max_value=16),
    "perturbationEps": st.sampled_from([0.0, 1e-3, 0.5, 4.0]),
    "matterAmp": st.sampled_from([0.0, 2e-4, 2e-2, -1.0]),
    "matterQmax": st.sampled_from([0.5, 2.0, 0.0]),
    "logEvery": st.integers(min_value=0, max_value=10),
    "deltaE": st.sampled_from([0.05, 0.6]),
    "strictMarginFloor": st.sampled_from([0.0, 1e-9, 1e6]),
}
_SMALL_TEND = {"background-check": [5.0], "modes": [0.5, 1.0],
               "homogeneous": [1.0, 3.0, 3.5],
               "characteristics": [0.05, 0.06, 0.52],
               "report": [3.0, 3.5]}


@st.composite
def _small_cli_runs(draw):
    command = draw(st.sampled_from(sorted(_SMALL_TEND)))
    cfg = draw(st.fixed_dictionaries(
        {"Tend": st.sampled_from(_SMALL_TEND[command]), **_SMALL_CAPS},
        optional=_SMALL_FIELDS))
    flags = draw(st.lists(st.sampled_from(["--strict", "--out"]),
                          unique=True))
    return command, cfg, flags


@settings(max_examples=40, deadline=None)
@given(_small_cli_runs())
def test_cli_small_runs_exit_cleanly(run):
    command, cfg, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv = [command, "--config", path]
        if "--strict" in flags:
            argv.append("--strict")
        if "--out" in flags:
            argv += ["--out", os.path.join(tmp, "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
