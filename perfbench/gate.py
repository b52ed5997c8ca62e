"""Correctness gate applied to every benchmark run, outside the timed region.

A run passes when

* the scenario result and the written ``report.json`` both say ``ok``;
* for a characteristics scenario, the maximum mass-shell residual is
  below 1e-8 and no particle was flagged;
* ``report.json`` and the CSV log are byte-identical to the first
  output of the same seed (``reference``).

:func:`check` returns the list of violated conditions; it never raises,
so a malformed report counts as a failed run instead of stopping the
benchmark.
"""

from __future__ import annotations

import json
import math

MASSSHELL_GATE = 1e-8


def read_outputs(paths: dict) -> tuple:
    """``(csv bytes, json bytes)`` of the files ``emit_report`` wrote."""
    with open(paths["csv"], "rb") as fh:
        csv = fh.read()
    with open(paths["json"], "rb") as fh:
        report = fh.read()
    return csv, report


def certified_residual(report: dict) -> float:
    """Worst accuracy residual a report certifies."""
    summary = report["summary"]
    if report["scenario"] == "characteristics":
        return float(summary["max_residual"])
    return max(float(summary["constraint_defect"]),
               float(summary["continuity_defect"]))


def check(result_ok, outputs: tuple, reference=None) -> list:
    """Violated conditions of one run (empty when it passes)."""
    failures = []
    try:
        if not result_ok:
            failures.append(f"run_scenario ok={result_ok!r}")
        report = json.loads(outputs[1])
        if report.get("ok") is not True:
            failures.append(f"report.json ok={report.get('ok')!r}")
        if report["scenario"] == "characteristics":
            residual = float(report["summary"]["max_residual"])
            if not residual < MASSSHELL_GATE:
                failures.append(f"mass-shell residual {residual!r} >= "
                                f"{MASSSHELL_GATE}")
            flagged = report["summary"]["flagged"]
            if flagged != 0:
                failures.append(f"{flagged} flagged particles")
        if not math.isfinite(certified_residual(report)):
            failures.append("certified residual is not finite")
        if reference is not None and tuple(outputs) != tuple(reference):
            failures.append("output differs from the reference bytes")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        failures.append(f"unreadable report: {exc!r}")
    return failures
