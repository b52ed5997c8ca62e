#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py [WORKLOAD ...]

It checks that

1. ``metrics.py`` and ``BENCHMARK.json`` name the same metrics with the
   same units and the same workloads;
2. ``run.py`` prints every metric of its table, with its unit, for each
   given workload (default: ``report``) with tracing off and on, and
   every run passes the gate;
3. the gate rejects tampered outputs without raising;
4. the tracer binds its wrappers at every module attribute naming a
   function, keeps ``norm_envelopes`` on a wrapped provider, and restores
   the originals afterwards.

Exit status 1 lists the failed checks.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS, config_for  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def check_declared() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == table,
               f"BENCHMARK.json {key} matches metrics.py")
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


def check_printed(workload: str) -> None:
    for trace, table in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        what = f"{workload} --trace {trace}"
        expect(proc.returncode == 0, f"{what} exits 0")
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            expect(False, f"{what} ends with a JSON line")
            continue
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(printed == table, f"{what} prints every metric with its unit")
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] >= 1, f"{what} passes the gate")


def check_gate() -> None:
    import milne_lab

    out = ROOT / ".perfbench_out" / "selftest"
    try:
        cfg = milne_lab.validate_config(config_for("report", 0))
        result = milne_lab.run_scenario(cfg)
        good = gate.read_outputs(milne_lab.emit_report(result, str(out)))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    csv, report = good
    expect(gate.check(True, good, good) == [], "gate passes a genuine report")
    flipped = report.replace(b'"ok": true', b'"ok": false', 1)
    expect(flipped != report and gate.check(True, (csv, flipped)) != [],
           "gate rejects report.json with ok=false")
    expect(gate.check(True, (csv[:-2] + b"7\n", report), good) != [],
           "gate rejects a CSV that differs from the reference")
    expect(gate.check(False, good) != [], "gate rejects a run with ok=false")
    expect(gate.check(True, (csv, b"{not json")) != [],
           "gate rejects an unreadable report without raising")

    doc = json.loads(report)
    doc["scenario"] = "characteristics"
    for summary, passes in (({"max_residual": 2e-13, "flagged": 0}, True),
                            ({"max_residual": 1e-6, "flagged": 0}, False),
                            ({"max_residual": 2e-13, "flagged": 3}, False)):
        doc["summary"] = summary
        verdict = gate.check(True, (csv, json.dumps(doc).encode())) == []
        expect(verdict == passes,
               f"gate {'passes' if passes else 'rejects'} a characteristics "
               f"report with {summary}")


def check_tracer() -> None:
    import numpy as np

    import milne_lab
    import tracer as tr

    t = tr.Tracer()
    with tr.tracing(t, milne_lab) as bindings:
        bound = {(mod.__name__.rsplit(".", 1)[-1], attr)
                 for mod, attr, _ in bindings}
        for site in (("harness", "compute_p0"), ("massshell", "compute_p0"),
                     ("homogeneous", "sasaki_energy"),
                     ("transport", "make_time_frame"),
                     ("milne_lab", "run_scenario")):
            expect(site in bound, f"wrapper bound at {'.'.join(site)}")
        provider = milne_lab.transport.manufactured_lapse_fields(1e-3)
        expect(sorted(getattr(provider, "norm_envelopes", {})) ==
               ["GammaStar", "GammaStarStar", "Nm3", "Sigma", "X", "dTX"],
               "wrapped provider keeps norm_envelopes")
        provider(0.0, np.zeros((4, 3)))
    names = [s[1] for s in t.spans]
    expect(names == ["transport.manufactured_lapse_fields",
                     "transport.provider"],
           "factory and provider calls each record a span")
    expect(all(getattr(mod, attr) is value for mod, attr, value in bindings),
           "originals restored after tracing")


def main(argv) -> int:
    check_declared()
    check_gate()
    check_tracer()
    for workload in argv or ["report"]:
        check_printed(workload)
    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
