"""Per-layer metrics from the spans of one traced scenario run.

Definitions (``wall`` = end - start of a span):

* ``<x>.calls`` counts spans, ``<x>.s`` sums their wall time over every
  thread (busy time); a module total (``geometry.s``) counts only spans
  whose parent lies outside the module, so nested calls are not counted
  twice.
* Self time is a span's wall time minus the wall time of its child spans
  on the same thread.
* ``transport.integrate.s`` is the wall time of the outermost
  ``integrate_characteristics`` call; with a thread budget above one it
  fans out into one stepping call per chunk.  ``transport.self.s``
  (RK4 update, logging, parking) and ``transport.wait_s`` (wall minus
  thread CPU time: lock and scheduler waits) sum over the stepping calls.
"""

from __future__ import annotations

from collections import defaultdict

INTEGRATE = "transport.integrate_characteristics"

# span-name prefixes a scenario must never reach (the layer split)
FORBIDDEN = {
    "characteristics": ("homogeneous.", "modes.", "energies.sasaki_energy"),
    "full_report": ("transport.",),
}


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def split_violations(scenario: str, spans: list) -> list:
    """Names of traced functions ``scenario`` reached but must not."""
    forbidden = FORBIDDEN.get(scenario, ())
    return sorted({s[1] for s in spans if s[1].startswith(forbidden)})


def span_metrics(spans: list) -> dict:
    """Per-layer metric values computed from the spans of one run."""
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    covered = defaultdict(float)
    parents_of_integrate = set()
    for s in spans:
        sid, name, parent, thread, _run, t0, t1, _cpu, _extra = s
        by_name[name].append(s)
        p = by_id.get(parent)
        if p is not None and p[3] == thread:
            covered[parent] += t1 - t0
        if name == INTEGRATE and p is not None and p[1] == INTEGRATE:
            parents_of_integrate.add(parent)

    def wall(s):
        return s[6] - s[5]

    def self_time(s):
        return wall(s) - covered[s[0]]

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(wall(s) for s in by_name[name])

    def extra_sum(name, key):
        return sum((s[8] or {}).get(key, 0) for s in by_name[name])

    def module_calls(mod):
        return sum(1 for s in spans if _module(s[1]) == mod)

    def module_busy(mod):
        total = 0.0
        for s in spans:
            if _module(s[1]) != mod:
                continue
            p = by_id.get(s[2])
            if p is None or _module(p[1]) != mod:
                total += wall(s)
        return total

    integrate = by_name[INTEGRATE]
    top = [s for s in integrate
           if by_id.get(s[2]) is None or by_id[s[2]][1] != INTEGRATE]
    stepping = [s for s in integrate if s[0] not in parents_of_integrate]
    integrate_s = sum(wall(s) for s in top)
    particle_steps = sum(s[8]["particles"] * s[8]["steps"] for s in top
                         if s[8])
    mode_s = busy("modes.integrate_mode")
    mode_steps = extra_sum("modes.integrate_mode", "steps")

    return {
        "transport.provider.calls": calls("transport.provider"),
        "transport.provider.s": busy("transport.provider"),
        "transport.provider.bytes_out": extra_sum("transport.provider",
                                                  "bytes"),
        "transport.rhs.calls": calls("transport.characteristic_rhs"),
        "transport.rhs.s": busy("transport.characteristic_rhs"),
        "transport.rhs.bytes_out": extra_sum("transport.characteristic_rhs",
                                             "bytes"),
        "transport.integrate.s": integrate_s,
        "transport.self.s": sum(self_time(s) for s in stepping),
        "transport.wait_s": sum(wall(s) - s[7] for s in stepping),
        "transport.ns_per_particle_step":
            1e9 * integrate_s / particle_steps if particle_steps else 0.0,
        "transport.log.bytes": sum(s[8]["log_bytes"] for s in top if s[8]),
        "geometry.calls": module_calls("geometry"),
        "geometry.s": module_busy("geometry"),
        "massshell.calls": module_calls("massshell"),
        "massshell.s": module_busy("massshell"),
        "matter.calls": module_calls("matter"),
        "matter.s": module_busy("matter"),
        "homogeneous.closure.calls":
            calls("homogeneous.scaling_closure_moments"),
        "homogeneous.closure.s": busy("homogeneous.scaling_closure_moments"),
        "homogeneous.evolve.s": busy("homogeneous.evolve_homogeneous"),
        "homogeneous.self.s":
            sum(self_time(s) for s in by_name["homogeneous.evolve_homogeneous"]),
        "homogeneous.steps": extra_sum("homogeneous.evolve_homogeneous",
                                       "steps"),
        "homogeneous.log_points": extra_sum("homogeneous.evolve_homogeneous",
                                            "log_points"),
        "energies.sasaki_energy.calls": calls("energies.sasaki_energy"),
        "energies.sasaki_energy.s": busy("energies.sasaki_energy"),
        "quadrature.calls": calls("_quadrature.composite_gauss_legendre"),
        "energies.monitors.s": busy("energies.monitors"),
        "energies.decay_fit.s": busy("energies.decay_fit"),
        "modes.integrate_mode.calls": calls("modes.integrate_mode"),
        "modes.integrate_mode.s": mode_s,
        "modes.ns_per_mode_step": 1e9 * mode_s / mode_steps if mode_steps
        else 0.0,
        "harness.run_scenario.s": busy("harness.run_scenario"),
        "harness.self.s": sum(self_time(s) for s in spans
                              if _module(s[1]) == "harness"),
        "harness.emit_report.s": busy("harness.emit_report"),
        "harness.emit_report.bytes": extra_sum("harness.emit_report", "bytes"),
    }
