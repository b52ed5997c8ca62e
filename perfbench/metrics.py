"""Metric tables of the benchmark: name -> unit.

``BENCHMARK.json`` at the repository root lists the same names and
units; ``selftest.py`` checks that the two agree and that a run prints
every one of them.
"""

from __future__ import annotations

# reported with --trace 0, tracing off
END_TO_END = {
    "setup_s": "s",             # fresh process: import milne_lab .. validate_config
    "wall_s": "s",              # mean warm run_scenario + emit_report
    "peak_rss_mb": "MB",        # ru_maxrss of the process that ran the workload
    "residual_digits": "digits",  # -log10 of the worst certified residual
    "pass_rate": "ratio",       # runs passing the gate / runs attempted
}

# reported with --trace 1, from the traced runs
PER_LAYER = {
    "transport.provider.calls": "count",
    "transport.provider.s": "s",
    "transport.provider.bytes_out": "B",
    "transport.rhs.calls": "count",
    "transport.rhs.s": "s",
    "transport.rhs.bytes_out": "B",
    "transport.integrate.s": "s",
    "transport.self.s": "s",
    "transport.wait_s": "s",
    "transport.thread_speedup": "x",
    "transport.ns_per_particle_step": "ns",
    "transport.log.bytes": "B",
    "transport.flagged": "count",
    "transport.massshell_residual_max": "1",
    "transport.rk4_order": "1",
    "geometry.calls": "count",
    "geometry.s": "s",
    "massshell.calls": "count",
    "massshell.s": "s",
    "matter.calls": "count",
    "matter.s": "s",
    "homogeneous.closure.calls": "count",
    "homogeneous.closure.s": "s",
    "homogeneous.evolve.s": "s",
    "homogeneous.self.s": "s",
    "homogeneous.steps": "count",
    "homogeneous.log_points": "count",
    "homogeneous.constraint_defect": "1",
    "energies.sasaki_energy.calls": "count",
    "energies.sasaki_energy.s": "s",
    "quadrature.calls": "count",
    "energies.monitors.s": "s",
    "energies.decay_fit.s": "s",
    "modes.integrate_mode.calls": "count",
    "modes.integrate_mode.s": "s",
    "modes.ns_per_mode_step": "ns",
    "harness.run_scenario.s": "s",
    "harness.self.s": "s",
    "harness.emit_report.s": "s",
    "harness.emit_report.bytes": "B",
    "harness.first_call_extra_s": "s",
    "trace.overhead": "ratio",
}


def as_metrics(table: dict, values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every name of ``table``.

    Raises ``KeyError`` when a metric of the table has no value, so a
    run never prints a partial set.
    """
    missing = sorted(set(table) - set(values))
    if missing:
        raise KeyError(f"no value for metrics {missing}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in table.items()}
