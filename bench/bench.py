"""Particle scaling of transport and the cost of the full_report layers.

Times ``transport.integrate_characteristics`` (derived mode, manufactured
lapse with eps = 1e-3, h = 1e-3, tau0 = -1) at 10^3, 10^4 and 10^5
particles on one and two threads, and writes a JSON table of ns per
particle-step with the largest mass-shell residual of each run next to
it, so a speedup that costs accuracy shows in the same row.  The
``report`` section times ``full_report`` at its defaults, the
homogeneous closure per call, the homogeneous log point and one mode
step, next to the run's constraint and continuity defects.  Standard
library plus numpy; about 45 s on a 2-vCPU VM::

    python bench/bench.py --out BENCH_<n>.json
    python bench/bench.py --src OTHER_CHECKOUT/src --out before.json

``--src`` times another source tree with the same script (side-by-side
comparisons); ``--out`` is relative to the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (particles, steps): about 10^6-10^7 particle-steps per run
SIZES = ((1_000, 1_000), (10_000, 200), (100_000, 50))
THREADS = (1, 2)
REPEATS = 3
H = 1e-3
EPS = 1e-3
MODE_SPAN, MODE_STEPS = (0.0, 10.0), 10_000


def source_lines(src: Path) -> int:
    """Non-blank, non-comment lines of the package modules."""
    total = 0
    for path in sorted((src / "milne_lab").glob("*.py")):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                total += 1
    return total


def git_sha(src: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run_once(transport, frame0, n: int, steps: int, threads: int) -> tuple:
    """Wall time and largest |mass-shell residual| at the logged times."""
    import numpy as np

    rng = np.random.default_rng(0)
    ens = transport.ParticleEnsemble(
        x=rng.uniform(-1.2, 1.2, size=(n, 3)),
        p=rng.normal(scale=0.7, size=(n, 3)),
        weights=np.full(n, 1.0 / n))
    provider = transport.manufactured_lapse_fields(EPS)
    t0 = time.perf_counter()
    log, _ = transport.integrate_characteristics(
        ens, provider, frame0, frame0.T + steps * H, H, mode="derived",
        log_every=max(1, steps // 10), threads=threads)
    wall = time.perf_counter() - t0
    return wall, float(np.max(np.abs(log.massshell_residual)))


def wall_of(fn) -> float:
    """Wall time of one call of ``fn``."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def closure_cost(harness, homogeneous, cfg) -> float:
    """Seconds per ``scaling_closure_moments`` call over one homogeneous
    run, timed inside the call (whatever its signature)."""
    closure = homogeneous.scaling_closure_moments
    spent, calls = [0.0], [0]

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return closure(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0
            calls[0] += 1

    homogeneous.scaling_closure_moments = timed
    try:
        harness.run_scenario(cfg)
    finally:
        homogeneous.scaling_closure_moments = closure
    return spent[0] / calls[0]


def report_section() -> dict:
    """Wall time of ``full_report`` and the cost of its three layers."""
    from milne_lab import harness, homogeneous, modes

    cfg = harness.validate_config({"scenario": "full_report", "seed": 0})
    result = harness.run_scenario(cfg)  # also pays the first-call costs
    report_walls = [wall_of(lambda: harness.run_scenario(cfg))
                    for _ in range(REPEATS)]

    hom_cfg = harness.validate_config({"scenario": "homogeneous", "seed": 0})
    closure_s = statistics.median(closure_cost(harness, homogeneous, hom_cfg)
                                  for _ in range(REPEATS))

    # a log point: the run logging every logEvery steps against the same
    # run logging only its two ends
    n_steps = harness._homogeneous_steps(cfg)
    args = (harness._matter_profile(cfg), cfg.tau0, cfg.Tend - cfg.T0,
            n_steps)
    kwargs = {"n_q": cfg.radialNodes, "n_nodes": cfg.quadNodes}
    walls = {cfg.logEvery: [], n_steps: []}
    for _ in range(REPEATS):  # interleaved, so drift hits both alike
        for every in walls:
            walls[every].append(wall_of(
                lambda: homogeneous.evolve_homogeneous(
                    *args, log_every=every, **kwargs)))
    extra_points = n_steps // cfg.logEvery + 1 - 2
    log_point_s = (statistics.median(walls[cfg.logEvery])
                   - statistics.median(walls[n_steps])) / extra_points

    lambdas = cfg.lambdaGrid
    mode_s = statistics.median(
        wall_of(lambda: [modes.integrate_mode(lam, 1.0, -1.0, MODE_SPAN,
                                              MODE_STEPS) for lam in lambdas])
        for _ in range(REPEATS))
    section = {
        "config": "full_report defaults, seed 0",
        "repeats": REPEATS,
        "statistic": "median wall time over the repeats",
        "full_report_wall_s": round(statistics.median(report_walls), 4),
        "full_report_walls_s": [round(w, 4) for w in report_walls],
        "closure_us_per_call": round(1e6 * closure_s, 2),
        "log_point_ms": round(1e3 * log_point_s, 3),
        "log_point_method": f"(wall at logEvery {cfg.logEvery} - wall at "
                            f"2 log points) / {extra_points}, "
                            f"{n_steps} steps each",
        "mode_ns_per_step": round(1e9 * mode_s
                                  / (len(lambdas) * MODE_STEPS), 1),
        "mode_steps": f"{len(lambdas)} lambdas x {MODE_STEPS} steps",
        "constraint_defect": result["summary"]["constraint_defect"],
        "continuity_defect": result["summary"]["continuity_defect"],
    }
    print(f"full_report {section['full_report_wall_s']:.3f} s, closure "
          f"{section['closure_us_per_call']:.2f} us/call, log point "
          f"{section['log_point_ms']:.3f} ms, mode step "
          f"{section['mode_ns_per_step']:.0f} ns")
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import milne_lab from")
    parser.add_argument("--out", default="BENCH.json",
                        help="output JSON, relative to the repository root")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    from milne_lab import transport
    from milne_lab.geometry import make_time_frame

    frame0 = make_time_frame(-1.0, 0.0)
    run_once(transport, frame0, 1_000, 10, 1)  # first-call costs
    rows = []
    for n, steps in SIZES:
        walls = {threads: [] for threads in THREADS}
        residual = {}
        for _ in range(REPEATS):  # interleaved, so drift hits both alike
            for threads in THREADS:
                wall, residual[threads] = run_once(transport, frame0, n,
                                                   steps, threads)
                walls[threads].append(wall)
        for threads in THREADS:
            median = statistics.median(walls[threads])
            rows.append({
                "particles": n, "steps": steps, "threads": threads,
                "ns_per_particle_step": round(1e9 * median / (n * steps), 1),
                "wall_s": [round(w, 4) for w in walls[threads]],
                "massshell_residual_max": residual[threads],
            })
            print(f"{n:>7} particles x {steps:>4} steps, {threads} thread(s): "
                  f"{rows[-1]['ns_per_particle_step']:7.1f} ns/particle-step, "
                  f"residual {residual[threads]:.2e}")
    doc = {
        "git_sha": git_sha(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "source_lines": source_lines(src),
        "transport_scaling": {
            "provider": f"manufactured_lapse_fields({EPS})",
            "mode": "derived", "h": H, "repeats": REPEATS,
            "statistic": "median wall time over the repeats",
            "rows": rows,
        },
        "report": report_section(),
    }
    out = ROOT / args.out
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
