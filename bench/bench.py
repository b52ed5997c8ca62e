"""Particle scaling of transport and the cost of the full_report layers.

The ``transport_scaling`` section times
``transport.integrate_characteristics`` (derived mode, manufactured
lapse with eps = 1e-3, h = 1e-3, tau0 = -1) at 10^3, 10^4 and 10^5
particles on a budget of one and two workers (``threads``), and writes a
JSON table of ns per particle-step, raw (median of ``WALL_REPEATS``
runs) and scaled to one machine speed by the ``wide`` probe (see below),
with the largest mass-shell residual of each run next to it, so a
speedup that costs accuracy shows in the same row.  Its
``fixed_us_per_step`` entry is the cost of a step that does not grow
with the particles: a 1-particle run at 2500 and at 5000 steps, the
difference of their times over 2500, median of ``WALL_REPEATS``
back-to-back pairs, and their mean scaled by the ``solver`` probe.  Each
row also gives the peak RSS of one more such run in a fresh process, of
the process itself and of its largest forked worker, so memory that
moves into workers shows in the same row.  Its ``row_alignment`` entry
compares the CPU time of one chunk of ``transport._CHUNK`` particles
over 40 steps on one thread with its rows on cache lines and with the
same rows 16 bytes past them (alternating in-process pairs), so a buffer
that loses its alignment shows.  The ``report`` section times
``full_report`` at its defaults, one 64-row block flush of its
homogeneous log points inside the run (``flush_ms``), the homogeneous
closure per call, the homogeneous RK4 step and log point (medians of
back-to-back run pairs), ``sasaki_energy`` per distribution (one call
each, and one call on a stack of 64), and the report's mode sector with
its cost per mode step (median of back-to-back pairs at the sector's
step count and twice it), next to the run's constraint and continuity
defects.  The ``scenarios`` section times each scenario at its defaults
(ten warm runs).  The ``full_report`` walls, ``flush_ms`` and the
scenario walls are also given scaled to one machine speed, as
``perfbench/run.py`` scales ``wall_s``: a probe process runs a fixed
kernel of ``perfbench/calibrate.py`` (``solver``, or ``wide`` for
``characteristics`` and the transport rows) before the first run and
after each, and the mean figure times the kernel's reference time over
the mean kernel time around the runs, so two trees timed minutes apart
compare.  The ``accuracy`` section gives the observed order of classical
Runge-Kutta under step halving (``log2`` of successive max-norm
differences at h, h/2, h/4) for one fixed configuration of each
``TestConvergenceOrder``: final transport ``x`` and ``p``, homogeneous
``b_ode`` and ``rho_cont``, and a mode's ``u`` and ``w``, so a speedup
that costs accuracy shows in the same file.  The ``memory`` section
records the ``tracemalloc`` peaks of one ``characteristics`` run at the
``chars_wide`` size and of one ``full_report`` run at its defaults,
measured apart from the timed runs.  ``source_lines`` counts the
non-blank, non-comment lines of the package, and
``source_lines_by_module`` splits them per module.

The sections run in the order ``report``, ``scenarios``, ``accuracy``,
``transport_scaling``, ``memory``, each section's seconds recorded in
``section_seconds``; on a 2-vCPU VM they took about 18, 45, 0.1, 95 and
6 s.  ``report`` and ``scenarios`` come before the 10^5-particle runs:
the large buffers those free raise glibc's mmap and trim thresholds for
the rest of the process, after which a ``full_report`` no longer pays
the page faults a fresh process pays for its temporaries (at the
parent of the change that added ``flush_ms``, a flush read 5.75 ms
scaled with ``report`` first, ``before`` in ``BENCH_16.json``, and 3.38
ms after the transport runs).  Standard library plus numpy (and scipy
in the probe process); about 3 minutes in all::

    python bench/bench.py --src PARENT_CHECKOUT/src --out before.json
    python bench/bench.py --before before.json --out BENCH_<n>.json
    python bench/bench.py --only report --out report.json

``--src`` times another source tree with the same script (side-by-side
comparisons); ``--before`` stores an earlier run's JSON under
``before`` in the output; ``--only`` runs the named sections alone;
paths are relative to the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (particles, steps): about 10^6-10^7 particle-steps per run
SIZES = ((1_000, 1_000), (10_000, 200), (100_000, 50))
THREADS = (1, 2)
REPEATS = 3
FIXED_STEPS = 2500  # a 1-particle run at this many steps and twice as many
# probed runs of each full_report and scenario wall: over four alternating
# pairs of fresh processes the scaled full_report walls of ten runs kept
# the two trees of a 10 % gain apart, those of three runs did not
WALL_REPEATS = 10
ALIGN_PAIRS = 12  # alternating (aligned, offset rows) chunk run pairs
ALIGN_STEPS = 40
LOG_POINT_PAIRS = 7  # interleaved (every logEvery, two ends) run pairs
STEP_PAIRS = 7  # interleaved (n, 2 n steps, two log points each) run pairs
MODE_PAIRS = 7  # interleaved (n, 2 n steps) mode sector pairs
ENERGY_ROWS = 64  # the log-point block of homogeneous.evolve_homogeneous
H = 1e-3
EPS = 1e-3
# the machine-speed probe of perfbench/run.py: seconds of each kernel at
# the speed scaled walls are quoted at, and the probe's share of each run
CALIBRATE = ROOT / "perfbench" / "calibrate.py"
KERNEL_REF_S = {"wide": 0.09, "solver": 0.13}
KERNEL_SHARE = 0.25


def source_lines_by_module(src: Path) -> dict:
    """Non-blank, non-comment lines of each package module."""
    counts = {}
    for path in sorted((src / "milne_lab").glob("*.py")):
        counts[path.name] = sum(
            1 for line in path.read_text().splitlines()
            if line.strip() and not line.strip().startswith("#"))
    return counts


def git_sha(src: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def git_dirty(src: Path):
    """Whether ``src`` differs from ``git_sha`` (uncommitted or untracked
    files under it); ``None`` for a tree outside git."""
    try:
        out = subprocess.run(["git", "status", "--porcelain", "--", str(src)],
                             cwd=src, capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(out.stdout.strip())


def run_once(transport, frame0, n: int, steps: int, threads: int,
             clock=time.perf_counter) -> tuple:
    """Time on ``clock`` and largest |mass-shell residual| at the logged
    times."""
    import numpy as np

    rng = np.random.default_rng(0)
    ens = transport.ParticleEnsemble(
        x=rng.uniform(-1.2, 1.2, size=(n, 3)),
        p=rng.normal(scale=0.7, size=(n, 3)),
        weights=np.full(n, 1.0 / n))
    provider = transport.manufactured_lapse_fields(EPS)
    t0 = clock()
    log, _ = transport.integrate_characteristics(
        ens, provider, frame0, frame0.T + steps * H, H, mode="derived",
        log_every=max(1, steps // 10), threads=threads)
    elapsed = clock() - t0
    return elapsed, float(np.max(np.abs(log.massshell_residual)))


# one run_once in a fresh process; prints the peak RSS, in MB, of the
# process (VmHWM: its ru_maxrss starts at the RSS of the process that
# spawned it, which Linux keeps across exec) and of its largest reaped
# child, a forked worker
RSS_RUN = """
import json, resource, sys
sys.path[:0] = sys.argv[1:3]  # milne_lab's tree, this script's directory
import bench
from milne_lab import transport
from milne_lab.geometry import make_time_frame
bench.run_once(transport, make_time_frame(-1.0, 0.0), *map(int, sys.argv[3:]))
with open("/proc/self/status") as status:
    hwm = next(int(line.split()[1]) for line in status
               if line.startswith("VmHWM:"))
workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([hwm / 1024.0, workers / 1024.0]))
"""


def peak_rss(transport, n: int, steps: int, threads: int) -> dict:
    """Peak RSS of one run in a fresh process, which imports the
    ``milne_lab`` that ``transport`` belongs to: the process's own and
    its largest worker's (``RUSAGE_CHILDREN``, 0 when no worker was
    forked; it counts the pages a worker shares with its parent), so
    memory that moved into worker processes stays visible."""
    src = Path(transport.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", RSS_RUN, str(src),
         str(Path(__file__).resolve().parent), str(n), str(steps),
         str(threads)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    parent, workers = json.loads(out.stdout.splitlines()[-1])
    return {"parent_peak_rss_mb": round(parent, 1),
            "workers_peak_rss_mb": round(workers, 1)}


def row_alignment(transport, frame0):
    """CPU time of one chunk with its rows on cache lines over the same
    chunk with every block 16 bytes past a line, in alternating pairs;
    ``None`` for a tree that does not allocate through ``_rows``."""
    aligned = getattr(transport, "_rows", None)
    if aligned is None:
        return None
    chunk = transport._CHUNK

    def offset(m, n):  # aligned rows with their first 2 doubles cut off
        return aligned(m, n + 2)[:, 2:]

    def cpu(rows):
        transport._rows = rows
        try:
            return run_once(transport, frame0, chunk, ALIGN_STEPS, 1,
                            clock=time.process_time)[0]
        finally:
            transport._rows = aligned

    ratios = []
    for i in range(ALIGN_PAIRS):
        order = (aligned, offset) if i % 2 == 0 else (offset, aligned)
        cpu_s = {rows: cpu(rows) for rows in order}
        ratios.append(cpu_s[aligned] / cpu_s[offset])
    entry = {
        "particles": chunk, "steps": ALIGN_STEPS, "threads": 1,
        "statistic": f"process_time ratio aligned / 16-byte offset rows, "
                     f"{ALIGN_PAIRS} alternating in-process pairs",
        "median_ratio": round(statistics.median(ratios), 3),
        "aligned_wins": sum(r < 1.0 for r in ratios),
        "ratios": [round(r, 3) for r in ratios],
    }
    print(f"row alignment: aligned / offset CPU time "
          f"{entry['median_ratio']:.3f}, aligned faster in "
          f"{entry['aligned_wins']}/{ALIGN_PAIRS} pairs")
    return entry


def wall_of(fn) -> float:
    """Wall time of one call of ``fn``."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def probed_walls(fn, kernel: str, threads: int = 1, figure=None) -> dict:
    """Walls of ``WALL_REPEATS`` calls of ``fn`` and their mean scaled to
    one machine speed by the ``calibrate.py`` probe ``kernel``
    (``threads`` copies of it), timed in a process of its own before the
    first call and for ``KERNEL_SHARE`` of each call's wall after it.
    ``figure``, if given, returns after each call a list of seconds
    measured inside it; the median of each call's list is kept, and
    their mean is scaled as the walls are."""
    proc = subprocess.Popen(
        [sys.executable, str(CALIBRATE), kernel, str(threads)], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def probe(seconds):  # mean seconds of one kernel
        proc.stdin.write(f"{seconds!r}\n")
        proc.stdin.flush()
        return float(proc.stdout.readline())

    try:
        walls, figures, kernels, before = [], [], [], probe(0.0)
        for _ in range(WALL_REPEATS):
            walls.append(wall_of(fn))
            if figure is not None:
                figures.append(statistics.median(figure()))
            after = probe(KERNEL_SHARE * walls[-1])
            kernels.append(0.5 * (before + after))
            before = after
    finally:
        proc.stdin.close()
        proc.wait()
        proc.stdout.close()
    speed = KERNEL_REF_S[kernel] / statistics.fmean(kernels)
    out = {"wall_s": round(statistics.median(walls), 4),
           "walls_s": [round(w, 4) for w in walls],
           "scaled_wall_s": round(speed * statistics.fmean(walls), 4),
           "kernel": kernel,
           "kernel_s": [round(k, 4) for k in kernels]}
    if figure is not None:
        out["figures_s"] = figures
        out["scaled_figure_s"] = speed * statistics.fmean(figures)
    return out


@contextlib.contextmanager
def flush_timers(homogeneous, flushes: list):
    """Append to ``flushes`` the seconds of each block flush of
    ``ENERGY_ROWS`` log points in the runs made inside the block.

    A flush runs right after the closure call of its block's last log
    point and ends with its one ``sasaki_energy`` call, so its time is
    taken from the end of that closure call to the end of the energy
    call: the flush plus the lapse and checks of that log point (a few
    us).  Both functions are wrapped at ``homogeneous``, which the run
    calls them through."""
    closure = homogeneous.scaling_closure_moments
    energy = homogeneous.sasaki_energy
    closure_end = [0.0]

    def timed_closure(*args):
        out = closure(*args)
        closure_end[0] = time.perf_counter()
        return out

    def timed_energy(f, *args, **kwargs):
        out = energy(f, *args, **kwargs)
        if len(f) == ENERGY_ROWS:
            flushes.append(time.perf_counter() - closure_end[0])
        return out

    homogeneous.scaling_closure_moments = timed_closure
    homogeneous.sasaki_energy = timed_energy
    try:
        yield flushes
    finally:
        homogeneous.scaling_closure_moments = closure
        homogeneous.sasaki_energy = energy


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


def energy_row_cost(homogeneous, cfg):
    """Microseconds per distribution of ``sasaki_energy``, called once per
    distribution and once on a stack of ``ENERGY_ROWS``, on log-point-like
    distributions; the stack figure is ``None`` for a tree whose
    ``sasaki_energy`` takes one distribution only."""
    import numpy as np
    from milne_lab.matter import RadialDistribution

    qmax = cfg.matterQmax
    fs = []
    for stretch in np.linspace(1.0, 0.5, ENERGY_ROWS):
        grid = np.linspace(0.0, qmax * stretch, cfg.radialNodes)
        fs.append(RadialDistribution(
            grid=grid, qmax=qmax * stretch,
            values=cfg.matterAmp * np.maximum(0.0, 1 - (grid / qmax) ** 2)))
    vols = np.linspace(1.0, 1.2, ENERGY_ROWS)
    kwargs = {"ell": 2, "mu": 4.0, "ladder_ell": 5}

    def single():
        for f, vol in zip(fs, vols):
            homogeneous.sasaki_energy(f, None, vol_cell=float(vol), **kwargs)

    def stack():
        homogeneous.sasaki_energy(fs, None, vol_cell=vols, **kwargs)

    try:
        stack()
    except (AttributeError, TypeError):  # no stack form in this tree
        stack = None
    out = {}
    for name, fn in (("single", single), (f"stack_{ENERGY_ROWS}", stack)):
        out[name] = None if fn is None else round(
            1e6 * statistics.median(wall_of(fn) for _ in range(REPEATS))
            / ENERGY_ROWS, 1)
    return out


def report_section() -> dict:
    """Wall time of ``full_report`` and the cost of its three layers."""
    from milne_lab import harness, homogeneous, modes

    cfg = harness.validate_config({"scenario": "full_report", "seed": 0})
    result = harness.run_scenario(cfg)  # also pays the first-call costs
    report = probed_walls(lambda: harness.run_scenario(cfg), "solver")
    # the block flushes of the same runs, timed inside them (the wrappers
    # slow the closure, so these runs are apart from the walls above)
    flushes = []

    def timed_run():
        flushes.clear()
        with flush_timers(homogeneous, flushes):
            harness.run_scenario(cfg)
        return flushes

    flush = probed_walls(timed_run, "solver", figure=lambda: flushes)

    hom_cfg = harness.validate_config({"scenario": "homogeneous", "seed": 0})
    closure_s = statistics.median(closure_cost(harness, homogeneous, hom_cfg)
                                  for _ in range(REPEATS))

    # a log point: the run logging every logEvery steps against the same
    # run logging only its two ends, run back to back in pairs, so drift
    # hits both runs of a pair alike
    n_steps = harness._homogeneous_steps(cfg)
    args = (harness._matter_profile(cfg), cfg.tau0, cfg.Tend - cfg.T0,
            n_steps)
    kwargs = {"n_q": cfg.radialNodes, "n_nodes": cfg.quadNodes}
    extra_points = n_steps // cfg.logEvery + 1 - 2
    diffs = []
    for _ in range(LOG_POINT_PAIRS):
        logged, ends = [wall_of(lambda: homogeneous.evolve_homogeneous(
            *args, log_every=every, **kwargs))
            for every in (cfg.logEvery, n_steps)]
        diffs.append((logged - ends) / extra_points)
    # an RK4 step: the run of 2 n_steps steps against the run of n_steps,
    # both logging only their two ends, back to back in pairs
    step_diffs = []
    for _ in range(STEP_PAIRS):
        short, long = [wall_of(lambda: homogeneous.evolve_homogeneous(
            *args[:3], steps, log_every=steps, **kwargs))
            for steps in (n_steps, 2 * n_steps)]
        step_diffs.append((long - short) / n_steps)

    # a mode step: full_report's mode sector (every lambda of the grid over
    # the run span, at the sector's step count) against the same sector at
    # twice the steps, back to back in pairs; the shorter run is the sector
    lambdas = cfg.lambdaGrid
    _, mode_steps = harness._mode_steps(n_steps // cfg.logEvery)

    def mode_sector(steps):
        for lam in lambdas:
            modes.integrate_mode(lam, cfg.modeAmp, -cfg.modeAmp,
                                 (0.0, cfg.Tend - cfg.T0), steps,
                                 eps_prime=cfg.epsPrime)

    sector_walls, mode_diffs = [], []
    for _ in range(MODE_PAIRS):
        short, long = [wall_of(lambda: mode_sector(steps))
                       for steps in (mode_steps, 2 * mode_steps)]
        sector_walls.append(short)
        mode_diffs.append((long - short) / (len(lambdas) * mode_steps))
    section = {
        "config": "full_report defaults, seed 0",
        "repeats": REPEATS,
        "statistic": "median wall time over the repeats",
        "full_report_statistic": f"median warm wall over {WALL_REPEATS} "
                                 f"runs, and their mean scaled to the speed "
                                 f"at which the calibrate.py solver kernel "
                                 f"takes {KERNEL_REF_S['solver']} s",
        "full_report_wall_s": report["wall_s"],
        "full_report_walls_s": report["walls_s"],
        "full_report_scaled_wall_s": report["scaled_wall_s"],
        "full_report_kernel_s": report["kernel_s"],
        "flush_ms": round(1e3 * flush["scaled_figure_s"], 3),
        "flush_ms_raw": [round(1e3 * f, 3) for f in flush["figures_s"]],
        "flush_kernel_s": flush["kernel_s"],
        "flush_method": f"one {ENERGY_ROWS}-row block flush of full_report, "
                        f"timed in the run from the end of its last log "
                        f"point's closure call to the end of its "
                        f"sasaki_energy call; the median of each of "
                        f"{WALL_REPEATS} runs (flush_ms_raw), their mean "
                        f"scaled as full_report_scaled_wall_s",
        "closure_us_per_call": round(1e6 * closure_s, 2),
        "log_point_ms": round(1e3 * statistics.median(diffs), 3),
        "log_point_ms_pairs": [round(1e3 * d, 3) for d in diffs],
        "log_point_method": f"median over {LOG_POINT_PAIRS} back-to-back "
                            f"pairs of (wall at logEvery {cfg.logEvery} - "
                            f"wall at 2 log points) / {extra_points}, "
                            f"{n_steps} steps each",
        "homogeneous_step_us": round(1e6 * statistics.median(step_diffs), 2),
        "homogeneous_step_us_pairs": [round(1e6 * d, 2) for d in step_diffs],
        "homogeneous_step_method": f"median over {STEP_PAIRS} back-to-back "
                                   f"pairs of (wall at {2 * n_steps} steps "
                                   f"- wall at {n_steps} steps) / "
                                   f"{n_steps}, two log points each",
        "sasaki_energy_us_per_row": energy_row_cost(homogeneous, cfg),
        "mode_sector_ms": round(1e3 * statistics.median(sector_walls), 2),
        "mode_ns_per_step": round(1e9 * statistics.median(mode_diffs), 1),
        "mode_ns_per_step_pairs": [round(1e9 * d, 1) for d in mode_diffs],
        "mode_method": f"median over {MODE_PAIRS} back-to-back pairs of "
                       f"the sector ({len(lambdas)} lambdas x {mode_steps} "
                       f"steps) and the sector at {2 * mode_steps} steps: "
                       f"the first run's wall, and the difference / "
                       f"{len(lambdas) * mode_steps}",
        "constraint_defect": result["summary"]["constraint_defect"],
        "continuity_defect": result["summary"]["continuity_defect"],
    }
    print(f"full_report {section['full_report_wall_s']:.3f} s (scaled "
          f"{section['full_report_scaled_wall_s']:.3f} s), block flush "
          f"{section['flush_ms']:.2f} ms scaled, closure "
          f"{section['closure_us_per_call']:.2f} us/call, RK4 step "
          f"{section['homogeneous_step_us']:.2f} us, log point "
          f"{section['log_point_ms']:.3f} ms, mode sector "
          f"{section['mode_sector_ms']:.1f} ms, mode step "
          f"{section['mode_ns_per_step']:.0f} ns")
    return section


def scenarios_section() -> dict:
    """Wall time of each scenario at its defaults: one warm-up run, then
    ``WALL_REPEATS`` probed runs (``probed_walls``)."""
    from milne_lab import harness

    threads = int(os.environ.get("MILNE_LAB_THREADS", "1"))
    walls = {}
    for scenario in harness.SCENARIOS:
        cfg = harness.validate_config({"scenario": scenario, "seed": 0})
        harness.run_scenario(cfg)  # first-call costs
        walls[scenario] = (
            probed_walls(lambda: harness.run_scenario(cfg), "wide", threads)
            if scenario == "characteristics" else
            probed_walls(lambda: harness.run_scenario(cfg), "solver"))
        print(f"{scenario} {walls[scenario]['wall_s']:.3f} s (scaled "
              f"{walls[scenario]['scaled_wall_s']:.3f} s)")
    return {"config": "defaults, seed 0, MILNE_LAB_THREADS as set",
            "statistic": f"median warm wall over {WALL_REPEATS} runs; their "
                         f"mean scaled to the speed at which the "
                         f"calibrate.py kernel takes {KERNEL_REF_S}",
            "walls": walls}


def observed_order(coarse, mid, fine):
    """``log2`` of the ratio of successive max-norm differences along the
    last axis."""
    import numpy as np

    return np.log2(np.max(np.abs(coarse - mid), axis=-1)
                   / np.max(np.abs(mid - fine), axis=-1))


def accuracy_section() -> dict:
    """Observed RK4 order under step halving of transport, the
    homogeneous system and a mode, one configuration of each module's
    ``TestConvergenceOrder``."""
    import numpy as np
    from milne_lab import homogeneous, modes, transport
    from milne_lab.geometry import make_time_frame
    from milne_lab.matter import RadialDistribution

    # transport: 16 particles (ensemble seed 0) under the manufactured
    # lapse with eps = 0.25, to T = 1 at h = 1/20, 1/40 and 1/80
    rng = np.random.default_rng(0)
    x, p = rng.uniform(-1.2, 1.2, size=(16, 3)), rng.normal(scale=0.7,
                                                            size=(16, 3))
    finals = []
    for m in (1, 2, 4):
        ens = transport.ParticleEnsemble(x=x.copy(), p=p.copy(),
                                         weights=np.full(16, 1 / 16))
        _, fin = transport.integrate_characteristics(
            ens, transport.manufactured_lapse_fields(0.25),
            make_time_frame(-1.0, 0.0), 1.0, 1.0 / (20 * m), log_every=20 * m)
        finals.append(np.concatenate([fin.x, fin.p], axis=1).ravel())
    # homogeneous: the bump of amplitude 2e-3 at tau0 = -1.5 to T = 2 at
    # h = 0.05, 0.025 and 0.0125, five log points each
    f0 = RadialDistribution(grid=np.linspace(0.0, 2.0, 200), qmax=2.0,
                            profile=lambda q: 2e-3 * np.maximum(
                                0.0, 1.0 - (q / 2.0) ** 2))
    series = []
    for m in (1, 2, 4):
        run = homogeneous.evolve_homogeneous(f0, -1.5, 2.0, 40 * m, n_q=9,
                                             log_every=8 * m, n_nodes=16)
        series.append(np.array([run.b_ode, run.rho_cont]))
    # a mode: lambda = 1, source amplitude 0.5, to T = 3 at h = 0.05,
    # 0.025 and 0.0125, compared on the coarse steps
    states = []
    for m in (1, 2, 4):
        traj = modes.integrate_mode(1.0, 1.0, -1.0, (0.0, 3.0), 60 * m,
                                    S_amp=0.5)
        states.append(np.array([traj.u[::m], traj.w[::m]]))
    b_order, rho_order = observed_order(*series)
    u_order, w_order = observed_order(*states)
    section = {
        "method": "log2 of successive max-norm differences at h, h/2, h/4",
        "transport_x_p": round(float(observed_order(*finals)), 3),
        "transport_config": "16 particles, manufactured lapse eps 0.25, "
                            "T 0 to 1, h 1/20",
        "homogeneous_b_ode": round(float(b_order), 3),
        "homogeneous_rho_cont": round(float(rho_order), 3),
        "homogeneous_config": "bump amplitude 2e-3, tau0 -1.5, T 0 to 2, "
                              "h 0.05, n_q 9, 16 nodes",
        "mode_u": round(float(u_order), 3),
        "mode_w": round(float(w_order), 3),
        "mode_config": "lambda 1, u 1, w -1, S_amp 0.5, T 0 to 3, h 0.05",
    }
    print("RK4 orders: " + ", ".join(
        f"{k} {v:.3f}" for k, v in section.items()
        if isinstance(v, float)))
    return section


def peak_mb(harness, raw) -> float:
    """``tracemalloc`` peak of one ``harness.run_scenario`` of ``raw``, in
    MB = 2^20 bytes."""
    cfg = harness.validate_config(raw)
    tracemalloc.start()
    try:
        harness.run_scenario(cfg)
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def memory_section() -> dict:
    """``tracemalloc`` peaks of one ``characteristics`` run at the
    ``chars_wide`` size and of one ``full_report`` run at its defaults."""
    from milne_lab import harness

    raw = {"scenario": "characteristics", "seed": 0,
           "particleCount": 100_000, "Tend": 0.1}
    report_raw = {"scenario": "full_report", "seed": 0}
    saved = os.environ.get("MILNE_LAB_THREADS")
    os.environ["MILNE_LAB_THREADS"] = "2"
    try:
        characteristics_peak = peak_mb(harness, raw)
    finally:
        if saved is None:
            del os.environ["MILNE_LAB_THREADS"]
        else:
            os.environ["MILNE_LAB_THREADS"] = saved
    section = {
        "config": f"{raw}, MILNE_LAB_THREADS=2",
        "characteristics_peak_mb": characteristics_peak,
        "report_config": str(report_raw),
        "report_peak_mb": peak_mb(harness, report_raw),
        "method": "tracemalloc peak over one harness.run_scenario, "
                  "MB = 2^20 bytes",
    }
    print(f"characteristics peak {section['characteristics_peak_mb']:.2f} MB, "
          f"report peak {section['report_peak_mb']:.2f} MB")
    return section


def fixed_cost(transport, frame0) -> dict:
    """us per step of a 1-particle run, the part of a step's cost that
    does not grow with the particles: the difference of the times of a
    ``2 FIXED_STEPS`` and a ``FIXED_STEPS`` run (the same ten log rows
    each) over ``FIXED_STEPS``, over ``WALL_REPEATS`` back-to-back pairs,
    raw and scaled by the ``solver`` probe, whose scalar loop and small
    numpy calls are bound by per-call costs as this run is."""
    diffs = []

    def pair():
        short, _ = run_once(transport, frame0, 1, FIXED_STEPS, 1)
        long, _ = run_once(transport, frame0, 1, 2 * FIXED_STEPS, 1)
        diffs.append((long - short) / FIXED_STEPS)

    walls = probed_walls(pair, "solver", figure=lambda: diffs[-1:])
    entry = {"particles": 1, "steps": [FIXED_STEPS, 2 * FIXED_STEPS],
             "threads": 1,
             "statistic": f"median over {WALL_REPEATS} back-to-back pairs; "
                          f"scaled: their mean scaled as the walls are",
             "fixed_us_per_step": round(1e6 * statistics.median(diffs), 1),
             "scaled_fixed_us_per_step": round(
                 1e6 * walls["scaled_figure_s"], 1),
             "pairs_us_per_step": [round(1e6 * d, 1) for d in diffs]}
    print(f"fixed cost: {entry['fixed_us_per_step']:.1f} us per step "
          f"(scaled {entry['scaled_fixed_us_per_step']:.1f})")
    return entry


def transport_section() -> dict:
    """ns per particle-step at each of ``SIZES`` on each of ``THREADS``,
    raw and scaled (``probed_walls`` with the ``wide`` kernel), with the
    largest mass-shell residual of each run, the peak RSS of one more run
    in a fresh process (see :func:`peak_rss`), the fixed cost per step
    (:func:`fixed_cost`) and the ``row_alignment`` pairs."""
    from milne_lab import transport
    from milne_lab.geometry import make_time_frame

    frame0 = make_time_frame(-1.0, 0.0)
    run_once(transport, frame0, 1_000, 10, 1)  # first-call costs
    rows = []
    for n, steps in SIZES:
        for threads in THREADS:
            runs = []  # (integration seconds, residual) of each call

            def timed():
                runs.append(run_once(transport, frame0, n, steps, threads))

            # the probe runs one kernel per worker the run can use
            workers = min(threads, -(-n // transport._CHUNK))
            walls = probed_walls(timed, "wide", workers,
                                 figure=lambda: [runs[-1][0]])
            per = 1e9 / (n * steps)
            rows.append({
                "particles": n, "steps": steps, "threads": threads,
                "ns_per_particle_step": round(
                    per * statistics.median(t for t, _ in runs), 1),
                "scaled_ns_per_particle_step": round(
                    per * walls["scaled_figure_s"], 1),
                "wall_s": [round(t, 4) for t, _ in runs],
                "kernel_s": walls["kernel_s"],
                "massshell_residual_max": max(r for _, r in runs),
                **peak_rss(transport, n, steps, threads),
            })
            print(f"{n:>7} particles x {steps:>4} steps, {threads} thread(s): "
                  f"{rows[-1]['ns_per_particle_step']:7.1f} ns/particle-step "
                  f"(scaled {rows[-1]['scaled_ns_per_particle_step']:.1f}), "
                  f"residual {rows[-1]['massshell_residual_max']:.2e}, peak "
                  f"RSS {rows[-1]['parent_peak_rss_mb']:.1f} MB + workers "
                  f"{rows[-1]['workers_peak_rss_mb']:.1f} MB")
    return {
        "provider": f"manufactured_lapse_fields({EPS})",
        "mode": "derived", "h": H, "repeats": WALL_REPEATS,
        "statistic": f"ns_per_particle_step: median integration time over "
                     f"{WALL_REPEATS} runs; scaled_ns_per_particle_step: "
                     f"their mean scaled to the speed at which the "
                     f"calibrate.py wide kernel takes {KERNEL_REF_S['wide']} s",
        "rows": rows,
        "fixed_us_per_step": fixed_cost(transport, frame0),
        "row_alignment": row_alignment(transport, frame0),
    }


# in this order (see the module docstring)
SECTIONS = {
    "report": report_section,
    "scenarios": scenarios_section,
    "accuracy": accuracy_section,
    "transport_scaling": transport_section,
    "memory": memory_section,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import milne_lab from")
    parser.add_argument("--out", default="BENCH.json",
                        help="output JSON, relative to the repository root")
    parser.add_argument("--before", type=Path,
                        help="JSON of an earlier run (say of the parent "
                             "commit) to store under 'before'")
    parser.add_argument("--only", nargs="+", choices=list(SECTIONS),
                        metavar="SECTION",
                        help=f"run only these sections, of {list(SECTIONS)}")
    args = parser.parse_args(argv)
    before = (json.loads((ROOT / args.before).read_text())
              if args.before else None)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    lines = source_lines_by_module(src)
    doc = {
        "git_sha": git_sha(src),
        "git_dirty": git_dirty(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "source_lines": sum(lines.values()),
        "source_lines_by_module": lines,
        "section_seconds": {},
    }
    for name in SECTIONS:  # in their order, whatever the order of --only
        if args.only and name not in args.only:
            continue
        t0 = time.perf_counter()
        doc[name] = SECTIONS[name]()
        doc["section_seconds"][name] = round(time.perf_counter() - t0, 1)
    if before is not None:
        doc["before"] = before
    out = ROOT / args.out
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
