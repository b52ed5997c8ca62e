"""Particle scaling of transport and the cost of the full_report layers.

Every timed figure comes from one method, :func:`probed_walls`: a probe
process runs a fixed kernel of ``perfbench/calibrate.py`` (``solver``,
or ``wide`` for ``characteristics`` and the transport rows) before the
first of ``WALL_REPEATS`` calls and for ``KERNEL_SHARE`` of each call's
wall after it.  A figure is given raw, its median over the calls, and
scaled, its mean times the kernel's reference time over the mean kernel
time around the calls, as ``perfbench/run.py`` scales ``wall_s``, so
two trees timed minutes apart compare.  A per-layer figure comes from
:func:`per_unit`: each call runs a short and a long job back to back,
so drift hits both alike and what they share cancels, and the figure is
``(wall(long) - wall(short)) / units`` (``wall(long) / units`` for a
figure with no short job).  It is written as ``<key>`` (raw),
``scaled_<key>`` (scaled) and ``<key>_runs`` (each call's).

The ``report`` section times ``full_report`` at its defaults and these
layers of it: one 64-row block of the grid work of its homogeneous log
points, which a run does after its stepping, timed inside the run
(``flush_ms``); the homogeneous closure per call
(a bare loop over ``homogeneous._closure_nodes``); the homogeneous RK4
step (a run of 2 n steps against one of n) and log point (every
``logEvery`` steps against the two ends; a log point reads the closure
moments and lapse of the next step's first stage, so this figure holds
no closure call, only the point's checks, its logged row and its share
of the grid work); ``sasaki_energy`` per grid row (64 one-row calls,
and one call on a block of 64 rows); one
``sasaki_energy`` call on 64 rows of 1000 geometrically spaced knots
(``geometric_block_ms``); and the mode sector with its cost per mode
step (twice the sector's steps against the sector), next to the run's
constraint and continuity defects.
The ``scenarios`` section times each scenario at its defaults.
The ``transport_scaling`` section gives ns per particle-step of
``transport.integrate_characteristics`` (derived mode, manufactured
lapse with eps = 1e-3, h = 1e-3, tau0 = -1) at 10^3, 10^4 and 10^5
particles on a budget of one and two workers, with the largest
mass-shell residual of each run, so a speedup that costs accuracy shows
in the same row, and the peak RSS of one more run in a fresh process
(its own and its largest forked worker's); its ``fixed_us_per_step``
is the cost of a step that does not grow with the particles (a
1-particle run at 5000 against 2500 steps).  The ``accuracy`` section
gives the observed order of classical Runge-Kutta under step halving
(``log2`` of successive max-norm differences at h, h/2, h/4) for one
fixed configuration of each ``TestConvergenceOrder``.  The ``counts``
section counts the calls of one default ``full_report`` and one default
``homogeneous`` run: closure calls, ``sasaki_energy`` calls and the
steps of each mode, which no wall noise moves.  The ``chunks``
section sweeps ``transport._CHUNK`` over fixed sizes and the size the
package derives, at 10^5 particles x 100 steps with a summary log (as
``chars_wide`` runs) on a budget of one and two workers, the sizes in
rotating order over five rounds; per size it gives the chunks per
worker, the MiB of one chunk's buffers, the median and quartiles of the
walls and the paired ratio to 8192, the size before ``_CHUNK`` was
derived from the L2.  The ``memory``
section runs one ``characteristics`` run at the ``chars_wide`` size and
one default ``full_report``, each twice in a fresh process of its own:
it records the peak RSS (``VmHWM``) after the first run, the scipy
subpackages the report loaded, and the ``tracemalloc`` peak of the
second run, which nothing the bench ran before can change.  It also
runs ``homogeneous`` and ``full_report`` with ``LONG_LOG`` (a log row
every step, 100 001 rows), each once in a fresh process that then
writes its report with ``emit_report``, and records that process's peak
RSS and the seconds of the write.  Last come the ``tracemalloc`` peaks,
each from a fresh process, of one ``sasaki_energy`` call on a 64 x 257
block of log-point rows and of the homogeneous run of a default
``full_report``.  Each record names the tree it timed by
``git_sha`` and by ``src_sha256``, a digest of the package files that a
``git archive`` copy keeps too; ``source_lines`` counts the non-blank,
non-comment lines of the package, per module in
``source_lines_by_module``.

The sections run in the order ``report``, ``scenarios``, ``accuracy``,
``counts``, ``chunks``, ``transport_scaling``, ``memory``, each section's
seconds recorded in ``section_seconds``; on a 2-vCPU VM they took about
30, 35, 0.1, 0.8, 115, 75 and 27 s.  ``report`` and ``scenarios`` come
before the 10^5-particle runs: the large buffers those free raise
glibc's mmap and trim thresholds for the rest of the process, after
which a ``full_report`` no longer pays the page faults a fresh process
pays for its temporaries.  Standard library plus numpy (and scipy in the
probe process); about 5 minutes in all::

    python bench/bench.py --src PARENT_CHECKOUT/src --out before.json
    python bench/bench.py --before before.json --out BENCH_<n>.json
    python bench/bench.py --only report --out report.json
    python bench/bench.py --only counts --out counts.json

``--src`` times another source tree with the same script (side-by-side
comparisons); ``--before`` stores an earlier run's JSON under
``before`` in the output; ``--only`` runs the named sections alone;
paths are relative to the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
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
FIXED_STEPS = 2500  # a 1-particle run at this many steps and twice as many
# the chunk sweep: transport._CHUNK at each of these sizes, at the size the
# package derives and at CHUNK_BASE, the size before it was derived from
# the L2, over CHUNK_ROUNDS rounds of summary runs at the chars_wide size
CHUNK_SIZES = (2048, 3072, 4096, 5120, 6144, 7168, 8192)
CHUNK_BASE = 8192
CHUNK_RUN = (100_000, 100)
CHUNK_ROUNDS = 5
# probed calls of each figure: over four alternating pairs of fresh
# processes the scaled full_report walls of ten runs kept the two trees of
# a 10 % gain apart, those of three runs did not
WALL_REPEATS = 10
# the memory section's long log: 100 001 rows of homogeneous and of
# full_report at the default span
LONG_LOG = {"h": 5e-5, "logEvery": 1}
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


def src_sha256(src: Path) -> str:
    """SHA-256 over the sorted names and bytes of ``milne_lab/*.py``."""
    digest = hashlib.sha256()
    for path in sorted((src / "milne_lab").glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


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
             full_log: bool = True) -> tuple:
    """Wall time of the integration and largest |mass-shell residual| at
    the logged times."""
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
        log_every=max(1, steps // 10), threads=threads, full_log=full_log)
    elapsed = time.perf_counter() - t0
    return elapsed, float(np.max(log.max_residual))


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


# one harness run of the config in argv[2] in a fresh process, then one
# more under tracemalloc; prints the first run's own peak RSS, in MB
# (VmHWM, as in RSS_RUN, read before tracemalloc adds its own memory), the
# public scipy subpackages it loaded, and the second run's tracemalloc
# peak in MB, which the first run's imports leave out, whatever else the
# bench ran
PEAK_RUN = """
import json, sys, tracemalloc
sys.path[:0] = sys.argv[1:2]  # milne_lab's tree
from milne_lab import harness
cfg = harness.validate_config(json.loads(sys.argv[2]))
harness.run_scenario(cfg)
with open("/proc/self/status") as status:
    hwm = next(int(line.split()[1]) for line in status
               if line.startswith("VmHWM:"))
scipy_loaded = sorted(
    name for name, module in sys.modules.items()
    if name.startswith("scipy.") and name.count(".") == 1
    and not name.startswith("scipy._") and hasattr(module, "__path__"))
tracemalloc.start()
harness.run_scenario(cfg)
peak = tracemalloc.get_traced_memory()[1] / 2**20
print(json.dumps([hwm / 1024.0, scipy_loaded, peak]))
"""


# one harness run of the config in argv[2] in a fresh process, its CSV and
# JSON then written by emit_report into a temporary directory; prints the
# process's peak RSS in MB (VmHWM, as in RSS_RUN) after the write and the
# seconds of the emit_report call
LOG_RUN = """
import json, sys, tempfile, time
sys.path[:0] = sys.argv[1:2]  # milne_lab's tree
from milne_lab import harness
result = harness.run_scenario(harness.validate_config(json.loads(sys.argv[2])))
with tempfile.TemporaryDirectory() as out:
    start = time.perf_counter()
    harness.emit_report(result, out)
    seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    hwm = next(int(line.split()[1]) for line in status
               if line.startswith("VmHWM:"))
print(json.dumps([hwm / 1024.0, seconds]))
"""


# in a fresh process, the tracemalloc peak in MB of one call of argv[2]:
# "block", sasaki_energy on a 64 x 257 block of log-point rows, or
# "evolve", the homogeneous run of a default full_report
ENERGY_RUN = """
import json, sys, tracemalloc
sys.path[:0] = sys.argv[1:2]  # milne_lab's tree
import numpy as np
from milne_lab import harness
from milne_lab.energies import sasaki_energy
G = 2.0 * np.linspace(1.0, 1.5, 64)
grid = np.linspace(0.0, G, 257, axis=-1)
values = 1e-3 * np.maximum(0.0, 1.0 - (grid / G[:, None]) ** 2)
cfg = harness.validate_config({"scenario": "full_report", "seed": 0})
calls = {"block": lambda: sasaki_energy(grid, values, G, ell=2, mu=4.0,
                                        ladder_ell=5),
         "evolve": lambda: harness._homogeneous_run(cfg)}
tracemalloc.start()
calls[sys.argv[2]]()
print(json.dumps(tracemalloc.get_traced_memory()[1] / 2**20))
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
    ``figure``, if given, returns after each call a dict of lists of
    seconds measured inside it; for each name the median of each call's
    list is kept, and ``figures[name]`` is ``(median, mean scaled as the
    walls are, the per-call values)``."""
    proc = subprocess.Popen(
        [sys.executable, str(CALIBRATE), kernel, str(threads)], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def probe(seconds):  # mean seconds of one kernel
        proc.stdin.write(f"{seconds!r}\n")
        proc.stdin.flush()
        return float(proc.stdout.readline())

    try:
        walls, figures, kernels, before = [], {}, [], probe(0.0)
        for _ in range(WALL_REPEATS):
            walls.append(wall_of(fn))
            for name, seconds in (figure() if figure else {}).items():
                figures.setdefault(name, []).append(
                    statistics.median(seconds))
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
        out["figures"] = {name: (statistics.median(values),
                                 speed * statistics.fmean(values), values)
                          for name, values in figures.items()}
    return out


def per_unit(long, units: int, short=None) -> dict:
    """The ``probed_walls`` figures of one layer, on the ``solver`` probe:
    ``per_unit``, ``(wall(long) - wall(short)) / units`` of ``short`` and
    ``long`` called back to back in each probed call (``wall(long) /
    units`` without ``short``), and ``short``, the wall of ``short``."""
    seconds = {}

    def pair():
        seconds["short"] = [wall_of(short) if short else 0.0]
        seconds["per_unit"] = [(wall_of(long) - seconds["short"][0]) / units]

    return probed_walls(pair, "solver", figure=lambda: seconds)["figures"]


def scaled(key: str, figure: tuple, scale: float, digits: int) -> dict:
    """A ``probed_walls`` figure times ``scale`` as ``key`` (raw median),
    ``scaled_<key>`` (scaled mean) and ``<key>_runs`` (each call's)."""
    raw, mean, runs = figure
    return {key: round(scale * raw, digits),
            f"scaled_{key}": round(scale * mean, digits),
            f"{key}_runs": [round(scale * r, digits) for r in runs]}


@contextlib.contextmanager
def flush_timers(homogeneous, flushes: list):
    """Append to ``flushes`` the seconds of each full block (flush) of
    ``homogeneous._ENERGY_BLOCK`` log points that the runs made inside
    the block measure.

    A run measures its blocks one after another after its stepping, each
    ending with its one ``sasaki_energy`` call, so a block's time is taken
    to the end of its energy call from the end of the previous block's,
    or, for a run's first block, from the end of the run's last closure
    call (the first stage taken at the state of its last log point, after
    the last step): that block also pays that stage's lapse and slopes,
    the checks of that log point and the ``f0`` spline and buffers made
    once per run.
    Both functions are wrapped at ``homogeneous``, which the run calls
    them through."""
    closure = homogeneous.scaling_closure_moments
    energy = homogeneous.sasaki_energy
    last_end = [0.0]

    def timed_closure(*args):
        out = closure(*args)
        last_end[0] = time.perf_counter()
        return out

    def timed_energy(grid, *args, **kwargs):
        out = energy(grid, *args, **kwargs)
        end = time.perf_counter()
        if len(grid) == homogeneous._ENERGY_BLOCK:
            flushes.append(end - last_end[0])
        last_end[0] = end
        return out

    homogeneous.scaling_closure_moments = timed_closure
    homogeneous.sasaki_energy = timed_energy
    try:
        yield flushes
    finally:
        homogeneous.scaling_closure_moments = closure
        homogeneous.sasaki_energy = energy


def energy_row_cost(homogeneous, cfg) -> dict:
    """Microseconds per grid row of ``sasaki_energy``, called once per row
    and once on a block of ``homogeneous._ENERGY_BLOCK`` rows, on
    log-point-like rows, raw and scaled."""
    import numpy as np

    rows = homogeneous._ENERGY_BLOCK
    qmax = cfg.matterQmax * np.linspace(1.0, 0.5, rows)
    # C-contiguous rows, as the run's blocks are
    grid = np.linspace(0.0, qmax, cfg.radialNodes, axis=-1).copy()
    values = cfg.matterAmp * np.maximum(
        0.0, 1 - (grid / cfg.matterQmax) ** 2)
    vols = np.linspace(1.0, 1.2, rows)
    kwargs = {"ell": 2, "mu": 4.0, "ladder_ell": 5}

    def single():
        for i, vol in enumerate(vols.tolist()):
            homogeneous.sasaki_energy(grid[i:i + 1], values[i:i + 1],
                                      qmax[i:i + 1], vol=vol, **kwargs)

    def stack():
        homogeneous.sasaki_energy(grid, values, qmax, vol=vols, **kwargs)

    figures = {name: per_unit(fn, rows)["per_unit"] for name, fn in
               (("single", single), (f"stack_{rows}", stack))}
    return {f"{prefix}sasaki_energy_us_per_row": {
        name: round(1e6 * figure[i], 1) for name, figure in figures.items()}
        for i, prefix in enumerate(("", "scaled_"))}


def geometric_block_cost() -> dict:
    """Milliseconds of one ``sasaki_energy`` call (``ell=2, mu=4,
    ladder_ell=5``) on 64 rows of 1000 knots spaced geometrically from
    ``1e-6 qmax`` to ``qmax``, raw and scaled: unlike the log-point rows,
    whose knots are evenly spaced, a row's Gauss nodes fall hundreds of
    knots apart."""
    import numpy as np
    from milne_lab.energies import sasaki_energy

    qmax = np.linspace(0.5, 2.0, 64)
    grid = np.geomspace(1e-6 * qmax, qmax, 1000, axis=-1)
    values = 1e-3 * (1.0 - (grid / qmax[:, None]) ** 2) ** 3

    def call():
        sasaki_energy(grid, values, qmax, ell=2, mu=4.0, ladder_ell=5)

    return scaled("geometric_block_ms", per_unit(call, 1)["per_unit"], 1e3,
                  2)


def report_section() -> dict:
    """Wall time of ``full_report`` and the cost of its three layers."""
    from milne_lab import harness, homogeneous, modes

    cfg = harness.validate_config({"scenario": "full_report", "seed": 0})
    result = harness.run_scenario(cfg)  # also pays the first-call costs
    report = probed_walls(lambda: harness.run_scenario(cfg), "solver")
    # the log-point blocks of the same runs, timed inside them (the wrappers
    # slow the closure, so these runs are apart from the walls above)
    flushes = []

    def timed_run():
        flushes.clear()
        with flush_timers(homogeneous, flushes):
            harness.run_scenario(cfg)

    flush = probed_walls(timed_run, "solver",
                         figure=lambda: {"flush": flushes})["figures"]

    n_steps = harness._homogeneous_steps(cfg)
    f0, span = harness._matter_profile(cfg), cfg.Tend - cfg.T0

    def evolve(steps, log_every):
        return lambda: homogeneous.evolve_homogeneous(
            f0, cfg.tau0, span, steps, n_q=cfg.radialNodes,
            log_every=log_every, n_nodes=cfg.quadNodes)

    extra_points = n_steps // cfg.logEvery - 1
    log_point = per_unit(evolve(n_steps, cfg.logEvery), extra_points,
                         short=evolve(n_steps, n_steps))
    step = per_unit(evolve(2 * n_steps, 2 * n_steps), n_steps,
                    short=evolve(n_steps, n_steps))

    # the closure at the s = |tau0| e^{-T} of each of the run's steps
    nodes = homogeneous._closure_nodes(f0, cfg.quadNodes)
    closure = homogeneous.scaling_closure_moments
    s_values = [abs(cfg.tau0) * math.exp(-k * span / n_steps)
                for k in range(n_steps)]

    def closure_loop():
        for s in s_values:
            closure(*nodes, 1.0, s)

    closure_cost = per_unit(closure_loop, n_steps)

    # full_report's mode sector: every lambda of the grid over the run span
    stride, mode_steps = harness._mode_steps(cfg)

    def mode_sector(steps):
        def run():
            for lam in cfg.lambdaGrid:
                modes.integrate_mode(lam, cfg.modeAmp, -cfg.modeAmp,
                                     (0.0, span), steps,
                                     eps_prime=cfg.epsPrime,
                                     record_every=stride)
        return run

    mode_units = len(cfg.lambdaGrid) * mode_steps
    mode = per_unit(mode_sector(2 * mode_steps), mode_units,
                    short=mode_sector(mode_steps))
    section = {
        "config": "full_report defaults, seed 0",
        "statistic": f"each figure: its median over {WALL_REPEATS} probed "
                     f"calls, and their mean scaled to the speed at which "
                     f"the calibrate.py solver kernel takes "
                     f"{KERNEL_REF_S['solver']} s (scaled_)",
        "full_report_wall_s": report["wall_s"],
        "full_report_walls_s": report["walls_s"],
        "full_report_scaled_wall_s": report["scaled_wall_s"],
        "full_report_kernel_s": report["kernel_s"],
        **scaled("flush_ms", flush["flush"], 1e3, 3),
        "flush_method": f"one {homogeneous._ENERGY_BLOCK}-row block of "
                        f"full_report's log points, timed in the run to "
                        f"the end of its sasaki_energy call from the end "
                        f"of the previous block's (the first block: of "
                        f"the run's last closure call); the median of "
                        f"each run",
        **scaled("closure_us_per_call", closure_cost["per_unit"], 1e6, 2),
        "closure_method": f"wall of a bare loop of {n_steps} closure calls "
                          f"/ {n_steps}",
        **scaled("log_point_ms", log_point["per_unit"], 1e3, 3),
        "log_point_method": f"(wall at logEvery {cfg.logEvery} - wall at "
                            f"2 log points) / {extra_points}, {n_steps} "
                            f"steps each",
        **scaled("homogeneous_step_us", step["per_unit"], 1e6, 2),
        "homogeneous_step_method": f"(wall at {2 * n_steps} steps - wall at "
                                   f"{n_steps} steps) / {n_steps}, two log "
                                   f"points each",
        **energy_row_cost(homogeneous, cfg),
        **geometric_block_cost(),
        "geometric_block_method": "one sasaki_energy call on 64 rows of "
                                  "1000 knots spaced geometrically from "
                                  "1e-6 qmax to qmax",
        **scaled("mode_sector_ms", mode["short"], 1e3, 2),
        **scaled("mode_ns_per_step", mode["per_unit"], 1e9, 1),
        "mode_method": f"the sector ({len(cfg.lambdaGrid)} lambdas x "
                       f"{mode_steps} steps), and (wall at {2 * mode_steps} "
                       f"steps - the sector) / {mode_units}",
        "constraint_defect": result["summary"]["constraint_defect"],
        "continuity_defect": result["summary"]["continuity_defect"],
    }
    print(f"full_report {section['full_report_wall_s']:.3f} s (scaled "
          f"{section['full_report_scaled_wall_s']:.3f} s); scaled: block "
          f"flush {section['scaled_flush_ms']:.2f} ms, closure "
          f"{section['scaled_closure_us_per_call']:.2f} us/call, RK4 step "
          f"{section['scaled_homogeneous_step_us']:.2f} us, log point "
          f"{section['scaled_log_point_ms']:.3f} ms, mode sector "
          f"{section['scaled_mode_sector_ms']:.1f} ms, mode step "
          f"{section['scaled_mode_ns_per_step']:.0f} ns")
    return section


def scenarios_section() -> dict:
    """Wall time of each scenario at its defaults: one warm-up run, then
    ``WALL_REPEATS`` probed runs (``probed_walls``)."""
    from milne_lab import harness, transport

    threads = harness._thread_budget()
    walls = {}
    for scenario in harness.SCENARIOS:
        cfg = harness.validate_config({"scenario": scenario, "seed": 0})
        harness.run_scenario(cfg)  # first-call costs
        # the probe runs one kernel per worker the run can use
        workers = transport._workers(
            threads, -(-cfg.particleCount // transport._CHUNK))
        walls[scenario] = (
            probed_walls(lambda: harness.run_scenario(cfg), "wide", workers)
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
    # a mode: lambda = 1, to T = 3 at h = 0.05, 0.025 and 0.0125, compared
    # on the coarse steps
    states = []
    for m in (1, 2, 4):
        traj = modes.integrate_mode(1.0, 1.0, -1.0, (0.0, 3.0), 60 * m)
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
        "mode_config": "lambda 1, u 1, w -1, T 0 to 3, h 0.05",
    }
    print("RK4 orders: " + ", ".join(
        f"{k} {v:.3f}" for k, v in section.items()
        if isinstance(v, float)))
    return section


def run_counts(harness, homogeneous, modes, scenario: str) -> dict:
    """Closure and ``sasaki_energy`` calls and the steps of each mode in
    one run of ``scenario`` at its defaults, seed 0, its validation not
    counted.

    The closure and ``sasaki_energy`` are wrapped at ``homogeneous`` and
    ``modes.integrate_mode`` at ``modes``, the attributes the run calls
    them through; a mode's steps are its call's ``n_steps`` (the mode loop
    makes no call a step), keyed as the ``modes`` report keys a mode."""
    # validated before the wrappers: its guard |tau0| rho0 < 1/6 calls the
    # closure once
    cfg = harness.validate_config({"scenario": scenario, "seed": 0})
    closure = homogeneous.scaling_closure_moments
    energy = homogeneous.sasaki_energy
    integrate_mode = modes.integrate_mode
    counts = {"closure_calls": 0, "sasaki_energy_calls": 0,
              "mode_steps": {}}

    def counted_closure(*args):
        counts["closure_calls"] += 1
        return closure(*args)

    def counted_energy(*args, **kwargs):
        counts["sasaki_energy_calls"] += 1
        return energy(*args, **kwargs)

    def counted_mode(lam, u0, w0, T_span, n_steps, *args, **kwargs):
        key = harness._mode_key(lam)
        steps = counts["mode_steps"]
        steps[key] = steps.get(key, 0) + n_steps
        return integrate_mode(lam, u0, w0, T_span, n_steps, *args, **kwargs)

    homogeneous.scaling_closure_moments = counted_closure
    homogeneous.sasaki_energy = counted_energy
    modes.integrate_mode = counted_mode
    try:
        harness.run_scenario(cfg)
    finally:
        homogeneous.scaling_closure_moments = closure
        homogeneous.sasaki_energy = energy
        modes.integrate_mode = integrate_mode
    return counts


def counts_section() -> dict:
    """Call counts of one default ``full_report`` and one default
    ``homogeneous`` run (:func:`run_counts`): deterministic, so they tell
    apart changes that walls cannot."""
    from milne_lab import harness, homogeneous, modes

    section = {"config": "defaults, seed 0"}
    for scenario in ("full_report", "homogeneous"):
        section[scenario] = run_counts(harness, homogeneous, modes, scenario)
        print(f"{scenario}: {section[scenario]['closure_calls']} closure "
              f"calls, {section[scenario]['sasaki_energy_calls']} "
              f"sasaki_energy calls, mode steps "
              f"{section[scenario]['mode_steps']}")
    return section


def fresh_peaks(harness, raw, env=None) -> tuple:
    """Own peak RSS, in MB, of one ``harness.run_scenario`` of ``raw`` in
    a fresh process, which imports the ``milne_lab`` that ``harness``
    belongs to, the scipy subpackages that run loaded, and the
    ``tracemalloc`` peak of a second run in that process, in MB
    (:data:`PEAK_RUN`); ``env`` adds environment variables."""
    src = Path(harness.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", PEAK_RUN, str(src), json.dumps(raw)],
        cwd=ROOT, capture_output=True, text=True, check=True,
        env={**os.environ, **(env or {})})
    rss, scipy_loaded, peak = json.loads(out.stdout.splitlines()[-1])
    return round(rss, 1), scipy_loaded, round(peak, 2)


def long_log_peaks(harness, extra: dict) -> dict:
    """Peak RSS (VmHWM, MB) of a fresh process that runs ``homogeneous``
    and ``full_report`` with ``extra`` and writes the run's report, and
    the seconds of that ``emit_report`` call, per scenario
    (:data:`LOG_RUN`)."""
    src = Path(harness.__file__).resolve().parent.parent
    figures = {}
    for scenario in ("homogeneous", "full_report"):
        out = subprocess.run(
            [sys.executable, "-c", LOG_RUN, str(src),
             json.dumps({"scenario": scenario, "seed": 0, **extra})],
            cwd=ROOT, capture_output=True, text=True, check=True)
        rss, seconds = json.loads(out.stdout.splitlines()[-1])
        figures[scenario] = {"peak_rss_mb": round(rss, 1),
                             "emit_report_s": round(seconds, 3)}
    return figures


def energy_peaks(harness) -> dict:
    """``tracemalloc`` peaks, in MB, of a ``sasaki_energy`` call on one
    log-point block and of a default ``full_report``'s homogeneous run,
    each in a fresh process of its own (:data:`ENERGY_RUN`) that imports
    the ``milne_lab`` that ``harness`` belongs to."""
    src = Path(harness.__file__).resolve().parent.parent
    peaks = {}
    for kind, key in (("block", "energy_block_peak_mb"),
                      ("evolve", "report_evolve_peak_mb")):
        out = subprocess.run(
            [sys.executable, "-c", ENERGY_RUN, str(src), kind],
            cwd=ROOT, capture_output=True, text=True, check=True)
        peaks[key] = round(json.loads(out.stdout.splitlines()[-1]), 2)
    return peaks


def memory_section() -> dict:
    """Peak RSS and ``tracemalloc`` peak of one ``characteristics`` run at
    the ``chars_wide`` size and of a default ``full_report``, each in a
    fresh process (:func:`fresh_peaks`), the peak RSS and report write
    of a run that logs every step (:func:`long_log_peaks`), and the
    ``tracemalloc`` peaks of the log-point energies (:func:`energy_peaks`)."""
    from milne_lab import harness

    raw = {"scenario": "characteristics", "seed": 0,
           "particleCount": 100_000, "Tend": 0.1}
    report_raw = {"scenario": "full_report", "seed": 0}
    chars_rss, _, chars_peak = fresh_peaks(harness, raw,
                                           {"MILNE_LAB_THREADS": "2"})
    rss, scipy_loaded, peak = fresh_peaks(harness, report_raw)
    long_log = long_log_peaks(harness, LONG_LOG)
    energy = energy_peaks(harness)
    section = {
        "config": f"{raw}, MILNE_LAB_THREADS=2",
        "characteristics_peak_mb": chars_peak,
        "characteristics_peak_rss_mb": chars_rss,
        "report_config": str(report_raw),
        "method": "tracemalloc peak over the second of two "
                  "harness.run_scenario calls in a fresh process, "
                  "MB = 2^20 bytes",
        "report_peak_mb": peak,
        "report_peak_rss_mb": rss,
        "report_scipy_subpackages": scipy_loaded,
        "rss_method": "VmHWM of the fresh process after its first run, "
                      "MB = 2^20 bytes",
        "long_log_config": str(LONG_LOG),
        "long_log": long_log,
        "long_log_method": "VmHWM of a fresh process after one "
                           "harness.run_scenario and one emit_report into "
                           "a temporary directory, MB = 2^20 bytes; "
                           "emit_report_s is the wall of that call",
        **energy,
        "energy_method": "tracemalloc peak of one call in a fresh process: "
                         "sasaki_energy(ell=2, mu=4, ladder_ell=5) on a "
                         "64 x 257 block (energy_block), the homogeneous "
                         "run of a default full_report (report_evolve), "
                         "MB = 2^20 bytes",
    }
    print(f"characteristics peak {chars_peak:.2f} MB, peak RSS "
          f"{chars_rss:.1f} MB; report peak {peak:.2f} MB, peak RSS "
          f"{rss:.1f} MB (scipy: {', '.join(scipy_loaded) or 'none'})")
    for scenario, figures in long_log.items():
        print(f"{scenario} logging every step: peak RSS "
              f"{figures['peak_rss_mb']:.1f} MB, emit_report "
              f"{figures['emit_report_s']:.2f} s")
    print(f"energy block peak {energy['energy_block_peak_mb']:.2f} MB, "
          f"report evolve peak {energy['report_evolve_peak_mb']:.2f} MB")
    return section


def fixed_cost(transport, frame0) -> dict:
    """us per step of a 1-particle run, the part of a step's cost that
    does not grow with the particles: a ``2 FIXED_STEPS`` against a
    ``FIXED_STEPS`` run (the same ten log rows each), scaled by the
    ``solver`` probe, whose scalar loop and small numpy calls are bound
    by per-call costs as this run is."""
    def run(steps):
        return lambda: run_once(transport, frame0, 1, steps, 1)

    figure = per_unit(run(2 * FIXED_STEPS), FIXED_STEPS,
                      short=run(FIXED_STEPS))["per_unit"]
    entry = {"particles": 1, "steps": [FIXED_STEPS, 2 * FIXED_STEPS],
             "threads": 1, **scaled("fixed_us_per_step", figure, 1e6, 1)}
    print(f"fixed cost: {entry['fixed_us_per_step']:.1f} us per step "
          f"(scaled {entry['scaled_fixed_us_per_step']:.1f})")
    return entry


def chunk_rows(transport, frame0) -> int:
    """Rows of one float per particle that the buffers of one chunk take:
    those ``transport._rows`` allocates in a one-particle summary run."""
    rows, counted = transport._rows, []

    def counting(m, n):
        counted.append(m)
        return rows(m, n)

    transport._rows = counting
    try:
        run_once(transport, frame0, 1, 1, 1, full_log=False)
    finally:
        transport._rows = rows
    return sum(counted)


def chunks_section() -> dict:
    """Wall of a summary run of ``CHUNK_RUN`` particles x steps with
    ``transport._CHUNK`` at each of ``CHUNK_SIZES``, ``CHUNK_BASE`` and
    the size the package derives, on a budget of each of ``THREADS``:
    ``CHUNK_ROUNDS`` rounds, each running every size once, in an order
    rotated by one size a round.  Per size: its chunks per worker and
    MiB per chunk, the median and quartiles of its walls, and the median
    over rounds of its wall over that of ``CHUNK_BASE`` in the same
    round."""
    from milne_lab import transport
    from milne_lab.geometry import make_time_frame

    frame0 = make_time_frame(-1.0, 0.0)
    n, steps = CHUNK_RUN
    derived = transport._CHUNK
    sizes = sorted({*CHUNK_SIZES, CHUNK_BASE, derived})
    rows = chunk_rows(transport, frame0)
    run_once(transport, frame0, 1_000, 10, 1)  # first-call costs
    sweeps = []
    try:
        for threads in THREADS:
            walls = {size: [] for size in sizes}
            for r in range(CHUNK_ROUNDS):
                for size in sizes[r % len(sizes):] + sizes[:r % len(sizes)]:
                    transport._CHUNK = size
                    walls[size].append(run_once(
                        transport, frame0, n, steps, threads,
                        full_log=False)[0])
            for size in sizes:
                transport._CHUNK = size
                chunks, jobs = transport._split(
                    n, transport._workers(threads, -(-n // size)))
                # the middle quartile is the median
                q1, median, q3 = statistics.quantiles(walls[size], n=4)
                particles = max(hi - lo for lo, hi in chunks)
                ratio = statistics.median(
                    w / b for w, b in zip(walls[size], walls[CHUNK_BASE]))
                mib = 8 * rows * particles / 2**20
                sweeps.append({
                    "threads": threads, "chunk": size,
                    "derived": size == derived, "workers": len(jobs),
                    "chunks_per_worker": len(jobs[0]),
                    "particles_per_chunk": particles,
                    "mib_per_chunk": round(mib, 3),
                    "wall_s": round(median, 4),
                    "wall_q1_s": round(q1, 4), "wall_q3_s": round(q3, 4),
                    "walls_s": [round(w, 4) for w in walls[size]],
                    "ratio_to_base": round(ratio, 4),
                })
                print(f"chunk {size:>5}, {threads} thread(s): "
                      f"{len(jobs[0]):>3} chunks of {particles} per worker, "
                      f"{mib:.2f} MiB each: {median:.3f} s ({q1:.3f}-"
                      f"{q3:.3f}), {ratio:.3f} x {CHUNK_BASE}")
    finally:
        transport._CHUNK = derived
    return {
        "config": f"{n} particles x {steps} steps, summary log, "
                  f"manufactured_lapse_fields({EPS}), h {H}",
        "derived_chunk": derived,
        "rows_per_chunk": rows,
        "rounds": CHUNK_ROUNDS,
        "statistic": f"median and quartiles of the integration walls over "
                     f"{CHUNK_ROUNDS} rounds, sizes in rotating order; "
                     f"ratio_to_base: the median over rounds of the wall "
                     f"over the wall at {CHUNK_BASE} in the same round",
        "sweeps": sweeps,
    }


def transport_section() -> dict:
    """ns per particle-step at each of ``SIZES`` on each of ``THREADS``,
    raw and scaled (``probed_walls`` with the ``wide`` kernel), with the
    largest mass-shell residual of each run, the peak RSS of one more run
    in a fresh process (see :func:`peak_rss`) and the fixed cost per step
    (:func:`fixed_cost`)."""
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
            workers = transport._workers(threads, -(-n // transport._CHUNK))
            walls = probed_walls(timed, "wide", workers,
                                 figure=lambda: {"run": [runs[-1][0]]})
            rows.append({
                "particles": n, "steps": steps, "threads": threads,
                **scaled("ns_per_particle_step", walls["figures"]["run"],
                         1e9 / (n * steps), 1),
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
    }


# in this order (see the module docstring)
SECTIONS = {
    "report": report_section,
    "scenarios": scenarios_section,
    "accuracy": accuracy_section,
    "counts": counts_section,
    "chunks": chunks_section,
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
        "src_sha256": src_sha256(src),
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
