#!/usr/bin/env python3
"""milne-lab benchmark: one closed-loop client driving the scenario API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chars_wide --seed 0 --seconds 45 --trace 0

One client in one process calls ``validate_config`` once, then
``run_scenario`` followed by ``emit_report`` into a scratch directory;
each run starts when the previous one has ended and been checked by the
correctness gate (``gate.py``, outside the timed region).  Runs repeat
until ``--seconds`` have passed.  With ``--trace 0`` a probe process
(``calibrate.py``) times a fixed kernel between the runs, and each run's
wall time is scaled by it to one machine speed.

``--trace 0`` prints the end-to-end metrics (``metrics.END_TO_END``);
``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics (``metrics.PER_LAYER``), medians over the traced runs,
and writes the spans to ``.perfbench_out/spans-<workload>.json``.  The
last line of standard output is the JSON result.  Exit status 2 means
the checkout holds no ``src/milne_lab``.
"""

import os

# pin the BLAS/OpenMP pools before numpy loads (here and in the set-up
# probes), so a run uses no more threads than its MILNE_LAB_THREADS budget
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5  # timed fresh processes per run, after one warm-up probe
# seconds of each calibrate.py kernel at the speed wall_s is quoted at
# (about the fast state of a 2-vCPU Intel Xeon VM at 2.0 GHz)
KERNEL_REF_S = {"wide": 0.09, "solver": 0.13}
# the probe runs after each scenario run for this share of its wall time;
# about the share at which the probe's own noise and the fewer runs it
# leaves add the least to the spread of wall_s
KERNEL_SHARE = 0.25

sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS, config_for  # noqa: E402


class Client:
    """Closed-loop client: one scenario run at a time, each one checked."""

    def __init__(self, lab, cfg, out_dir: Path):
        self.lab = lab
        self.cfg = cfg
        self.out_dir = str(out_dir)
        self.attempted = 0
        self.failed = 0
        self.reference = None   # output bytes of the first run
        self.worst_residual = 0.0
        self.summary = None     # summary of the last run

    def run(self):
        """Wall seconds of one run_scenario + emit_report, None if it raised."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = self.lab.run_scenario(self.cfg)
            paths = self.lab.emit_report(result, self.out_dir)
            wall = time.perf_counter() - t0
            outputs = gate.read_outputs(paths)
        except Exception:  # a crashing run is a failed run, not a crash
            traceback.print_exc()
            self.failed += 1
            return None
        if self.reference is None:
            self.reference = outputs
        failures = gate.check(result["ok"], outputs, self.reference)
        if failures:
            print(f"run {self.attempted} failed the gate: {failures}",
                  file=sys.stderr)
            self.failed += 1
        else:
            report = json.loads(outputs[1])
            self.worst_residual = max(self.worst_residual,
                                      gate.certified_residual(report))
        self.summary = result["summary"]
        return wall

    def pass_rate(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _command_output(cmd, env=None):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_lines() -> dict:
    """Non-blank, non-comment lines of each package module."""
    counts = {}
    for path in sorted((SRC / "milne_lab").glob("*.py")):
        lines = path.read_text().splitlines()
        counts[path.name] = sum(1 for ln in lines
                                if ln.strip() and not ln.strip().startswith("#"))
    counts["total"] = sum(counts.values())
    return counts


def environment(workload: str, seed: int) -> dict:
    """What the numbers depend on besides the code: versions and machine."""
    import numpy
    import scipy

    # stop git at the checkout, so an exported tree reports no sha
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    cache = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        raw = _command_output(["getconf", level])
        cache[level] = int(raw) if raw and raw.isdigit() else None
    return {
        "workload": workload,
        "seed": seed,
        "seed_dependent": WORKLOADS[workload]["uses_seed"],
        "git_sha": _command_output(["git", "rev-parse", "HEAD"], env=git_env),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "l2_bytes_per_core": cache["LEVEL2_CACHE_SIZE"],
        "l3_bytes": cache["LEVEL3_CACHE_SIZE"],
        "MILNE_LAB_THREADS": os.environ["MILNE_LAB_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "source_lines": source_lines(),
    }


def setup_probe(raw: dict) -> float:
    """Set-up time of one fresh process (see ``setup_probe.py``)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), json.dumps(raw)],
        cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True,
        timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Calibrator:
    """The machine-speed probe ``calibrate.py``, running beside the client."""

    def __init__(self, kernel: str, threads: int):
        self.args = [kernel, str(threads)]

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py"), *self.args],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        return self

    def measure(self, seconds: float) -> float:
        """Mean seconds of the probe's kernel, repeated for ``seconds``."""
        self.proc.stdin.write(f"{seconds!r}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def end_to_end(lab, workload: str, seed: int, seconds: float,
               out_dir: Path) -> dict:
    raw = config_for(workload, seed)
    setup_probe(raw)  # warm-up: writes the bytecode caches
    try:  # warm-up: first-call costs are not part of wall_s
        warm = lab.run_scenario(lab.validate_config(
            config_for(workload, seed, warmup=True)))
        lab.emit_report(warm, str(out_dir))
    except Exception:  # the timed runs that follow count the failure
        traceback.print_exc()
    client = Client(lab, lab.validate_config(raw), out_dir)
    # set-up probes are spread over the measuring window, between runs,
    # so both medians sample the same stretch of machine time; the
    # window is extended by the time the probes take
    setup, walls, kernel = [], [], []
    probe = WORKLOADS[workload]["probe"]
    with Calibrator(probe, WORKLOADS[workload]["threads"]) as cal:
        start = time.perf_counter()
        deadline = start + seconds
        gap = 0.0  # seconds of probe kernel after each run
        before = cal.measure(gap)
        while True:
            wall = client.run()
            gap = KERNEL_SHARE * (wall or gap)
            after = cal.measure(gap)
            if wall is not None:
                walls.append(wall)
                kernel.append(0.5 * (before + after))
            before = after
            if len(setup) < SETUP_PROBES and (
                    time.perf_counter() - start
                    >= len(setup) * seconds / SETUP_PROBES):
                t0 = time.perf_counter()
                setup.append(setup_probe(raw))
                deadline += time.perf_counter() - t0
                before = cal.measure(gap)
            if time.perf_counter() >= deadline:
                break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(raw))
    print("samples " + json.dumps({"setup_s": setup, "wall_s": walls,
                                   "kernel_s": kernel}))
    worst = client.worst_residual
    values = {
        "setup_s": _median(setup),
        # the mean run scaled by the mean probe kernel time around the
        # runs, to the machine speed at which the kernel takes
        # KERNEL_REF_S: the shared machine's speed drifts by tens of
        # percent between and within runs, and the kernel, which runs no
        # milne_lab code, follows much of that drift and nothing else
        "wall_s": KERNEL_REF_S[probe] * statistics.fmean(walls)
        / statistics.fmean(kernel) if walls else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "residual_digits": -math.log10(worst) if worst > 0.0 else 0.0,
        "pass_rate": client.pass_rate(),
    }
    return {"client": client, "metrics": metrics.as_metrics(
        metrics.END_TO_END, values)}


def rk4_order(cfg) -> float:
    """Observed order of the characteristic integrator (criterion 2).

    Mass-shell residual at T0 + 2 of 16 particles for h = 8e-2 and
    h = 2e-2 under the manufactured lapse; the order is log2 of the
    residual ratio over the two halvings, divided by two.
    """
    import numpy as np
    from milne_lab import geometry, transport

    rng = np.random.default_rng(cfg.seed)
    n = 16
    ens = transport.ParticleEnsemble(
        x=rng.uniform(-1.2, 1.2, size=(n, 3)),
        p=rng.normal(scale=0.7, size=(n, 3)),
        weights=np.full(n, 1.0 / n))
    provider = transport.manufactured_lapse_fields(cfg.perturbationEps)
    frame0 = geometry.make_time_frame(cfg.tau0, cfg.T0)
    errs = []
    for h in (8e-2, 2e-2):
        log, _ = transport.integrate_characteristics(
            ens, provider, frame0, cfg.T0 + 2.0, h, mode="derived",
            log_every=int(round(2.0 / h)))
        errs.append(float(np.max(np.abs(log.massshell_residual[-1]))))
    return math.log2(errs[0] / errs[1]) / 2.0


def per_layer(lab, workload: str, seed: int, seconds: float, out_dir: Path,
              env: dict) -> dict:
    import layers
    import tracer as tr

    cfg = lab.validate_config(config_for(workload, seed))
    client = Client(lab, cfg, out_dir)
    first = client.run()
    tracer = tr.Tracer()
    plain, traced, per_run = [], [], []
    deadline = time.perf_counter() + seconds
    for turn in itertools.count():
        if turn % 2 == 0:
            wall = client.run()
            if wall is not None:
                plain.append(wall)
        else:
            tracer.run += 1
            start = len(tracer.spans)
            with tr.tracing(tracer, lab):
                wall = client.run()
            if wall is not None:
                traced.append(wall)
                per_run.append(layers.span_metrics(tracer.spans[start:]))
        if turn >= 1 and time.perf_counter() >= deadline:
            break

    threads = WORKLOADS[workload]["threads"]
    speedup = 1.0
    if threads > 1:
        # the same problem on one thread; the gate compares its bytes with
        # the reference output of the full budget (thread invariance)
        os.environ["MILNE_LAB_THREADS"] = "1"
        try:
            single = client.run()
        finally:
            os.environ["MILNE_LAB_THREADS"] = str(threads)
        if single is not None and plain:
            speedup = single / _median(plain)

    violations = layers.split_violations(cfg.scenario, tracer.spans)
    if violations:
        print(f"layer split broken: {cfg.scenario} reached {violations}",
              file=sys.stderr)
        client.failed += 1

    is_chars = cfg.scenario == "characteristics"
    summary = client.summary or {}
    per_run = per_run or [layers.span_metrics([])]  # every traced run failed
    values = {name: _median([run[name] for run in per_run])
              for name in per_run[0]}
    values.update({
        "transport.thread_speedup": speedup,
        "transport.flagged": summary.get("flagged", 0) if is_chars else 0,
        "transport.massshell_residual_max":
            summary.get("max_residual", 0.0) if is_chars else 0.0,
        "transport.rk4_order": rk4_order(cfg) if is_chars else 0.0,
        "homogeneous.constraint_defect":
            summary.get("constraint_defect", 0.0) if not is_chars else 0.0,
        "harness.first_call_extra_s":
            first - _median(plain) if first is not None and plain else 0.0,
        "trace.overhead":
            _median(traced) / _median(plain) - 1.0 if traced and plain else 0.0,
    })
    print("samples " + json.dumps({"first_s": first, "untraced_s": plain,
                                   "traced_s": traced}))
    tracer.dump(str(OUT / f"spans-{workload}.json"), env)
    return {"client": client, "metrics": metrics.as_metrics(
        metrics.PER_LAYER, values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "milne_lab" / "__init__.py").is_file():
        print(f"error: no milne_lab package under {SRC}; run from the root "
              "of a milne-lab checkout", file=sys.stderr)
        return 2
    os.environ["MILNE_LAB_THREADS"] = str(WORKLOADS[args.workload]["threads"])
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    out_dir = OUT / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        import milne_lab
        env = environment(args.workload, args.seed)
        print("env " + json.dumps(env))
        if args.trace:
            res = per_layer(milne_lab, args.workload, args.seed, args.seconds,
                            out_dir, env)
        else:
            res = end_to_end(milne_lab, args.workload, args.seed,
                             args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    client = res["client"]
    print(json.dumps({"correct": client.failed == 0,
                      "attempted": client.attempted,
                      "failed": client.failed,
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
