"""Machine-speed probe of the benchmark, in a process of its own.

Usage: ``python3 perfbench/calibrate.py KERNEL THREADS``.  For each
number of seconds read on standard input, one a line, it repeats the
fixed kernel ``KERNEL`` (``wide`` or ``solver``, 0.09 to 0.2 s each)
for at least that long, and at least once, and writes the mean seconds
of one kernel; it exits at the end of its input.

The kernels never import milne_lab, so they do the same work on every
commit and their time follows only the speed of the shared machine,
which drifts by tens of percent over seconds to minutes. ``run.py``
scales the mean wall time of its timed scenario runs by the mean kernel
time taken around them. Each workload names the kernel whose time
tracked its own run times best on the VM the benchmark was tuned on
(run-to-run correlation about 0.8 for both): ``wide`` does elementwise
work on (100000, 3) blocks past L2, once on each thread of the
workload's budget, like ``chars_wide``; ``solver`` fits scipy cubic
splines, sums Gauss-Legendre quadratures, solves a small ODE with
``solve_ivp``, makes numpy calls on a (1000, 3) block and runs a scalar
Python loop, like the log points, closure and mode sector of ``report``.
Of these parts, the scipy ones slowed about 1.3 times as much as
``report`` when the machine slowed and the others about 0.8 times as
much; together they slowed as much as ``report`` did. The probe runs in
its own process so that nothing the program leaves running in the client
process (threads, interpreter state) slows the kernel instead of the
runs it scales.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402

import numpy as np  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402
from scipy.interpolate import CubicSpline  # noqa: E402

_rng = np.random.default_rng(0)
SMALL = _rng.standard_normal((1000, 3))
WIDE = _rng.standard_normal((100000, 3))
GRID = np.linspace(0.0, 5.0, 501)
PROFILE = np.sin(GRID) * np.exp(-GRID)


def _wide(_) -> float:
    y = WIDE.copy()
    for _ in range(16):
        y = y * 0.999 + np.sin(y) * 1e-3
    return float(y[0, 0])


def wide(pool, threads: int) -> float:
    """Elementwise work on (100000, 3) blocks, once on every thread."""
    return sum(pool.map(_wide, range(threads)))


def _oscillator(t, y):
    return [y[1], -y[0] - 0.1 * y[1]]


def solver(pool, threads: int) -> float:
    """scipy spline fits, quadrature and an ODE solve, then numpy calls
    on a (1000, 3) block and a scalar Python loop."""
    s = 0.0
    for i in range(40):
        spline = CubicSpline(GRID, PROFILE + i * 1e-3)
        nodes, weights = np.polynomial.legendre.leggauss(48)
        s += float(np.sum(weights * spline(2.5 + 2.5 * nodes)))
    for _ in range(4):
        s += float(solve_ivp(_oscillator, (0.0, 20.0), [1.0, 0.0],
                             rtol=1e-8, atol=1e-10).y[0, -1])
    x = SMALL.copy()
    for _ in range(700):
        x = x * 0.999 + SMALL * 1e-3
        x /= np.sqrt(np.sum(x * x, axis=1))[:, None]
    for i in range(120000):
        s += (i % 7) * 0.5 - s * 1e-6
    return s + float(x[0, 0])


KERNELS = {"wide": wide, "solver": solver}


def main() -> int:
    kernel, threads = KERNELS[sys.argv[1]], int(sys.argv[2])
    with ThreadPoolExecutor(threads) as pool:
        kernel(pool, threads)  # warm-up: first calls are slower
        for line in sys.stdin:
            # repeat the kernel for at least the requested seconds and
            # report the mean time of one
            want, times = float(line), []
            while not times or sum(times) < want:
                t0 = time.perf_counter()
                kernel(pool, threads)
                times.append(time.perf_counter() - t0)
            print(repr(sum(times) / len(times)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
