"""Audit the homogeneous background as an exact fixed point.

Walks through the pieces one by one: the reference chart has constant
negative curvature, the algebraic lapse returns exactly 3, the
connection correction blocks vanish, and the scenario runner confirms
everything at the 1e-12 level.
"""

import numpy as np

from milne_lab.geometry import (
    BackgroundChart,
    background_geometry,
    make_time_frame,
    rescaled_christoffels,
)
from milne_lab.harness import run_scenario, validate_config
from milne_lab.homogeneous import solve_lapse_algebraic

# curvature of the reference chart at a few sample points
chart = BackgroundChart()
rng = np.random.default_rng(0)
for x in rng.uniform(-1.0, 1.0, size=(3, 3)):
    ric = chart.ricci(x)
    g = chart.metric(x)
    print(f"x={np.round(x, 3)}  max|Ric + (2/9) g| = "
          f"{np.max(np.abs(ric + (2.0 / 9.0) * g)):.3e}  "
          f"R = {chart.scalar_curvature(x):+.6f}")

# the vacuum lapse is exactly 3, with no numerical defect
print(f"\nalgebraic lapse at vacuum: {solve_lapse_algebraic(0.0)!r}")

# connection corrections vanish on the background
geom = background_geometry()
blocks = rescaled_christoffels(geom, make_time_frame(-1.0, 1.0))
print(f"max|Gamma*|  = {np.max(np.abs(blocks['gamma_star'])):.3e}")
print(f"max|Gamma**| = {np.max(np.abs(blocks['gamma_star_star'])):.3e}")

# the packaged scenario bundles every residual into one verdict
result = run_scenario(validate_config({"scenario": "background_check",
                                       "seed": 0}))
print(f"\nscenario verdict: ok={result['ok']}, worst residual "
      f"{result['summary']['worst_residual']:.3e}")
for name, value in zip(*result["log"].values):
    print(f"  {name}: {value:.3e}")
