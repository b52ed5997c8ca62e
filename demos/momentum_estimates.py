"""Pointwise momentum bookkeeping on the mass shell.

Demonstrates the three equivalent ways of solving the mass-shell
relation for the time component of the momentum, the fixed
normalization ratio between the raw and rescaled conventions, and the
pointwise inequalities that hold for every admissible sample.
"""

import numpy as np

from milne_lab.geometry import LocalGeometry, make_time_frame
from milne_lab.massshell import (
    compute_p0,
    mass_shell_residual,
    normalization_report,
    pbar,
    phat,
    pointwise_estimates_check,
)

rng = np.random.default_rng(3)
A = rng.normal(scale=0.1, size=(3, 3))
geom = LocalGeometry(g=np.eye(3) + 0.5 * (A + A.T),
                     Sigma=np.zeros((3, 3)), N=2.8,
                     X=np.array([0.1, -0.2, 0.05]))
frame = make_time_frame(-1.0, 0.5)
p = rng.normal(scale=1.5, size=(5, 3))

print("method agreement on five samples:")
for method in ("paper_primary", "paper_alternative", "first_principles"):
    vals = compute_p0(geom, p, frame, method)
    print(f"  {method:18s} {np.round(vals, 8)}")

rep = normalization_report(geom, p, frame)
print(f"\nraw/closed-form ratio: {np.mean(rep['ratio']):.6f} "
      f"(expected {rep['expected']:.6f}, consistent={rep['consistent']})")

p0 = compute_p0(geom, p, frame, "paper_primary")
print(f"on-shell residual: {np.max(np.abs(mass_shell_residual(geom, p, p0, frame))):.3e}")

p0_single = compute_p0(geom, p[0], frame, "paper_primary")
print(f"\nsingle-point bundle: p0={p0_single:.6f}  "
      f"pund={geom.N * p0_single:.6f}  pbar={pbar(geom, p[0]):.6f}  "
      f"phat={phat(geom, p[0], frame):.6f}")

# large-sample inequality sweep
total, bad = 0, 0
for _ in range(100):
    B = rng.normal(scale=0.1, size=(3, 3))
    g = np.eye(3) + 0.5 * (B + B.T)
    if np.min(np.linalg.eigvalsh(g)) <= 0.05:
        g = np.eye(3)
    gm = LocalGeometry(g=g, Sigma=np.zeros((3, 3)),
                       N=3.0 + rng.uniform(-0.5, 0.5),
                       X=rng.uniform(-0.3, 0.3, size=3))
    fr = make_time_frame(-1.0, rng.uniform(0.0, 6.0))
    samples = rng.normal(scale=3.0, size=(1000, 3))
    chk = pointwise_estimates_check(gm, samples, fr)
    total += samples.shape[0]
    bad += 0 if (chk["holds1"] and chk["holds2"]) else 1
print(f"\npointwise estimates: {bad} violating batches over "
      f"{total} samples")
