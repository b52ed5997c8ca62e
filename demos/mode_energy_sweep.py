"""Sweep the damped oscillator family and verify corrected-energy decay.

Each eigenvalue lambda >= 1/9 drives one mode equation.  Away from the
borderline the corrected energy obeys dE/dT + 2E = 0 exactly; at the
borderline a slightly detuned cross term still guarantees the rate
2 * alpha with alpha = 0.9.  The sweep prints one row per eigenvalue,
with the verdict of ``energy_decay_check``, the acceptance rule of the
``modes`` scenario.
"""

import numpy as np

from milne_lab.geometry import correction_constants
from milne_lab.modes import (
    MODE_CSV_COLUMNS,
    corrected_energy,
    dissipation_identity,
    integrate_mode,
    mode_sweep,
)

LAMBDAS = (1.0 / 9.0, 0.2, 5.0 / 9.0, 1.0, 2.0)

sweep = mode_sweep(LAMBDAS, (0.0, 8.0), 2000, 1.0 / 900.0)
print("  ".join(f"{c:>18s}" for c in MODE_CSV_COLUMNS + ["holds"]))
for entry in sweep:
    print("  ".join([f"{entry[c]:18.6e}" for c in MODE_CSV_COLUMNS]
                    + [f"{entry['holds']!s:>18s}"]))

# closed-form checks for the two analytically solvable members
traj = integrate_mode(1.0 / 9.0, 1.0, -1.0, (0.0, 6.0), 3000,
                      eps_prime=1.0 / 900.0)
print(f"\nborderline u vs e^-T:      "
      f"{np.max(np.abs(traj.u - np.exp(-traj.T))):.3e}")
traj = integrate_mode(5.0 / 9.0, 1.0, -1.0, (0.0, 6.0), 3000)
print(f"oscillatory u vs closed form: "
      f"{np.max(np.abs(traj.u - np.exp(-traj.T) * np.cos(2 * traj.T))):.3e}")

# the dissipation identity is a negative semidefinite quadratic form
c = correction_constants(1.0 / 9.0, eps_prime=1.0 / 900.0)
diss = dissipation_identity(traj.u, traj.w, 1.0 / 9.0, c)
print(f"worst borderline dissipation value: {np.max(diss):.3e} (<= 0)")

# stacking the weight ladder to order six preserves the decay rate
E6 = corrected_energy(traj.u, traj.w, 5.0 / 9.0,
                      correction_constants(5.0 / 9.0), order=6)
late = traj.T > 3.0
rate = -np.polyfit(traj.T[late], np.log(E6[late]), 1)[0]
print(f"order-6 stacked energy rate: {rate:.4f} (expect 2)")
