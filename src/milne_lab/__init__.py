"""Numerical laboratory for kinetic matter near an expanding attractor.

The package studies small perturbations of a linearly expanding vacuum
cosmology coupled to collisionless kinetic matter, in nondimensional
variables that turn the background into a fixed point.  Modules:

* :mod:`milne_lab.geometry` — background chart, time frames, connection
  blocks and the energy-correction constants;
* :mod:`milne_lab.massshell` — the mass-shell root and the pointwise
  momentum estimates;
* :mod:`milne_lab.transport` — characteristic (geodesic) transport with
  mass-shell-conservation diagnostics and the momentum-support envelope;
* :mod:`milne_lab.matter` — the isotropic distribution, the continuity
  system of its moments and the Cauchy-Schwarz moment bounds;
* :mod:`milne_lab.modes` — linear perturbation oscillators and corrected
  energy decay;
* :mod:`milne_lab.homogeneous` — the reduced homogeneous isotropic
  system with constraint and consistency diagnostics, and its closure,
  the one quadrature of the isotropic moments;
* :mod:`milne_lab.energies` — energy functionals, decay fits and the
  run monitors;
* :mod:`milne_lab.harness` — scenario configuration, orchestration,
  persistence and the ``milne-lab`` CLI.
"""

from .geometry import (BACKGROUND_LAPSE, BackgroundChart, CorrectionConstants,
                       LocalGeometry, TimeFrame, background_geometry,
                       correction_constants, make_time_frame,
                       rescaled_christoffels)
from .massshell import (SingularShiftError, compute_p0, mass_shell_residual,
                        normalization_report, pointwise_estimates_check)
from .transport import ParticleEnsemble
from .matter import (RadialDistribution, UnsupportedModeError,
                     continuity_rhs, moment_bound_check)
from .modes import (ModeTrajectory, corrected_energy, energy_decay_check,
                    integrate_mode, mode_sweep)
from .homogeneous import (ConstraintSingularError, HomogeneousRun,
                          evolve_homogeneous, hamiltonian_constraint_b,
                          solve_lapse_algebraic)
from .energies import decay_fit, monitors, sasaki_energy, total_energy
from .harness import (ConfigError, ScenarioConfig, emit_report, main,
                      run_scenario, validate_config)

__version__ = "0.1.0"

__all__ = [
    "BACKGROUND_LAPSE", "BackgroundChart", "CorrectionConstants",
    "LocalGeometry", "TimeFrame", "background_geometry",
    "correction_constants", "make_time_frame", "rescaled_christoffels",
    "SingularShiftError", "compute_p0", "mass_shell_residual",
    "normalization_report", "pointwise_estimates_check",
    "ParticleEnsemble", "RadialDistribution", "UnsupportedModeError",
    "continuity_rhs", "moment_bound_check",
    "ModeTrajectory", "corrected_energy", "energy_decay_check",
    "integrate_mode", "mode_sweep",
    "ConstraintSingularError", "HomogeneousRun", "evolve_homogeneous",
    "hamiltonian_constraint_b", "solve_lapse_algebraic",
    "decay_fit", "monitors", "sasaki_energy", "total_energy",
    "ConfigError", "ScenarioConfig", "emit_report", "main", "run_scenario",
    "validate_config",
    "__version__",
]
