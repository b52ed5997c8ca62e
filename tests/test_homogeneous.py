import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from milne_lab._quadrature import composite_gauss_legendre
from milne_lab.homogeneous import (
    HOMOGENEOUS_CSV_COLUMNS,
    ConstraintSingularError,
    HomogeneousRun,
    _closure_nodes,
    evolve_homogeneous,
    hamiltonian_constraint_b,
    initial_density,
    scaling_closure_moments,
    solve_lapse_algebraic,
)
from milne_lab.geometry import make_time_frame
from milne_lab.matter import RadialDistribution


def bump(amp, qmax=2.0):
    return RadialDistribution(grid=np.linspace(0.0, qmax, 200), qmax=qmax,
                              profile=lambda q: amp * np.maximum(
                                  0.0, 1.0 - (q / qmax) ** 2))


class TestAlgebraicPieces:
    def test_vacuum_lapse_exact(self):
        assert solve_lapse_algebraic(0.0, 0.0) == 3.0

    def test_lapse_below_three_with_matter(self):
        N = solve_lapse_algebraic(0.0, 0.05)
        assert 0.0 < N < 3.0

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            solve_lapse_algebraic(0.0, -0.1)

    def test_constraint_vacuum(self):
        assert hamiltonian_constraint_b(0.0, make_time_frame(-1.0, 0.0)) == 1.0

    def test_constraint_pole(self):
        with pytest.raises(ConstraintSingularError):
            hamiltonian_constraint_b(1.0 / 6.0, make_time_frame(-1.0, 0.0))


class TestVacuumRun:
    def test_fixed_point_preserved(self):
        f0 = RadialDistribution(grid=np.linspace(0.0, 1.0, 20), qmax=1.0,
                                values=np.zeros(20))
        run = evolve_homogeneous(f0, tau0=-1.0, T_end=3.0, n_steps=300)
        assert run.completed
        assert np.max(np.abs(run.b_ode - 1.0)) < 1e-12
        assert np.max(np.abs(run.N - 3.0)) < 1e-12
        assert np.max(np.abs(run.rho)) == 0.0


@pytest.fixture(scope="module")
def run():
    return evolve_homogeneous(bump(2e-3), tau0=-1.0, T_end=4.0,
                              n_steps=2000, n_q=257, log_every=10)


class TestMatterRun:
    def test_completes(self, run):
        assert run.completed and run.abort_reason is None

    def test_constraint_propagation_defect(self, run):
        # the algebraic lapse makes the ODE for b reproduce the constraint
        # solution exactly; against the closure density only integrator
        # roundoff remains (b_constraint logs the grid-sampled density, so
        # it carries the trapezoid error instead)
        s = np.abs(run.tau)
        b_from_closure = 1.0 / (1.0 - 6.0 * s * run.rho_closure)
        assert np.max(np.abs(run.b_ode - b_from_closure)) < 1e-10
        assert np.max(np.abs(run.b_ode - run.b_constraint)) < 1e-4

    def test_lapse_range_and_monotone_relaxation(self, run):
        assert np.all(run.N > 0.0) and np.all(run.N <= 3.0 + 1e-12)
        assert run.N[-1] > run.N[0]

    def test_density_decays_toward_dust_value(self, run):
        # s rho is the dimensionless smallness driver and must shrink
        s = np.abs(run.tau)
        assert s[-1] * run.rho[-1] < 0.5 * s[0] * run.rho[0]

    def test_grid_sampled_moments_track_closure(self, run):
        assert np.max(np.abs(run.rho - run.rho_closure)
                      / np.abs(run.rho_closure)) < 1e-4
        assert np.max(np.abs(run.eta_under - run.eta_under_closure)
                      / np.abs(run.eta_under_closure)) < 1e-4

    def test_continuity_density_matches_kinetic_density(self, run):
        assert np.max(np.abs(run.rho_cont - run.rho_closure)) < 1e-9

    def test_rows_match_csv_schema(self, run):
        rows = run.rows()
        assert len(rows[0]) == len(HOMOGENEOUS_CSV_COLUMNS)
        assert rows[0][0] == pytest.approx(0.0)

    def test_weighted_energy_square_decreasing(self, run):
        # the raw norm may grow with the support stretch; the run-level
        # claim is decay of the down-weighted square
        weighted = np.exp(-0.9 * run.T) * run.E_report**2
        assert weighted[-1] < weighted[0]


class TestGridConvergence:
    def test_sampled_moment_error_quarters_per_doubling(self):
        errs = []
        for n_q in (65, 129, 257):
            run = evolve_homogeneous(bump(2e-3), tau0=-1.0, T_end=2.0,
                                     n_steps=1000, n_q=n_q)
            errs.append(np.max(np.abs(run.rho - run.rho_closure)))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert r1 > 3.9 and r2 > 3.9


class TestFailureModes:
    def test_overdense_start_hits_constraint_pole(self):
        with pytest.raises(ConstraintSingularError):
            evolve_homogeneous(bump(0.05), tau0=-1.0, T_end=1.0, n_steps=100)

    def test_steps_must_align_with_logging(self):
        with pytest.raises(ValueError):
            evolve_homogeneous(bump(2e-3), tau0=-1.0, T_end=1.0, n_steps=105,
                               log_every=10)

    def test_nonpositive_steps_rejected(self):
        with pytest.raises(ValueError):
            evolve_homogeneous(bump(2e-3), tau0=-1.0, T_end=1.0, n_steps=0)


def closure_from_nodes(f0_vals, u, w, r, s):
    """The closure written on the raw nodes, weights and f0 values."""
    ph = np.sqrt(1.0 + (s**2 * r) * u**2)
    rho = 4.0 * math.pi * r**1.5 * float(np.sum(w * f0_vals * ph * u**2))
    eta_under = 4.0 * math.pi * r**2.5 * float(np.sum(w * f0_vals * u**4
                                                       / ph))
    return rho, eta_under


def assert_bitwise(got, want, what=""):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert np.array_equal(got, want), what
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), what


class TestClosureBitwise:
    @pytest.mark.parametrize("n_nodes", [48, 96])
    def test_node_products_match_raw_formula(self, n_nodes):
        f0 = bump(2e-3)
        u, w = composite_gauss_legendre(0.0, f0.qmax, n_nodes)
        f0_vals = f0(u)
        nodes = _closure_nodes(f0, n_nodes)
        for got, want in zip(nodes, (w * f0_vals, u**2, w * f0_vals * u**4)):
            assert_bitwise(got, want)
        rng = np.random.default_rng(11)
        rs = rng.uniform(0.01, 1.0, size=300)
        ss = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 2.0, size=298)])
        got = [scaling_closure_moments(*nodes, r, s) for r, s in zip(rs, ss)]
        want = [closure_from_nodes(f0_vals, u, w, r, s)
                for r, s in zip(rs, ss)]
        assert_bitwise(got, want)
        assert_bitwise(initial_density(f0, -0.7, n_nodes),
                       closure_from_nodes(f0_vals, u, w, 1.0, 0.7)[0])


class TestRunBitwise:
    def test_run_matches_recorded_reference(self):
        data = Path(__file__).parent / "data"
        ref = json.loads((data / "homogeneous_run_reference.json").read_text())
        run = evolve_homogeneous(bump(2e-3), tau0=-1.0, T_end=4.0,
                                 n_steps=200, log_every=20, n_nodes=48,
                                 n_q=65)
        assert run.completed
        arrays = [f.name for f in dataclasses.fields(HomogeneousRun)
                  if isinstance(getattr(run, f.name), np.ndarray)]
        assert sorted(arrays) == sorted(set(ref) - {"about", "b0"})
        for name in arrays:
            want = [float.fromhex(v) for v in ref[name]]
            assert_bitwise(getattr(run, name), want, name)
        assert float(run.b0).hex() == ref["b0"]
