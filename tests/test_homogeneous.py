import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from milne_lab import homogeneous
from milne_lab._rk4 import rk4_step
from milne_lab._quadrature import composite_gauss_legendre, trapezoid
from milne_lab.energies import _not_a_knot_spline, sasaki_energy
from milne_lab.homogeneous import (
    HOMOGENEOUS_CSV_COLUMNS,
    ConstraintSingularError,
    HomogeneousRun,
    _closure_nodes,
    _linspace_rows,
    evolve_homogeneous,
    hamiltonian_constraint_b,
    initial_density,
    scaling_closure_moments,
    solve_lapse_algebraic,
)
from milne_lab.geometry import make_time_frame
from milne_lab.harness import run_scenario, validate_config
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
                                profile=np.zeros_like)
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
        # one call after another in the run's scratch, at r = 1 (T = 0)
        # and s = 0 among them
        rng = np.random.default_rng(11)
        rs = np.concatenate([[1.0, 1.0, 0.3],
                             rng.uniform(0.01, 1.0, size=297)])
        ss = np.concatenate([[0.0, 0.7, 0.0, 1.0],
                             rng.uniform(0.0, 2.0, size=296)])
        got = [scaling_closure_moments(*nodes, r, s) for r, s in zip(rs, ss)]
        want = [closure_from_nodes(f0_vals, u, w, r, s)
                for r, s in zip(rs, ss)]
        assert_bitwise(got, want)
        assert_bitwise(initial_density(f0, -0.7, n_nodes),
                       closure_from_nodes(f0_vals, u, w, 1.0, 0.7)[0])


def rk4_states(f0, tau0, T_end, n_steps, n_nodes):
    """``(b, rho_cont)`` after every step: ``rk4_step`` driven by the
    slopes of the scale-factor and continuity equations, with the lapse
    and the moments from :func:`closure_from_nodes`."""
    u, w = composite_gauss_legendre(0.0, f0.qmax, n_nodes)
    f0_vals = f0(u)
    s0 = abs(tau0)
    rho0 = closure_from_nodes(f0_vals, u, w, 1.0, s0)[0]
    b0 = hamiltonian_constraint_b(rho0, make_time_frame(tau0, 0.0))

    def rhs(T, y):
        b, rho_cont = y
        s = s0 * math.exp(-T)
        rho_c, eta_c = closure_from_nodes(f0_vals, u, w, b0 / b, s)
        eta = rho_c + s**2 * eta_c
        N = solve_lapse_algebraic(0.0, s * eta)
        return (2.0 * (N / 3.0 - 1.0) * b,
                (3.0 - N) * rho_cont - s**2 * (N / 3.0) * eta_c)

    h = T_end / n_steps
    y, states = (b0, rho0), [(b0, rho0)]
    for i in range(n_steps):
        y = rk4_step(rhs, i * h, y, h)
        states.append(tuple(y))
    return np.array(states)


class TestWrittenOutStage:
    """The written-out RK4 step, bit for bit against ``rk4_step``."""

    @settings(max_examples=12, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=3e-3),
           st.floats(min_value=-1.5, max_value=-0.2),
           st.floats(min_value=5e-3, max_value=5e-2),
           st.integers(min_value=10, max_value=30))
    # dense matter (b0 near 2.7) with a long step: a run in which summing
    # the b slopes as db1 + 2 (db2 + db3) + db4 changes b_ode (few runs
    # show that reassociation; none of the scenario outputs does)
    @example(0.0024075399560973335, -1.5, 0.0390625, 10)
    # and one in which summing the rho_cont slopes as dr1 + 2 (dr2 + dr3)
    # + dr4 changes rho_cont: 15 of 972 completed runs on a grid of
    # amplitudes 1e-3 to 3e-3, tau0 -1.5 to -0.2 and h 0.05 to 0.2 show it
    @example(0.0025, -1.2, 0.075, 10)
    def test_run_matches_rk4_step_over_the_slopes(self, amp, tau0, h, tens):
        n_steps = 10 * tens
        f0 = bump(amp)
        run = evolve_homogeneous(f0, tau0, h * n_steps, n_steps, n_q=33,
                                 log_every=10, n_nodes=48)
        assert run.completed
        want = rk4_states(f0, tau0, h * n_steps, n_steps, 48)[::10]
        assert_bitwise(run.b_ode, want[:, 0], "b_ode")
        assert_bitwise(run.rho_cont, want[:, 1], "rho_cont")


def observed_order(coarse, mid, fine):
    """``log2`` of the ratio of successive max-norm differences."""
    return np.log2(np.max(np.abs(coarse - mid), axis=-1)
                   / np.max(np.abs(mid - fine), axis=-1))


class TestConvergenceOrder:
    # the coarse step stays at or below 0.05, past the pre-asymptotic
    # range, and the finest errors stay above 1e-13, far from round-off.
    # The domain was scanned on a 702-point grid (orders 3.93-4.13).  At
    # smaller |tau0| the leading error constant of rho_cont nearly vanishes
    # on thin bands of amplitudes (3.6-4.4 at tau0 = -0.75, amplitude
    # 2.25e-3), where higher-order terms compete down to round-off.
    @settings(max_examples=8, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=2.5e-3),
           st.floats(min_value=-1.5, max_value=-1.25),
           st.floats(min_value=1.0, max_value=3.0),
           st.floats(min_value=0.025, max_value=0.05))
    def test_halving_h_gives_order_four(self, amp, tau0, T_end, h):
        f0 = bump(amp)
        n = 5 * math.ceil(T_end / h / 5)
        series = []
        for k in (1, 2, 4):
            run = evolve_homogeneous(f0, tau0, T_end, n * k, n_q=9,
                                     log_every=n * k // 5, n_nodes=16)
            assert run.completed
            series.append(np.array([run.b_ode, run.rho_cont]))
        order = observed_order(*series)
        assert np.all(np.abs(order - 4.0) <= 0.2), order


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

    @pytest.mark.parametrize("radial_nodes", [2, 3, 4])
    def test_small_grid_energy_matches_recorded_reference(self, radial_nodes):
        # two and three nodes take scipy's line and parabola splines
        data = Path(__file__).parent / "data"
        ref = json.loads(
            (data / "homogeneous_small_grid_energy.json").read_text())
        result = run_scenario(validate_config(
            {"scenario": "homogeneous", "seed": 0, "radialNodes": radial_nodes,
             "Tend": 3.0, "h": 0.01}))
        assert "abort" not in result["summary"]
        col = HOMOGENEOUS_CSV_COLUMNS.index("E_report")
        got = [row[col] for row in result["log"].rows]
        assert_bitwise(got, [float.fromhex(v) for v in ref[str(radial_nodes)]])

    def test_run_aborted_at_T0_has_empty_series(self):
        # a lapse tolerance of -1 rejects the first log point
        run = evolve_homogeneous(bump(2e-3), tau0=-1.0, T_end=1.0,
                                 n_steps=10, log_every=10, lapse_tol=-1.0)
        assert not run.completed and "T=0.0" in run.abort_reason
        for f in dataclasses.fields(HomogeneousRun):
            value = getattr(run, f.name)
            if isinstance(value, np.ndarray):
                assert value.shape == (0,) and value.dtype == float, f.name
        assert run.rows() == []


def run_arrays(run):
    return {f.name: getattr(run, f.name) for f in dataclasses.fields(run)
            if isinstance(getattr(run, f.name), np.ndarray)}


class TestEnergyBlocks:
    """E_report is computed per block of log points; the block size is
    invisible in every output."""

    ARGS = (bump(2e-3), -1.0, 4.0, 2000)  # 201 log points

    def blocked_run(self, monkeypatch, block, **kwargs):
        calls = []

        def counted(f, *args, **kw):
            calls.append(len(f))
            return sasaki_energy(f, *args, **kw)

        monkeypatch.setattr(homogeneous, "_ENERGY_BLOCK", block)
        monkeypatch.setattr(homogeneous, "sasaki_energy", counted)
        return evolve_homogeneous(*self.ARGS, **kwargs), calls

    @pytest.mark.parametrize("block", [1, 7, 64, 501])
    def test_block_size_leaves_the_run_bitwise_unchanged(self, monkeypatch,
                                                         block):
        want = evolve_homogeneous(*self.ARGS)
        got, calls = self.blocked_run(monkeypatch, block)
        assert calls == [min(block, 201 - i) for i in range(0, 201, block)]
        assert (got.completed, got.abort_reason) == (True, None)
        assert float(got.b0).hex() == float(want.b0).hex()
        for name, value in run_arrays(want).items():
            assert_bitwise(getattr(got, name), value, name)

    @pytest.mark.parametrize("block", [1, 64])
    def test_aborted_run_keeps_rows_energy_and_reason(self, monkeypatch,
                                                      block):
        # N relaxes toward 3 from below, so a negative lapse tolerance
        # stops the run partway, with a partly filled block pending
        full = evolve_homogeneous(*self.ARGS)
        got, calls = self.blocked_run(monkeypatch, block, lapse_tol=-0.017)
        rows = got.T.size
        assert not got.completed and 64 < rows < 201
        assert got.abort_reason == f"lapse left (0, 3] at T={full.T[rows]}"
        assert sum(calls) == rows
        for name, value in run_arrays(full).items():
            assert_bitwise(getattr(got, name), value[:rows], name)


def per_point_reference(f0, tau0, T_end, n_steps, n_q=257, log_every=10,
                        n_nodes=96, lapse_tol=1e-9):
    """``evolve_homogeneous`` with each log point done at once, in the
    order closure and lapse range, grid moments and pole, constraint and
    spot check; the energies in one ``sasaki_energy`` call at the end.
    It calls the functions of the module, so a patch of one reaches the
    reference and the run alike."""
    s0 = abs(float(tau0))
    nodes = _closure_nodes(f0, n_nodes)
    rho0 = homogeneous.scaling_closure_moments(*nodes, 1.0, s0)[0]
    b0 = hamiltonian_constraint_b(rho0, make_time_frame(tau0, 0.0))

    def stage(s, b, rho_cont):
        s2 = s**2
        rho_c, eta_c = homogeneous.scaling_closure_moments(*nodes, b0 / b, s)
        N = solve_lapse_algebraic(0.0, s * (rho_c + s2 * eta_c))
        N3 = N / 3.0
        return 2.0 * (N3 - 1.0) * b, (3.0 - N) * rho_cont - s2 * N3 * eta_c

    q_fine = np.linspace(0.0, f0.qmax, 4 * n_q)
    f0_spline = homogeneous._not_a_knot_spline(q_fine, f0(q_fine))
    rows, grids, dists, reason = [], [], [], None  # dists: f on the grids

    def log_point(T, b, rho_cont):
        nonlocal reason
        frame = make_time_frame(tau0, T)
        s = frame.s
        rho_c, eta_c = homogeneous.scaling_closure_moments(*nodes, b0 / b, s)
        N = solve_lapse_algebraic(0.0, s * (rho_c + s**2 * eta_c))
        if not (0.0 < N <= 3.0 * (1.0 + lapse_tol)):
            reason = f"lapse left (0, 3] at T={T}"
            return False
        stretch = math.sqrt(b0 / b)
        q_grid = np.linspace(0.0, f0.qmax * stretch, n_q)
        fq = np.clip(f0_spline(q_grid / stretch), 0.0, None)
        ph = np.sqrt(1.0 + frame.tau**2 * q_grid**2)
        rho_g, eta_g = (4.0 * math.pi * homogeneous.trapezoid(
            np.array([fq * ph * q_grid**2, fq * q_grid**4 / ph]),
            q_grid)).tolist()
        if s * rho_g >= 1.0 / 6.0:
            reason = f"constraint pole at T={T}"
            return False
        b_con = hamiltonian_constraint_b(rho_g, frame)
        if abs(N - 3.0) > 10.0 * (s * rho_c + s**3 * eta_c) + 1e-14:
            reason = f"lapse spot check failed at T={T}"
            return False
        grids.append(q_grid)
        dists.append(fq)
        rows.append([T, frame.tau, b, b_con, N, rho_g, eta_g,
                     f0.qmax * stretch, rho_c, eta_c, rho_cont])
        return True

    h = T_end / n_steps
    half, sixth = h / 2, h / 6
    b, rho_cont = b0, rho0
    if log_point(0.0, b, rho_cont):
        for i in range(n_steps):
            t = i * h
            s_half = s0 * math.exp(-(t + half))
            db1, dr1 = stage(s0 * math.exp(-t), b, rho_cont)
            db2, dr2 = stage(s_half, b + half * db1, rho_cont + half * dr1)
            db3, dr3 = stage(s_half, b + half * db2, rho_cont + half * dr2)
            db4, dr4 = stage(s0 * math.exp(-(t + h)), b + h * db3,
                             rho_cont + h * dr3)
            b += sixth * (db1 + 2.0 * db2 + 2.0 * db3 + db4)
            rho_cont += sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
            if (i + 1) % log_every == 0 and not log_point((i + 1) * h, b,
                                                           rho_cont):
                break
    series = np.array(rows, dtype=float).reshape(-1, 11).T.copy()
    energy = np.empty(0)
    if rows:
        # the cell volumes sqrt(det(b I)) and the support radii G
        vol = np.sqrt(np.linalg.det(series[2][:, None, None] * np.eye(3)))
        energy = homogeneous.sasaki_energy(
            np.array(grids), np.array(dists), series[7], ell=2, mu=4.0,
            ladder_ell=5, vol=vol)
    return HomogeneousRun(*series[:8], energy, *series[8:], b0=b0,
                          completed=reason is None, abort_reason=reason)


def spot_breaking_moments(s):
    """Closure moments ``(rho_c, eta_c)`` of opposite signs that the
    lapse accepts and its spot check rejects at the scale ``s``.

    With moments >= 0 the spot check cannot fail: ``X = s rho_c + s^3
    eta_c >= 0`` gives ``|N - 3| = 9 X / (1 + 3 X) <= 10 X``.  These
    cancel exactly in the lapse's ``s (rho_c + s^2 eta_c)``, so ``N =
    3``, and leave a rounding residue below ``-1e-15`` in the spot
    check's ``s rho_c + s^3 eta_c``."""
    for k in range(1, 60):
        for sign in (1.0, -1.0):
            eta = sign * (1e3 + k) / s**2
            rho = -(s**2 * eta)
            if s * rho + s**3 * eta < -1e-15:
                assert s * (rho + s**2 * eta) == 0.0
                return rho, eta
    raise AssertionError(f"no spot-breaking moments at s = {s}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestAbortOrder:
    """A run that aborts keeps the rows, energies and reason of the
    per-log-point order (lapse range, pole, spot check at each point),
    whatever the block size and wherever in a block the abort falls, and
    raises no numpy warning on the way (a pole row's constraint b is never
    taken)."""

    ARGS = (bump(2e-3), -1.2, 1.4, 140)
    KWARGS = {"n_q": 65, "log_every": 2, "n_nodes": 48}  # 71 log points
    # first row, mid-block, both sides of the first 64-row block, last row
    ROWS = [0, 30, 63, 64, 65, 70]

    @pytest.fixture(scope="class")
    def full(self):
        run = evolve_homogeneous(*self.ARGS, **self.KWARGS)
        # the triggers below rely on N and the support rising row by row
        assert run.completed and run.T.size == 71
        assert np.all(np.diff(run.N) > 0) and np.all(np.diff(run.G) > 0)
        return run

    def assert_runs_match(self, monkeypatch, patch, **kwargs):
        # `patch` installs a fresh trigger before each run
        patch()
        want = per_point_reference(*self.ARGS, **self.KWARGS, **kwargs)
        for block in (1, 7, 64):
            monkeypatch.setattr(homogeneous, "_ENERGY_BLOCK", block)
            patch()
            got = evolve_homogeneous(*self.ARGS, **self.KWARGS, **kwargs)
            assert (got.completed, got.abort_reason) == (
                want.completed, want.abort_reason), block
            assert float(got.b0).hex() == float(want.b0).hex()
            for name, value in run_arrays(want).items():
                assert_bitwise(getattr(got, name), value, f"{name}, {block}")
        return want

    def test_completed_run_matches_reference(self, monkeypatch, full):
        want = self.assert_runs_match(monkeypatch, lambda: None)
        assert want.completed and want.T.size == full.T.size

    def lapse_tol(self, full, row):
        # N rises toward 3, so a tolerance between 3 (1 + tol) of two
        # rows stops the run at the later one
        return -1.0 if row == 0 else (full.N[row - 1] + full.N[row]) / 6 - 1

    def pole_patch(self, monkeypatch, full, row):
        # the grid rho of `row` exactly on the pole, s rho = 1/6, and far
        # past it on every grid reaching further; per-row and stacked
        # trapezoid calls alike
        edge, s = full.G[row], make_time_frame(self.ARGS[1], full.T[row]).s
        on_pole = 1.0 / 6.0 / s / (4.0 * math.pi)
        for _ in range(64):
            srho = s * (4.0 * math.pi * on_pole)
            if srho == 1.0 / 6.0:
                break
            on_pole = math.nextafter(on_pole, math.inf if srho < 1.0 / 6.0
                                     else 0.0)
        assert srho == 1.0 / 6.0

        def inflated(y, x):
            out = trapezoid(y, x)
            last = x[..., -1].reshape(out.shape[:-1])
            out[..., 0] = np.where(last > edge, 1e9, np.where(
                last == edge, on_pole, out[..., 0]))
            return out

        return lambda: monkeypatch.setattr(homogeneous, "trapezoid", inflated)

    def spot_patch(self, monkeypatch, full, row):
        # spot-breaking moments at the log point of `row`, its closure
        # call the only one with its arguments (r = b0 / b, s) save the
        # first call, the initial density at T = 0, which keeps its moments
        closure = homogeneous.scaling_closure_moments
        at_row = (full.b0 / full.b_ode[row],
                  make_time_frame(self.ARGS[1], full.T[row]).s)

        def install():
            calls = []

            def breaking(*args):
                calls.append(None)
                if len(calls) == 1 or args[-2:] != at_row:
                    return closure(*args)
                return spot_breaking_moments(args[-1])

            monkeypatch.setattr(homogeneous, "scaling_closure_moments",
                                breaking)

        return install

    @pytest.mark.parametrize("row", ROWS)
    def test_lapse_abort(self, monkeypatch, full, row):
        want = self.assert_runs_match(monkeypatch, lambda: None,
                                      lapse_tol=self.lapse_tol(full, row))
        assert want.T.size == row
        assert want.abort_reason == f"lapse left (0, 3] at T={full.T[row]}"

    @pytest.mark.parametrize("row", ROWS)
    def test_pole_abort(self, monkeypatch, full, row):
        want = self.assert_runs_match(
            monkeypatch, self.pole_patch(monkeypatch, full, row))
        assert want.T.size == row
        assert want.abort_reason == f"constraint pole at T={full.T[row]}"

    @pytest.mark.parametrize("row", ROWS)
    def test_spot_check_abort(self, monkeypatch, full, row):
        want = self.assert_runs_match(
            monkeypatch, self.spot_patch(monkeypatch, full, row))
        assert want.T.size == row
        assert want.abort_reason == (
            f"lapse spot check failed at T={full.T[row]}")

    # a pole against an inline failure at the same log point, and at an
    # earlier or later one of the same block
    @pytest.mark.parametrize("pole_row, failure, failure_row, first", [
        (30, "lapse", 30, "lapse left (0, 3]"),
        (30, "spot", 30, "constraint pole"),
        (30, "lapse", 40, "constraint pole"),
        (30, "spot", 40, "constraint pole"),
        (40, "lapse", 30, "lapse left (0, 3]"),
        (40, "spot", 30, "lapse spot check failed"),
        (63, "spot", 64, "constraint pole"),
    ])
    def test_pole_against_inline_failure(self, monkeypatch, full, pole_row,
                                         failure, failure_row, first):
        pole = self.pole_patch(monkeypatch, full, pole_row)
        kwargs, patch = {}, pole
        if failure == "lapse":
            kwargs["lapse_tol"] = self.lapse_tol(full, failure_row)
        else:
            spot = self.spot_patch(monkeypatch, full, failure_row)
            patch = lambda: (pole(), spot())  # noqa: E731
        want = self.assert_runs_match(monkeypatch, patch, **kwargs)
        row = failure_row if first != "constraint pole" else pole_row
        assert want.T.size == row
        assert want.abort_reason == f"{first} at T={full.T[row]}"


class TestBatchedNumpy:
    """The numpy calls that the block flush makes on stacked rows give
    each row bitwise its one-row call."""

    @pytest.mark.parametrize("n", [2, 3, 9, 65, 257])
    def test_linspace_with_array_stops(self, n):
        stops = np.concatenate([[2.0, 1e-3], np.random.default_rng(n)
                                .uniform(0.5, 5.0, size=62)])
        grids = np.linspace(0.0, stops, n, axis=-1)
        assert grids.shape == (64, n)
        for grid, stop in zip(grids, stops):
            assert_bitwise(grid, np.linspace(0.0, float(stop), n))

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([1, 7, 64]), st.sampled_from([2, 3, 9, 65, 257]),
           st.lists(st.floats(min_value=1e-300, max_value=1e300),
                    min_size=64, max_size=64))
    def test_buffered_grid_is_linspace(self, m, n, stops):
        # the flush's grids, written into a buffer, are numpy's own
        stops = np.array(stops[:m])
        out = np.full((m, n), np.nan)
        got = _linspace_rows(stops, np.arange(n, dtype=float), out)
        assert got is out
        assert_bitwise(got, np.linspace(0.0, stops, n, axis=-1))
        for grid, stop in zip(got, stops.tolist()):
            assert_bitwise(grid, np.linspace(0.0, stop, n))

    @pytest.mark.parametrize("n_q", [9, 65, 257])
    def test_ppoly_on_a_stack(self, n_q):
        f0 = bump(2e-3)
        q_fine = np.linspace(0.0, f0.qmax, 4 * n_q)
        spline = _not_a_knot_spline(q_fine, f0(q_fine))
        stretch = np.linspace(1.0, 1.5, 64)
        grids = np.linspace(0.0, f0.qmax * stretch, n_q, axis=-1)
        got = spline(grids / stretch[:, None])
        assert got.shape == (64, n_q)
        for row, st in zip(got, stretch.tolist()):
            grid = np.linspace(0.0, f0.qmax * st, n_q)
            assert_bitwise(row, spline(grid / st))
