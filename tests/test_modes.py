import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milne_lab.geometry import correction_constants
from milne_lab.harness import ScenarioConfig
from milne_lab.modes import (
    MODE_CSV_COLUMNS,
    coercivity_check,
    corrected_energy,
    dissipation_identity,
    energy_decay_check,
    integrate_mode,
    mode_rhs,
    mode_sweep,
    unstable_eigenvalue,
)
from references import rk4_step


class TestExactSolutions:
    def test_borderline_pure_decay(self):
        # u'' + 2u' + u = 0 with (u, u')(0) = (1, -1) gives u = e^{-T}
        traj = integrate_mode(1.0 / 9.0, 1.0, -1.0, (0.0, 6.0), 6000)
        assert np.max(np.abs(traj.u - np.exp(-traj.T))) < 1e-12

    def test_oscillatory_closed_form(self):
        # u'' + 2u' + 5u = 0 with (1, -1) gives u = e^{-T} cos 2T
        traj = integrate_mode(5.0 / 9.0, 1.0, -1.0, (0.0, 6.0), 6000)
        want = np.exp(-traj.T) * np.cos(2.0 * traj.T)
        assert np.max(np.abs(traj.u - want)) < 1e-11

    def test_rhs_at_origin(self):
        du, dw = mode_rhs(0.0, 0.0, 1.0, 0.0)
        assert du == 0.0 and dw == 0.0


class TestStepStability:
    def test_bound_matches_the_growth_of_integrate_mode(self):
        # the stability bound at h = 0.01 lies near lambda = 8935: a tenth
        # below it the run decays, a tenth above it grows
        assert unstable_eigenvalue([8000.0], 0.01) is None
        assert unstable_eigenvalue([1.0, 10000.0, 2e4], 0.01) == 10000.0
        for lam, grows in ((8000.0, False), (10000.0, True)):
            traj = integrate_mode(lam, 1.0, -1.0, (0.0, 2.0), 200)
            assert bool(abs(traj.u[-1]) > 1.0) is grows

    def test_real_roots_and_extremes_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # real roots near the borderline 1/9, where the double root
            # z = -h leaves the real interval [-2.79, 0] of the region
            assert unstable_eigenvalue([1.0 / 9.0 - 1e-12], 1e-3) is None
            assert unstable_eigenvalue([1.0 / 9.0], 2.5) is None
            assert unstable_eigenvalue([1.0 / 9.0], 3.0) == 1.0 / 9.0
            for lam in (1e30, 1e300, 1.7e308):
                assert unstable_eigenvalue([lam], 1e-3) == lam


class TestCorrectedEnergy:
    def test_generic_modes_decay_at_rate_two(self):
        for lam in (0.2, 5.0 / 9.0, 1.0, 2.0):
            traj = integrate_mode(lam, 1.0, -1.0, (0.0, 8.0), 4000)
            rep = energy_decay_check(traj)
            assert rep["max_violation"] <= 1e-12
            assert rep["fitted_rate"] == pytest.approx(2.0, abs=0.02)
            assert rep["holds"]

    def test_borderline_guaranteed_rate(self):
        traj = integrate_mode(1.0 / 9.0, 1.0, -1.0, (0.0, 8.0), 4000,
                              eps_prime=1.0 / 900.0)
        rep = energy_decay_check(traj)
        assert 2.0 * rep["alpha"] == pytest.approx(1.8, abs=1e-12)
        assert rep["max_violation"] <= 1e-12
        assert rep["fitted_rate"] >= 2.0 * rep["alpha"] - 0.05
        assert rep["holds"]

    def test_order_factor_is_geometric_partial_sum(self):
        lam = 0.25
        c = correction_constants(lam)
        base = corrected_energy(1.0, -0.5, lam, c, order=1)
        stacked = corrected_energy(1.0, -0.5, lam, c, order=6)
        factor = (1.0 - lam**6) / (1.0 - lam)
        assert stacked == pytest.approx(base * factor, rel=1e-14)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            corrected_energy(1.0, 0.0, 0.5, correction_constants(0.5),
                             order=0)

    @given(u=st.floats(-3.0, 3.0), w=st.floats(-3.0, 3.0),
           lam=st.floats(0.12, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_energy_nonnegative_on_generic_grid(self, u, w, lam):
        c = correction_constants(lam)
        assert corrected_energy(u, w, lam, c) >= -1e-14

    @given(u=st.floats(-2.0, 2.0), w=st.floats(-2.0, 2.0),
           lam=st.floats(0.12, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_dissipation_never_positive_on_generic_grid(self, u, w, lam):
        c = correction_constants(lam)
        assert dissipation_identity(u, w, lam, c) <= 1e-13 * max(
            1.0, u * u + w * w)


class TestCoercivity:
    @given(lam=st.floats(0.05, 4.0), cE=st.floats(0.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_boundary_is_three_root_lambda(self, lam, cE):
        rep = coercivity_check(lam, cE)
        assert rep["coercive"] == (cE < 3.0 * math.sqrt(lam))

    def test_eigenvalue_positive_inside(self):
        rep = coercivity_check(5.0 / 9.0, 1.0)
        assert rep["coercive"] and rep["min_eig"] > 0.0


class TestSweep:
    def test_row_schema_and_rates(self):
        rows = mode_sweep([1.0 / 9.0, 0.2, 5.0 / 9.0, 1.0, 2.0], (0.0, 8.0),
                          2000, 1.0 / 900.0)
        assert len(rows) == 5
        assert all(set(MODE_CSV_COLUMNS) <= set(row) for row in rows)
        table = {row["lambda"]: row for row in rows}
        for row in table.values():
            assert row["min_quadform_eig"] > 0.0
            assert row["max_violation"] <= 1e-12
        for lam in (0.2, 5.0 / 9.0, 1.0, 2.0):
            assert table[lam]["fitted_rate"] == pytest.approx(2.0, abs=0.02)
        border = table[1.0 / 9.0]
        assert border["alpha"] == pytest.approx(0.9, abs=1e-12)
        assert border["fitted_rate"] >= 2.0 * border["alpha"] - 0.05


DEFAULT_LAMBDAS = next(f.default for f in dataclasses.fields(ScenarioConfig)
                       if f.name == "lambdaGrid")


EDGE_STATES = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, 1e300, 0.5)


def mode_rhs_loop(lam, u0, w0, T_span, n_steps):
    """``integrate_mode``'s states from ``rk4_step`` driven by ``mode_rhs``."""
    T0, T1 = T_span
    h = (T1 - T0) / n_steps

    def f(T, y):
        return mode_rhs(y[0], y[1], lam, T)

    T, U, W = [T0], [u0], [w0]
    y = (u0, w0)
    for i in range(n_steps):
        t = T0 + i * h
        y = rk4_step(f, t, y, h)
        T.append(t + h)
        U.append(y[0])
        W.append(y[1])
    return np.array(T), np.array(U), np.array(W)


class TestWrittenOutStages:
    @pytest.mark.parametrize("u0, w0", [(0.0, 1.0), (1.0, 1.0), (1.0, 0.7)])
    @pytest.mark.parametrize("T_span, n_steps", [((0.0, 8.0), 2000),
                                                 ((0.3, 5.0), 1000)])
    def test_bitwise_equal_to_rk4_step_over_mode_rhs(self, u0, w0, T_span,
                                                      n_steps):
        for lam in DEFAULT_LAMBDAS:
            traj = integrate_mode(lam, u0, w0, T_span, n_steps)
            want = mode_rhs_loop(lam, u0, w0, T_span, n_steps)
            for got, ref in zip((traj.T, traj.u, traj.w), want):
                assert np.array_equal(got, ref), lam
                assert np.array_equal(got.view(np.int64),
                                      ref.view(np.int64)), lam

    # the states agree bit for bit also from signed zeros, subnormals and
    # the ends of the float range (the 81 cases are few enough for the
    # search to cover them all)
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(EDGE_STATES), st.sampled_from(EDGE_STATES))
    def test_zero_source_run_equals_rk4_step_over_mode_rhs(self, u0, w0):
        for lam in DEFAULT_LAMBDAS:
            with np.errstate(over="ignore", invalid="ignore"):
                # the energy of a state near 1e300 overflows
                traj = integrate_mode(lam, u0, w0, (0.0, 2.0), 200)
            want = mode_rhs_loop(lam, u0, w0, (0.0, 2.0), 200)
            for got, ref in zip((traj.T, traj.u, traj.w), want):
                assert np.array_equal(got.view(np.int64),
                                      ref.view(np.int64)), lam

    # the parts of (1e-300, 1e-30) lie 270 decades apart, near the bottom
    # of the float range
    @pytest.mark.parametrize("u0, w0", [(0.0, 1.0), (0.3, 1.0),
                                        (1e-300, 1e-30)])
    def test_time_grid_at_non_dyadic_start_and_step(self, u0, w0):
        # T0 = 0.1 and h = 0.003 are not binary fractions, so T0 + i h
        # rounds at most steps
        traj = integrate_mode(0.2, u0, w0, (0.1, 2.2), 700)
        want = mode_rhs_loop(0.2, u0, w0, (0.1, 2.2), 700)
        for got, ref in zip((traj.T, traj.u, traj.w), want):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert traj.T.size == 701 and traj.T[0] == 0.1


class TestRecordEvery:
    @pytest.mark.parametrize("k", [1, 2, 20, 700])
    def test_kept_states_are_the_slice_of_the_full_run(self, k):
        # every k-th state of a run from a non-dyadic start and step, and
        # its time and energy, bit for bit (k = 700 keeps the ends alone)
        for lam in DEFAULT_LAMBDAS:
            full = integrate_mode(lam, 0.3, -1.0, (0.1, 2.2), 700)
            kept = integrate_mode(lam, 0.3, -1.0, (0.1, 2.2), 700,
                                  record_every=k)
            for name in ("T", "u", "w", "energy"):
                got, want = getattr(kept, name), getattr(full, name)[::k]
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), (lam, name)


class TestExactSymmetries:
    """Bitwise relations from the exact symmetries of the mode equation."""

    def test_doubling_the_initial_state_doubles_the_run(self):
        # source-free, every step is linear in (u, w) and scaling by 2 is
        # exact, so the states double and the quadratic energy quadruples
        for lam in DEFAULT_LAMBDAS:
            one = integrate_mode(lam, 0.7, -1.3, (0.0, 8.0), 1000)
            two = integrate_mode(lam, 1.4, -2.6, (0.0, 8.0), 1000)
            assert np.array_equal(two.T, one.T), lam
            assert np.array_equal(two.u, 2.0 * one.u), lam
            assert np.array_equal(two.w, 2.0 * one.w), lam
            assert np.array_equal(two.energy, 4.0 * one.energy), lam


class TestConvergenceOrder:
    # the coarse step stays at or below 0.05; on a 567-point grid of this
    # domain the order read 3.95-4.07, with errors far above round-off
    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1.0 / 9.0, max_value=4.0),
           st.floats(min_value=1.0, max_value=5.0),
           st.floats(min_value=0.02, max_value=0.05))
    def test_halving_h_gives_order_four(self, lam, T_end, h):
        n = math.ceil(T_end / h)
        states = []
        for k in (1, 2, 4):
            traj = integrate_mode(lam, 1.0, -1.0, (0.0, T_end), n * k)
            states.append(np.array([traj.u[::k], traj.w[::k]]))
        coarse, mid, fine = states
        order = np.log2(np.max(np.abs(coarse - mid), axis=1)
                        / np.max(np.abs(mid - fine), axis=1))
        assert np.all(np.abs(order - 4.0) <= 0.2), order
