import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.linalg import LinAlgError, solve_banded

from milne_lab._quadrature import composite_gauss_legendre, trapezoid
from milne_lab.energies import (
    _cubic_derivatives,
    _not_a_knot_coefficients,
    _not_a_knot_spline,
    _solve_tridiagonal_rows,
    DecayFitError,
    MONITOR_THRESHOLDS,
    WeightConditionError,
    decay_fit,
    inverse_weight_integral,
    monitors,
    sasaki_energy,
    tail_convergence,
    total_energy,
    validate_energy_weights,
)
from milne_lab.matter import RadialDistribution


def smooth_bump(amp=1.0, qmax=2.0):
    return RadialDistribution(
        grid=np.linspace(0.0, qmax, 200), qmax=qmax,
        profile=lambda q: amp * np.maximum(0.0, 1.0 - (q / qmax) ** 2) ** 3)


class TestWeightIntegrals:
    def test_closed_forms(self):
        assert inverse_weight_integral(3.0) == pytest.approx(math.pi / 16)
        assert inverse_weight_integral(4.0) == pytest.approx(math.pi / 32)

    def test_matches_direct_quadrature(self):
        for mu in (2.0, 3.0, 5.5):
            direct, _ = quad(lambda q: q**2 * (1 + q**2) ** (-mu), 0, np.inf)
            assert inverse_weight_integral(mu) == pytest.approx(direct,
                                                                rel=1e-10)

    def test_divergent_order_rejected(self):
        with pytest.raises(ValueError):
            inverse_weight_integral(1.5)


def one_row(f, **kwargs):
    """``sasaki_energy`` of the distribution ``f`` as one grid row: its
    ``profile`` sampled on its grid."""
    energy = sasaki_energy(f.grid[None], f.profile(f.grid)[None],
                           np.array([f.qmax]), **kwargs)
    assert energy.shape == (1,)
    return float(energy[0])


class TestSasakiEnergy:
    def test_zero_distribution(self):
        f = RadialDistribution(grid=np.linspace(0.0, 1.0, 20), qmax=1.0,
                               profile=np.zeros_like)
        assert one_row(f, ell=0, mu=4.0) == 0.0

    def test_weighted_l2_oracle(self):
        # ell = 0, ladder 0: E^2 = 4 pi int (1+q^2)^mu f^2 q^2 dq with a
        # top-hat profile, against adaptive quadrature
        Q = 1.5
        f = RadialDistribution(grid=np.array([0.0, Q]), qmax=Q,
                               profile=lambda q: np.full_like(q, 2.0))
        want, _ = quad(lambda q: 4 * math.pi * (1 + q**2) ** 4 * 4.0 * q**2,
                       0, Q)
        got = one_row(f, ell=0, mu=4.0)
        assert got**2 == pytest.approx(want, rel=1e-10)

    def test_monotone_in_weight_order(self):
        f = smooth_bump()
        e3 = one_row(f, ell=2, mu=3.0, ladder_ell=5)
        e4 = one_row(f, ell=2, mu=4.0, ladder_ell=5)
        assert e4 > e3 > 0.0

    def test_ladder_raises_weight_not_derivatives(self):
        f = smooth_bump()
        low = one_row(f, ell=2, mu=4.0, ladder_ell=2)
        high = one_row(f, ell=2, mu=4.0, ladder_ell=5)
        assert high > low

    def test_high_derivative_order_rejected(self):
        with pytest.raises(ValueError):
            one_row(smooth_bump(), ell=3, mu=4.0)

    def test_ladder_below_derivative_order_rejected(self):
        with pytest.raises(ValueError):
            one_row(smooth_bump(), ell=2, mu=4.0, ladder_ell=1)


def assert_bitwise(got, want, what=""):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), what


def assert_same_spline(x, y, points):
    """Breakpoints, coefficients and 0th-2nd derivatives, bit for bit."""
    got, want = _not_a_knot_spline(x, y), CubicSpline(x, y)
    assert_bitwise(got.x, want.x, "x")
    assert_bitwise(got.c, want.c, "c")
    for nu in range(3):
        assert_bitwise(got(points, nu), want(points, nu), f"derivative {nu}")


def off_grid(x, rng):
    """Points between the nodes and slightly past both ends."""
    lo, hi = x[0], x[-1]
    mids = 0.5 * (x[:-1] + x[1:])
    return np.concatenate([mids, rng.uniform(lo, hi, size=64),
                           [lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)]])


class TestNotAKnotSpline:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 257, 1028])
    def test_matches_cubic_spline_on_random_grids(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = np.cumsum(rng.uniform(1e-3, 1.0, size=n)) - 0.5
            y = rng.normal(size=n)
            assert_same_spline(x, y, off_grid(x, rng))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 257, 1028])
    @pytest.mark.parametrize("stretch", [1.0, 0.97, 0.6180339887, 1.3])
    def test_matches_cubic_spline_on_log_point_grids(self, n, stretch):
        # the homogeneous log point splines f0 on linspace(0, qmax, 4 n_q)
        # and the stretched profile on linspace(0, qmax * stretch, n_q)
        qmax = 2.0
        f0 = lambda q: 2e-4 * np.maximum(0.0, 1.0 - (q / qmax) ** 2)
        x = np.linspace(0.0, qmax * stretch, n)
        q_log = x / stretch
        y = np.clip(CubicSpline(np.linspace(0.0, qmax, 4 * n),
                                f0(np.linspace(0.0, qmax, 4 * n)))(q_log),
                    0.0, None)
        q_nodes, _ = composite_gauss_legendre(0.0, qmax * stretch, 64)
        assert_same_spline(x, y, np.concatenate([q_nodes, x]))
        x4 = np.linspace(0.0, qmax, 4 * n)
        assert_same_spline(x4, f0(x4), q_log)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1,
                    max_size=40),
           st.floats(min_value=-1e3, max_value=1e3),
           st.integers(min_value=0, max_value=2**32 - 1))
    # C pow squares the last step an ulp off its exact square
    @example(steps=[1.9, 254.28778791667895, 1.0455443797246744,
                    530.0179285660648], start=0.0, seed=0)
    def test_matches_cubic_spline_property(self, steps, start, seed):
        x = start + np.cumsum(np.array(steps))
        x = np.concatenate([[start], x])
        assume(np.all(np.diff(x) > 0))  # no step lost to rounding
        rng = np.random.default_rng(seed)
        y = rng.normal(scale=10.0 ** rng.integers(-4, 4), size=x.size)
        assert_same_spline(x, y, off_grid(x, rng))

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("bad", ["x_nan", "x_inf", "y_nan", "y_inf",
                                     "x_repeated", "x_decreasing"])
    def test_rejects_bad_input(self, n, bad):
        x = np.linspace(0.0, 1.0, n)
        y = np.sin(x)
        if bad == "x_nan":
            x[1] = np.nan
        elif bad == "x_inf":
            x[-1] = np.inf
        elif bad == "y_nan":
            y[0] = np.nan
        elif bad == "y_inf":
            y[-1] = -np.inf
        elif bad == "x_repeated":
            x[1] = x[0]
        else:
            x = x[::-1].copy()
        with pytest.raises(ValueError):
            CubicSpline(x, y)
        with pytest.raises(ValueError):
            _not_a_knot_spline(x, y)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 257])
    def test_stack_gives_one_spline_per_row(self, n):
        # a stack of rows is built by _not_a_knot_coefficients alone (the
        # spline build of sasaki_energy); _not_a_knot_spline takes one row
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.uniform(1e-3, 1.0, size=(6, n)), axis=1)
        y = rng.normal(size=(6, n))
        breaks, c = _not_a_knot_coefficients(x, y)
        assert c.shape == (6, 4, n - 1)
        for xi, yi, got_x, got_c in zip(x, y, breaks, c):
            want = CubicSpline(xi, yi)
            assert_bitwise(got_x, want.x, "x")
            assert_bitwise(got_c, want.c, "c")
        with pytest.raises(ValueError):
            _not_a_knot_spline(x, y)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            _not_a_knot_spline(np.linspace(0.0, 1.0, 5), np.zeros(4))


def assert_cubics_match_ppoly(x, y, points):
    """``_cubic_derivatives`` row by row against ``CubicSpline.__call__``
    for ``nu = 0, 1, 2``, bit for bit."""
    got = _cubic_derivatives(*_not_a_knot_coefficients(x, y), points)
    assert got.shape == (3,) + points.shape
    for row, (xi, yi, qi) in enumerate(zip(x, y, points)):
        want = CubicSpline(xi, yi)
        for nu in range(3):
            assert_bitwise(got[nu, row], want(qi, nu), f"row {row}, nu {nu}")


class TestCubicDerivatives:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 257])
    def test_matches_ppoly_at_nodes_knots_and_support_edge(self, n):
        # the log-point rows: Gauss nodes on [0, qmax], every knot (the
        # last one is q = qmax) and points just past both ends
        rng = np.random.default_rng(n)
        qmax = rng.uniform(0.5, 3.0, size=6)
        x = np.array([np.linspace(0.0, qm, n) for qm in qmax])
        y = np.clip(rng.normal(size=(6, n)), 0.0, None) * 1e-3
        q_nodes, _ = composite_gauss_legendre(0.0, qmax, 64)
        points = np.concatenate([q_nodes, x, -0.01 * x[:, -1:],
                                 1.01 * x[:, -1:]], axis=1)
        assert_cubics_match_ppoly(x, y, points)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=40),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_ppoly_on_random_grids(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(1e-3, 1.0, size=(rows, n)), axis=1)
        y = rng.normal(scale=10.0 ** rng.integers(-4, 4), size=(rows, n))
        lo, hi = x[:, :1], x[:, -1:]
        points = np.concatenate([x, rng.uniform(lo - 0.1, hi + 0.1,
                                                size=(rows, 32))], axis=1)
        assert_cubics_match_ppoly(x, y, points)


def not_a_knot_system(x, rng):
    """Banded storage of the not-a-knot slope system on the grid ``x``
    (as ``CubicSpline`` fills it), with a random right-hand side."""
    dx = np.diff(x)
    A = np.zeros((3, x.size))
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    A[1, 0], A[0, 1] = dx[1], x[2] - x[0]
    A[1, -1], A[-1, -2] = dx[-2], x[-1] - x[-3]
    return A, rng.normal(size=x.size)


def tridiagonal_system(matrix, rhs, n, rng):
    """Banded storage and right-hand side of one system on ``n`` nodes.

    ``matrix`` is ``"knot"``, a not-a-knot slope system on a random grid,
    or ``"swap"``, off-diagonals larger than the diagonal, so that dgtsv
    swaps rows.  ``rhs`` is ``"normal"``; ``"tail"``, exact zeros from a
    random node on, as the slopes past a clipped distribution edge give;
    or ``"signed"``, values drawn from -0.0, 0.0, 1.0 and -1.0.
    """
    if matrix == "knot":
        A, b = not_a_knot_system(np.cumsum(rng.uniform(1e-3, 1.0, size=n)),
                                 rng)
    else:
        A, b = rng.normal(size=(3, n)), rng.normal(size=n)
        A[1] *= 0.1
    if rhs == "tail":
        b[rng.integers(1, n):] = 0.0
    elif rhs == "signed":
        b = rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
    return A, b


def assert_rows_match_solve_banded(systems):
    A = np.stack([a for a, _ in systems], axis=1)
    b = np.stack([rhs for _, rhs in systems])
    got = _solve_tridiagonal_rows(A, b.copy())
    for row, (a, rhs) in enumerate(systems):
        want = solve_banded((1, 1), a, rhs.reshape(-1, 1),
                            check_finite=False).reshape(-1)
        assert got[row].tobytes() == want.tobytes(), f"row {row}"


class TestTridiagonalRows:
    @pytest.mark.parametrize("n", [4, 5, 257, 1028])
    def test_matches_solve_banded(self, n):
        rng = np.random.default_rng(n)
        grids = [np.cumsum(rng.uniform(1e-3, 1.0, size=n)) for _ in range(5)]
        grids.append(np.linspace(0.0, 2.0, n))
        assert_rows_match_solve_banded([not_a_knot_system(x, rng)
                                        for x in grids])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.floats(min_value=1e-6, max_value=1e3),
                             min_size=3, max_size=40), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_solve_banded_property(self, step_lists, seed):
        # one stack holds grids of one length: cut every list to the
        # shortest, then check each increasing grid's system row by row
        n = min(len(steps) for steps in step_lists)
        rng = np.random.default_rng(seed)
        grids = [np.concatenate([[0.0], np.cumsum(steps[:n])])
                 for steps in step_lists]
        assume(all(np.all(np.diff(x) > 0) for x in grids))
        assert_rows_match_solve_banded([not_a_knot_system(x, rng)
                                        for x in grids])

    def test_singular_system_raises_like_solve_banded(self):
        A, b = np.zeros((3, 5)), np.ones(5)
        with pytest.raises(LinAlgError):
            solve_banded((1, 1), A, b)
        with pytest.raises(LinAlgError):
            _solve_tridiagonal_rows(A[:, None], b[None])

    # the stacked solve makes one dgtsv call for all rows; a zero coupling
    # between two rows is exact unless the elimination meets a -0.0 on a
    # right-hand side, so the "signed" rows carry signed zeros next to
    # other rows of every kind
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 7, 64]), st.integers(min_value=4, max_value=40),
           st.lists(st.tuples(st.sampled_from(["knot", "swap"]),
                              st.sampled_from(["normal", "tail", "signed"])),
                    min_size=64, max_size=64),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_stack_matches_solve_banded_property(self, m, n, kinds, seed):
        rng = np.random.default_rng(seed)
        assert_rows_match_solve_banded([tridiagonal_system(matrix, rhs, n, rng)
                                        for matrix, rhs in kinds[:m]])

    @pytest.mark.parametrize("m, singular", [(1, 0), (7, 0), (7, 3), (7, 6),
                                             (64, 63)])
    def test_one_singular_row_raises(self, m, singular):
        rng = np.random.default_rng(m + singular)
        systems = [tridiagonal_system("knot", "normal", 9, rng)
                   for _ in range(m)]
        A, b = systems[singular]
        A[:, 4:] = 0.0  # a zero pivot halfway down the row
        with pytest.raises(LinAlgError):
            solve_banded((1, 1), A, b)
        A = np.stack([a for a, _ in systems], axis=1)
        with pytest.raises(LinAlgError):
            _solve_tridiagonal_rows(A, np.stack([rhs for _, rhs in systems]))


def energy_row(n, qmax, kind, amp, rng):
    """A row on ``n`` nodes and its support radius: random ``values`` up
    to the last node, or a ``profile`` of support ``qmax`` sampled on a
    grid that may run past it."""
    grid = np.linspace(0.0, max(qmax, 1.0), n)
    if kind == "profile":
        return grid, amp * np.maximum(0.0, 1.0 - (grid / qmax) ** 2) ** 3, qmax
    return grid, amp * rng.uniform(size=n), grid[-1]


class TestSasakiEnergyStack:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 4, 257]),
           st.lists(st.tuples(st.sampled_from(["values", "profile"]),
                              st.floats(min_value=0.05, max_value=4.0),
                              st.floats(min_value=0.0, max_value=1.0),
                              st.floats(min_value=1e-2, max_value=1e2)),
                    min_size=1, max_size=5),
           st.sampled_from([(0, None), (1, 3), (2, 5)]),
           st.booleans(),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_stack_equals_single_calls(self, n, members, orders, shared,
                                       seed):
        # each row of a block is bitwise its one-row call, with one cell
        # volume for all rows (a float) or one per row (an array)
        rng = np.random.default_rng(seed)
        grid, values, qmax = (np.array(block) for block in zip(*(
            energy_row(n, qmax, kind, amp, rng)
            for kind, qmax, amp, _ in members)))
        vols = np.array([vol for *_, vol in members])
        if shared:
            vols = float(vols[0])
        ell, ladder = orders
        kwargs = {"ell": ell, "mu": 4.0, "ladder_ell": ladder}
        got = sasaki_energy(grid, values, qmax, vol=vols, **kwargs)
        want = [sasaki_energy(grid[i:i + 1], values[i:i + 1], qmax[i:i + 1],
                              vol=np.broadcast_to(vols, qmax.shape)[i],
                              **kwargs)
                for i in range(len(members))]
        assert isinstance(got, np.ndarray) and got.shape == (len(members),)
        assert all(e.shape == (1,) for e in want)
        assert_bitwise(got, np.concatenate(want))

    def test_shared_cell_volume_and_empty_stack(self):
        # one float cell volume for three smooth bumps is bitwise each
        # row's own call; a stack of no rows is rejected
        fs = [smooth_bump(amp=2e-4, qmax=q) for q in (1.0, 1.5, 2.0)]
        grid = np.stack([f.grid for f in fs])
        values = np.stack([f.profile(f.grid) for f in fs])
        qmax = np.array([f.qmax for f in fs])
        kwargs = {"ell": 2, "mu": 4.0, "ladder_ell": 5, "vol": 0.7}
        got = sasaki_energy(grid, values, qmax, **kwargs)
        want = [one_row(f, **kwargs) for f in fs]
        assert got.shape == (3,)
        assert_bitwise(got, want)
        with pytest.raises(ValueError):
            sasaki_energy(np.empty((0, 5)), np.empty((0, 5)), np.empty(0),
                          ell=2, mu=4.0)

    def test_nonpositive_support_radius_is_the_quadrature_error(self):
        grid = np.tile(np.linspace(0.0, 1.0, 5), (2, 1))
        with pytest.raises(ValueError, match="empty quadrature interval"):
            sasaki_energy(grid, np.ones_like(grid), np.array([1.0, 0.0]),
                          ell=2, mu=4.0)

    @pytest.mark.parametrize("grid, values, qmax", [
        ((5,), (5,), ()), ((2, 5), (2, 5), (3,)), ((2, 5), (2, 5), (2, 1)),
        ((2, 5), (2, 4), (2,)), ((0, 5), (0, 5), (0,))])
    def test_mismatched_blocks_rejected(self, grid, values, qmax):
        with pytest.raises(ValueError):
            sasaki_energy(np.linspace(0.0, 1.0, 5) * np.ones(grid),
                          np.ones(values), np.ones(qmax), ell=2, mu=4.0)


class TestTotalEnergy:
    def test_zero(self):
        assert total_energy(0.0, 0.0, 3.0) == 0.0

    def test_plain_sum_at_start(self):
        assert total_energy(1.5, 2.5, 0.0) == pytest.approx(4.0)

    def test_documented_example(self):
        got = total_energy(0.01, 0.04, 2.0, deltaE=0.05, deltaEcal=0.9)
        want = math.exp(2.1) * 0.01 + math.exp(-1.8) * 0.04
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.088274, abs=5e-6)

    def test_side_conditions(self):
        validate_energy_weights(0.05, 0.9)
        with pytest.raises(ValueError):
            validate_energy_weights(0.5, 0.9)
        with pytest.raises(ValueError):
            validate_energy_weights(0.05, 0.5)
        with pytest.raises(ValueError):
            validate_energy_weights(0.4, 0.7)

    @pytest.mark.parametrize("deltaE, deltaEcal, condition", [
        (0.0, 0.9, "deltaE < 1/2"),
        (-0.1, 0.9, "deltaE < 1/2"),
        (0.5, 0.9, "deltaE < 1/2"),
        (0.05, 0.5, "deltaEcal > 1/2"),
        (0.4, 0.7, "deltaE + deltaEcal < 1"),
    ])
    def test_failed_condition_is_named(self, deltaE, deltaEcal, condition):
        with pytest.raises(WeightConditionError) as info:
            validate_energy_weights(deltaE, deltaEcal)
        assert str(info.value) == condition


class TestDecayFit:
    def test_pure_exponential(self):
        T = np.linspace(0.0, 5.0, 100)
        rate = decay_fit(T, 3.0 * np.exp(-2.0 * T))
        assert rate == pytest.approx(2.0, abs=1e-12)

    def test_slowly_modulated_rate_in_late_window(self):
        T = np.linspace(0.0, 10.0, 400)
        rate = decay_fit(T, (1.0 + T) * np.exp(-T), window=(5.0, 10.0))
        assert 0.8 < rate < 1.0

    def test_constant_series(self):
        T = np.linspace(0.0, 5.0, 50)
        assert decay_fit(T, np.ones(50)) == pytest.approx(0.0, abs=1e-14)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            decay_fit(np.linspace(0, 1, 5), np.ones(5))

    def test_nonpositive_values(self):
        T = np.linspace(0.0, 5.0, 50)
        v = np.exp(-T)
        v[10] = 0.0
        with pytest.raises(ValueError):
            decay_fit(T, v)

    def test_unfittable_series_raise_the_named_error(self):
        with pytest.raises(DecayFitError, match="8 samples"):
            decay_fit(np.linspace(0, 1, 5), np.ones(5))
        with pytest.raises(DecayFitError, match="positive"):
            decay_fit(np.linspace(0, 1, 20), np.zeros(20))


class TestTrapezoid:
    def test_matches_scipy_bitwise(self):
        from scipy.integrate import trapezoid as scipy_trapezoid
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0.0, 5.0, 257))
        y = rng.normal(size=257)
        assert trapezoid(y, x) == scipy_trapezoid(y, x)


class TestTailConvergence:
    def test_fast_decay_integrable(self):
        T = np.linspace(0.0, 5.0, 500)
        t = 3.0 * np.exp(T)  # physical time for tau0 = -1
        rep = tail_convergence(T, np.exp(-2.0 * T), t)
        assert rep["holds"] and max(rep["ratios"]) < 0.5

    def test_zero_series(self):
        T = np.linspace(0.0, 5.0, 500)
        rep = tail_convergence(T, np.zeros(500), 3.0 * np.exp(T))
        assert rep["holds"] and rep["tails"][0] == 0.0

    def test_short_run_rejected(self):
        T = np.linspace(0.0, 2.0, 100)
        with pytest.raises(ValueError):
            tail_convergence(T, np.exp(-T), 3.0 * np.exp(T))


def synthetic_run(n=400, Tend=5.0, e0=0.01):
    T = np.linspace(0.0, Tend, n)
    s = np.exp(-T)
    return {
        "T": T,
        "s": s,
        "E6": e0 * np.exp(-2.0 * T),
        "sasaki54sq": 0.04 * np.ones(n),
        "N": 3.0 - 0.02 * np.exp(-T),
        "b": 1.0 + 0.01 * np.exp(-T),
        "rho": 0.01 * np.ones(n),
        "eta_under": 0.005 * np.ones(n),
        "Xnorm": np.zeros(n),
    }


class TestMonitors:
    def test_all_hold_on_decaying_run(self):
        out = monitors(synthetic_run())
        for name in ("smallness", "totalDecay", "continuation",
                     "completeness"):
            assert out[name]["holds"], name
        for name in ("smallness", "totalDecay", "continuation"):
            assert out[name]["margin"] >= 0.0

    def test_lapse_violation_reported(self):
        run = synthetic_run()
        run["N"] = np.full_like(run["T"], 3.5)
        out = monitors(run)
        comp = out["completeness"]
        assert not comp["holds"]
        assert "i_lapse_bounded" in comp["failing"]

    def test_smallness_violation(self):
        run = synthetic_run()
        run["E6"] = np.ones_like(run["T"])  # sqrt(E6) = 1 > 0.5
        out = monitors(run)
        assert not out["smallness"]["holds"]
        assert out["smallness"]["worst"] == "geom"

    def test_total_energy_consistent_with_direct_sum(self):
        run = synthetic_run()
        out = monitors(run)
        direct = total_energy(run["E6"][0], run["sasaki54sq"][0], 0.0)
        assert out["totalDecay"]["Etot0"] == pytest.approx(direct,
                                                           rel=1e-14)

    def test_config_overrides_thresholds(self):
        run = synthetic_run()
        out = monitors(run, config={"smallnessDelta": 1e-6})
        assert not out["smallness"]["holds"]

    def test_only_the_table_thresholds_are_settable(self):
        assert set(MONITOR_THRESHOLDS) == {"epsDecay", "epsTot", "epsLoc",
                                           "smallnessDelta", "deltaE",
                                           "deltaEcal"}
        with pytest.raises(ValueError, match="metricLowerBound"):
            monitors(synthetic_run(), config={"metricLowerBound": 0.5})
