import numpy as np
import pytest

from milne_lab._quadrature import composite_gauss_legendre, trapezoid
from milne_lab.energies import sasaki_energy
from milne_lab.homogeneous import isotropic_moments
from milne_lab.matter import RadialDistribution


def uncached_rule(a, b, n_nodes, panels=8):
    """The composite rule with the reference rule computed afresh."""
    xi, wi = np.polynomial.legendre.leggauss(n_nodes // panels)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return ((mid[:, None] + half[:, None] * xi[None, :]).ravel(),
            (half[:, None] * wi[None, :]).ravel())


def assert_bitwise(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("a, b, n_nodes", [(0.0, 2.0, 64), (0.0, 0.5, 96),
                                           (-1.0, 3.0, 48)])
def test_cached_rule_matches_uncached(a, b, n_nodes):
    q, w = composite_gauss_legendre(a, b, n_nodes)
    want_q, want_w = uncached_rule(a, b, n_nodes)
    assert_bitwise(q, want_q)
    assert_bitwise(w, want_w)


@pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
def test_non_finite_bound_is_a_named_error(bound):
    grid = np.linspace(0.0, 1.0, 5)[None]
    with pytest.raises(ValueError, match="bounds must be finite"):
        sasaki_energy(grid, np.ones_like(grid), np.array([bound]), ell=2,
                      mu=4.0)
    f = RadialDistribution(grid=grid[0], qmax=1.0, profile=np.ones_like)
    f.qmax = bound  # past the constructor, which rejects any non-finite
    with pytest.raises(ValueError, match="bounds must be finite"):
        isotropic_moments(f, 1.0, 96)


def test_mutating_returned_arrays_leaves_later_calls_unchanged():
    want_q, want_w = uncached_rule(0.0, 2.0, 64)
    q, w = composite_gauss_legendre(0.0, 2.0, 64)
    q[:] = np.nan
    w *= -3.0
    q2, w2 = composite_gauss_legendre(0.0, 2.0, 64)
    assert q2 is not q and w2 is not w
    assert_bitwise(q2, want_q)
    assert_bitwise(w2, want_w)
    q2[:] = 0.0
    w2[:] = 0.0
    q3, w3 = composite_gauss_legendre(0.0, 2.0, 64)
    assert_bitwise(q3, want_q)
    assert_bitwise(w3, want_w)



@pytest.mark.parametrize("n_nodes", [48, 64, 96])
def test_array_limit_matches_per_row_calls(n_nodes):
    rng = np.random.default_rng(n_nodes)
    b = np.concatenate([[2.0, 1e-3, 0.5], rng.uniform(0.01, 10.0, size=61)])
    q, w = composite_gauss_legendre(0.0, b, n_nodes)
    assert q.shape == w.shape == (b.size, n_nodes)
    for row, bi in enumerate(b):
        want_q, want_w = composite_gauss_legendre(0.0, float(bi), n_nodes)
        assert_bitwise(q[row], want_q)
        assert_bitwise(w[row], want_w)


def test_array_limit_with_an_empty_interval_rejected():
    with pytest.raises(ValueError, match="empty quadrature interval"):
        composite_gauss_legendre(0.0, np.array([1.0, 0.0, 2.0]), 64)


def test_stacked_trapezoid_rows_match_one_row_calls():
    # each row of a stack sums as the one-row rule does (pairwise
    # summation along the last axis), across lengths past numpy's
    # summation blocks
    rng = np.random.default_rng(3)
    for n in range(2, 1026):
        x = np.sort(rng.uniform(0.0, 3.0, n))
        y = rng.normal(size=(2, n))
        got = trapezoid(y, x)
        assert got.shape == (2,)
        for row in range(2):
            one = trapezoid(y[row], x)
            assert np.ndim(one) == 0
            want = np.sum(np.diff(x) * (y[row, 1:] + y[row, :-1]) / 2.0)
            assert_bitwise(np.array([got[row], one]), np.array([want, want]))


@pytest.mark.parametrize("n", [2, 3, 9, 65, 129, 257, 1025])
def test_stacked_grids_rows_match_one_row_calls(n):
    # the stack a block of log points integrates: (m, 2, n) samples on
    # (m, 1, n) grids, laid out as np.linspace with an array of stops
    # makes them, and contiguous
    rng = np.random.default_rng(n)
    stops = rng.uniform(0.5, 5.0, size=64)
    y = rng.normal(size=(64, 2, n))
    grids = np.linspace(0.0, stops, n, axis=-1)
    for x in (grids, np.ascontiguousarray(grids)):
        got = trapezoid(y, x[:, None])
        assert got.shape == (64, 2)
        for row, stop in enumerate(stops):
            want = trapezoid(y[row], np.linspace(0.0, float(stop), n))
            assert_bitwise(got[row], want)


def written_out_trapezoid(y, x):
    return np.sum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)


@pytest.mark.parametrize("case", ["wider grids", "integer samples",
                                  "integer grid and samples", "float32",
                                  "block"])
def test_in_place_trapezoid_matches_the_written_out_rule(case):
    # grids wider than the samples broadcast them, and integer samples
    # are summed as integers before they meet the float steps (past
    # 2^53, a float sum of the two samples rounds differently)
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0.0, 3.0, size=(3, 65)), axis=-1)
    y = {"wider grids": rng.normal(size=65),
         "integer samples": rng.integers(-2**60, 2**60, size=(2, 3, 65)),
         "integer grid and samples": rng.integers(-9, 9, size=65),
         "float32": rng.normal(size=(3, 65)).astype(np.float32),
         "block": rng.normal(size=(64, 2, 65))}[case]
    if case == "integer grid and samples":
        x = np.arange(65) ** 2
    elif case == "float32":
        x = x.astype(np.float32)
    elif case == "block":
        x = np.sort(rng.uniform(0.0, 3.0, size=(64, 1, 65)), axis=-1)
    got, want = trapezoid(y, x), written_out_trapezoid(y, x)
    assert np.shape(got) == np.shape(want)
    assert np.result_type(got) == np.result_type(want)
    assert np.atleast_1d(got).tobytes() == np.atleast_1d(want).tobytes()
