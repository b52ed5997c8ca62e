import numpy as np
import pytest

from milne_lab._quadrature import composite_gauss_legendre


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
