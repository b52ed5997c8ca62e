"""The shared connection-block and mass-shell formulas on batches.

The tests' ``references.characteristic_rhs`` evaluates
``rescaled_christoffels`` and ``compute_p0`` on a batched
``LocalGeometry``, one point per particle, and the background check
evaluates ``compute_p0`` and ``mass_shell_residual`` on a batch of
momenta; each batched result must match the pointwise evaluation at
every batch entry.
"""

import numpy as np
import pytest

from milne_lab.geometry import LocalGeometry, make_time_frame, rescaled_christoffels
from milne_lab.massshell import SingularShiftError, compute_p0, mass_shell_residual

N_POINTS = 12
FRAME = make_time_frame(-1.0, 0.6)


def random_fields(n=N_POINTS, seed=0, shift=0.2):
    rng = np.random.default_rng(seed)
    A = rng.normal(scale=0.2, size=(n, 3, 3))
    g = np.eye(3) + np.einsum("nab,ncb->nac", A, A)
    S = rng.normal(scale=0.1, size=(n, 3, 3))
    Sigma = S + np.swapaxes(S, 1, 2)
    dG = rng.normal(scale=0.1, size=(n, 3, 3, 3))
    return LocalGeometry(
        g=g, dg=dG + np.swapaxes(dG, 1, 2),
        N=3.0 + rng.normal(scale=0.1, size=n),
        dN=rng.normal(scale=0.1, size=(n, 3)),
        X=rng.normal(scale=shift, size=(n, 3)),
        dX=rng.normal(scale=0.1, size=(n, 3, 3)),
        Sigma=Sigma, dTg=rng.normal(scale=0.1, size=(n, 3, 3)),
        dTN=rng.normal(scale=0.1, size=n),
        dTX=rng.normal(scale=0.1, size=(n, 3)))


def point(f, i):
    return LocalGeometry(g=f.g[i], Sigma=f.Sigma[i], N=f.N[i], X=f.X[i],
                         dN=f.dN[i], dX=f.dX[i], dg=f.dg[i], dTg=f.dTg[i],
                         dTN=f.dTN[i], dTX=f.dTX[i])


def assert_matches(batched, pointwise):
    scale = np.max(np.abs(pointwise))
    np.testing.assert_allclose(batched, pointwise, rtol=1e-14,
                               atol=1e-14 * scale)


def test_connection_blocks_match_pointwise():
    f = random_fields()
    batched = rescaled_christoffels(f, FRAME)
    for key, block in batched.items():
        assert block.shape[0] == N_POINTS
        want = np.stack([rescaled_christoffels(point(f, i), FRAME)[key]
                         for i in range(N_POINTS)])
        assert_matches(block, want)


@pytest.mark.parametrize("method", ["paper_primary", "paper_alternative",
                                    "first_principles"])
def test_p0_matches_pointwise(method):
    f = random_fields(seed=1)
    p = np.random.default_rng(2).normal(size=(N_POINTS, 3))
    batched = compute_p0(f, p, FRAME, method=method)
    want = np.array([compute_p0(point(f, i), p[i], FRAME, method=method)
                     for i in range(N_POINTS)])
    assert batched.shape == (N_POINTS,)
    assert_matches(batched, want)


def test_residual_matches_pointwise_and_vanishes_on_shell():
    f = random_fields(seed=3)
    p = np.random.default_rng(4).normal(size=(N_POINTS, 3))
    p0 = compute_p0(f, p, FRAME, method="paper_primary")
    q0 = p0 * 1.01  # off the shell, so the residual is order one
    batched = mass_shell_residual(f, p, q0, FRAME)
    want = np.array([mass_shell_residual(point(f, i), p[i], q0[i], FRAME)
                     for i in range(N_POINTS)])
    assert_matches(batched, want)
    assert np.max(np.abs(mass_shell_residual(f, p, p0, FRAME))) < 1e-12


def test_one_inadmissible_point_rejects_the_batch():
    f = random_fields(seed=5)
    f.X[3] = np.array([10.0, 0.0, 0.0])
    with pytest.raises(SingularShiftError):
        compute_p0(f, np.zeros((N_POINTS, 3)), FRAME)
