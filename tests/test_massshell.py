import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milne_lab.geometry import LocalGeometry, background_geometry, make_time_frame
from milne_lab.massshell import (
    SingularShiftError,
    compute_p0,
    mass_shell_residual,
    normalization_report,
    pbar,
    phat,
    pointwise_estimates_check,
)


def random_geometry(rng, shift_scale=0.3):
    A = rng.normal(scale=0.1, size=(3, 3))
    g = np.eye(3) + 0.5 * (A + A.T)
    if np.min(np.linalg.eigvalsh(g)) <= 0.05:
        g = np.eye(3)
    N = 3.0 + rng.uniform(-0.5, 0.5)
    X = rng.uniform(-shift_scale, shift_scale, size=3)
    return LocalGeometry(g=g, Sigma=np.zeros((3, 3)), N=N, X=X)


class TestComputeP0:
    def test_background_closed_form(self):
        geom = background_geometry()
        fr = make_time_frame(-1.0, 0.3)
        p = np.array([0.4, -0.8, 1.2])
        want = np.sqrt(1.0 + fr.tau**2 * (p @ p)) / 3.0
        assert compute_p0(geom, p, fr, "paper_primary") == pytest.approx(want)

    @given(seed=st.integers(0, 10_000), T=st.floats(0.0, 6.0))
    @settings(max_examples=50, deadline=None)
    def test_methods_agree(self, seed, T):
        rng = np.random.default_rng(seed)
        geom = random_geometry(rng)
        fr = make_time_frame(-1.0, T)
        p = rng.normal(scale=2.0, size=(5, 3))
        a = compute_p0(geom, p, fr, "paper_primary")
        b = compute_p0(geom, p, fr, "paper_alternative")
        raw = compute_p0(geom, p, fr, "first_principles")
        assert np.allclose(a, b, rtol=1e-12)
        assert np.allclose(raw, fr.tau**2 * a, rtol=1e-10)

    def test_normalization_report(self):
        rng = np.random.default_rng(3)
        geom = random_geometry(rng)
        fr = make_time_frame(-1.0, 1.0)
        rep = normalization_report(geom, rng.normal(size=(8, 3)), fr)
        assert rep["consistent"]
        assert rep["expected"] == pytest.approx(fr.tau**2)

    def test_residual_vanishes_on_shell(self):
        rng = np.random.default_rng(11)
        geom = random_geometry(rng)
        fr = make_time_frame(-1.0, 0.8)
        p = rng.normal(scale=1.5, size=(64, 3))
        p0 = compute_p0(geom, p, fr, "paper_primary")
        res = mass_shell_residual(geom, p, p0, fr)
        assert np.max(np.abs(res)) < 1e-12

    def test_singular_shift_rejected(self):
        geom = LocalGeometry(g=np.eye(3), Sigma=np.zeros((3, 3)), N=1.0,
                             X=np.array([1.5, 0.0, 0.0]))
        with pytest.raises(SingularShiftError):
            compute_p0(geom, np.ones(3), make_time_frame(-1.0, 0.0))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            compute_p0(background_geometry(), np.ones(3),
                       make_time_frame(-1.0, 0.0), method="guess")


class TestPointwiseEstimates:
    def test_zero_violations_on_random_samples(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            geom = random_geometry(rng)
            fr = make_time_frame(-1.0, rng.uniform(0.0, 6.0))
            p = rng.normal(scale=3.0, size=(200, 3))
            rep = pointwise_estimates_check(geom, p, fr)
            assert rep["holds1"] and rep["holds2"]
            assert np.all(pbar(geom, p) >= 1.0)
            assert np.all(phat(geom, p, fr) > 0.0)
