import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milne_lab.geometry import (
    BACKGROUND_LAPSE,
    BackgroundChart,
    LocalGeometry,
    background_geometry,
    christoffels_from_metric,
    correction_constants,
    make_time_frame,
    rescaled_christoffels,
)

CHART = BackgroundChart()


def chart_points():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.5, 1.5, size=(40, 3))
    return pts[np.sum(pts**2, axis=1) < 8.9]


class TestTimeFrame:
    def test_anchor_slice(self):
        fr = make_time_frame(-2.0, 0.0)
        assert fr.tau == -2.0 and fr.s == 2.0

    def test_tau_increases_to_zero(self):
        taus = [make_time_frame(-1.0, T).tau for T in (0.0, 1.0, 5.0)]
        assert taus[0] < taus[1] < taus[2] < 0.0

    def test_round_trip_with_tau(self):
        fr = make_time_frame(-1.3, 2.7)
        assert -math.log(fr.tau / fr.tau0) == pytest.approx(2.7, abs=1e-14)

    def test_rejects_positive_tau0(self):
        with pytest.raises(ValueError):
            make_time_frame(1.0, 0.0)

    def test_rejects_negative_T(self):
        with pytest.raises(ValueError):
            make_time_frame(-1.0, -0.1)


class TestBackgroundChart:
    def test_constant_negative_curvature(self):
        for x in chart_points():
            ric = CHART.ricci(x)
            g = CHART.metric(x)
            assert np.allclose(ric, -(2.0 / 9.0) * g, atol=1e-12)

    def test_scalar_curvature(self):
        for x in chart_points():
            assert CHART.scalar_curvature(x) == pytest.approx(-2.0 / 3.0,
                                                              abs=1e-12)

    def test_ricci_consistent_with_riemann(self):
        # the closed conformal Ricci must equal the trace of the
        # connection-assembled curvature tensor
        for x in chart_points()[:10]:
            riem = CHART.riemann(x)
            ric_from_riem = np.einsum("abad->bd", riem)
            assert np.allclose(ric_from_riem, CHART.ricci(x), atol=1e-11)

    def test_christoffels_match_metric_derivative(self):
        x = np.array([0.4, -0.7, 1.1])
        h = 1e-6
        dg = np.zeros((3, 3, 3))
        for c in range(3):
            e = np.zeros(3)
            e[c] = h
            dg[:, :, c] = (CHART.metric(x + e) - CHART.metric(x - e)) / (2 * h)
        gam_fd = christoffels_from_metric(CHART.metric(x), dg)
        assert np.allclose(gam_fd, CHART.christoffels(x), atol=1e-8)

    def test_rejects_points_outside_ball(self):
        with pytest.raises(ValueError):
            CHART.metric(np.array([3.0, 0.0, 0.0]))


class TestConnectionBlocks:
    def test_corrections_vanish_at_fixed_point(self):
        geom = background_geometry()
        blocks = rescaled_christoffels(geom, make_time_frame(-1.0, 1.0))
        assert np.max(np.abs(blocks["gamma_star"])) < 1e-14
        assert np.max(np.abs(blocks["gamma_star_star"])) < 1e-14

    def test_time_space_block_is_pure_dilation_at_fixed_point(self):
        geom = background_geometry()
        fr = make_time_frame(-1.0, 0.7)
        blocks = rescaled_christoffels(geom, fr)
        assert np.allclose(blocks["time_space"], -np.eye(3) / fr.tau)

    def test_lapse_perturbation_sources_gamma_star(self):
        geom = LocalGeometry(g=np.eye(3), Sigma=np.zeros((3, 3)), N=3.0,
                             X=np.zeros(3), dN=np.array([0.2, 0.0, 0.0]),
                             dX=np.zeros((3, 3)), dg=np.zeros((3, 3, 3)),
                             dTg=np.zeros((3, 3)), dTN=0.0, dTX=np.zeros(3))
        blocks = rescaled_christoffels(geom, make_time_frame(-1.0, 0.0))
        # N grad N is the only surviving term
        assert np.allclose(blocks["gamma_star"], np.array([0.6, 0.0, 0.0]))

    def test_missing_derivative_blocks_rejected(self):
        geom = LocalGeometry(g=np.eye(3), Sigma=np.zeros((3, 3)), N=3.0,
                             X=np.zeros(3))
        with pytest.raises(ValueError, match="dN"):
            rescaled_christoffels(geom, make_time_frame(-1.0, 0.0))


class TestCorrectionConstants:
    def test_generic_gap(self):
        c = correction_constants(5.0 / 9.0)
        assert c.alpha == 1.0 and c.cE == 1.0 and c.delta_alpha == 0.0

    def test_borderline(self):
        c = correction_constants(1.0 / 9.0, eps_prime=1.0 / 900.0)
        assert c.cE == pytest.approx(0.99, abs=1e-15)
        assert c.delta_alpha == pytest.approx(0.1, abs=1e-12)
        assert c.alpha == pytest.approx(0.9, abs=1e-12)

    def test_below_borderline_rejected(self):
        with pytest.raises(ValueError):
            correction_constants(0.05)

    def test_borderline_needs_eps_prime(self):
        with pytest.raises(ValueError):
            correction_constants(1.0 / 9.0)

    @given(lam=st.floats(1.0 / 9.0 + 1e-6, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_coercivity_condition_always_met(self, lam):
        c = correction_constants(lam)
        assert c.cE < 3.0 * math.sqrt(lam)


def batch_of(n, **fields):
    """Background fields at ``n`` points, with ``fields`` replaced."""
    return {"g": np.tile(np.eye(3), (n, 1, 1)), "Sigma": np.zeros((n, 3, 3)),
            "N": np.full(n, 3.0), "X": np.zeros((n, 3)), **fields}


class TestLocalGeometry:
    @pytest.mark.parametrize("fields, match", [
        ({"g": -np.eye(3), "Sigma": np.zeros((3, 3)), "N": 3.0,
          "X": np.zeros(3)}, "positive definite"),
        ({"g": np.eye(3), "Sigma": np.zeros((3, 3)), "N": 0.0,
          "X": np.zeros(3)}, "lapse"),
        (batch_of(4, g=np.stack([np.eye(3)] * 3
                                + [np.diag([1.0, -1.0, 1.0])])),
         "positive definite"),
        (batch_of(4, N=np.array([3.0, 3.0, -1e-3, 3.0])), "lapse"),
        (batch_of(4, N=np.full(3, 3.0)), "3x3"),
        (batch_of(4, X=np.zeros((3, 3))), "3-vector"),
        (batch_of(4, Sigma=np.zeros((3, 3))), "3x3"),
    ], ids=["indefinite g", "zero lapse", "batch: one indefinite g",
            "batch: one negative lapse", "batch: N (3,), g (4, 3, 3)",
            "batch: X (3, 3), N (4,)", "batch: Sigma (3, 3), g (4, 3, 3)"])
    def test_rejects_malformed_fields(self, fields, match):
        with pytest.raises(ValueError, match=match):
            LocalGeometry(**fields)

    def test_background_lapse_constant(self):
        assert background_geometry().N == BACKGROUND_LAPSE == 3.0
        assert type(background_geometry().N) is float  # not a 0-d array
