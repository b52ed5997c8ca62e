import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milne_lab._quadrature import composite_gauss_legendre
from milne_lab.geometry import LocalGeometry, background_geometry, make_time_frame
from milne_lab.homogeneous import isotropic_moments
from milne_lab.matter import (
    RadialDistribution,
    UnsupportedModeError,
    continuity_rhs,
    moment_bound_check,
)
from references import eta_direct, rk4_step

GEOM = background_geometry()


def gaussian_bump(amp=0.5, k=3.0, qmax=3.0):
    prof = lambda q: amp * np.exp(-k * q**2) * np.maximum(0.0, 1 - (q / qmax) ** 2) ** 2
    return RadialDistribution(grid=np.linspace(0.0, qmax, 200), qmax=qmax,
                              profile=prof)


class TestRadialDistribution:
    def test_zero_outside_support(self):
        f = gaussian_bump()
        assert np.all(f(np.array([3.1, 5.0, -0.1])) == 0.0)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            RadialDistribution(grid=np.array([0.0, 1.0]), qmax=1.0,
                               profile=lambda q: 0.1 * q - 0.1)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            RadialDistribution(grid=np.array([0.0, 2.0, 1.0]), qmax=2.0,
                               profile=np.zeros_like)

    @pytest.mark.parametrize("qmax", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_qmax(self, qmax):
        with pytest.raises(ValueError, match="qmax must be finite"):
            RadialDistribution(grid=np.linspace(0.0, 1.0, 5), qmax=qmax,
                               profile=np.ones_like)


# the moments (rho, eta_under) as moment_bound_check reads them: the
# homogeneous closure at stretch one on 64 nodes
def moments(f, frame):
    return isotropic_moments(f, frame.s, 64)


class TestMoments:
    def test_zero_distribution(self):
        f = RadialDistribution(grid=np.linspace(0.0, 2.0, 50), qmax=2.0,
                               profile=np.zeros_like)
        assert moments(f, make_time_frame(-1.0, 0.5)) == (0.0, 0.0)

    def test_top_hat_late_time_density(self):
        # as tau -> 0 the energy kernel tends to 1 and rho -> (4 pi/3) f0 Q^3
        f0, Q = 0.7, 1.3
        f = RadialDistribution(grid=np.array([0.0, Q]), qmax=Q,
                               profile=lambda q: np.full_like(q, f0))
        rho, _ = moments(f, make_time_frame(-1.0, 14.0))
        assert rho == pytest.approx(4 * math.pi / 3 * f0 * Q**3, rel=1e-10)

    def test_eta_identity_against_direct_kernel(self):
        f = gaussian_bump()
        fr = make_time_frame(-1.0, 0.4)
        rho, eta_under = moments(f, fr)
        assert rho + fr.tau**2 * eta_under == pytest.approx(
            eta_direct(f, GEOM, fr), rel=1e-13)

    @given(amp=st.floats(1e-4, 2.0), k=st.floats(0.5, 6.0),
           T=st.floats(0.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_positivity(self, amp, k, T):
        rho, eta_under = moments(gaussian_bump(amp=amp, k=k),
                                 make_time_frame(-1.0, T))
        assert rho >= 0.0 and eta_under >= 0.0

    def test_quadrature_stability_under_refinement(self):
        f = gaussian_bump()
        fr = make_time_frame(-1.0, 0.3)
        # the 64-node density against the same integral on 128 nodes
        q, w = composite_gauss_legendre(0.0, f.qmax, 128)
        ph = np.sqrt(1.0 + fr.tau**2 * q**2)
        fine = 4.0 * math.pi * np.sum(w * f(q) * ph * q**2)
        assert moments(f, fr)[0] == pytest.approx(fine, rel=1e-12)

    def test_shift_requires_ensemble_path(self):
        geom = LocalGeometry(g=np.eye(3), Sigma=np.zeros((3, 3)), N=3.0,
                             X=np.array([0.2, 0.0, 0.0]))
        with pytest.raises(UnsupportedModeError):
            moment_bound_check(gaussian_bump(), geom,
                               make_time_frame(-1.0, 0.0), ell=4)

    @pytest.mark.parametrize("c, what", [(0.5, "energy density"),
                                         (0.65, "pressure trace")])
    def test_negative_moment_between_grid_nodes_rejected(self, c, what):
        # f = (1 - q)(c - q) is nonnegative on the grid {0, 1} only; at
        # s -> 0 its rho is c/12 - 1/20 and its eta_under c/30 - 1/42
        f = RadialDistribution(grid=np.array([0.0, 1.0]), qmax=1.0,
                               profile=lambda q: (1.0 - q) * (c - q))
        with pytest.raises(ValueError, match=what):
            moment_bound_check(f, GEOM, make_time_frame(-1.0, 10.0), ell=4)


class TestContinuity:
    def test_vacuum_fixed_point(self):
        drho, dj = continuity_rhs(0.0, np.zeros(3), GEOM,
                                  make_time_frame(-1.0, 0.0), 0.0)
        assert drho == 0.0 and np.max(np.abs(dj)) == 0.0

    def test_background_lapse_rate(self):
        fr = make_time_frame(-1.0, 0.5)
        rho, eta_under = moments(gaussian_bump(), fr)
        drho, dj = continuity_rhs(rho, np.zeros(3), GEOM, fr, eta_under)
        assert drho == pytest.approx(-fr.tau**2 * eta_under)
        assert np.max(np.abs(dj)) == 0.0

    def test_inhomogeneous_needs_gradients(self):
        geom = LocalGeometry(g=np.eye(3), Sigma=np.zeros((3, 3)), N=3.0,
                             X=np.zeros(3), dN=np.array([0.1, 0.0, 0.0]))
        with pytest.raises(UnsupportedModeError):
            continuity_rhs(1.0, np.zeros(3), geom,
                           make_time_frame(-1.0, 0.0), 0.5)

    def test_rk4_step_matches_exact_linear_solution(self):
        # with eta_under = 0 and constant N the density solves
        # rho' = (3 - N) rho exactly
        geom = LocalGeometry(g=np.eye(3), Sigma=np.zeros((3, 3)), N=2.5,
                             X=np.zeros(3))
        h = 0.1

        def rhs(T, y):
            return continuity_rhs(*y, geom, make_time_frame(-1.0, T), 0.0)

        rho1, _ = rk4_step(rhs, 0.0, (1.0, np.zeros(3)), h)
        # classical fourth-order one-step error for rho' = 0.5 rho at h = 0.1
        # is (0.5 h)^5 / 120 ~ 2.6e-9
        assert rho1 == pytest.approx(math.exp(0.5 * h), abs=1e-8)


class TestMomentBounds:
    def test_zero_distribution_trivially_holds(self):
        f = RadialDistribution(grid=np.linspace(0.0, 2.0, 50), qmax=2.0,
                               profile=np.zeros_like)
        rep = moment_bound_check(f, GEOM, make_time_frame(-1.0, 0.0), ell=4)
        assert rep["all_hold"] and rep["within_design_regime"]

    def test_scale_factor_above_one_rejected(self):
        with pytest.raises(ValueError):
            moment_bound_check(gaussian_bump(), GEOM,
                               make_time_frame(-2.0, 0.0), ell=4)

    def test_low_weight_order_rejected(self):
        with pytest.raises(ValueError):
            moment_bound_check(gaussian_bump(), GEOM,
                               make_time_frame(-1.0, 0.0), ell=1)

    def test_low_design_order_flagged(self):
        rep = moment_bound_check(gaussian_bump(), GEOM,
                                 make_time_frame(-1.0, 0.0), ell=2)
        assert rep["all_hold"] and not rep["within_design_regime"]


    # lhs and rhs of each check (the j lhs of an isotropic f is zero) on
    # the cell b I at T = 0.3 of tau0 = -1, as float.hex
    PINNED = {
        (0.5, 2, "profile"): {
            "rho": ("0x1.379dcd9f99dcep+0", "0x1.54774a484952fp+2"),
            "j": ("0x0.0p+0", "0x1.54774a484952fp+2"),
            "T_under": ("0x1.78c08b718a695p-2", "0x1.66601723b9372p+2"),
            "S": ("0x1.e80b4266ba592p-1", "0x1.89314589c223fp+2")},
        (1.0, 4, "values"): {
            "rho": ("0x1.06695a0ca345ap+1", "0x1.70d558f3d7a2ap+6"),
            "j": ("0x0.0p+0", "0x1.70d558f3d7a2ap+6"),
            "T_under": ("0x1.3d86b1c8cf170p-1", "0x1.bad235c682932p+6"),
            "S": ("0x1.9af1d0bed621ep+0", "0x1.b8ee891a39cd4p+6")},
        (1.7, 3, "values"): {
            "rho": ("0x1.86adb7ae010b1p+1", "0x1.33c941c62eab1p+6"),
            "j": ("0x0.0p+0", "0x1.33c941c62eab1p+6"),
            "T_under": ("0x1.d8bbb9127f311p-1", "0x1.5d61f1988de27p+6"),
            "S": ("0x1.31e84a83163e6p+1", "0x1.6a6c5a153d3d2p+6")},
        (1.7, 5, "profile"): {
            "rho": ("0x1.861f055e7c162p+1", "0x1.2d326ada9556cp+9"),
            "j": ("0x0.0p+0", "0x1.2d326ada9556cp+9"),
            "T_under": ("0x1.d7aa96c94a19bp-1", "0x1.78cba6c13de21p+9"),
            "S": ("0x1.317f731b06b39p+1", "0x1.6c3d34afdcf55p+9")},
    }

    @pytest.mark.parametrize("b, ell, kind", sorted(PINNED))
    def test_pinned_values(self, b, ell, kind):
        # "profile" is the smooth profile itself, "values" the linear
        # interpolant of its samples on the grid
        qmax = 1.8
        grid = np.linspace(0.0, qmax, 40)
        prof = lambda q: (0.7 * np.exp(-1.3 * q**2)
                          * np.maximum(0.0, 1.0 - (q / qmax) ** 2))
        if kind == "values":
            samples = prof(grid)
            prof = lambda q: np.interp(q, grid, samples)
        f = RadialDistribution(grid=grid, qmax=qmax, profile=prof)
        geom = LocalGeometry(g=b * np.eye(3), Sigma=np.zeros((3, 3)), N=3.0,
                             X=np.zeros(3))
        rep = moment_bound_check(f, geom, make_time_frame(-1.0, 0.3), ell)
        for name, (lhs, rhs) in self.PINNED[b, ell, kind].items():
            assert (rep[name]["lhs"].hex(), rep[name]["rhs"].hex()) == \
                (lhs, rhs), name
            assert type(rep[name]["rhs"]) is float, name
