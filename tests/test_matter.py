import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milne_lab._rk4 import rk4_step
from milne_lab.geometry import LocalGeometry, background_geometry, make_time_frame
from milne_lab.matter import (
    RadialDistribution,
    UnsupportedModeError,
    continuity_rhs,
    eta_direct,
    moment_bound_check,
    moments_from_distribution,
)
from milne_lab.transport import ParticleEnsemble

GEOM = background_geometry()


def gaussian_bump(amp=0.5, k=3.0, qmax=3.0):
    prof = lambda q: amp * np.exp(-k * q**2) * np.maximum(0.0, 1 - (q / qmax) ** 2) ** 2
    return RadialDistribution(grid=np.linspace(0.0, qmax, 200), qmax=qmax,
                              profile=prof)


class TestRadialDistribution:
    def test_zero_outside_support(self):
        f = gaussian_bump()
        assert np.all(f(np.array([3.1, 5.0, -0.1])) == 0.0)

    def test_value_interpolation(self):
        grid = np.linspace(0.0, 1.0, 11)
        f = RadialDistribution(grid=grid, qmax=1.0, values=grid.copy())
        assert f(np.array([0.55]))[0] == pytest.approx(0.55)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            RadialDistribution(grid=np.array([0.0, 1.0]), qmax=1.0,
                               values=np.array([-0.1, 0.0]))

    def test_rejects_support_violation(self):
        with pytest.raises(ValueError):
            RadialDistribution(grid=np.array([0.0, 1.0, 2.0]), qmax=1.0,
                               values=np.array([1.0, 1.0, 1.0]))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            RadialDistribution(grid=np.array([0.0, 2.0, 1.0]), qmax=2.0,
                               values=np.zeros(3))

    def test_needs_exactly_one_representation(self):
        with pytest.raises(ValueError):
            RadialDistribution(grid=np.array([0.0, 1.0]), qmax=1.0)


class TestMoments:
    def test_zero_distribution(self):
        grid = np.linspace(0.0, 2.0, 50)
        f = RadialDistribution(grid=grid, qmax=2.0, values=np.zeros(50))
        m = moments_from_distribution(f, GEOM, make_time_frame(-1.0, 0.5))
        assert m.rho == 0.0 and m.eta_under == 0.0
        assert np.max(np.abs(m.j)) == 0.0

    def test_top_hat_late_time_density(self):
        # as tau -> 0 the energy kernel tends to 1 and rho -> (4 pi/3) f0 Q^3
        f0, Q = 0.7, 1.3
        f = RadialDistribution(grid=np.array([0.0, Q]), qmax=Q,
                               values=np.array([f0, f0]))
        m = moments_from_distribution(f, GEOM, make_time_frame(-1.0, 14.0))
        assert m.rho == pytest.approx(4 * math.pi / 3 * f0 * Q**3, rel=1e-10)

    def test_eta_identity_against_direct_kernel(self):
        f = gaussian_bump()
        fr = make_time_frame(-1.0, 0.4)
        m = moments_from_distribution(f, GEOM, fr)
        assert m.eta == pytest.approx(eta_direct(f, GEOM, fr), rel=1e-13)

    def test_isotropy_gives_scalar_stress(self):
        m = moments_from_distribution(gaussian_bump(), GEOM,
                                      make_time_frame(-1.0, 0.2))
        assert np.max(np.abs(m.j)) == 0.0
        assert np.allclose(m.T_under, (m.eta_under / 3.0) * np.eye(3))

    @given(amp=st.floats(1e-4, 2.0), k=st.floats(0.5, 6.0),
           T=st.floats(0.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_positivity(self, amp, k, T):
        f = gaussian_bump(amp=amp, k=k)
        m = moments_from_distribution(f, GEOM, make_time_frame(-1.0, T))
        assert m.rho >= 0.0 and m.eta_under >= 0.0
        assert np.min(np.linalg.eigvalsh(m.T_under)) >= -1e-12

    def test_quadrature_stability_under_refinement(self):
        f = gaussian_bump()
        fr = make_time_frame(-1.0, 0.3)
        a = moments_from_distribution(f, GEOM, fr, n_nodes=64).rho
        b = moments_from_distribution(f, GEOM, fr, n_nodes=128).rho
        assert a == pytest.approx(b, rel=1e-12)

    def test_shift_requires_ensemble_path(self):
        geom = LocalGeometry(g=np.eye(3), Sigma=np.zeros((3, 3)), N=3.0,
                             X=np.array([0.2, 0.0, 0.0]))
        with pytest.raises(UnsupportedModeError):
            moments_from_distribution(gaussian_bump(), geom,
                                      make_time_frame(-1.0, 0.0))

    def test_ensemble_kernels(self):
        p = np.array([[0.3, -0.2, 0.5]])
        ens = ParticleEnsemble(x=np.zeros((1, 3)), p=p,
                               weights=np.array([2.0]))
        fr = make_time_frame(-1.0, 0.5)
        m = moments_from_distribution(ens, GEOM, fr)
        q2 = float(p[0] @ p[0])
        pund = math.sqrt(1.0 + fr.tau**2 * q2)
        assert m.rho == pytest.approx(2.0 * pund)
        assert m.eta_under == pytest.approx(2.0 * q2 / pund)
        assert np.allclose(m.j, 2.0 * p[0])

    def test_ensemble_matches_quadrature_on_isotropic_shell(self):
        # particles evenly weighted on a sphere of radius q approximate the
        # radial delta distribution; compare against a narrow grid profile
        rng = np.random.default_rng(8)
        q = 0.9
        dirs = rng.normal(size=(4000, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        fr = make_time_frame(-1.0, 0.7)
        ens = ParticleEnsemble(x=np.zeros((4000, 3)), p=q * dirs,
                               weights=np.full(4000, 1.0 / 4000))
        m = moments_from_distribution(ens, GEOM, fr)
        ph = math.sqrt(1.0 + fr.tau**2 * q**2)
        assert m.rho == pytest.approx(ph, rel=1e-12)
        assert m.eta_under == pytest.approx(q**2 / ph, rel=1e-12)
        assert np.max(np.abs(m.j)) < 0.05  # Monte-Carlo isotropy


class TestContinuity:
    def test_vacuum_fixed_point(self):
        drho, dj = continuity_rhs(0.0, np.zeros(3), GEOM,
                                  make_time_frame(-1.0, 0.0), 0.0)
        assert drho == 0.0 and np.max(np.abs(dj)) == 0.0

    def test_background_lapse_rate(self):
        fr = make_time_frame(-1.0, 0.5)
        m = moments_from_distribution(gaussian_bump(), GEOM, fr)
        drho, dj = continuity_rhs(m.rho, np.zeros(3), GEOM, fr, m.eta_under)
        assert drho == pytest.approx(-fr.tau**2 * m.eta_under)
        assert np.max(np.abs(dj)) == 0.0

    def test_inhomogeneous_needs_gradients(self):
        geom = LocalGeometry(g=np.eye(3), Sigma=np.zeros((3, 3)), N=3.0,
                             X=np.zeros(3), dN=np.array([0.1, 0.0, 0.0]))
        with pytest.raises(UnsupportedModeError):
            continuity_rhs(1.0, np.zeros(3), geom,
                           make_time_frame(-1.0, 0.0), 0.5)

    def test_supplied_gradients_enter_linearly(self):
        geom = LocalGeometry(g=np.eye(3), Sigma=np.zeros((3, 3)), N=3.0,
                             X=np.zeros(3), dN=np.array([0.1, 0.0, 0.0]))
        fr = make_time_frame(-1.0, 0.0)
        base, base_j = continuity_rhs(1.0, np.zeros(3), geom, fr, 0.5,
                                      gradients={})
        shifted, _ = continuity_rhs(1.0, np.zeros(3), geom, fr, 0.5,
                                    gradients={"X_grad_rho": 0.25})
        assert shifted == pytest.approx(base - 0.25)
        # the lapse gradient sources the current even with zero extras
        assert base_j[0] == pytest.approx(-1.0 / fr.s * 0.1)

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
        grid = np.linspace(0.0, 2.0, 50)
        f = RadialDistribution(grid=grid, qmax=2.0, values=np.zeros(50))
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
        # a profile is sampled on its grid; values are read as given
        qmax = 1.8
        grid = np.linspace(0.0, qmax, 40)
        prof = lambda q: (0.7 * np.exp(-1.3 * q**2)
                          * np.maximum(0.0, 1.0 - (q / qmax) ** 2))
        f = RadialDistribution(grid=grid, qmax=qmax, **(
            {"profile": prof} if kind == "profile" else
            {"values": prof(grid)}))
        geom = LocalGeometry(g=b * np.eye(3), Sigma=np.zeros((3, 3)), N=3.0,
                             X=np.zeros(3))
        rep = moment_bound_check(f, geom, make_time_frame(-1.0, 0.3), ell)
        for name, (lhs, rhs) in self.PINNED[b, ell, kind].items():
            assert (rep[name]["lhs"].hex(), rep[name]["rhs"].hex()) == \
                (lhs, rhs), name
            assert type(rep[name]["rhs"]) is float, name
