import math

import numpy as np
import pytest
from scipy.integrate import quad

from milne_lab._quadrature import trapezoid
from milne_lab.energies import (
    DecayFitError,
    MONITOR_THRESHOLDS,
    WeightConditionError,
    decay_fit,
    inverse_weight_integral,
    monitors,
    rho_energy,
    sasaki_energy,
    tail_convergence,
    total_energy,
    validate_energy_weights,
)
from milne_lab.geometry import LocalGeometry, background_geometry
from milne_lab.matter import RadialDistribution

GEOM = background_geometry()


def scaled_geom(b):
    return LocalGeometry(g=b * np.eye(3), Sigma=np.zeros((3, 3)), N=3.0,
                         X=np.zeros(3))


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


class TestSasakiEnergy:
    def test_zero_distribution(self):
        f = RadialDistribution(grid=np.linspace(0.0, 1.0, 20), qmax=1.0,
                               values=np.zeros(20))
        assert sasaki_energy(f, GEOM, ell=0, mu=4.0) == 0.0

    def test_weighted_l2_oracle(self):
        # ell = 0, ladder 0: E^2 = 4 pi int (1+q^2)^mu f^2 q^2 dq with a
        # top-hat profile, against adaptive quadrature
        Q = 1.5
        f = RadialDistribution(grid=np.array([0.0, Q]), qmax=Q,
                               values=np.array([2.0, 2.0]))
        want, _ = quad(lambda q: 4 * math.pi * (1 + q**2) ** 4 * 4.0 * q**2,
                       0, Q)
        got = sasaki_energy(f, GEOM, ell=0, mu=4.0)
        assert got**2 == pytest.approx(want, rel=1e-10)

    def test_monotone_in_weight_order(self):
        f = smooth_bump()
        e3 = sasaki_energy(f, GEOM, ell=2, mu=3.0, ladder_ell=5)
        e4 = sasaki_energy(f, GEOM, ell=2, mu=4.0, ladder_ell=5)
        assert e4 > e3 > 0.0

    def test_ladder_raises_weight_not_derivatives(self):
        f = smooth_bump()
        low = sasaki_energy(f, GEOM, ell=2, mu=4.0, ladder_ell=2)
        high = sasaki_energy(f, GEOM, ell=2, mu=4.0, ladder_ell=5)
        assert high > low

    def test_high_derivative_order_rejected(self):
        with pytest.raises(ValueError):
            sasaki_energy(smooth_bump(), GEOM, ell=3, mu=4.0)

    def test_ladder_below_derivative_order_rejected(self):
        with pytest.raises(ValueError):
            sasaki_energy(smooth_bump(), GEOM, ell=2, mu=4.0, ladder_ell=1)

    def test_reference_base_equivalent_near_identity(self):
        f = smooth_bump()
        for b in (0.9, 1.0, 1.1):
            geom = scaled_geom(b)
            eg = sasaki_energy(f, geom, ell=2, mu=4.0, ladder_ell=5)
            er = sasaki_energy(f, geom, ell=2, mu=4.0, ladder_ell=5,
                               base="gamma")
            # norms are equivalent with a constant controlled by powers of
            # the conformal stretch (large ladder weights amplify it)
            scale = b**0.5
            bound = scale**16
            lo, hi = min(bound, 1 / bound), max(bound, 1 / bound)
            assert lo <= eg / er <= hi
            if b == 1.0:
                assert eg == pytest.approx(er, rel=1e-12)

    def test_unknown_base_rejected(self):
        with pytest.raises(ValueError):
            sasaki_energy(smooth_bump(), GEOM, ell=0, mu=4.0, base="euclid")


class TestRhoEnergy:
    def test_zero(self):
        assert rho_energy(0.0, GEOM) == 0.0

    def test_unit_cell_value(self):
        assert rho_energy(2.0, scaled_geom(1.0)) == pytest.approx(2.0)

    def test_metric_volume_scaling(self):
        b = 1.44
        assert rho_energy(1.0, scaled_geom(b)) == pytest.approx(b**1.5)

    def test_order_independent(self):
        assert rho_energy(1.3, GEOM, ell=0) == rho_energy(1.3, GEOM, ell=6)


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
        fit = decay_fit(T, 3.0 * np.exp(-2.0 * T))
        assert fit.rate == pytest.approx(2.0, abs=1e-12)
        assert fit.residual < 1e-12

    def test_slowly_modulated_rate_in_late_window(self):
        T = np.linspace(0.0, 10.0, 400)
        fit = decay_fit(T, (1.0 + T) * np.exp(-T), window=(5.0, 10.0))
        assert 0.8 < fit.rate < 1.0

    def test_constant_series(self):
        T = np.linspace(0.0, 5.0, 50)
        assert decay_fit(T, np.ones(50)).rate == pytest.approx(0.0, abs=1e-14)

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
