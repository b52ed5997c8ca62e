import math

import numpy as np
import pytest

from milne_lab import transport
from milne_lab.geometry import make_time_frame
from milne_lab.transport import (
    BatchFields,
    ParticleEnsemble,
    background_fields,
    characteristic_rhs,
    integrate_characteristics,
    manufactured_lapse_fields,
    support_bound_check,
)

EPS = 1e-3


def sample_ensemble(n, seed=0):
    rng = np.random.default_rng(seed)
    return ParticleEnsemble(x=rng.uniform(-1.2, 1.2, size=(n, 3)),
                            p=rng.normal(scale=0.7, size=(n, 3)),
                            weights=np.full(n, 1.0 / n))


def run(provider, n=64, span=2.0, h=1e-3, seed=0, **kw):
    frame0 = make_time_frame(-1.0, 0.0)
    return integrate_characteristics(sample_ensemble(n, seed), provider,
                                     frame0, span, h, **kw)


class TestProviders:
    def test_background_is_identity_frame(self):
        f = background_fields(0.0, np.zeros((4, 3)))
        assert np.allclose(f.N, 3.0)
        assert np.max(np.abs(f.X)) == 0.0
        f.materialize()
        assert np.allclose(f.g, np.eye(3))

    def test_manufactured_gradient_matches_finite_differences(self):
        provider = manufactured_lapse_fields(0.3)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1.5, 1.5, size=(16, 3))
        f = provider(0.4, x)
        h = 1e-6
        for c in range(3):
            e = np.zeros(3)
            e[c] = h
            dN = (provider(0.4, x + e).N - provider(0.4, x - e).N) / (2 * h)
            assert np.allclose(f.dN[:, c], dN, atol=1e-7)
            da = (provider(0.4, x + e).conf_a
                  - provider(0.4, x - e).conf_a) / (2 * h)
            assert np.allclose(f.conf_a * f.conf_u[:, c], da, atol=1e-7)

    def test_manufactured_time_consistency(self):
        # the conformal metric factor must satisfy the kinematic identity
        # da/dT = (2/3)(N - 3) a forced by zero shear and zero shift
        provider = manufactured_lapse_fields(0.3)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.5, 1.5, size=(16, 3))
        h = 1e-6
        f = provider(0.9, x)
        da = (provider(0.9 + h, x).conf_a - provider(0.9 - h, x).conf_a) / (2 * h)
        assert np.allclose(da, (2.0 / 3.0) * (f.N - 3.0) * f.conf_a, atol=1e-9)
        dN = (provider(0.9 + h, x).N - provider(0.9 - h, x).N) / (2 * h)
        assert np.allclose(dN, f.dTN, atol=1e-7)

    def test_norm_envelopes_bound_samples(self):
        provider = manufactured_lapse_fields(EPS)
        rng = np.random.default_rng(3)
        x = rng.uniform(-2.5, 2.5, size=(4000, 3))
        for T in (0.0, 1.0, 4.0):
            f = provider(T, x)
            assert np.max(np.abs(f.N - 3.0)) <= provider.norm_envelopes["Nm3"](T) * (1 + 1e-12)


class TestRhsEquivalence:
    @pytest.mark.parametrize("provider_name", ["background", "manufactured"])
    def test_fast_path_matches_general_path(self, provider_name):
        provider = (background_fields if provider_name == "background"
                    else manufactured_lapse_fields(0.3))
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.2, 1.2, size=(32, 3))
        p = rng.normal(size=(32, 3))
        f = provider(0.7, x)
        f.materialize()
        dense = BatchFields(g=f.g.copy(), dg=f.dg.copy(), N=f.N, dN=f.dN,
                            X=f.X, dX=f.dX, Sigma=f.Sigma, dTg=f.dTg.copy(),
                            dTN=f.dTN, dTX=f.dTX)
        fr = make_time_frame(-1.0, 0.7)
        # shift-free on-shell time component shared by both evaluations
        q0 = np.sqrt(1.0 + fr.tau**2
                     * np.einsum("na,nab,nb->n", p, dense.g, p)) / f.N
        fast = characteristic_rhs((x, p), f, fr, mode="derived", q0=q0)
        gen = characteristic_rhs((x, p), dense, fr, mode="derived", q0=q0)
        for a, b in zip(fast, gen):
            assert np.allclose(a, b, rtol=1e-13, atol=1e-15)


def dense_provider(eps):
    """The manufactured fields with the dense metric blocks filled in."""
    conformal = manufactured_lapse_fields(eps)

    def provider(T, x):
        f = conformal(T, x).materialize()
        return BatchFields(g=f.g, dg=f.dg, N=f.N, dN=f.dN, X=f.X, dX=f.dX,
                           Sigma=f.Sigma, dTg=f.dTg, dTN=f.dTN, dTX=f.dTX)
    return provider


def nan_front_provider():
    """Manufactured fields whose lapse gradient turns NaN on a moving front.

    Every particle the front overtakes gets flagged.
    """
    manufactured = manufactured_lapse_fields(EPS)

    def provider(T, x):
        f = manufactured(T, x)
        f.dN = np.where((x[:, 0] > 1.15 - T / 2)[:, None], np.nan, f.dN)
        return f
    return provider


class TestPaperForm:
    def test_paper_form_is_derived_minus_2p(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.2, 1.2, size=(32, 3))
        p = rng.normal(size=(32, 3))
        fr = make_time_frame(-1.0, 0.4)
        f = dense_provider(0.3)(0.4, x)
        dx_d, dp_d, _ = characteristic_rhs((x, p), f, fr, mode="derived")
        dx_p, dp_p = characteristic_rhs((x, p), f, fr, mode="paper_form")
        assert np.array_equal(dx_p, dx_d)
        assert np.array_equal(dp_p, dp_d - 2.0 * p)

    def test_paper_form_keeps_minus_2p_at_background(self):
        rng = np.random.default_rng(6)
        p = rng.normal(size=(8, 3))
        f = background_fields(0.0, np.zeros((8, 3)))
        _, dp = characteristic_rhs((np.zeros((8, 3)), p), f,
                                   make_time_frame(-1.0, 0.0),
                                   mode="paper_form")
        assert np.array_equal(dp, -2.0 * p)

    def test_shifted_fields_rejected(self):
        x = np.zeros((4, 3))
        f = dense_provider(0.3)(0.0, x)
        f.X = np.full((4, 3), 0.1)
        for mode in ("derived", "paper_form"):
            with pytest.raises(NotImplementedError):
                characteristic_rhs((x, np.ones((4, 3))), f,
                                   make_time_frame(-1.0, 0.0), mode=mode)


class TestIntegration:
    def test_background_mass_shell_drift(self):
        log, _ = run(background_fields)
        assert np.max(np.abs(log.massshell_residual)) < 1e-10
        assert int(np.sum(log.flagged)) == 0

    def test_manufactured_mass_shell_drift(self):
        log, _ = run(manufactured_lapse_fields(EPS))
        assert np.max(np.abs(log.massshell_residual)) < 1e-10

    def test_weights_conserved(self):
        log, fin = run(background_fields, n=32)
        assert np.allclose(log.total_weight, 1.0, rtol=1e-14)
        assert fin.total_weight() == pytest.approx(1.0)

    def test_thread_count_does_not_change_results(self):
        log1, _ = run(manufactured_lapse_fields(EPS), n=32, span=1.0)
        log4, _ = run(manufactured_lapse_fields(EPS), n=32, span=1.0,
                      threads=4)
        assert np.array_equal(log1.p, log4.p)
        assert np.array_equal(log1.calG, log4.calG)

    def test_flagged_particles_freeze_independently_of_threads(self):
        provider = nan_front_provider()
        log1, fin1 = run(provider, n=64, span=0.5, log_every=10)
        log2, fin2 = run(provider, n=64, span=0.5, log_every=10, threads=2)
        assert int(np.sum(log1.flagged)) == 15
        for key in ("x", "p", "p0", "massshell_residual", "G", "calG",
                    "flagged"):
            assert np.array_equal(getattr(log1, key), getattr(log2, key))
        assert np.array_equal(fin1.p, fin2.p)
        assert np.all(np.isfinite(log1.calG))
        # flagged particles hold their last finite state
        assert np.all(np.isfinite(log1.p0)) and np.all(np.isfinite(fin1.x))
        frozen = log1.flagged
        assert np.array_equal(log1.p[-1, frozen], log1.p[-2, frozen])

    def test_dense_path_matches_conformal_path(self):
        log_c, _ = run(manufactured_lapse_fields(0.3), n=16, span=0.5, h=1e-2,
                       log_every=10)
        log_d, _ = run(dense_provider(0.3), n=16, span=0.5, h=1e-2,
                       log_every=10)
        for key in ("x", "p", "p0", "G"):
            assert np.allclose(getattr(log_c, key), getattr(log_d, key),
                               rtol=1e-12, atol=1e-14)

    def test_convergence_order_is_four(self):
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            log, _ = run(manufactured_lapse_fields(0.1), n=16, span=1.0, h=h,
                         log_every=int(round(1.0 / h)))
            errs.append(np.max(np.abs(log.massshell_residual[-1])))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 4.0) <= 0.2)

    def test_paper_form_mode_differs_but_runs(self):
        log, _ = run(manufactured_lapse_fields(EPS), n=8, span=0.5,
                     mode="paper_form")
        assert log.p.shape[1] == 8

    @pytest.mark.parametrize("threads", [1, 2])
    def test_empty_ensemble(self, threads):
        empty = ParticleEnsemble(x=np.zeros((0, 3)), p=np.zeros((0, 3)),
                                 weights=np.zeros(0))
        log, fin = integrate_characteristics(
            empty, manufactured_lapse_fields(EPS), make_time_frame(-1.0, 0.0),
            0.1, 1e-2, log_every=5, threads=threads)
        assert log.p.shape == (3, 0, 3) and log.p0.shape == (3, 0)
        assert np.array_equal(log.calG, np.zeros(3))
        assert fin.size == 0

    def test_log_every_must_be_positive(self):
        with pytest.raises(ValueError, match="log_every"):
            run(background_fields, n=4, span=0.1, h=1e-2, log_every=0)

    def test_step_must_divide_span(self):
        with pytest.raises(ValueError):
            run(background_fields, n=4, span=1.0005, h=1e-2)


LOG_KEYS = ("T", "x", "p", "p0", "massshell_residual", "G", "calG",
            "total_weight", "flagged")


def assert_same_log(a, b):
    for key in LOG_KEYS:
        assert np.array_equal(getattr(a, key), getattr(b, key)), key


METAMORPHIC_PROVIDERS = {
    "row form": lambda: manufactured_lapse_fields(0.3),
    "dense": lambda: dense_provider(0.3),
    "flagging": nan_front_provider,
}


class TestMetamorphic:
    """Bitwise invariances of the integrator under relabelling and chunking."""

    @pytest.mark.parametrize("name", sorted(METAMORPHIC_PROVIDERS))
    def test_permuting_particles_permutes_the_log(self, name, monkeypatch):
        monkeypatch.setattr(transport, "_CHUNK", 7)  # several chunks
        provider = METAMORPHIC_PROVIDERS[name]()
        ens = sample_ensemble(40, seed=8)
        perm = np.random.default_rng(9).permutation(ens.size)
        shuffled = ParticleEnsemble(ens.x[perm], ens.p[perm],
                                    ens.weights[perm])
        frame0 = make_time_frame(-1.0, 0.0)
        log, fin = integrate_characteristics(ens, provider, frame0, 0.4,
                                             1e-2, log_every=10, threads=2)
        log_s, fin_s = integrate_characteristics(shuffled, provider, frame0,
                                                 0.4, 1e-2, log_every=10)
        for key in ("x", "p", "p0", "massshell_residual", "G"):
            assert np.array_equal(getattr(log_s, key),
                                  getattr(log, key)[:, perm]), key
        assert np.array_equal(log_s.flagged, log.flagged[perm])
        for key in ("T", "calG", "total_weight"):
            assert np.array_equal(getattr(log_s, key), getattr(log, key)), key
        assert np.array_equal(fin_s.x, fin.x[perm])
        assert np.array_equal(fin_s.p, fin.p[perm])
        if name == "flagging":
            assert 0 < int(np.sum(log.flagged)) < ens.size

    @pytest.mark.parametrize("name", ["row form", "flagging"])
    def test_chunk_size_does_not_change_results(self, name, monkeypatch):
        provider = METAMORPHIC_PROVIDERS[name]()
        reference, _ = run(provider, n=64, span=0.5, h=1e-2, log_every=5)
        if name == "flagging":
            assert 0 < int(np.sum(reference.flagged)) < 64
        for chunk in (7, 64, transport._CHUNK):
            monkeypatch.setattr(transport, "_CHUNK", chunk)
            for threads in (1, 2):
                log, _ = run(provider, n=64, span=0.5, h=1e-2, log_every=5,
                             threads=threads)
                assert_same_log(log, reference)

    def test_row_kernel_matches_characteristic_rhs(self):
        provider = manufactured_lapse_fields(0.3)
        rng = np.random.default_rng(10)
        n, T = 50, 0.7
        x = rng.uniform(-1.2, 1.2, size=(n, 3))
        p = rng.normal(size=(n, 3))
        q0 = rng.uniform(0.3, 0.5, size=n)  # off shell: co-evolved values
        frame = make_time_frame(-1.0, T)
        want = characteristic_rhs((x, p), provider(T, x), frame, q0=q0)
        y = np.concatenate([x.T, p.T, q0[None]])
        k = np.empty_like(y)
        transport._RowFlow(provider.conformal_rows, -1.0, n).rhs(T, y, k)
        assert np.array_equal(k[0:3], want[0].T)
        assert np.array_equal(k[3:6], want[1].T)
        assert np.array_equal(k[6], want[2])

    def test_row_kernel_matches_einsum_transcription(self):
        # the derived conformal flow written on (n, 3) arrays with einsum
        # dot products; the row kernel must reproduce it bit for bit
        provider = manufactured_lapse_fields(0.3)
        rng = np.random.default_rng(11)
        n, T = 1000, 0.4
        x = rng.uniform(-1.2, 1.2, size=(n, 3))
        p = rng.normal(size=(n, 3))
        q0 = rng.uniform(0.3, 0.5, size=n)
        tau = make_time_frame(-1.0, T).tau
        f = provider(T, x)
        a, u, N = f.conf_a, f.conf_u, f.N
        p2 = np.einsum("na,na->n", p, p)
        up = np.einsum("na,na->n", u, p)
        t = tau / q0
        cp = (2.0 - (2.0 / 3.0) * N) + t * up
        want = (-t[:, None] * p,
                cp[:, None] * p + ((N * q0 / tau) / a)[:, None] * f.dN
                - (0.5 * t * p2)[:, None] * u,
                -(f.dTN / N) * q0
                + (2.0 * tau / N) * np.einsum("na,na->n", f.dN, p)
                - (tau**2 / 3.0) * a * p2 / (N * q0))
        got = characteristic_rhs((x, p), f, make_time_frame(-1.0, T), q0=q0)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 1000, 4096])
    def test_dot3_keeps_einsum_summation_order(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, 3)) * np.exp(rng.normal(scale=4, size=(n, 3)))
        b = rng.normal(size=(n, 3))
        got = transport._dot3(a.T, b.T, np.empty(n), np.empty((3, n)))
        assert np.array_equal(got, np.einsum("na,na->n", a, b))


class TestSupportEnvelope:
    def test_background_support_constant(self):
        log, _ = run(background_fields, n=64)
        drift = np.max(np.abs(log.calG - log.calG[0]))
        assert drift < 1e-10

    def test_gronwall_envelope_holds(self):
        provider = manufactured_lapse_fields(EPS)
        log, _ = run(provider, n=64)
        norms = {k: np.array([provider.norm_envelopes[k](t) for t in log.T])
                 for k in ("X", "Sigma", "Nm3", "dTX", "GammaStar",
                           "GammaStarStar")}
        rep = support_bound_check(log.T, log.calG, norms, C=10.0)
        assert rep["holds"]
        assert rep["envelope"][-1] >= rep["measured"][-1]

    def test_missing_norm_series_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            support_bound_check(np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                                {"X": np.zeros(2)})
