import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize("mode", ["derived", "paper_form"])
    def test_conformal_fields_without_row_form_match_row_form(self, mode):
        # the BatchFields of a provider without a row form reach the row
        # kernels as views, bit for bit like the row-form fill
        manufactured = manufactured_lapse_fields(0.3)
        reference, _ = run(manufactured, n=40, span=0.4, h=1e-2,
                           log_every=10, mode=mode)
        log, _ = run(lambda T, x: manufactured(T, x), n=40, span=0.4,
                     h=1e-2, log_every=10, mode=mode)
        assert_same_log(log, reference)

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
        transport._Flow(provider, -1.0, "derived", n).rhs(T, y, k)
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


class TestExactSymmetries:
    """Bitwise equivariance of transport under an exact symmetry."""

    @pytest.mark.parametrize("mode", ["derived", "paper_form"])
    def test_flipping_two_axes_flips_the_log(self, mode):
        # the manufactured fields see x only through x0 x1 x2, dot products
        # and exp(-|x|^2 / 2), so S = diag(-1, -1, 1) changes only signs
        S = np.array([-1.0, -1.0, 1.0])
        ens = sample_ensemble(300, seed=11)
        flipped = ParticleEnsemble(ens.x * S, ens.p * S, ens.weights)
        frame0 = make_time_frame(-1.0, 0.0)
        provider = manufactured_lapse_fields(0.3)
        log, fin = integrate_characteristics(ens, provider, frame0, 0.5, 1e-2,
                                             mode=mode, log_every=10)
        log_s, fin_s = integrate_characteristics(flipped, provider, frame0,
                                                 0.5, 1e-2, mode=mode,
                                                 log_every=10)
        assert np.array_equal(log_s.x, log.x * S)
        assert np.array_equal(log_s.p, log.p * S)
        for key in ("T", "p0", "G", "massshell_residual", "calG",
                    "max_residual", "flagged"):
            assert np.array_equal(getattr(log_s, key), getattr(log, key)), key
        assert np.array_equal(fin_s.x, fin.x * S)
        assert np.array_equal(fin_s.p, fin.p * S)


def nan_residual_provider():
    """Manufactured fields whose lapse turns NaN on a moving front.

    A particle the front overtakes gets flagged, and its frozen state has
    a NaN mass-shell residual from then on.
    """
    manufactured = manufactured_lapse_fields(EPS)

    def provider(T, x):
        f = manufactured(T, x)
        f.N = np.where(x[:, 0] > 1.15 - T / 2, np.nan, f.N)
        return f
    return provider


def without_row_form(provider):
    """The same provider, reached through its BatchFields only."""
    return lambda T, x: provider(T, x)


SUMMARY_PROVIDERS = {
    "row form": lambda: manufactured_lapse_fields(0.3),
    "no row form": lambda: without_row_form(manufactured_lapse_fields(0.3)),
    "dense": lambda: dense_provider(0.3),
    "flagging": nan_front_provider,
    "NaN residual": nan_residual_provider,
}


class TestConvergenceOrder:
    # h = 1/k with k >= 15 keeps the coarse step past the pre-asymptotic
    # range; 400 random points of this domain (ensemble seeds 0-99) read
    # orders 3.89-4.05, and k = 10 reaches 4.19 at eps = 1
    @settings(max_examples=8, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.5),
           st.integers(min_value=1, max_value=50),
           st.integers(min_value=15, max_value=40),
           st.integers(min_value=0, max_value=99))
    def test_halving_h_gives_order_four(self, eps, n, k, seed):
        # chunks of 7 particles split every ensemble of more than 7
        for chunk in (transport._CHUNK, 7):
            states = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(transport, "_CHUNK", chunk)
                for m in (1, 2, 4):
                    _, fin = run(manufactured_lapse_fields(eps), n=n,
                                 span=1.0, h=1.0 / (k * m), seed=seed,
                                 log_every=k * m)
                    states.append(np.concatenate([fin.x, fin.p], axis=1))
            coarse, mid, fine = states
            order = np.log2(np.max(np.abs(coarse - mid))
                            / np.max(np.abs(mid - fine)))
            assert abs(order - 4.0) <= 0.2, (chunk, order)


SUMMARY_KEYS = ("T", "calG", "max_residual", "total_weight", "flagged")
PER_PARTICLE_KEYS = ("x", "p", "p0", "massshell_residual", "G")


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestSummaryLog:
    """A summary log equals the per-row fields of the full log bit for bit."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mode", ["derived", "paper_form"])
    @pytest.mark.parametrize("name", sorted(SUMMARY_PROVIDERS))
    def test_summary_fields_equal_the_full_log(self, name, mode, threads,
                                               monkeypatch):
        monkeypatch.setattr(transport, "_CHUNK", 7)  # six chunks
        provider = SUMMARY_PROVIDERS[name]()
        kw = dict(n=40, span=0.5, h=1e-2, log_every=5, mode=mode,
                  threads=threads)
        full, fin = run(provider, **kw)
        summary, none = run(provider, full_log=False, **kw)
        assert same_bits(full.max_residual,
                         np.max(np.abs(full.massshell_residual), axis=1))
        for key in SUMMARY_KEYS:
            assert same_bits(getattr(summary, key), getattr(full, key)), key
        for key in PER_PARTICLE_KEYS:
            assert getattr(summary, key) is None, key
        assert none is None and fin.size == 40
        if name in ("flagging", "NaN residual"):
            assert 0 < int(np.sum(full.flagged)) < 40
        if name == "NaN residual":  # a NaN passes through both maxima
            assert np.isnan(summary.max_residual[-1])

    @pytest.mark.parametrize("full_log", [True, False])
    def test_empty_ensemble_has_zero_maxima(self, full_log):
        empty = ParticleEnsemble(x=np.zeros((0, 3)), p=np.zeros((0, 3)),
                                 weights=np.zeros(0))
        log, fin = integrate_characteristics(
            empty, manufactured_lapse_fields(EPS), make_time_frame(-1.0, 0.0),
            0.1, 1e-2, log_every=5, full_log=full_log)
        assert np.array_equal(log.max_residual, np.zeros(3))
        assert np.array_equal(log.calG, np.zeros(3))
        assert (fin is None) is not full_log


REFERENCE_PROVIDERS = {
    "row_form_derived": lambda: manufactured_lapse_fields(0.3),
    "row_form_paper_form": lambda: manufactured_lapse_fields(0.3),
    "nan_front": nan_front_provider,
    "dense": lambda: dense_provider(0.3),
}


class TestReferenceBitwise:
    """Every log array and the final state equal a recorded run bit for bit."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(REFERENCE_PROVIDERS))
    def test_run_matches_recorded_reference(self, name, threads, monkeypatch):
        path = Path(__file__).parent / "data" / "transport_reference.json"
        ref = json.loads(path.read_text())[name]
        monkeypatch.setattr(transport, "_CHUNK", 7)  # three chunks
        log, fin = integrate_characteristics(
            sample_ensemble(16, seed=12), REFERENCE_PROVIDERS[name](),
            make_time_frame(-1.0, 0.0), 0.5, 0.025, mode=ref["mode"],
            log_every=7, threads=threads)
        got = {key: getattr(log, key) for key in LOG_KEYS if key != "flagged"}
        got.update(final_x=fin.x, final_p=fin.p)
        for key, arr in got.items():
            want = np.array([float.fromhex(v) for v in ref[key]["hex"]])
            assert arr.shape == tuple(ref[key]["shape"]), key
            assert np.array_equal(arr.ravel().view(np.int64),
                                  want.view(np.int64)), key
        assert log.flagged.tolist() == ref["flagged"]
        if name == "nan_front":
            assert 0 < sum(ref["flagged"]) < 16


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

    def test_margin_measured_past_T0(self):
        # the envelope starts at calG(T0), so row 0 has margin 0 by
        # construction and the reported margin is taken over the rows after
        provider = manufactured_lapse_fields(EPS)
        log, _ = run(provider, n=64, log_every=100)
        norms = {k: np.array([provider.norm_envelopes[k](t) for t in log.T])
                 for k in ("X", "Sigma", "Nm3", "dTX", "GammaStar",
                           "GammaStarStar")}
        rep = support_bound_check(log.T, log.calG, norms, C=10.0)
        gap = rep["envelope"] - rep["measured"]
        assert gap[0] == 0.0
        assert rep["margin"] == np.min(gap[1:]) > 0.0
        first = support_bound_check(log.T[:1], log.calG[:1],
                                    {k: v[:1] for k, v in norms.items()})
        assert first["margin"] == 0.0

    def test_missing_norm_series_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            support_bound_check(np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                                {"X": np.zeros(2)})
