import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milne_lab import transport
from milne_lab._rk4 import rk4_step_into
from milne_lab.geometry import make_time_frame
from milne_lab.massshell import compute_p0
from milne_lab.transport import (
    ParticleEnsemble,
    integrate_characteristics,
    manufactured_lapse_fields,
    support_bound_check,
)
from references import background_fields, characteristic_rhs, rk4_step

EPS = 1e-3


def sample_ensemble(n, seed=0):
    rng = np.random.default_rng(seed)
    return ParticleEnsemble(x=rng.uniform(-1.2, 1.2, size=(n, 3)),
                            p=rng.normal(scale=0.7, size=(n, 3)),
                            weights=np.full(n, 1.0 / n))


def ensemble_of(n):
    """``sample_ensemble(n)``, or the empty ensemble for ``n = 0``."""
    if n:
        return sample_ensemble(n)
    return ParticleEnsemble(x=np.zeros((0, 3)), p=np.zeros((0, 3)),
                            weights=np.zeros(0))


def run(provider, n=64, span=2.0, h=1e-3, seed=0, **kw):
    frame0 = make_time_frame(-1.0, 0.0)
    return integrate_characteristics(sample_ensemble(n, seed), provider,
                                     frame0, span, h, **kw)


class TestProviders:
    def test_background_is_identity_frame(self):
        f = background_fields(0.0, np.zeros((4, 3)))
        assert np.allclose(f.N, 3.0)
        assert np.max(np.abs(f.X)) == 0.0
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
            dg = (provider(0.4, x + e).g - provider(0.4, x - e).g) / (2 * h)
            assert np.allclose(f.dg[..., c], dg, atol=1e-7)

    def test_manufactured_time_consistency(self):
        # the conformal metric factor must satisfy the kinematic identity
        # da/dT = (2/3)(N - 3) a forced by zero shear and zero shift
        provider = manufactured_lapse_fields(0.3)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.5, 1.5, size=(16, 3))
        h = 1e-6
        f = provider(0.9, x)
        a = f.g[:, 0, 0]
        da = (provider(0.9 + h, x).g[:, 0, 0]
              - provider(0.9 - h, x).g[:, 0, 0]) / (2 * h)
        assert np.allclose(da, (2.0 / 3.0) * (f.N - 3.0) * a, atol=1e-9)
        dN = (provider(0.9 + h, x).N - provider(0.9 - h, x).N) / (2 * h)
        assert np.allclose(dN, f.dTN, atol=1e-7)

    def test_manufactured_metric_time_derivative(self):
        # dTg feeds the dense reference flow (references.characteristic_rhs)
        provider = manufactured_lapse_fields(0.3)
        x = np.random.default_rng(7).uniform(-1.5, 1.5, size=(16, 3))
        h = 1e-6
        dg = (provider(0.9 + h, x).g - provider(0.9 - h, x).g) / (2 * h)
        assert np.allclose(provider(0.9, x).dTg, dg, atol=1e-9)

    def test_norm_envelopes_bound_samples(self):
        provider = manufactured_lapse_fields(EPS)
        rng = np.random.default_rng(3)
        x = rng.uniform(-2.5, 2.5, size=(4000, 3))
        for T in (0.0, 1.0, 4.0):
            f = provider(T, x)
            assert np.max(np.abs(f.N - 3.0)) <= provider.norm_envelopes["Nm3"](T) * (1 + 1e-12)


def row_kernel_rhs(provider, T, x, p, q0):
    """The integrator's derived right-hand side, as ``(n, 3)`` columns."""
    y = np.concatenate([x.T, p.T, q0[None]])
    k = np.empty_like(y)
    transport._Flow(provider.conformal_rows, -1.0, x.shape[0]).rhs(T, y, k)
    return k[0:3].T, k[3:6].T, k[6]


class TestRhsEquivalence:
    # sizes below, on and past a cache line of 8 doubles, and two chunks
    @pytest.mark.parametrize("n", [1, 7, 8, 32, 1001])
    @pytest.mark.parametrize("on_shell", [True, False])
    @pytest.mark.parametrize("provider_name", ["background", "manufactured"])
    def test_row_kernel_matches_dense_rhs(self, provider_name, on_shell, n):
        provider = (background_fields if provider_name == "background"
                    else manufactured_lapse_fields(0.3))
        rng = np.random.default_rng(4)
        T = 0.7
        x = rng.uniform(-1.2, 1.2, size=(n, 3))
        p = rng.normal(size=(n, 3))
        fr = make_time_frame(-1.0, T)
        f = provider(T, x)
        if on_shell:  # the shift-free on-shell time component
            q0 = np.sqrt(1.0 + fr.tau**2
                         * np.einsum("na,nab,nb->n", p, f.g, p)) / f.N
        else:  # co-evolved values off the shell
            q0 = rng.uniform(0.3, 0.5, size=n)
        want = characteristic_rhs((x, p), f, fr, mode="derived", q0=q0)
        for a, b in zip(row_kernel_rhs(provider, T, x, p, q0), want):
            assert np.allclose(a, b, rtol=1e-13, atol=1e-15)


def hooked_provider(hook, eps=EPS):
    """Manufactured fields whose row fill runs ``hook(T, x, F, W)`` after
    it, with the time, the position rows, the field block and the scratch."""
    bind = manufactured_lapse_fields(eps).conformal_rows

    def hooked(F, W):
        retime, at = bind(F, W)
        now = [0.0]

        def hooked_retime(T):
            now[0] = T
            retime(T)

        def hooked_at(x):
            fill = at(x)

            def hooked_fill():
                fill()
                hook(now[0], x, F, W)
            return hooked_fill
        return hooked_retime, hooked_at

    def provider(T, x):
        return transport._conformal_batch(hooked, T, x)
    provider.conformal_rows = hooked
    return provider


def nan_front(T, x, F, W):
    F[3:6, x[0] > 1.15 - T / 2] = np.nan  # the dN rows


def nan_front_provider():
    """Manufactured fields whose lapse gradient turns NaN on a moving front.

    Every particle the front overtakes gets flagged.
    """
    return hooked_provider(nan_front)


class TestPaperForm:
    def test_paper_form_is_derived_minus_2p(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.2, 1.2, size=(32, 3))
        p = rng.normal(size=(32, 3))
        fr = make_time_frame(-1.0, 0.4)
        f = manufactured_lapse_fields(0.3)(0.4, x)
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
        f = manufactured_lapse_fields(0.3)(0.0, x)
        f.X = np.full((4, 3), 0.1)
        for mode in ("derived", "paper_form"):
            with pytest.raises(NotImplementedError):
                characteristic_rhs((x, np.ones((4, 3))), f,
                                   make_time_frame(-1.0, 0.0), mode=mode)


class TestEnsemble:
    @pytest.mark.parametrize("x, p, weights, match", [
        (np.zeros((4, 2)), np.zeros((4, 2)), np.ones(4), "shapes"),
        (np.zeros((4, 3)), np.zeros((4, 2)), np.ones(4), "shapes"),
        (np.zeros((4, 3)), np.zeros((3, 3)), np.ones(4), "shapes"),
        (np.zeros((4, 3)), np.zeros((4, 3)), np.ones((4, 1)), "shapes"),
        (np.zeros((2, 3)), np.zeros((2, 3)), [1.0, -1.0], "nonnegative"),
        (np.zeros((2, 3)), np.zeros((2, 3)), [1.0, np.nan], "finite"),
        (np.zeros((2, 3)), np.zeros((2, 3)), [np.inf, 1.0], "finite"),
        (np.zeros((4, 3)), np.array([[0.0] * 3, [np.nan, 0.0, 0.0]] * 2),
         np.ones(4), "p must be finite"),
        (np.array([[0.0, 0.0, -np.inf]] * 2), np.zeros((2, 3)), np.ones(2),
         "x must be finite"),
    ], ids=["x (4, 2)", "p (4, 2)", "p (3, 3)", "weights (4, 1)",
            "negative weight", "NaN weight", "inf weight", "NaN p", "inf x"])
    def test_malformed_ensemble_is_a_named_error(self, x, p, weights, match):
        with pytest.raises(ValueError, match=match):
            ParticleEnsemble(x=x, p=p, weights=weights)


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

    def test_thread_count_does_not_change_results(self, forks, monkeypatch):
        monkeypatch.setattr(transport, "_CHUNK", 8)  # four chunks
        log1, _ = run(manufactured_lapse_fields(EPS), n=32, span=1.0)
        log4, _ = run(manufactured_lapse_fields(EPS), n=32, span=1.0,
                      threads=4)
        assert len(forks) == 3
        assert np.array_equal(log1.p, log4.p)
        assert np.array_equal(log1.calG, log4.calG)

    def test_flagged_particles_freeze_independently_of_threads(
            self, forks, monkeypatch):
        monkeypatch.setattr(transport, "_CHUNK", 16)  # four chunks
        provider = nan_front_provider()
        log1, fin1 = run(provider, n=64, span=0.5, log_every=10)
        log2, fin2 = run(provider, n=64, span=0.5, log_every=10, threads=2)
        assert len(forks) == 1
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
        # classical RK4 over the dense formula reference
        provider, h = manufactured_lapse_fields(0.3), 1e-2
        log, _ = run(provider, n=16, span=0.5, h=h, log_every=10)
        ens = sample_ensemble(16)

        def rhs(T, y):
            x, p, q0 = y
            return characteristic_rhs((x, p), provider(T, x),
                                      make_time_frame(-1.0, T), q0=q0)

        frame0 = make_time_frame(-1.0, 0.0)
        y = [ens.x, ens.p, compute_p0(provider(0.0, ens.x), ens.p, frame0,
                                      method="paper_primary")]
        for step in range(51):
            if step:
                y = rk4_step(rhs, (step - 1) * h, y, h)
            if step % 10 == 0:
                x, p, q0 = y
                G = np.einsum("na,nab,nb->n", p, provider(step * h, x).g, p)
                row = step // 10
                for key, dense in (("x", x), ("p", p), ("p0", q0), ("G", G)):
                    assert np.allclose(getattr(log, key)[row], dense,
                                       rtol=1e-12, atol=1e-14), (key, row)

    def test_convergence_order_is_four(self):
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            log, _ = run(manufactured_lapse_fields(0.1), n=16, span=1.0, h=h,
                         log_every=int(round(1.0 / h)))
            errs.append(np.max(np.abs(log.massshell_residual[-1])))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 4.0) <= 0.2)

    @pytest.mark.parametrize("n", [0, 8])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_provider_without_row_fill_is_a_named_error(self, threads, n):
        manufactured = manufactured_lapse_fields(EPS)
        with pytest.raises(TypeError, match="conformal_rows"):
            integrate_characteristics(
                ensemble_of(n), lambda T, x: manufactured(T, x),
                make_time_frame(-1.0, 0.0), 0.1, 1e-2, threads=threads)

    @pytest.mark.parametrize("n", [0, 8])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_paper_form_integration_is_a_named_error(self, threads, n):
        with pytest.raises(ValueError, match="paper_form"):
            integrate_characteristics(
                ensemble_of(n), manufactured_lapse_fields(EPS),
                make_time_frame(-1.0, 0.0), 0.1, 1e-2, mode="paper_form",
                threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_empty_ensemble(self, threads):
        log, fin = integrate_characteristics(
            ensemble_of(0), manufactured_lapse_fields(EPS),
            make_time_frame(-1.0, 0.0), 0.1, 1e-2, log_every=5,
            threads=threads)
        assert log.p.shape == (3, 0, 3) and log.p0.shape == (3, 0)
        assert np.array_equal(log.calG, np.zeros(3))
        assert fin.size == 0

    def test_log_every_must_be_positive(self):
        with pytest.raises(ValueError, match="log_every"):
            run(background_fields, n=4, span=0.1, h=1e-2, log_every=0)

    def test_step_must_divide_span(self):
        with pytest.raises(ValueError):
            run(background_fields, n=4, span=1.0005, h=1e-2)

    @pytest.mark.parametrize("bad, error, name", [
        (dict(threads=0), ValueError, "threads"),
        (dict(threads=-3), ValueError, "threads"),
        (dict(threads=True), TypeError, "threads"),
        (dict(threads=2.0), TypeError, "threads"),
        (dict(h=math.nan), ValueError, "step size"),
        (dict(h=math.inf), ValueError, "step size"),
        (dict(span=math.inf), ValueError, "Tend"),
        (dict(span=math.nan), ValueError, "Tend"),
        (dict(log_every=2.5), TypeError, "log_every"),
        (dict(log_every=True), TypeError, "log_every"),
        (dict(log_every=-1), ValueError, "log_every"),
    ])
    def test_bad_input_is_a_named_error_before_any_buffer(
            self, bad, error, name, monkeypatch):
        def unreachable(*args):
            raise AssertionError("reached before the inputs were checked")
        for attr in ("_rows", "_shared", "_split", "_fork_each"):
            monkeypatch.setattr(transport, attr, unreachable)
        monkeypatch.setattr(os, "fork", unreachable)
        kw = dict(dict(n=4, span=0.1, h=1e-2), **bad)
        with pytest.raises(error, match=name):
            run(manufactured_lapse_fields(EPS), **kw)

    def test_numpy_integer_counts_are_accepted(self):
        log, _ = run(background_fields, n=4, span=0.1, h=1e-2,
                     log_every=np.int64(5), threads=np.int32(2))
        assert log.T.shape == (3,)


LOG_KEYS = ("T", "x", "p", "p0", "massshell_residual", "G", "calG",
            "total_weight", "flagged")


def assert_same_log(a, b):
    for key in LOG_KEYS:
        assert np.array_equal(getattr(a, key), getattr(b, key)), key


METAMORPHIC_PROVIDERS = {
    "background": lambda: background_fields,
    "row form": lambda: manufactured_lapse_fields(0.3),
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

    @pytest.mark.parametrize("name", sorted(METAMORPHIC_PROVIDERS))
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
        F = transport._rows(9, n)
        retime, at = provider.conformal_rows(
            F, transport._rows(transport._SCRATCH_ROWS, n))
        retime(T)
        at(np.ascontiguousarray(x.T))()
        # (n, 3) operands as einsum sees them: C-contiguous
        a, u, N = F[2], F[6:9].T.copy(), f.N
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
        got = row_kernel_rhs(provider, T, x, p, q0)
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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_flipping_two_axes_flips_the_log(self, threads, monkeypatch):
        # the manufactured fields see x only through x0 x1 x2, dot products
        # and exp(-|x|^2 / 2), so S = diag(-1, -1, 1) changes only signs
        S = np.array([-1.0, -1.0, 1.0])
        monkeypatch.setattr(transport, "_CHUNK", 64)  # five chunks
        ens = sample_ensemble(300, seed=11)
        flipped = ParticleEnsemble(ens.x * S, ens.p * S, ens.weights)
        frame0 = make_time_frame(-1.0, 0.0)
        provider = manufactured_lapse_fields(0.3)
        log, fin = integrate_characteristics(ens, provider, frame0, 0.5, 1e-2,
                                             log_every=10, threads=threads)
        log_s, fin_s = integrate_characteristics(flipped, provider, frame0,
                                                 0.5, 1e-2, log_every=10,
                                                 threads=threads)
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
    def nan_lapse(T, x, F, W):
        F[0][x[0] > 1.15 - T / 2] = np.nan  # the N row
    return hooked_provider(nan_lapse)


SUMMARY_PROVIDERS = {
    "background": lambda: background_fields,
    "row form": lambda: manufactured_lapse_fields(0.3),
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
    @pytest.mark.parametrize("name", sorted(SUMMARY_PROVIDERS))
    def test_summary_fields_equal_the_full_log(self, name, threads,
                                               monkeypatch):
        monkeypatch.setattr(transport, "_CHUNK", 7)  # six chunks
        provider = SUMMARY_PROVIDERS[name]()
        kw = dict(n=40, span=0.5, h=1e-2, log_every=5, threads=threads)
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
        log, fin = integrate_characteristics(
            ensemble_of(0), manufactured_lapse_fields(EPS),
            make_time_frame(-1.0, 0.0), 0.1, 1e-2, log_every=5,
            full_log=full_log)
        assert np.array_equal(log.max_residual, np.zeros(3))
        assert np.array_equal(log.calG, np.zeros(3))
        assert (fin is None) is not full_log


class TestSummaryInSlopeRows:
    """A summary log observes G and the residual in two slope rows, which
    the next step overwrites before it reads them."""

    @pytest.mark.parametrize("name", sorted(SUMMARY_PROVIDERS))
    def test_every_step_logged_gives_the_full_logs_row_maxima(
            self, name, forks, monkeypatch):
        # a log row after every step: a slope row read before the kernel
        # writes it would carry G or a residual into the trajectory
        monkeypatch.setattr(transport, "_CHUNK", 7)  # six chunks
        provider = SUMMARY_PROVIDERS[name]()
        kw = dict(n=40, span=0.2, h=1e-2, log_every=1, threads=2)
        full, _ = run(provider, **kw)
        summary, _ = run(provider, full_log=False, **kw)
        assert len(forks) == 2  # one child per run
        # a particle flagged by a row has the state of the row before it
        live = np.ones(full.G.shape, dtype=bool)
        live[1:] = (full.x[1:] != full.x[:-1]).any(axis=2)
        G_max = np.where(live, full.G, -np.inf).max(axis=1)
        calG = np.where(np.isneginf(G_max), 0.0, np.sqrt(G_max))
        assert same_bits(summary.calG, calG)
        assert same_bits(summary.max_residual,
                         np.max(np.abs(full.massshell_residual), axis=1))
        if name in ("flagging", "NaN residual"):
            assert 0 < int(np.sum(summary.flagged)) < 40
            assert not live.all()


REFERENCE_PROVIDERS = {
    "row_form_derived": lambda: manufactured_lapse_fields(0.3),
    "nan_front": nan_front_provider,
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


def offset_rows(offset, padded):
    """A stand-in for ``transport._rows`` whose blocks start ``offset``
    bytes past a cache line, with rows of ``n`` doubles (``padded=False``)
    or of whole lines."""
    def rows(m, n):
        stride = -(-n // 8) * 8 if padded else n
        raw = np.empty(m * stride + 16)
        skip = -raw.ctypes.data % 64 // 8 + offset // 8
        return raw[skip:skip + m * stride].reshape(m, stride)[:, :n]
    return rows


def alignment_run(full_log, threads, n):
    # with _CHUNK at 600, 1001 particles make two chunks, of 600 and 401
    log, fin = run(manufactured_lapse_fields(0.3), n=n, span=0.2, h=1e-2,
                   log_every=5, threads=threads, full_log=full_log)
    got = {key: getattr(log, key) for key in LOG_KEYS + ("max_residual",)}
    if fin is not None:
        got.update(final_x=fin.x, final_p=fin.p)
    return got


ALIGNMENT_RUNS = [(full_log, threads, n)
                  for full_log in (True, False)
                  for threads in (1, 2)
                  for n in (1, 7, 1001)]


@pytest.fixture(scope="module")
def aligned_runs():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_CHUNK", 600)
        return {args: alignment_run(*args) for args in ALIGNMENT_RUNS}


def assert_starts_on_lines(*blocks):
    for block in blocks:
        for row in np.atleast_2d(block):
            assert row.ctypes.data % 64 == 0, row.ctypes.data % 64


class TestRowAlignment:
    """Every hot-loop row starts on a cache line, and where rows start
    changes no bit of a run."""

    @pytest.mark.parametrize("padded", [True, False])
    @pytest.mark.parametrize("offset", [8, 16, 24, 32, 40, 48, 56])
    def test_offset_rows_change_no_bits(self, offset, padded, aligned_runs,
                                        monkeypatch):
        # numpy's SIMD exp and sqrt loops are not promised to give the
        # same bits at every alignment; these runs pin that they do
        monkeypatch.setattr(transport, "_CHUNK", 600)
        rows, blocks = offset_rows(offset, padded), []

        def recorded(m, n):
            blocks.append(rows(m, n))
            return blocks[-1]

        monkeypatch.setattr(transport, "_rows", recorded)
        for args in ALIGNMENT_RUNS:
            got = alignment_run(*args)
            for key, want in aligned_runs[args].items():
                if want is None:
                    assert got[key] is None, (args, key)
                else:
                    assert same_bits(got[key], want), (args, key)
        assert blocks and all(b.ctypes.data % 64 == offset for b in blocks)

    @pytest.mark.parametrize("full_log", [True, False])
    @pytest.mark.parametrize("n, chunk", [(1, None), (7, None), (8, None),
                                          (1001, None), (1001, 600)])
    def test_every_hot_loop_row_starts_on_a_cache_line(self, n, chunk,
                                                       full_log, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(transport, "_CHUNK", chunk)
        rhs, observe = transport._Flow.rhs, transport._Flow.observe
        # buffer addresses per chunk's flow: a later chunk may reuse the
        # memory of an earlier one
        seen = {}

        def buffers(flow):  # state, slope and summary-row addresses
            return seen.setdefault(flow, (set(), set(), set()))

        def checked_rhs(flow, T, y, k):
            # over one step y is the state and the stage state, and k the
            # two slope buffers of rk4_step_into
            assert_starts_on_lines(y, k, flow.W, *flow.F)
            buffers(flow)[0].add(y.ctypes.data)
            buffers(flow)[1].add(k.ctypes.data)
            return rhs(flow, T, y, k)

        def checked_observe(flow, T, y, G, residual):
            assert_starts_on_lines(y)
            if not full_log:  # the chunk's summary rows
                assert_starts_on_lines(G, residual)
                buffers(flow)[2].add(G.ctypes.data)
            return observe(flow, T, y, G, residual)

        monkeypatch.setattr(transport._Flow, "rhs", checked_rhs)
        monkeypatch.setattr(transport._Flow, "observe", checked_observe)
        run(manufactured_lapse_fields(0.3), n=n, span=0.05, h=1e-2,
            log_every=2, full_log=full_log)
        assert len(seen) == (1 if chunk is None else 2)
        for states, slopes, observed in seen.values():
            assert len(states) == len(slopes) == 2
            assert len(observed) == (0 if full_log else 1)

    @pytest.mark.parametrize("n", [1, 7, 8, 1001])
    def test_provider_rows_start_on_cache_lines(self, n):
        # the dense formula reference reads its lapse and conformal rows
        # from the same aligned fill the integrator runs on
        calls = []

        def checked_fill(T, x, F, W):
            assert_starts_on_lines(*F, W)
            calls.append(x.shape)

        ens = sample_ensemble(n, seed=4)
        f = hooked_provider(checked_fill, 0.3)(0.3, ens.x)
        assert calls == [(3, n)]
        assert_starts_on_lines(f.N, f.dTN)


class TestChunkBuffers:
    """The buffers of a chunk are the rows ``_CHUNK`` is derived from."""

    def test_a_chunk_allocates_its_rows_in_either_log_mode(self,
                                                           monkeypatch):
        rows, counted = transport._rows, []

        def counting(m, n):
            counted[-1] += m
            return rows(m, n)

        monkeypatch.setattr(transport, "_rows", counting)
        for full_log in (True, False):
            counted.append(0)
            run(manufactured_lapse_fields(0.3), n=100, span=0.05, h=1e-2,
                log_every=2, full_log=full_log)
        assert counted == [transport._CHUNK_ROWS] * 2
        assert transport._CHUNK * transport._CHUNK_ROWS * 8 \
            <= transport._L2_BYTES


def unbound_run(bind, ens, steps, h):
    """Full-log rows ``(x, p, p0)`` of the integrator's RK4 steps, with
    every right-hand side evaluated by a new flow: nothing is bound
    before the call that uses it."""
    def rhs(T, y, k):
        transport._Flow(bind, -1.0, ens.size).rhs(T, y, k)

    y = np.concatenate([ens.x.T, ens.p.T, np.zeros((1, ens.size))])
    transport._Flow(bind, -1.0, ens.size).p0(0.0, y, y[6])
    rows = [y.copy()]
    for step in range(steps):
        y = rk4_step_into(rhs, step * h, y, h, *(np.empty_like(y)
                                                 for _ in range(3))).copy()
        rows.append(y)
    return np.array(rows)


class TestBoundKernels:
    """Kernels and fills bound once per chunk give the bits of ones bound
    anew for every call."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("steps", [5, 6])
    def test_either_state_block_gives_the_same_bits(self, steps, threads,
                                                    monkeypatch):
        # an RK4 step writes the state into the other block, so after an
        # odd count the final state comes from the second block
        monkeypatch.setattr(transport, "_CHUNK", 7)  # three chunks
        provider, h = manufactured_lapse_fields(0.3), 1e-2
        ens = sample_ensemble(20, seed=13)
        log, fin = integrate_characteristics(
            ens, provider, make_time_frame(-1.0, 0.0), steps * h, h,
            log_every=1, threads=threads)
        want = unbound_run(provider.conformal_rows, ens, steps, h)
        assert same_bits(log.x, want[:, 0:3].transpose(0, 2, 1).copy())
        assert same_bits(log.p, want[:, 3:6].transpose(0, 2, 1).copy())
        assert same_bits(log.p0, want[:, 6])
        assert same_bits(fin.x, want[-1, 0:3].T.copy())
        assert same_bits(fin.p, want[-1, 3:6].T.copy())

    @pytest.mark.parametrize("padded", [True, False])
    @pytest.mark.parametrize("offset", [0, 8, 16, 24, 32, 40, 48, 56])
    @pytest.mark.parametrize("n", [1, 7, 8, 1001])
    def test_stacked_field_rows_equal_per_row_calls(self, n, offset, padded):
        # the fill scales phi into N dTN a by a (3, 1) column and grad phi
        # into dN u by a (2, 1, 1) one, and takes exp of the row a; each
        # must give the bits of one call per row, at every row offset
        rng = np.random.default_rng(n + offset)
        phi = rng.normal(size=n)
        dphi = rng.normal(size=(3, n)) * np.exp(rng.normal(scale=3,
                                                           size=(3, n)))
        amp, grown = 0.3 * math.exp(-0.7), 0.2 * (1.0 - math.exp(-0.7))
        factors = np.array([[amp], [-amp], [grown]])
        F = offset_rows(offset, padded)(9, n)
        np.multiply(phi, factors, F[0:3])
        np.exp(F[2], F[2])
        np.multiply(dphi, factors[0::2, :, None], F[3:9].reshape(2, 3, n))
        want = [phi * amp, phi * -amp, np.exp(phi * grown),
                *(dphi * amp), *(dphi * grown)]
        for row, w in zip(F, want):
            assert same_bits(row.copy(), w)


class TestSupportEnvelope:
    def test_background_support_constant(self):
        log, _ = run(background_fields, n=64)
        drift = np.max(np.abs(log.calG - log.calG[0]))
        assert drift < 1e-10

    def test_gronwall_envelope_holds(self):
        provider = manufactured_lapse_fields(EPS)
        log, _ = run(provider, n=64)
        rep = support_bound_check(log.T, log.calG, provider.norm_envelopes,
                                  C=10.0)
        assert rep["holds"]
        assert rep["envelope"][-1] >= rep["measured"][-1]

    def test_margin_measured_past_T0(self):
        # the envelope starts at calG(T0), so row 0 has margin 0 by
        # construction and the reported margin is taken over the rows after
        provider = manufactured_lapse_fields(EPS)
        log, _ = run(provider, n=64, log_every=100)
        rep = support_bound_check(log.T, log.calG, provider.norm_envelopes,
                                  C=10.0)
        gap = rep["envelope"] - rep["measured"]
        assert gap[0] == 0.0
        assert rep["margin"] == np.min(gap[1:]) > 0.0
        first = support_bound_check(log.T[:1], log.calG[:1],
                                    provider.norm_envelopes)
        assert first["margin"] == 0.0

    def test_missing_norm_series_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            support_bound_check(np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                                {"X": lambda T: 0.0})

    @pytest.mark.parametrize("key", ["GamaStar", "tau0_abs"])
    def test_unknown_norm_series_rejected(self, key):
        # a misspelt series, or the scale factor passed as a series, would
        # otherwise change the envelope unnoticed
        norms = {k: lambda T: 0.0 for k in ("X", "Sigma", "Nm3", "dTX",
                                             "GammaStar", "GammaStarStar")}
        norms[key] = lambda T: 0.0
        with pytest.raises(ValueError, match=key):
            support_bound_check(np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                                norms)


class Boom(Exception):
    """Raised by a provider on one worker's share."""


@pytest.fixture
def forks(monkeypatch):
    """Four CPUs for the worker cap, and the pids of the workers forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWorkers:
    """Worker processes: shares, the worker cap, failures and reaping."""

    @pytest.mark.parametrize("share", ["child", "parent"])
    def test_a_raising_share_reaches_the_caller_and_no_child_is_left(
            self, share, forks, monkeypatch):
        # the child's exception cannot cross the fork: the parent reruns
        # the child's share and raises it itself; a raise in the parent's
        # own share kills the child
        monkeypatch.setattr(transport, "_CHUNK", 7)
        def fill(T, x, F, W):
            if np.any(x[0] > 2.5):
                raise Boom("a marked particle")

        ens = sample_ensemble(40)
        ens.x[30 if share == "child" else 5, 0] = 3.0  # shares [0, 20), [20, 40)
        with pytest.raises(Boom):
            integrate_characteristics(ens, hooked_provider(fill),
                                      make_time_frame(-1.0, 0.0), 0.5, 1e-2,
                                      threads=2)
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_child_that_dies_mid_run_has_its_share_rerun_to_the_same_bits(
            self, forks, monkeypatch):
        # one chunk a share; the child dies at T = 0.41, after the front
        # flagged particles 31 (T < 0.1) and 38 (T < 0.4) of its share,
        # and the rerun must not freeze 38 early from a stale flag
        monkeypatch.setattr(transport, "_CHUNK", 20)
        parent = os.getpid()

        def fill(T, x, F, W):
            if T > 0.4 and os.getpid() != parent:
                os._exit(3)
            nan_front(T, x, F, W)

        kw = dict(n=40, span=0.5, h=1e-2, log_every=5)
        log, fin = run(nan_front_provider(), **kw)
        log_2, fin_2 = run(hooked_provider(fill), threads=2, **kw)
        assert len(forks) == 1
        assert_no_child_left()
        assert np.flatnonzero(log.flagged[20:]).tolist() == [11, 18]
        assert_same_log(log_2, log)
        assert same_bits(log_2.max_residual, log.max_residual)
        assert same_bits(fin_2.x, fin.x) and same_bits(fin_2.p, fin.p)

    @pytest.mark.parametrize("full_log", [True, False])
    def test_logs_are_bitwise_equal_at_one_two_and_three_workers(
            self, full_log, forks, monkeypatch):
        monkeypatch.setattr(transport, "_CHUNK", 7)
        provider = nan_front_provider()
        runs = {}
        for threads in (1, 2, 3):
            forks.clear()
            runs[threads] = run(provider, n=40, span=0.5, h=1e-2,
                                log_every=5, threads=threads,
                                full_log=full_log)
            assert len(forks) == threads - 1
        assert_no_child_left()
        log, fin = runs[1]
        # three workers take shares of 13, 13 and 14 particles; the front
        # flags particles in the children's shares
        assert log.flagged[13:].any() and not log.flagged.all()
        for threads in (2, 3):
            other, other_fin = runs[threads]
            for key in LOG_KEYS + ("max_residual",):
                want, got = getattr(log, key), getattr(other, key)
                assert (got is None if want is None
                        else same_bits(got, want)), (threads, key)
            if full_log:
                assert same_bits(other_fin.x, fin.x)
                assert same_bits(other_fin.p, fin.p)
            else:
                assert other_fin is None

    def test_budget_above_the_chunk_count(self, forks, monkeypatch):
        monkeypatch.setattr(transport, "_CHUNK", 7)  # two chunks
        provider = manufactured_lapse_fields(0.3)
        log, fin = run(provider, n=10, span=0.2, h=1e-2, log_every=5)
        log_64, fin_64 = run(provider, n=10, span=0.2, h=1e-2, log_every=5,
                             threads=64)
        assert len(forks) == 1
        assert_no_child_left()
        assert_same_log(log_64, log)
        assert same_bits(fin_64.x, fin.x) and same_bits(fin_64.p, fin.p)

    def test_worker_cap(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert transport._workers(8, 100) == 3  # the CPUs
        assert transport._workers(2, 100) == 2  # the budget
        assert transport._workers(8, 2) == 2  # the chunks
        assert transport._workers(8, 0) == 0
        done = threading.Event()
        other = threading.Thread(target=done.wait, args=(60,))
        other.start()
        try:  # no fork while another thread may hold a lock
            assert transport._workers(8, 100) == 1
        finally:
            done.set()
            other.join(60)
        assert not other.is_alive()
        assert transport._workers(8, 100) == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert transport._workers(8, 100) == 1
        assert transport._workers(8, 0) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=300),
           st.integers(min_value=1, max_value=9),
           st.integers(min_value=1, max_value=40))
    def test_split_gives_balanced_shares_of_bounded_chunks(self, n, budget,
                                                           chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transport, "_CHUNK", chunk)
            workers = min(budget, -(-n // chunk))
            chunks, jobs = transport._split(n, workers)
        assert len(jobs) == workers
        assert [i for job in jobs for i in job] == list(range(len(chunks)))
        assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
        assert chunks[-1][1] == n
        assert all(0 < hi - lo <= chunk for lo, hi in chunks)
        sizes = [chunks[job[-1]][1] - chunks[job[0]][0] for job in jobs]
        assert max(sizes) - min(sizes) <= 1
