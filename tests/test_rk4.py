import numpy as np
import pytest

from milne_lab._rk4 import rk4_step_into
from milne_lab.homogeneous import evolve_homogeneous
from milne_lab.matter import RadialDistribution
from milne_lab.modes import integrate_mode
from references import rk4_step


def mode_run(n_steps=10, record_every=1):
    return integrate_mode(1.0, 1.0, -1.0, (0.0, 1.0), n_steps,
                          record_every=record_every)


def homogeneous_run(n_steps=10, log_every=10):
    f0 = RadialDistribution(grid=np.linspace(0.0, 2.0, 20), qmax=2.0,
                            profile=lambda q: 2e-3 * (1.0 - (q / 2.0) ** 2))
    return evolve_homogeneous(f0, -1.0, 1.0, n_steps, n_q=9,
                              log_every=log_every)


@pytest.mark.parametrize("run, bad, error, name", [
    (mode_run, dict(n_steps=0), ValueError, "n_steps"),
    (mode_run, dict(n_steps=-3), ValueError, "n_steps"),
    (mode_run, dict(n_steps=2.5), TypeError, "n_steps"),
    (mode_run, dict(n_steps=True), TypeError, "n_steps"),
    (homogeneous_run, dict(n_steps=0), ValueError, "n_steps"),
    (homogeneous_run, dict(n_steps=10.0), TypeError, "n_steps"),
    (homogeneous_run, dict(log_every=0), ValueError, "log_every"),
    (homogeneous_run, dict(log_every=-10), ValueError, "log_every"),
    (homogeneous_run, dict(log_every=10.0), TypeError, "log_every"),
    (homogeneous_run, dict(log_every=True), TypeError, "log_every"),
    (mode_run, dict(record_every=0), ValueError, "record_every"),
    (mode_run, dict(record_every=2.0), TypeError, "record_every"),
    (mode_run, dict(record_every=3), ValueError, "n_steps"),
])
def test_bad_step_counts_are_named_errors(run, bad, error, name):
    # the integrators check their counts as integrate_characteristics does
    with pytest.raises(error, match=f"{name} must be"):
        run(**bad)
    if error is TypeError:  # numpy integers are counts
        run(**{key: np.int64(10) for key in bad})


def test_float_pair_matches_written_out_stages():
    def f(t, y):
        b, r = y
        return -0.3 * b + np.sin(t) * r, b * r - t

    t, y, h = 0.7, (1.25, -0.4), 0.013
    b, r = y
    k1b, k1r = f(t, (b, r))
    k2b, k2r = f(t + 0.5 * h, (b + 0.5 * h * k1b, r + 0.5 * h * k1r))
    k3b, k3r = f(t + 0.5 * h, (b + 0.5 * h * k2b, r + 0.5 * h * k2r))
    k4b, k4r = f(t + h, (b + h * k3b, r + h * k3r))
    want = (b + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b),
            r + (h / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r))
    assert tuple(rk4_step(f, t, y, h)) == want


def test_array_triple_matches_written_out_stages():
    rng = np.random.default_rng(0)
    y = (rng.normal(size=(5, 3)), rng.normal(size=(5, 3)),
         rng.uniform(1.0, 2.0, size=5))

    def f(t, y):
        x, p, q = y
        return (-t * p / q[:, None], np.cos(x) * p - q[:, None],
                np.einsum("na,na->n", x, p) / q)

    t, h = 0.2, 1e-2
    x, p, q = y
    k1 = f(t, (x, p, q))
    k2 = f(t + h / 2, (x + h / 2 * k1[0], p + h / 2 * k1[1], q + h / 2 * k1[2]))
    k3 = f(t + h / 2, (x + h / 2 * k2[0], p + h / 2 * k2[1], q + h / 2 * k2[2]))
    k4 = f(t + h, (x + h * k3[0], p + h * k3[1], q + h * k3[2]))
    want = [a + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
            for i, a in enumerate(y)]
    got = rk4_step(f, t, y, h)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_stage_times_and_order():
    seen = []

    def f(t, y):
        seen.append(t)
        return (0.0,)

    rk4_step(f, 1.0, (0.0,), 0.5)
    assert seen == [1.0, 1.25, 1.25, 1.5]


def test_buffered_step_matches_rk4_step():
    rng = np.random.default_rng(1)
    y = rng.normal(size=(7, 33))

    def f(t, y):
        return np.sin(y[::-1]) * y - t * np.roll(y, 1, axis=1)

    def f_into(t, y, k):
        k[...] = f(t, y)

    t, h = 0.3, 0.07
    before = y.copy()
    out, k, acc = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    got = rk4_step_into(f_into, t, y, h, out, k, acc)
    assert got is out
    want = rk4_step(lambda t, ys: [f(t, ys[0])], t, [y], h)[0]
    assert np.array_equal(got, want)
    assert np.array_equal(y, before)
