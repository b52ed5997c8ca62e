"""End-to-end acceptance checks, one per advertised capability.

Each test prints a single PASS/FAIL line with its headline figure so
the suite output doubles as a capability report.  Expensive particle
runs are shared through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from milne_lab import (
    background_geometry,
    make_time_frame,
)
from milne_lab.geometry import correction_constants
from milne_lab.harness import run_scenario, validate_config
from milne_lab.homogeneous import evolve_homogeneous
from milne_lab.massshell import pointwise_estimates_check
from milne_lab.matter import RadialDistribution, moment_bound_check
from milne_lab.modes import corrected_energy, dissipation_identity, integrate_mode
from milne_lab.energies import decay_fit
from milne_lab import transport
from milne_lab.geometry import LocalGeometry
from references import background_fields


def _verdict(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

SPAN = 10.0
H = 1e-3
N_PARTICLES = 1000


def _ensemble(n, seed=0):
    rng = np.random.default_rng(seed)
    return transport.ParticleEnsemble(
        x=rng.uniform(-1.2, 1.2, size=(n, 3)),
        p=rng.normal(scale=0.7, size=(n, 3)),
        weights=np.full(n, 1.0 / n))


def _warmup(provider):
    # exclude one-time allocation/cache effects from the timed run
    transport.integrate_characteristics(
        _ensemble(32, seed=1), provider, make_time_frame(-1.0, 0.0),
        0.1, 1e-2, mode="derived", log_every=10)


@pytest.fixture(scope="module")
def background_run():
    frame0 = make_time_frame(-1.0, 0.0)
    _warmup(background_fields)
    t0 = time.perf_counter()
    log, _ = transport.integrate_characteristics(
        _ensemble(N_PARTICLES), background_fields, frame0, SPAN, H,
        mode="derived", log_every=50)
    return log, time.perf_counter() - t0


@pytest.fixture(scope="module")
def manufactured_run():
    frame0 = make_time_frame(-1.0, 0.0)
    provider = transport.manufactured_lapse_fields(1e-3)
    _warmup(provider)
    t0 = time.perf_counter()
    log, _ = transport.integrate_characteristics(
        _ensemble(N_PARTICLES), provider, frame0, SPAN, H,
        mode="derived", log_every=50)
    return provider, log, time.perf_counter() - t0


@pytest.fixture(scope="module")
def full_report():
    cfg = validate_config({"scenario": "full_report", "seed": 0})
    return run_scenario(cfg)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_background_fixed_point():
    result = run_scenario(validate_config({"scenario": "background_check",
                                           "seed": 0}))
    worst = result["summary"]["worst_residual"]
    exact = result["monitors"]["algebraic_lapse_exact"]["holds"]
    ok = result["ok"] and worst < 1e-12 and exact
    _verdict("criterion-1 background-fixed-point", ok,
             f"worst residual {worst:.3e}, lapse exact: {exact}")


def test_criterion_2_mass_shell_conservation(background_run,
                                             manufactured_run):
    log_b, t_b = background_run
    provider, log_m, t_m = manufactured_run
    res_b = float(np.max(np.abs(log_b.massshell_residual)))
    res_m = float(np.max(np.abs(log_m.massshell_residual)))

    errs = []
    frame0 = make_time_frame(-1.0, 0.0)
    small = _ensemble(16)
    for h in (8e-2, 4e-2, 2e-2):
        log, _ = transport.integrate_characteristics(
            small, provider, frame0, 2.0, h, mode="derived",
            log_every=int(round(2.0 / h)))
        errs.append(np.max(np.abs(log.massshell_residual[-1])))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))

    ok = (res_b < 1e-8 and res_m < 1e-8
          and bool(np.all(np.abs(orders - 4.0) <= 0.2))
          and t_b < 10.0 and t_m < 10.0)
    _verdict("criterion-2 mass-shell", ok,
             f"residuals bg {res_b:.3e} / pert {res_m:.3e}, orders "
             f"{[round(float(o), 3) for o in orders]}, runtimes "
             f"{t_b:.1f}s / {t_m:.1f}s for {N_PARTICLES} particles")


def test_criterion_3_momentum_support(background_run, manufactured_run):
    log_b, _ = background_run
    provider, log_m, _ = manufactured_run
    drift = float(np.max(np.abs(log_b.calG - log_b.calG[0])))
    norms = {key: np.array([provider.norm_envelopes[key](t) for t in log_m.T])
             for key in ("X", "Sigma", "Nm3", "dTX", "GammaStar",
                         "GammaStarStar")}
    gron = transport.support_bound_check(log_m.T, log_m.calG, norms, C=10.0,
                                         tau0_abs=1.0)
    ok = drift < 1e-8 and gron["holds"]
    _verdict("criterion-3 momentum-support", ok,
             f"background drift {drift:.3e}, envelope margin "
             f"{gron['margin']:.3e}")


def test_criterion_4_corrected_energy_decay():
    lam_grid = (1.0 / 9.0, 0.2, 5.0 / 9.0, 1.0, 2.0)
    details = []
    ok = True
    for lam in lam_grid:
        eps_prime = 1.0 / 900.0 if lam <= 1.0 / 9.0 + 1e-12 else None
        c = correction_constants(lam, eps_prime=eps_prime)
        traj = integrate_mode(lam, 1.0, -1.0, (0.0, 8.0), 1000,
                              eps_prime=eps_prime or 1.0 / 900.0)
        diss = dissipation_identity(traj.u, traj.w, lam, c)
        if c.alpha == 1.0:
            # generic gap: dE/dT + 2E vanishes identically
            viol = float(np.max(np.abs(diss)))
            E6 = corrected_energy(traj.u, traj.w, lam, c, order=6)
            rate = decay_fit(traj.T, E6, window=(3.0, 8.0))
            this_ok = viol <= 1e-12 and abs(rate - 2.0) <= 0.02
            details.append(f"lam={lam:.3g} viol={viol:.1e} "
                           f"rate={rate:.4f}")
        else:
            # borderline: dE/dT <= -2 alpha E pointwise
            viol = float(np.max(diss))
            this_ok = viol <= 1e-12
            details.append(f"lam={lam:.3g} borderline viol={viol:.1e} "
                           f"alpha={c.alpha:.2f}")
        ok = ok and this_ok
    _verdict("criterion-4 corrected-energy", ok, "; ".join(details))


def test_criterion_5_continuity_kinetic_consistency():
    qmax = 2.0
    f0 = RadialDistribution(
        grid=np.linspace(0.0, qmax, 200), qmax=qmax,
        profile=lambda q: 2e-4 * np.maximum(0.0, 1.0 - (q / qmax) ** 2))
    errs, tols = [], []
    for n_q in (65, 129, 257):
        run = evolve_homogeneous(f0, tau0=-1.0, T_end=5.0, n_steps=5000,
                                 n_q=n_q, log_every=10)
        assert run.completed
        errs.append(float(np.max(np.abs(run.rho - run.rho_cont))))
        dq = qmax / (n_q - 1)
        tols.append(max(1e-6, 5.0 * (H**4 + dq**2)))
    within = all(e <= t for e, t in zip(errs, tols))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    # asymptotic second-order statement, allow 1e-3 relative slack on 4x
    reduces = all(r >= 4.0 * (1.0 - 1e-3) for r in ratios)
    ok = within and reduces
    _verdict("criterion-5 continuity-consistency", ok,
             f"errors {[f'{e:.3e}' for e in errs]} vs tolerances "
             f"{[f'{t:.3e}' for t in tols]}, doubling ratios "
             f"{[round(r, 4) for r in ratios]}")


def test_criterion_6_decay_rate_table(full_report):
    s = full_report["summary"]
    mon = full_report["monitors"]["decay_rates"]
    ok = (abs(s["lapse_rate"] - 1.0) <= 0.1
          and abs(s["tau2_eta_under_rate"] - 2.0) <= 0.1
          and s["rho_drift_per_efold"] < 0.01
          and s["mode_metric_rate"] >= s["mode_metric_rate_floor"]
          and mon["holds"])
    _verdict("criterion-6 decay-rates", ok,
             f"lapse {s['lapse_rate']:.4f}, tau^2-pressure "
             f"{s['tau2_eta_under_rate']:.4f}, density drift "
             f"{s['rho_drift_per_efold']:.2e}, mode-sector "
             f"{s['mode_metric_rate']:.4f} (floor "
             f"{s['mode_metric_rate_floor']})")


def test_criterion_7_total_energy_envelope(full_report):
    mon = full_report["monitors"]["totalDecay"]
    ok = mon["holds"] and mon["margin"] >= 0.0
    _verdict("criterion-7 total-energy-envelope", ok,
             f"E_tot(T0) {mon['Etot0']:.4f}, minimal envelope gap "
             f"{mon['margin']:.3e}")


def test_criterion_8_moment_bounds():
    rng = np.random.default_rng(42)
    violations = 0
    flagged_regime = 0
    for _ in range(100):
        b = rng.uniform(0.9, 1.1)
        geom = LocalGeometry(g=b * np.eye(3), Sigma=np.zeros((3, 3)),
                             N=3.0, X=np.zeros(3))
        frame = make_time_frame(-1.0, rng.uniform(0.0, 4.0))
        qm = rng.uniform(0.5, 3.0)
        amp = rng.uniform(0.1, 2.0)
        k = rng.uniform(0.5, 4.0)
        f = RadialDistribution(
            grid=np.linspace(0.0, qm, 120), qmax=qm,
            profile=lambda q, a=amp, kk=k, Q=qm: a * np.exp(-kk * q**2)
            * np.maximum(0.0, 1.0 - (q / Q) ** 2))
        rep = moment_bound_check(f, geom, frame, ell=4)
        if not rep["all_hold"]:
            violations += 1
        if not rep["within_design_regime"]:
            flagged_regime += 1
    ok = violations == 0 and flagged_regime == 0
    _verdict("criterion-8 moment-bounds", ok,
             f"{violations} violations in 100 random isotropic states")


def test_criterion_9_pointwise_momentum_estimates():
    rng = np.random.default_rng(7)
    total = 0
    violations = 0
    for _ in range(100):
        A = rng.normal(scale=0.1, size=(3, 3))
        g = np.eye(3) + 0.5 * (A + A.T)
        if np.min(np.linalg.eigvalsh(g)) <= 0.05:
            g = np.eye(3)
        geom = LocalGeometry(g=g, Sigma=np.zeros((3, 3)),
                             N=3.0 + rng.uniform(-0.5, 0.5),
                             X=rng.uniform(-0.3, 0.3, size=3))
        frame = make_time_frame(-1.0, rng.uniform(0.0, 6.0))
        p = rng.normal(scale=3.0, size=(1000, 3))
        total += p.shape[0]
        rep = pointwise_estimates_check(geom, p, frame)
        if not (rep["holds1"] and rep["holds2"]):
            violations += 1
    ok = total == 100_000 and violations == 0
    _verdict("criterion-9 pointwise-estimates", ok,
             f"{violations} violations over {total} admissible samples")


def test_criterion_10_completeness_monitor(full_report):
    comp = full_report["monitors"]["completeness"]
    conds = comp["conditions"]
    tails_iv = conds["iv_lapse_gradient_integrable"]
    tails_v = conds["v_shear_integrable"]
    worst_ratio = max(max(tails_iv["ratios"]), max(tails_v["ratios"]))
    ok = comp["holds"] and worst_ratio < 0.5
    _verdict("criterion-10 completeness", ok,
             f"all five conditions hold: {comp['holds']}, worst tail "
             f"ratio {worst_ratio:.4f}")
