"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Heavy scenario runs are shared through module-scoped fixtures.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import hiera_est as he
from hiera_est.estimators import Buffers, adjugate, centralized_ge_flow
from hiera_est.excitation import estimate_assumption_bounds
from hiera_est.sim import rk4_step

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def load_scenario(name, **overrides):
    doc = json.loads((SCENARIOS / name).read_text())
    doc.update(overrides)
    return he.load_config(doc)


def timed_run(cfg):
    t0 = time.perf_counter()
    trace = he.run_scenario(cfg)
    return trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def nominal():
    cfg = load_scenario("nominal_switched.json")
    trace, secs = timed_run(cfg)
    return cfg, trace, secs


@pytest.fixture(scope="module")
def quantized_ladder(nominal):
    _, trace0, secs0 = nominal
    runs = {0.0: trace0}
    total = secs0
    for eps in (0.018, 0.036):
        cfg = load_scenario("nominal_switched.json", epsilon=eps)
        trace, secs = timed_run(cfg)
        runs[eps] = trace
        total += secs
    return runs, total


@pytest.fixture(scope="module")
def lossy():
    cfg = load_scenario("packet_loss.json")
    return cfg, he.run_scenario(cfg)


def tail_sup(trace, fraction=0.2):
    tail = trace.t >= (1 - fraction) * trace.t_end
    return {
        name: float(tr.err_norm[tail].max())
        for name, tr in trace.estimators.items()
    }


def test_criterion_1_gain_bound_value():
    t0 = time.perf_counter()
    value = he.gain_bound(3, 10, 20.769, 8.3966, 0.16, 51.326, 0.367)
    elapsed = time.perf_counter() - t0
    ok = abs(value - 2.778) / 2.778 < 0.01 and elapsed < 1e-3
    report(1, "gain-bound reproduction", ok, f"k_min={value:.4f}, {elapsed*1e6:.0f}us")


def test_criterion_2_residual_invariance(nominal):
    _, trace, secs = nominal
    worst = float(trace.resid_norm.max())
    ok = worst < 1e-6 and secs < 30.0
    report(2, "consensus-output regression identity", ok,
           f"max residual={worst:.2e}, runtime={secs:.1f}s")


def test_criterion_3_exponential_convergence(nominal):
    _, trace, _ = nominal
    m = he.compute_metrics(trace)
    details = []
    ok = True
    for name in ("ge", "drem"):
        est = trace.estimators[name]
        rates = m["per_estimator"][name]["decay_rate"]
        final = est.err_norm[-1]
        initial = est.err_norm[0]
        ok &= all(r < 0 for r in rates)
        ok &= bool(np.all(final < 1e-3 * initial))
        details.append(f"{name}: worst rate={max(rates):.3f}, "
                       f"worst final/initial={(final/initial).max():.2e}")
    report(3, "negative decay rates + 1e-3 error reduction", ok, "; ".join(details))


def test_criterion_4_consensus_error_ceiling(nominal):
    cfg, trace, _ = nominal
    a = cfg.analysis
    _, gamma_hat = estimate_assumption_bounds(cfg.generator, a.horizon, a.grid_step)
    ceiling = he.consensus_error_bound(
        cfg.n, gamma_hat, trace.k, cfg.schedule.lambda_g_min
    )
    tail = trace.t >= 0.8 * trace.t_end
    sup = float(trace.cons_err[tail].max())
    ok = sup <= 1.05 * ceiling
    report(4, "tail consensus error under analytic ceiling", ok,
           f"sup={sup:.1f}, ceiling={ceiling:.1f}")


def test_criterion_5_conservation_and_symmetry(nominal, quantized_ladder, lossy):
    runs = dict(quantized_ladder[0])
    runs["lossy"] = lossy[1]
    cons = max(tr.max_conservation_err for tr in runs.values())
    asym = max(tr.max_asymmetry for tr in runs.values())
    ok = cons < 1e-8 and asym < 1e-10
    report(5, "state-sum conservation and symmetry everywhere", ok,
           f"max|sum|={cons:.2e}, max asym={asym:.2e}")


def test_criterion_5_exact_runs_drift_far_below_the_tolerance(nominal, lossy):
    # The two 20 s runs at epsilon = 0 step the lower layer by RK4's maps in
    # increment form, S + (D S + v). Their sums drift about 1e-10, 100 times
    # under the tolerance; a scan of the full map, R S + v, drifted 7.5e-10.
    drift = {"nominal": nominal[1].max_conservation_err, "lossy": lossy[1].max_conservation_err}
    ok = max(drift.values()) < 3e-10
    report(5, "state-sum drift of the exact-link runs under 3e-10", ok,
           ", ".join(f"{name} {value:.2e}" for name, value in drift.items()))


def test_criterion_6_pe_oracle():
    sig = lambda t: np.array([[np.sin(t), np.cos(t)]])
    w = he.pe_level(sig, T=2 * np.pi, horizon=4 * np.pi, grid_step=2 * np.pi / 1000)
    c = 1.7
    w2 = he.pe_level(lambda t: np.array([[c]]), T=0.5, horizon=2.0, grid_step=0.5 / 100)
    ok = abs(w - np.pi) < 1e-3 and abs(w2 - c**2 * 0.5) < 1e-10
    report(6, "excitation-level oracle (sin/cos and constant)", ok,
           f"alpha={w:.6f} vs pi, const={w2:.6f} vs {c**2*0.5:.6f}")


def test_criterion_7_quantized_ladder(quantized_ladder):
    runs, total_secs = quantized_ladder
    tails = {eps: max(tail_sup(tr).values()) for eps, tr in runs.items()}
    ok = (
        np.isfinite(list(tails.values())).all()
        and tails[0.0] <= tails[0.018] <= tails[0.036]
        and tails[0.0] < 1e-3
        and tails[0.036] > tails[0.0]
        and total_secs < 120.0
    )
    report(7, "quantization-step ladder of tail errors", ok,
           f"tails={ {e: f'{v:.2e}' for e, v in tails.items()} }, {total_secs:.0f}s")


def test_criterion_8_drem_closed_form():
    cfg = he.load_config(
        {
            "n": 2, "n_agents": 3, "theta": [1.0, -2.0], "seed": 7,
            "coeff_range": [0, 2], "freq_range": [0.5, 3.0],
            "topology": {"edges": [[0, 1], [1, 2]]},
            "k": 5.0, "gamma_drem": [5e-6, 2e-6],
            "estimators": ["drem"],
            "h": 1e-3, "t_end": 5.0, "decimation": 10,
        }
    )
    trace = he.run_scenario(cfg)
    d = trace.estimators["drem"]
    gains = cfg.gamma_drem
    # theta_hat(0) = 0, so the initial per-component error is -theta; the
    # running integral of phi^2 is itself integrated as an extra RK4 state
    pred = (-cfg.theta)[None, None, :] * np.exp(
        -gains[None, None, :] * d.phi_sq_int[:, :, None]
    )
    actual = d.theta_hat - cfg.theta
    rel = np.abs(actual - pred) / np.abs(pred)
    decay = float((gains[None, :] * d.phi_sq_int[-1][:, None]).max())
    ok = rel.max() < 1e-6 and decay > 1.0
    report(8, "scalarized-estimator closed-form match", ok,
           f"max rel err={rel.max():.2e}, max decay exponent={decay:.1f}")


def test_criterion_9_adjugate_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 6))
        g = rng.normal(size=(n, n))
        if trial % 5 == 0 and n > 1:
            g[:, -1] = g[:, 0] * (1 + 1e-10)  # near-singular
        adj = adjugate(g, Buffers())
        det = np.linalg.det(g)
        scale = max(np.abs(adj @ g).max(), abs(det), 1.0)
        worst = max(worst, np.abs(adj @ g - det * np.eye(n)).max() / scale)
    ok = worst < 1e-9
    report(9, "adjugate identity over 1000 random matrices", ok,
           f"worst relative defect={worst:.2e}")


def test_criterion_10_surrogate_equivalence():
    rng = np.random.default_rng(77)
    worst_sol = 0.0
    min_nonsol = np.inf
    for _ in range(200):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        c = rng.normal(size=(p, n))
        theta = rng.normal(size=n)
        y = c @ theta
        cp, yp = c.T @ c, c.T @ y
        worst_sol = max(worst_sol, np.linalg.norm(yp - cp @ theta))
        # perturb along a direction not in the null space of C
        v = c.T @ rng.normal(size=p)
        if np.linalg.norm(c @ v) < 1e-8:
            continue
        bad = theta + v / np.linalg.norm(c @ v)
        min_nonsol = min(min_nonsol, np.linalg.norm(yp - cp @ bad))
    ok = worst_sol < 1e-10 and min_nonsol > 1e-6
    report(10, "surrogate regression solution-set equivalence", ok,
           f"solution residual<={worst_sol:.2e}, non-solution>={min_nonsol:.2e}")


def test_criterion_11_cooperative_demo():
    cfg = load_scenario("cooperative_rank1.json")
    trace = he.run_scenario(cfg)
    init = float(np.linalg.norm(cfg.theta))
    hier_ok = all(
        trace.estimators[name].err_norm[-1].max() < 1e-3 * init
        for name in ("ge", "drem")
    )
    # standalone baseline: each agent runs a gradient flow on only its own
    # constant rank-1 data and must stall at the unidentifiable component
    stall_ok = True
    worst_standalone = 0.0
    for i in range(cfg.n_agents):
        c = cfg.generator.evaluate(i, 0.0)
        y = c @ cfg.theta
        th = np.zeros(cfg.n)
        a, B = centralized_ge_flow(c.T @ c, c.T @ y, cfg.gamma_ge)
        field = lambda t, s: a - B @ s
        for step in range(int(cfg.t_end / cfg.h)):
            th = rk4_step(field, th, step * cfg.h, cfg.h)
        err = np.linalg.norm(th - cfg.theta)
        worst_standalone = max(worst_standalone, err)
        stall_ok &= err > 0.5 * init
    ok = hier_ok and stall_ok
    report(11, "rank-deficient local data: standalone stalls, network converges",
           ok, f"standalone err>={worst_standalone/init:.2f}x init, "
           f"hierarchical<{1e-3:g}x: {hier_ok}")


def test_criterion_12_robustness(lossy):
    noisy_hi = he.run_scenario(load_scenario("noisy.json"))
    noisy_lo = he.run_scenario(load_scenario("noisy.json", noise_sd=0.1))
    hi = max(tail_sup(noisy_hi).values())
    lo = max(tail_sup(noisy_lo).values())
    cfg_l, trace_l = lossy
    init = float(np.linalg.norm(cfg_l.theta))
    loss_final = max(tr.err_norm[-1].max() for tr in trace_l.estimators.values())
    ok = np.isfinite(hi) and lo < hi and loss_final < 1e-3 * init
    report(12, "noise halving shrinks tail; packet loss still converges", ok,
           f"noise tails {hi:.2e}->{lo:.2e}, lossy final={loss_final:.2e}")
