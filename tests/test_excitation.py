import numpy as np
import pytest
from scipy.integrate import quad

from hiera_est.excitation import (
    GRID_BLOCK,
    ExcitationConstants,
    analyze_scenario,
    avg_gram_pe_level,
    consensus_error_bound,
    estimate_assumption_bounds,
    gain_bound,
    gain_margins,
    pe_level,
    quantized_bounds,
    switched_feasibility,
)
from hiera_est.graph import constant_schedule, topology_from_edges
from hiera_est.signals import RegressorGenerator, sample_coefficients


class TestPeLevel:
    def test_sincos_analytic(self):
        # Gram integral of [sin t, cos t] over a full period is pi * I exactly.
        sig = lambda t: np.array([[np.sin(t), np.cos(t)]])
        w = pe_level(sig, T=2 * np.pi, horizon=4 * np.pi, grid_step=2 * np.pi / 1000)
        np.testing.assert_allclose(w.alpha, np.pi, atol=1e-3)

    def test_constant_signal(self):
        c = 2.5
        sig = lambda t: np.array([[c]])
        w = pe_level(sig, T=0.8, horizon=3.0, grid_step=0.8 / 100)
        np.testing.assert_allclose(w.alpha, c**2 * 0.8, rtol=1e-12)

    def test_rank_deficient_signal_zero_alpha(self):
        # one-direction signal: Gram is singular in the orthogonal direction
        sig = lambda t: np.array([[1.0, 0.0]])
        w = pe_level(sig, T=1.0, horizon=2.0, grid_step=0.01)
        assert w.alpha == 0.0

    def test_against_scipy_quadrature(self):
        sig = lambda t: np.array([[np.sin(2 * t), 0.3 + np.cos(t)]])

        def gram_entry(a, b, lo, hi):
            return quad(
                lambda t: sig(t)[0, a] * sig(t)[0, b], lo, hi, limit=200
            )[0]

        T, H, dt = 1.5, 4.0, 1.5 / 600
        w = pe_level(sig, T, H, dt)
        # brute force the same sliding-window minimum with scipy quad
        starts = np.arange(0, H - T + 1e-12, dt)
        mins = []
        for s in starts[:: max(len(starts) // 40, 1)]:
            g = np.array(
                [
                    [gram_entry(0, 0, s, s + T), gram_entry(0, 1, s, s + T)],
                    [gram_entry(0, 1, s, s + T), gram_entry(1, 1, s, s + T)],
                ]
            )
            mins.append(np.linalg.eigvalsh(g)[0])
        assert w.alpha <= min(mins) + 1e-4

    def test_grid_too_coarse_rejected(self):
        sig = lambda t: np.array([[1.0]])
        with pytest.raises(ValueError, match="grid too coarse"):
            pe_level(sig, T=1.0, horizon=2.0, grid_step=0.2)

    def test_window_longer_than_horizon_rejected(self):
        sig = lambda t: np.array([[1.0]])
        with pytest.raises(ValueError):
            pe_level(sig, T=3.0, horizon=2.0, grid_step=0.01)

    def test_window_past_last_grid_time_rejected(self):
        # T <= horizon, but T spans round(10.6) = 11 steps of a grid whose
        # last index is 10: no window fits. Rejected before any sampling.
        times = []

        def sig(t):
            times.append(t)
            return np.array([[1.0]])

        with pytest.raises(ValueError, match="horizon must cover at least one window"):
            pe_level(sig, T=1.06, horizon=1.06, grid_step=0.1)
        assert times == []
        assert pe_level(sig, T=1.0, horizon=1.06, grid_step=0.1).alpha == pytest.approx(1.0)


def test_alpha_curve_monotone_for_constant():
    # For a constant stacked regressor, alpha(T) = T * lambda_min(sum C_i^T C_i).
    tables = [np.array([[1.0, 0.0]]), np.array([[0.0, 2.0], [1.0, 1.0]])]
    zeros = [np.zeros_like(c) for c in tables]
    gen = RegressorGenerator.from_tables(tables, zeros, zeros, zeros)
    topo = topology_from_edges(2, [(0, 1)])
    T_grid = [0.1, 0.2, 0.4]
    report = analyze_scenario(
        gen, constant_schedule(topo), T_grid, horizon=1.0, grid_step=0.005
    )
    lam = np.linalg.eigvalsh(sum(c.T @ c for c in tables))[0]
    alphas = [p["alpha"] for p in report["alpha_curve"]]
    np.testing.assert_allclose(alphas, [T * lam for T in T_grid], rtol=1e-10)


class TestGainBound:
    def test_reference_value(self):
        # constants from the 10-agent, 3-parameter reference configuration
        k = gain_bound(3, 10, 20.769, 8.3966, 0.16, 51.326, 0.367)
        np.testing.assert_allclose(k, 2.778, rtol=0.01)

    def test_scaling_laws(self):
        base = gain_bound(3, 10, 1.0, 1.0, 0.1, 2.0, 0.5)
        assert gain_bound(3, 20, 1.0, 1.0, 0.1, 2.0, 0.5) == pytest.approx(4 * base)
        assert gain_bound(3, 10, 1.0, 1.0, 0.2, 2.0, 0.5) == pytest.approx(4 * base)
        assert gain_bound(3, 10, 1.0, 1.0, 0.1, 4.0, 0.5) == pytest.approx(base / 4)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            gain_bound(3, 10, 1.0, 1.0, 0.1, 0.0, 0.5)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            gain_bound(3, 10, 1.0, 1.0, 0.1, 1.0, 0.0)


def test_avg_gram_pe_level_reference():
    # alpha^2/(T N^2) at the reference constants
    np.testing.assert_allclose(
        avg_gram_pe_level(51.326, 0.16, 10), 164.65, rtol=1e-3
    )


def test_consensus_error_bound_reference():
    # n gamma / (k lambda) at the reference constants
    np.testing.assert_allclose(
        consensus_error_bound(3, 8.3966, 2.806, 0.367), 24.46, rtol=1e-3
    )


class TestEstimateBounds:
    def test_beta_bounds_average(self):
        gen = sample_coefficients(2, 4, 1, [0, 3], [0, 2], seed=1)
        beta, gamma = estimate_assumption_bounds(gen, horizon=4.0, grid_step=0.01)
        for t in np.linspace(0, 4, 400):
            cps = np.stack(
                [gen.evaluate(i, t).T @ gen.evaluate(i, t) for i in range(4)]
            )
            assert np.linalg.eigvalsh(cps.mean(axis=0))[-1] <= beta + 1e-9
        assert gamma > 0

    def test_inflation_scales(self):
        gen = sample_coefficients(2, 3, 1, [0, 3], [0, 2], seed=2)
        b1, g1 = estimate_assumption_bounds(gen, 2.0, 0.01, inflation=1.0)
        b2, g2 = estimate_assumption_bounds(gen, 2.0, 0.01, inflation=1.1)
        np.testing.assert_allclose([b2, g2], [1.1 * b1, 1.1 * g1], rtol=1e-12)


class TestQuantizedBounds:
    def consts(self):
        return ExcitationConstants(
            beta=20.769, gamma=8.3966, alpha=51.326, T=0.16, n=3, n_agents=10
        )

    def test_zero_eps_reduces_to_nominal(self):
        qb = quantized_bounds(
            self.consts(), k=2.806, lambda_g=0.367, lambda_max=4.0,
            epsilon=0.0, theta_norm=0.0,
        )
        assert qb.r_eps == 0.0
        np.testing.assert_allclose(
            qb.b_eps, consensus_error_bound(3, 8.3966, 2.806, 0.367)
        )

    def test_margin_decreases_with_eps(self):
        margins = []
        for eps in (0.0, 0.018, 0.036):
            qb = quantized_bounds(
                self.consts(), k=2.806, lambda_g=0.367, lambda_max=4.0,
                epsilon=eps, theta_norm=3.74,
            )
            margins.append(qb.margin)
        assert margins[0] > margins[1] > margins[2]

    def test_r_eps_linear_in_eps(self):
        qb1 = quantized_bounds(
            self.consts(), 2.806, 0.367, 4.0, 0.018, theta_norm=1.0
        )
        qb2 = quantized_bounds(
            self.consts(), 2.806, 0.367, 4.0, 0.036, theta_norm=1.0
        )
        np.testing.assert_allclose(qb2.r_eps, 2 * qb1.r_eps, rtol=1e-12)

    def test_feasibility_formula(self):
        c = self.consts()
        qb = quantized_bounds(c, 2.806, 0.367, 4.0, 0.01, 0.0)
        lhs = c.alpha**2 / (c.T * c.n_agents**2)
        rhs = 2 * c.beta * c.T * qb.b_eps
        assert qb.feasible == (lhs > rhs)
        np.testing.assert_allclose(qb.margin, lhs - rhs, rtol=1e-12)

    def test_switched_uses_worst_case(self):
        c = self.consts()
        f1, m1 = switched_feasibility(c, 2.806, 0.367, 4.0, 0.01)
        qb = quantized_bounds(c, 2.806, 0.367, 4.0, 0.01, 0.0)
        assert (f1, m1) == (qb.feasible, qb.margin)


def test_analyze_scenario_report():
    gen = sample_coefficients(2, 4, 1, [0, 3], [0.5, 2.5], seed=9)
    topo = topology_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    report = analyze_scenario(
        gen, constant_schedule(topo),
        T_grid=[0.2, 0.4, 0.8], horizon=4.0, grid_step=0.002,
    )
    report.update(gain_margins(report, k=3.0, epsilon=0.0, theta_norm=0.0))
    assert report["pe"]
    assert report["T"] in (0.2, 0.4, 0.8)
    assert report["k_min"] > 0
    assert report["lambda_g_min"] == pytest.approx(topo.lambda2)
    assert "quantized" in report and "switched" in report
    assert report["quantized"]["r_eps"] == 0.0


def test_analyze_scenario_not_pe():
    # single direction regressor: never PE regardless of T
    gen = sample_coefficients(2, 2, 1, [0, 0], [0, 0], seed=0)  # all zeros
    topo = topology_from_edges(2, [(0, 1)])
    report = analyze_scenario(
        gen, constant_schedule(topo), T_grid=[0.2], horizon=2.0, grid_step=0.002
    )
    assert report["pe"] is False
    assert "k_min" not in report


def test_analyze_scenario_window_past_last_grid_time_rejected(monkeypatch):
    gen = sample_coefficients(2, 2, 1, [0, 2], [0.5, 2.5], seed=3)
    topo = topology_from_edges(2, [(0, 1)])
    sampled = []
    evaluate_all = RegressorGenerator.evaluate_all

    def counted(self, t):
        sampled.append(t)
        return evaluate_all(self, t)

    monkeypatch.setattr(RegressorGenerator, "evaluate_all", counted)
    with pytest.raises(ValueError, match="horizon must cover at least one window"):
        analyze_scenario(
            gen, constant_schedule(topo), T_grid=[1.0, 1.06], horizon=1.06, grid_step=0.1
        )
    assert sampled == []


def test_blocked_analysis_matches_per_time_reference(monkeypatch):
    # Uneven rows, and a grid of three blocks whose last block is partial.
    gen = sample_coefficients(2, 3, [1, 2, 3], [0, 2], [0.5, 3.0], seed=11)
    topo = topology_from_edges(3, [(0, 1), (1, 2)])
    step = 0.01
    n_pts = 2 * GRID_BLOCK + 101
    horizon = (n_pts - 1) * step
    T_grid = [0.2, 0.5, 1.0]

    calls = []
    evaluate_all = RegressorGenerator.evaluate_all

    def counted(self, t):
        calls.append(np.size(t))
        return evaluate_all(self, t)

    monkeypatch.setattr(RegressorGenerator, "evaluate_all", counted)
    report = analyze_scenario(
        gen, constant_schedule(topo), T_grid, horizon, step, inflation=1.0
    )
    # Two passes (alpha, then beta/gamma), each one evaluation per block.
    assert calls == 2 * [GRID_BLOCK, GRID_BLOCK, 101]
    monkeypatch.undo()

    def stacked(t):
        return np.vstack([gen.evaluate(i, t) for i in range(gen.n_agents)])

    alphas = [p["alpha"] for p in report["alpha_curve"]]
    ref = [pe_level(stacked, T, horizon, step).alpha for T in T_grid]
    np.testing.assert_allclose(alphas, ref, rtol=1e-12)
    assert min(ref) > 0

    beta = gamma = 0.0
    for t in np.arange(n_pts) * step:
        c = [gen.evaluate(i, t) for i in range(gen.n_agents)]
        cd = [
            w * (b * np.cos(w * t) - d * np.sin(w * t))
            for b, d, w in zip(gen.sin_amp, gen.cos_amp, gen.freq)
        ]
        cps = [ci.T @ ci for ci in c]
        cpd = [di.T @ ci + ci.T @ di for ci, di in zip(c, cd)]
        mean_cpd = sum(cpd) / len(cpd)
        beta = max(beta, np.linalg.eigvalsh(sum(cps) / len(cps))[-1])
        gamma = max(gamma, np.linalg.norm(np.vstack([m - mean_cpd for m in cpd]), 2))
    np.testing.assert_allclose([report["beta"], report["gamma"]], [beta, gamma], rtol=1e-12)
