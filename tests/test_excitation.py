import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hiera_est import sim
from hiera_est.config import load_config
from hiera_est.excitation import (
    GRID_BLOCK,
    analyze_scenario,
    consensus_error_bound,
    estimate_assumption_bounds,
    extreme_eig,
    gain_bound,
    gain_margins,
    pe_level,
    quantized_bounds,
    sym3_extreme,
)
from hiera_est.graph import constant_schedule, topology_from_edges
from hiera_est.signals import RegressorGenerator, sample_coefficients

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestPeLevel:
    def test_sincos_analytic(self):
        # Gram integral of [sin t, cos t] over a full period is pi * I exactly.
        sig = lambda t: np.array([[np.sin(t), np.cos(t)]])
        w = pe_level(sig, T=2 * np.pi, horizon=4 * np.pi, grid_step=2 * np.pi / 1000)
        np.testing.assert_allclose(w, np.pi, atol=1e-3)

    def test_constant_signal(self):
        c = 2.5
        sig = lambda t: np.array([[c]])
        w = pe_level(sig, T=0.8, horizon=3.0, grid_step=0.8 / 100)
        np.testing.assert_allclose(w, c**2 * 0.8, rtol=1e-12)

    def test_rank_deficient_signal_zero_alpha(self):
        # one-direction signal: Gram is singular in the orthogonal direction
        sig = lambda t: np.array([[1.0, 0.0]])
        w = pe_level(sig, T=1.0, horizon=2.0, grid_step=0.01)
        assert w == 0.0

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
        assert w <= min(mins) + 1e-4

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
        assert pe_level(sig, T=1.0, horizon=1.06, grid_step=0.1) == pytest.approx(1.0)


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
        return dict(beta=20.769, gamma=8.3966, alpha=51.326, T=0.16, n=3, n_agents=10)

    def test_zero_eps_reduces_to_nominal(self):
        qb = quantized_bounds(
            self.consts(), k=2.806, lambda_g=0.367, lambda_max=4.0,
            epsilon=0.0, theta_norm=0.0,
        )
        assert qb["r_eps"] == 0.0
        np.testing.assert_allclose(
            qb["b_eps"], consensus_error_bound(3, 8.3966, 2.806, 0.367)
        )

    def test_margin_decreases_with_eps(self):
        margins = []
        for eps in (0.0, 0.018, 0.036):
            qb = quantized_bounds(
                self.consts(), k=2.806, lambda_g=0.367, lambda_max=4.0,
                epsilon=eps, theta_norm=3.74,
            )
            margins.append(qb["margin"])
        assert margins[0] > margins[1] > margins[2]

    def test_r_eps_linear_in_eps(self):
        qb1 = quantized_bounds(
            self.consts(), 2.806, 0.367, 4.0, 0.018, theta_norm=1.0
        )
        qb2 = quantized_bounds(
            self.consts(), 2.806, 0.367, 4.0, 0.036, theta_norm=1.0
        )
        np.testing.assert_allclose(qb2["r_eps"], 2 * qb1["r_eps"], rtol=1e-12)

    def test_feasibility_formula(self):
        c = self.consts()
        qb = quantized_bounds(c, 2.806, 0.367, 4.0, 0.01, 0.0)
        lhs = c["alpha"] ** 2 / (c["T"] * c["n_agents"] ** 2)
        rhs = 2 * c["beta"] * c["T"] * qb["b_eps"]
        assert qb["feasible"] == (lhs > rhs)
        np.testing.assert_allclose(qb["margin"], lhs - rhs, rtol=1e-12)

    def test_switched_uses_worst_case(self):
        # The switched entry is the feasibility and margin at the family's
        # extremes, lambda_g_min and lambda_max_family; theta only enters r_eps.
        c = self.consts()
        report = {**c, "lambda_g_min": 0.367, "lambda_max_family": 4.0}
        margins = gain_margins(report, 2.806, 0.01, theta_norm=3.0)
        qb = quantized_bounds(c, 2.806, 0.367, 4.0, 0.01, 0.0)
        assert margins["switched"] == {"feasible": qb["feasible"], "margin": qb["margin"]}
        assert margins["quantized"]["margin"] == qb["margin"]


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
    check_blocked_analysis(monkeypatch, n=2)


def test_blocked_analysis_matches_per_time_reference_n3(monkeypatch):
    # n = 3 takes the closed-form screen for alpha, beta and gamma.
    check_blocked_analysis(monkeypatch, n=3)


def check_blocked_analysis(monkeypatch, n):
    # Uneven rows, and a grid of three blocks whose last block is partial.
    gen = sample_coefficients(n, 3, [1, 2, 3], [0, 2], [0.5, 3.0], seed=11)
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
    ref = [pe_level(stacked, T, horizon, step) for T in T_grid]
    np.testing.assert_allclose(alphas, ref, rtol=1e-12)
    assert min(ref) > 0
    # Every window to eigvalsh, one grid time at a time: no screen.
    grams = np.stack([stacked(t).T @ stacked(t) for t in np.arange(n_pts) * step])
    cum = np.concatenate([np.zeros((1, n, n)), np.cumsum(0.5 * step * (grams[1:] + grams[:-1]), axis=0)])
    windows = [cum[m:] - cum[:-m] for m in (int(round(T / step)) for T in T_grid)]
    np.testing.assert_allclose(
        alphas, [max(np.linalg.eigvalsh(w)[:, 0].min(), 0.0) for w in windows], rtol=1e-12
    )

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


def spectral_matrix(eigs, seed):
    """Q diag(eigs) Q^T for a random orthogonal Q, exactly symmetric."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    a = (q * eigs) @ q.T
    return np.tril(a) + np.tril(a, -1).T


@st.composite
def spectra(draw):
    """Three eigenvalues at a scale of 1e-8..1e8: distinct, repeated, nearly
    repeated (relative gap 1e-12), with zeros, of mixed sign."""
    lam = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    pattern = draw(st.sampled_from(["any", "pair", "triple", "near_pair", "near_triple", "zero", "zeros"]))
    if pattern == "pair":
        lam[1] = lam[0]
    elif pattern == "triple":
        lam[1] = lam[2] = lam[0]
    elif pattern == "near_pair":
        lam[1] = lam[0] * (1 + 1e-12)
    elif pattern == "near_triple":
        lam[1], lam[2] = lam[0] * (1 + 1e-12), lam[0] * (1 - 1e-12)
    elif pattern == "zero":
        lam[0] = 0.0
    elif pattern == "zeros":
        lam[0] = lam[1] = 0.0
    return np.array(lam) * 10.0 ** draw(st.floats(-8.0, 8.0))


class TestScreen:
    @settings(max_examples=400, deadline=None)
    @given(eigs=spectra(), seed=st.integers(0, 2**32 - 1))
    def test_closed_form_within_its_margin_of_eigvalsh(self, eigs, seed):
        a = spectral_matrix(eigs, seed)[None]
        ref = np.linalg.eigvalsh(a)[0]
        for largest, want in ((False, ref[0]), (True, ref[-1])):
            est, margin = sym3_extreme(a, largest)
            assert abs(est[0] - want) <= margin[0], (largest, est[0], want, margin[0])

    def test_zero_matrix_and_exact_multiple_of_identity(self):
        a = np.stack([np.zeros((3, 3)), 2.5 * np.eye(3)])
        for largest in (False, True):
            est, margin = sym3_extreme(a, largest)
            np.testing.assert_array_equal(est, [0.0, 2.5])
            assert np.all(margin > 0)

    @settings(max_examples=200, deadline=None)
    @given(
        eigs=spectra(),
        size=st.integers(1, 40),
        spread=st.floats(-16.0, 0.0),
        ties=st.integers(0, 5),
        largest=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_screened_extreme_is_the_whole_batch_extreme(
        self, eigs, size, spread, ties, largest, seed
    ):
        # Matrices near one spectrum (relative spread 1e-16..1), some drawn
        # again exactly so that the extreme ties.
        rng = np.random.default_rng(seed)
        base = spectral_matrix(eigs, seed)
        scale = max(np.abs(eigs).max(), 1e-300)
        noise = rng.normal(size=(size, 3, 3)) * scale * 10.0**spread
        mats = base + np.tril(noise) + np.swapaxes(np.tril(noise, -1), -1, -2)
        mats = np.concatenate([mats, mats[rng.integers(0, size, ties)]])
        eigvals = np.linalg.eigvalsh(mats)
        whole = eigvals[:, -1].max() if largest else eigvals[:, 0].min()
        assert extreme_eig(mats, largest) == whole

    def test_nominal_analysis_hands_lapack_few_matrices(self, monkeypatch):
        # The screen leaves a handful of the 11 885 windows and 2 x 2 501
        # grid times of nominal_switched's analysis, and the report stays.
        cfg = load_config(json.loads((SCENARIOS / "nominal_switched.json").read_text()))
        expected = sim.analysis_report(cfg)
        handed = []
        for name in ("eigvalsh", "svd"):
            fn = getattr(np.linalg, name)

            def counted(a, *args, fn=fn, **kwargs):
                handed.append(int(np.prod(np.shape(a)[:-2])))
                return fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert sim.analysis_report(cfg) == expected
        assert 0 < sum(handed) < 100, handed
