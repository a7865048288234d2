"""Persistence-of-excitation analysis and consensus-gain/feasibility formulas.

All matrix norms here are the induced 2-norm (largest singular value). Window
Gram integrals use composite trapezoidal quadrature on a uniform grid; the
sup-norm bounds are sampled maxima over the same grid, inflated by a small
safety factor because a finite grid can only underestimate a supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .graph import SwitchingSchedule
from .signals import RegressorGenerator

DEFAULT_SUP_INFLATION = 1.05
# Grid times per batched regressor evaluation in the analysis: enough to
# amortise numpy's per-call cost, few enough that the (block, N, p_max, n)
# temporaries stay small next to the run itself.
GRID_BLOCK = 256


@dataclass(frozen=True)
class PEWitness:
    """Result of a sliding-window excitation scan.

    alpha is the minimum over all analyzed windows of the smallest eigenvalue
    of the window Gram integral, clamped at 0; min_eig_trace holds the
    per-window minima.
    """

    alpha: float
    window: float
    grid_step: float
    horizon: float
    min_eig_trace: np.ndarray


@dataclass(frozen=True)
class ExcitationConstants:
    """Regularity/excitation constants of a scenario's stacked regressor."""

    beta: float
    gamma: float
    alpha: float
    T: float
    n: int
    n_agents: int


class QuantizedBounds(NamedTuple):
    feasible: bool
    margin: float
    b_eps: float
    r_eps: float


def _grid_blocks(horizon: float, grid_step: float) -> list[np.ndarray]:
    """The analysis grid t_k = k * grid_step on [0, horizon], in blocks of GRID_BLOCK times."""
    ts = np.arange(int(math.floor(horizon / grid_step + 1e-9)) + 1) * grid_step
    return np.split(ts, range(GRID_BLOCK, len(ts), GRID_BLOCK))


def _grams(f: np.ndarray) -> np.ndarray:
    """F^T F of every matrix in a stack (..., p, n) -> (..., n, n)."""
    return np.swapaxes(f, -1, -2) @ f


def _window_min_eigs(grams_at: Callable, windows, horizon: float, grid_step: float) -> list:
    """Per-window smallest eigenvalues of the sliding Gram integrals, one array per T.

    grams_at(ts) gives F(t)^T F(t) at a block of grid times, shape (len(ts), n, n).
    The window start slides over [0, horizon - T] at grid resolution; each
    window's integral is a difference of one cumulative trapezoid at
    grid_step, so every window length reads off the same array.
    """
    for T in windows:
        if T <= 0:
            raise ValueError("window T must be positive")
        if horizon < T:
            raise ValueError("horizon must cover at least one window")
        if grid_step <= 0 or grid_step > T / 10:
            raise ValueError("grid too coarse: need grid_step <= T/10")
        # A window of round(T / grid_step) steps can pass the grid's last time.
        if round(T / grid_step) > horizon / grid_step + 1e-9:
            raise ValueError("horizon must cover at least one window")

    grams = np.concatenate([grams_at(tb) for tb in _grid_blocks(horizon, grid_step)])
    # Cumulative trapezoid: cum[k] = integral of the Gram from 0 to ts[k].
    cum = np.zeros_like(grams)
    np.cumsum(0.5 * grid_step * (grams[1:] + grams[:-1]), axis=0, out=cum[1:])
    ms = [int(round(T / grid_step)) for T in windows]
    return [np.linalg.eigvalsh(cum[m:] - cum[:-m])[:, 0] for m in ms]


def pe_level(
    signal: Callable[[float], np.ndarray],
    T: float,
    horizon: float,
    grid_step: float,
) -> PEWitness:
    """Sliding-window excitation level of a matrix-valued signal.

    The window start slides over [0, horizon - T] at grid resolution; each
    window's Gram integral of F(t)^T F(t) is evaluated by composite trapezoid
    at grid_step and its smallest eigenvalue recorded.
    """

    def grams_at(ts):
        return _grams(np.stack([np.atleast_2d(np.asarray(signal(t), dtype=float)) for t in ts]))

    (min_eigs,) = _window_min_eigs(grams_at, [T], horizon, grid_step)
    alpha = max(float(min_eigs.min()), 0.0)
    return PEWitness(alpha, T, grid_step, horizon, min_eig_trace=min_eigs)


def estimate_assumption_bounds(
    gen: RegressorGenerator,
    horizon: float,
    grid_step: float,
    inflation: float = DEFAULT_SUP_INFLATION,
) -> tuple[float, float]:
    """Sampled sup-norm bounds (beta, gamma) of the surrogate signals.

    beta bounds the norm of the network average of the surrogate matrices;
    gamma bounds the norm of the consensus-direction-free stacked surrogate
    derivative, computed with the analytic derivative of the sinusoidal
    entries. Both are grid maxima times the inflation factor.
    """
    if horizon <= 0 or grid_step <= 0:
        raise ValueError("horizon and grid_step must be positive")
    beta = gamma = 0.0
    for tb in _grid_blocks(horizon, grid_step):
        c = gen.evaluate_all(tb)  # (B, N, p_max, n)
        cd = gen.evaluate_all_dot(tb)
        ct = np.swapaxes(c, -1, -2)
        cpd = np.swapaxes(cd, -1, -2) @ c + ct @ cd
        centered = (cpd - cpd.mean(axis=1, keepdims=True)).reshape(len(tb), -1, gen.n_params)
        beta = max(beta, float(np.linalg.eigvalsh((ct @ c).mean(axis=1))[:, -1].max()))
        gamma = max(gamma, float(np.linalg.svd(centered, compute_uv=False)[:, 0].max()))
    return inflation * beta, inflation * gamma


def gain_bound(
    n: int,
    n_agents: int,
    beta: float,
    gamma: float,
    T: float,
    alpha: float,
    lambda_g: float,
) -> float:
    """Minimum consensus gain guaranteeing excitation of the consensus outputs.

    Returns 2 n N^2 beta gamma T^2 / (lambda_g alpha^2). Any gain strictly
    above this value preserves the stacked regressor's excitation at every
    agent's consensus output.
    """
    if lambda_g <= 0:
        raise ValueError("lambda_g must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive (regressor not persistently exciting)")
    if min(n, n_agents) <= 0 or beta < 0 or gamma < 0 or T <= 0:
        raise ValueError("invalid constants")
    return 2.0 * n * n_agents**2 * beta * gamma * T**2 / (lambda_g * alpha**2)


def avg_gram_pe_level(alpha: float, T: float, n_agents: int) -> float:
    """Guaranteed excitation level of the squared average Gram: alpha^2/(T N^2)."""
    if alpha <= 0 or T <= 0 or n_agents <= 0:
        raise ValueError("alpha, T, N must be positive")
    return alpha**2 / (T * n_agents**2)


def consensus_error_bound(n: int, gamma: float, k: float, lambda_g: float) -> float:
    """Asymptotic per-agent ceiling on the consensus tracking error norm."""
    if k <= 0 or lambda_g <= 0:
        raise ValueError("k and lambda_g must be positive")
    if gamma < 0 or n <= 0:
        raise ValueError("invalid constants")
    return n * gamma / (k * lambda_g)


def quantized_bounds(
    c: ExcitationConstants,
    k: float,
    lambda_g: float,
    lambda_max: float,
    epsilon: float,
    theta_norm: float,
) -> QuantizedBounds:
    """Feasibility margin and ultimate-bound diagnostics under quantization.

    feasible holds iff alpha^2/(T N^2) exceeds
    2 beta T (n gamma/(k lambda_g) + eps n^2 sqrt(N) lambda_max / lambda_g);
    b_eps is the quantized consensus-error ceiling and r_eps the ceiling on
    the regression-identity residual induced by the quantization step.
    """
    if lambda_g <= 0:
        raise ValueError("lambda_g must be positive")
    if k <= 0 or epsilon < 0 or lambda_max < 0 or theta_norm < 0:
        raise ValueError("invalid constants")
    n, N = c.n, c.n_agents
    lhs = c.alpha**2 / (c.T * N**2)
    b_eps = n * c.gamma / (k * lambda_g) + epsilon * n**2 * math.sqrt(N) * lambda_max / lambda_g
    rhs = 2.0 * c.beta * c.T * b_eps
    r_eps = (
        epsilon
        * math.sqrt(n * N)
        * lambda_max
        * (math.sqrt(n) * theta_norm + 1.0)
        / lambda_g
    )
    return QuantizedBounds(
        feasible=bool(lhs > rhs),
        margin=lhs - rhs,
        b_eps=b_eps,
        r_eps=r_eps,
    )


def switched_feasibility(
    c: ExcitationConstants,
    k: float,
    lambda_g_min: float,
    lambda_g_max: float,
    epsilon: float,
) -> tuple[bool, float]:
    """Quantized feasibility over a switched graph family.

    Uses the family-wide extremes: the smallest algebraic connectivity in the
    denominators and the largest Laplacian eigenvalue in the quantization term.
    """
    qb = quantized_bounds(
        c,
        k,
        lambda_g=lambda_g_min,
        lambda_max=lambda_g_max,
        epsilon=epsilon,
        theta_norm=0.0,
    )
    return qb.feasible, qb.margin


def analyze_scenario(
    gen: RegressorGenerator,
    schedule: SwitchingSchedule,
    T_grid,
    horizon: float,
    grid_step: float,
    alpha_threshold: float = 1e-3,
    inflation: float = DEFAULT_SUP_INFLATION,
) -> dict:
    """Constants report for a scenario: alpha(T) curve, bounds, gain bound.

    Picks the smallest window T on the grid whose excitation level exceeds
    alpha_threshold and reports the gain bound at the family's worst-case
    connectivity. gain_margins adds the margins at a chosen gain.
    """

    def stacked_grams(tb):  # the real rows of the padded stack
        return _grams(gen.evaluate_all(tb).reshape(len(tb), -1, gen.n_params)[:, gen.real_rows])

    min_eigs = _window_min_eigs(stacked_grams, T_grid, horizon, grid_step)
    curve = [(float(T), max(float(e.min()), 0.0)) for T, e in zip(T_grid, min_eigs)]
    chosen = next(((T, a) for T, a in curve if a > alpha_threshold), None)
    beta, gamma = estimate_assumption_bounds(gen, horizon, grid_step, inflation)
    lam_m = schedule.lambda_g_min
    lam_max = schedule.lambda_max_family

    report = {
        "alpha_curve": [{"T": T, "alpha": a} for T, a in curve],
        "beta": beta,
        "gamma": gamma,
        "lambda_g_min": lam_m,
        "lambda_max_family": lam_max,
        "n": gen.n_params,
        "n_agents": gen.n_agents,
    }
    if chosen is None:
        report["pe"] = False
        return report

    T, alpha = chosen
    consts = ExcitationConstants(
        beta=beta, gamma=gamma, alpha=alpha, T=T, n=gen.n_params, n_agents=gen.n_agents
    )
    report["pe"] = True
    report["T"] = T
    report["alpha"] = alpha
    report["k_min"] = gain_bound(
        consts.n, consts.n_agents, beta, gamma, T, alpha, lam_m
    )
    report["constants"] = consts
    return report


def gain_margins(report: dict, k: float, epsilon: float, theta_norm: float) -> dict:
    """The quantized and switched feasibility entries of a PE report at gain k."""
    consts = report["constants"]
    lam_m, lam_max = report["lambda_g_min"], report["lambda_max_family"]
    qb = quantized_bounds(consts, k, lam_m, lam_max, epsilon, theta_norm)
    feasible, margin = switched_feasibility(consts, k, lam_m, lam_max, epsilon)
    return {
        "quantized": {
            "k": k,
            "epsilon": epsilon,
            "feasible": qb.feasible,
            "margin": qb.margin,
            "b_eps": qb.b_eps,
            "r_eps": qb.r_eps,
        },
        "switched": {"feasible": feasible, "margin": margin},
    }
