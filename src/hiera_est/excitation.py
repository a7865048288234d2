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
    if T <= 0:
        raise ValueError("window T must be positive")
    if horizon < T:
        raise ValueError("horizon must cover at least one window")
    if grid_step <= 0 or grid_step > T / 10:
        raise ValueError("grid too coarse: need grid_step <= T/10")

    m = int(round(T / grid_step))
    n_pts = int(math.floor(horizon / grid_step + 1e-9)) + 1
    ts = np.arange(n_pts) * grid_step

    f0 = np.atleast_2d(np.asarray(signal(ts[0]), dtype=float))
    n = f0.shape[1]
    grams = np.empty((n_pts, n, n))
    grams[0] = f0.T @ f0
    for k in range(1, n_pts):
        fk = np.atleast_2d(np.asarray(signal(ts[k]), dtype=float))
        grams[k] = fk.T @ fk

    # Cumulative trapezoid: cum[k] = integral of the Gram from 0 to ts[k].
    cum = np.zeros_like(grams)
    np.cumsum(0.5 * grid_step * (grams[1:] + grams[:-1]), axis=0, out=cum[1:])

    starts = range(0, n_pts - m)
    window_ints = np.stack([cum[s + m] - cum[s] for s in starts])
    min_eigs = np.linalg.eigvalsh(window_ints)[:, 0]
    return PEWitness(
        alpha=max(float(min_eigs.min()), 0.0),
        window=T,
        grid_step=grid_step,
        horizon=horizon,
        min_eig_trace=min_eigs,
    )


def alpha_curve(
    signal: Callable[[float], np.ndarray],
    T_grid,
    horizon: float,
    grid_step: float | None = None,
) -> list[tuple[float, float]]:
    """Excitation level alpha as a function of the window length T."""
    out = []
    for T in T_grid:
        step = grid_step if grid_step is not None else T / 200
        out.append((float(T), pe_level(signal, T, horizon, step).alpha))
    return out


def stacked_regressor(gen: RegressorGenerator) -> Callable[[float], np.ndarray]:
    """The network-wide row-stacked regressor C(t) as a callable, shape (p, n)."""

    def signal(t: float) -> np.ndarray:
        return gen.evaluate_all(t).reshape(-1, gen.n_params)[gen.real_rows]

    return signal


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
    n = gen.n_params
    n_agents = gen.n_agents
    n_pts = int(math.floor(horizon / grid_step + 1e-9)) + 1
    beta = 0.0
    gamma = 0.0
    for k in range(n_pts):
        t = k * grid_step
        c = gen.evaluate_all(t)
        cd = gen.evaluate_all_dot(t)
        ct = np.swapaxes(c, -1, -2)
        cps = ct @ c
        cpd = np.swapaxes(cd, -1, -2) @ c + ct @ cd
        cbar = cps.mean(axis=0)
        beta = max(beta, float(np.linalg.eigvalsh(cbar)[-1]))
        centered = (cpd - cpd.mean(axis=0)).reshape(n_agents * n, n)
        gamma = max(gamma, float(np.linalg.norm(centered, ord=2)))
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
    signal = stacked_regressor(gen)
    curve = alpha_curve(signal, T_grid, horizon, grid_step)
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
