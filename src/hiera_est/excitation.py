"""Persistence-of-excitation analysis and consensus-gain/feasibility formulas.

All matrix norms here are the induced 2-norm (largest singular value). Window
Gram integrals use composite trapezoidal quadrature on a uniform grid; the
sup-norm bounds are sampled maxima over the same grid, inflated by a small
safety factor because a finite grid can only underestimate a supremum.

A scenario's analysis is one report of plain Python values, printed and written
as it is: `analyze_scenario` gives alpha(T), beta, gamma and k_min, and
`gain_margins` adds the quantized and switched entries at a gain from
`quantized_bounds`, which reads its constants from the report's keys.
`pe_level` gives one signal's alpha as a float. `check_window` is the one
rule for a window T on the analysis grid; scenario validation applies it to
analysis.T_grid.

Every analysis constant is an extreme eigenvalue of a batch of symmetric
Grams: alpha(T) the smallest of sum_i C_i^T C_i integrated over the windows
of T, beta the largest of that Gram over N, and gamma the root of the
largest of D^T D for the centered derivative stack D. The Gram squares D,
so gamma holds while c^4 is finite (coefficients up to about 1e75); the
grid passes form their Grams with overflow ignored, and `extreme_eig`
refuses a Gram that is not finite. `extreme_eig` gives each extreme
as np.linalg.eigvalsh gives it, bit for bit, but hands LAPACK only the
candidates of a screen: for n = 3 each matrix's extreme eigenvalue has a
closed form (O. K. Smith, Commun. ACM 1961), whose error stays within
SCREEN_RTOL (|q| + 2p) of eigvalsh's (J. Kopp, Int. J. Mod. Phys. C 2008
bounds the loss near repeated eigenvalues). Other n take every matrix.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from .graph import SwitchingSchedule
from .signals import RegressorGenerator

DEFAULT_SUP_INFLATION = 1.05
DEFAULT_ALPHA_THRESHOLD = 1e-3
# Grid times per batched regressor evaluation in the analysis: enough to
# amortise numpy's per-call cost, few enough that the (block, N, p_max, n)
# temporaries stay small next to the run itself.
GRID_BLOCK = 256
# The closed form's error margin, relative to each matrix's scale |q| + 2p.
# Near a repeated eigenvalue the arccos loses half the digits of r: the
# error is about 2p sqrt(2 dr)/3, some 3e-8 p, far inside the margin.
SCREEN_RTOL = 1e-6
# And an absolute floor, above the scale (about 1e-154) where the squares in p
# underflow.
SCREEN_ATOL = 1e-140


def _grid_blocks(horizon: float, grid_step: float) -> list[np.ndarray]:
    """The analysis grid t_k = k * grid_step on [0, horizon], in blocks of GRID_BLOCK times."""
    ts = np.arange(int(math.floor(horizon / grid_step + 1e-9)) + 1) * grid_step
    return np.split(ts, range(GRID_BLOCK, len(ts), GRID_BLOCK))


def _grams(f: np.ndarray) -> np.ndarray:
    """F^T F of every matrix in a stack (..., p, n) -> (..., n, n)."""
    return np.swapaxes(f, -1, -2) @ f


def _stacked_grams(gen: RegressorGenerator, c: np.ndarray) -> np.ndarray:
    """sum_i C_i^T C_i at each time of a block of padded stacks c, shape
    (B, N, p_max, n) -> (B, n, n): the Gram of the stacked real rows."""
    return _grams(c.reshape(len(c), -1, gen.n_params)[:, gen.real_rows])


def sym3_extreme(mats: np.ndarray, largest: bool) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form smallest (or largest) eigenvalue of each symmetric 3x3
    matrix of a stack (M, 3, 3), and its error margin, both shape (M,).

    With q = tr(A)/3, p = sqrt(tr((A - qI)^2)/6) and r = det((A - qI)/p)/2,
    clipped to [-1, 1], the eigenvalues are q + 2p cos(arccos(r)/3 + 2 pi j/3):
    j = 0 the largest, j = 1 the smallest. p = 0 gives q. A matrix too large
    to square gets a non-finite estimate, which never prunes.
    """
    d0, d1, d2 = mats[:, 0, 0], mats[:, 1, 1], mats[:, 2, 2]
    u, v, w = mats[:, 1, 0], mats[:, 2, 0], mats[:, 2, 1]  # the triangle eigvalsh reads
    q = (d0 + d1 + d2) / 3.0
    with np.errstate(over="ignore", invalid="ignore"):
        b0, b1, b2 = d0 - q, d1 - q, d2 - q
        p = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (u * u + v * v + w * w)) / 6.0)
        s = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0)
        b0, b1, b2, u, v, w = b0 * s, b1 * s, b2 * s, u * s, v * s, w * s
        r = np.clip(0.5 * (b0 * (b1 * b2 - w * w) - u * (u * b2 - w * v) + v * (u * w - b1 * v)),
                    -1.0, 1.0)
        angle = np.arccos(r) / 3.0 + (0.0 if largest else 2.0 * np.pi / 3.0)
        return q + 2.0 * p * np.cos(angle), SCREEN_RTOL * (np.abs(q) + 2.0 * p) + SCREEN_ATOL


def extreme_eig(mats: np.ndarray, largest: bool = False) -> float:
    """The smallest (or largest) eigenvalue over a stack of symmetric
    matrices (M, n, n), the same float as eigvalsh of the whole stack gives.

    For n = 3 each closed-form estimate and its margin give an interval
    holding eigvalsh's eigenvalue; a matrix is dropped only when its whole
    interval lies short of another's (for the smallest, mirrored). A
    non-finite estimate is never dropped; a stack with an entry that is not
    finite (an overflowed Gram) is refused with a ValueError.
    """
    if not np.isfinite(mats).all():
        raise ValueError(
            "the analysis Grams overflow: the regressor coefficients are too large "
            "(the analysis holds coefficients up to about 1e75)"
        )
    if mats.shape[-1] == 3:
        est, margin = sym3_extreme(mats, largest)
        if not largest:
            est = -est
        with np.errstate(over="ignore", invalid="ignore"):
            keep = ~(est + margin < np.fmax.reduce(est - margin))
        if not keep.all():
            mats = mats[keep]
    eigs = np.linalg.eigvalsh(mats)
    return float(eigs[:, -1].max() if largest else eigs[:, 0].min())


def check_window(T: float, horizon: float, grid_step: float):
    """Refuse a window T that the analysis grid on [0, horizon] cannot integrate."""
    if T <= 0:
        raise ValueError("window T must be positive")
    if horizon < T:
        raise ValueError("horizon must cover at least one window")
    if grid_step <= 0 or grid_step > T / 10:
        raise ValueError("grid too coarse: need grid_step <= T/10")
    # A window of round(T / grid_step) steps can pass the grid's last time.
    if round(T / grid_step) > horizon / grid_step + 1e-9:
        raise ValueError("horizon must cover at least one window")


def _window_min_eigs(grams_at: Callable, windows, horizon: float, grid_step: float) -> list:
    """The smallest eigenvalue over each T's windows of the sliding Gram integrals.

    grams_at(ts) gives F(t)^T F(t) at a block of grid times, shape (len(ts), n, n).
    The window start slides over [0, horizon - T] at grid resolution; each
    window's integral is a difference of one cumulative trapezoid at
    grid_step, so every window length reads off the same array.
    """
    for T in windows:
        check_window(T, horizon, grid_step)

    with np.errstate(over="ignore", invalid="ignore"):  # extreme_eig refuses the overflow
        grams = np.concatenate([grams_at(tb) for tb in _grid_blocks(horizon, grid_step)])
        # Cumulative trapezoid: cum[k] = integral of the Gram from 0 to ts[k].
        cum = np.zeros_like(grams)
        np.cumsum(0.5 * grid_step * (grams[1:] + grams[:-1]), axis=0, out=cum[1:])
        ms = [int(round(T / grid_step)) for T in windows]
        return [extreme_eig(cum[m:] - cum[:-m]) for m in ms]


def pe_level(
    signal: Callable[[float], np.ndarray],
    T: float,
    horizon: float,
    grid_step: float,
) -> float:
    """Sliding-window excitation level alpha of a matrix-valued signal.

    The window start slides over [0, horizon - T] at grid resolution; each
    window's Gram integral of F(t)^T F(t) is evaluated by composite trapezoid
    at grid_step. alpha is the smallest eigenvalue over all windows, clamped
    at 0.
    """

    def grams_at(ts):
        return _grams(np.stack([np.atleast_2d(np.asarray(signal(t), dtype=float)) for t in ts]))

    (min_eig,) = _window_min_eigs(grams_at, [T], horizon, grid_step)
    return max(min_eig, 0.0)


def estimate_assumption_bounds(
    gen: RegressorGenerator,
    horizon: float,
    grid_step: float,
    inflation: float = DEFAULT_SUP_INFLATION,
) -> tuple[float, float]:
    """Sampled sup-norm bounds (beta, gamma) of the surrogate signals.

    beta bounds the norm of the network average of the surrogate matrices,
    the largest eigenvalue of sum_i C_i^T C_i over N; gamma bounds the norm
    of the consensus-direction-free stacked surrogate derivative D, the
    square root of the largest eigenvalue of D^T D, with the analytic
    derivative of the sinusoidal entries. Both are grid maxima times the
    inflation factor.
    """
    if horizon <= 0 or grid_step <= 0:
        raise ValueError("horizon and grid_step must be positive")
    n_beta = gamma_sq = 0.0
    for tb in _grid_blocks(horizon, grid_step):
        c = gen.evaluate_all(tb)  # (B, N, p_max, n)
        with np.errstate(over="ignore", invalid="ignore"):  # extreme_eig refuses the overflow
            x = np.swapaxes(c, -1, -2) @ gen.evaluate_all_dot(tb)  # d/dt(C^T C) = x + x^T
            cpd = x + np.swapaxes(x, -1, -2)
            centered = (cpd - cpd.mean(axis=1, keepdims=True)).reshape(len(tb), -1, gen.n_params)
            n_beta = max(n_beta, extreme_eig(_stacked_grams(gen, c), largest=True))
            gamma_sq = max(gamma_sq, extreme_eig(_grams(centered), largest=True))
    return inflation * (n_beta / gen.n_agents), inflation * math.sqrt(gamma_sq)


def _finite(name: str, formula: Callable[[], float]) -> float:
    """formula(), refused with a ValueError that names the quantity when the
    constants overflow it (a product past the float range, a float ** that
    raises, or a division by a product that underflowed to 0)."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite: the constants overflow a float")
    return value


def _check_constants(n, n_agents, beta, gamma, T, alpha):
    """Refuse excitation constants outside their ranges (alpha = 0 passes)."""
    bad = [rule for rule, ok in (
        ("n >= 1", n >= 1), ("N >= 1", n_agents >= 1), ("beta >= 0", beta >= 0),
        ("gamma >= 0", gamma >= 0), ("T > 0", T > 0), ("alpha >= 0", alpha >= 0),
    ) if not ok]
    if bad:
        raise ValueError(f"invalid constants: need {', '.join(bad)}")


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
    agent's consensus output. A bound past the float range is refused.
    """
    if lambda_g <= 0:
        raise ValueError("lambda_g must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive (regressor not persistently exciting)")
    _check_constants(n, n_agents, beta, gamma, T, alpha)
    return _finite(
        "k_min", lambda: 2.0 * n * n_agents**2 * beta * gamma * T**2 / (lambda_g * alpha**2)
    )


def consensus_error_bound(n: int, gamma: float, k: float, lambda_g: float) -> float:
    """Asymptotic per-agent ceiling on the consensus tracking error norm."""
    if k <= 0 or lambda_g <= 0:
        raise ValueError("k and lambda_g must be positive")
    if gamma < 0 or n <= 0:
        raise ValueError("invalid constants")
    return _finite("consensus error ceiling", lambda: n * gamma / (k * lambda_g))


def quantized_bounds(
    c: Mapping,
    k: float,
    lambda_g: float,
    lambda_max: float,
    epsilon: float,
    theta_norm: float,
) -> dict:
    """Feasibility margin and ultimate-bound diagnostics under quantization.

    c holds the constants beta, gamma, alpha, T, n and n_agents (an analysis
    report does). feasible holds iff alpha^2/(T N^2) exceeds
    2 beta T (n gamma/(k lambda_g) + eps n^2 sqrt(N) lambda_max / lambda_g);
    b_eps is the quantized consensus-error ceiling and r_eps the ceiling on
    the regression-identity residual induced by the quantization step. Each
    value past the float range is refused.
    """
    if lambda_g <= 0:
        raise ValueError("lambda_g must be positive")
    if k <= 0 or epsilon < 0 or lambda_max < 0 or theta_norm < 0:
        raise ValueError("invalid constants")
    n, N, T = c["n"], c["n_agents"], c["T"]
    _check_constants(n, N, c["beta"], c["gamma"], T, c["alpha"])
    lhs = _finite("alpha^2/(T N^2)", lambda: c["alpha"] ** 2 / (T * N**2))
    b_eps = _finite("b_eps", lambda: (
        consensus_error_bound(n, c["gamma"], k, lambda_g)
        + epsilon * n**2 * math.sqrt(N) * lambda_max / lambda_g
    ))
    rhs = _finite("2 beta T b_eps", lambda: 2.0 * c["beta"] * T * b_eps)
    r_eps = _finite("r_eps", lambda: (
        epsilon
        * math.sqrt(n * N)
        * lambda_max
        * (math.sqrt(n) * theta_norm + 1.0)
        / lambda_g
    ))
    return {"feasible": bool(lhs > rhs), "margin": lhs - rhs, "b_eps": b_eps, "r_eps": r_eps}


def analyze_scenario(
    gen: RegressorGenerator,
    schedule: SwitchingSchedule,
    T_grid,
    horizon: float,
    grid_step: float,
    alpha_threshold: float = DEFAULT_ALPHA_THRESHOLD,
    inflation: float = DEFAULT_SUP_INFLATION,
) -> dict:
    """Constants report for a scenario: alpha(T) curve, bounds, gain bound.

    Picks the smallest window T on the grid whose excitation level exceeds
    alpha_threshold and reports the gain bound at the family's worst-case
    connectivity. gain_margins adds the margins at a chosen gain.
    """
    min_eigs = _window_min_eigs(
        lambda tb: _stacked_grams(gen, gen.evaluate_all(tb)), T_grid, horizon, grid_step
    )
    curve = [(float(T), max(e, 0.0)) for T, e in zip(T_grid, min_eigs)]
    chosen = min(((T, a) for T, a in curve if a > alpha_threshold), default=None)
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
    report["pe"] = True
    report["T"] = T
    report["alpha"] = alpha
    report["k_min"] = gain_bound(gen.n_params, gen.n_agents, beta, gamma, T, alpha, lam_m)
    return report


def gain_margins(report: dict, k: float, epsilon: float, theta_norm: float) -> dict:
    """The quantized and switched feasibility entries of a PE report at gain k.

    Both use the family-wide extremes, the smallest algebraic connectivity
    and the largest Laplacian eigenvalue, so the switched entry is the
    quantized one's feasibility and margin (theta only enters r_eps).
    """
    lam_m, lam_max = report["lambda_g_min"], report["lambda_max_family"]
    qb = quantized_bounds(report, k, lam_m, lam_max, epsilon, theta_norm)
    return {
        "quantized": {"k": k, "epsilon": epsilon, **qb},
        "switched": {"feasible": qb["feasible"], "margin": qb["margin"]},
    }
