"""Fixed-step integration of the coupled consensus + estimator system.

The full stacked state (consensus integrators, estimator states, filter-bank
states, and running excitation integrals) is advanced with classical RK4.
Discontinuous inputs (topology switches, packet-loss masks, measurement
noise) are frozen over each step, evaluated at the step's start for all four
stages, so the per-step field stays smooth.

The consensus layer's inputs are exogenous, so they are tabulated
INPUT_BLOCK steps at a time: each agent's noise in one draw (the same
numbers as one draw per step), the regressors in one evaluation of the
block's half-step grid, and the packed surrogates in one surrogate_all call.
The field only indexes the tables. The consensus layer's field is
consensus.dac_derivative, on one packed channel. Each estimator kind is
declared once, in ESTIMATORS: its state blocks and one field that gives
their derivatives and the kind's sample at the same state. Samples are
written by RK4's first stage, the field evaluation at the step's own state.
The outputs are plain values: compute_metrics gives the metrics.json dict,
and TraceSet.to_csv names every column by one rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import consensus as cns
from . import estimators as est
from . import excitation as exc
from .config import AnalysisConfig, ConfigError, ScenarioConfig
from .graph import active_topology
from .signals import loss_stream, noise_stream, surrogate_all
from .signals import quantize  # noqa: F401  (perfbench patches sim.quantize)

DIVERGENCE_LIMIT = 1e12
CONSERVATION_TOL = 1e-8
SYMMETRY_TOL = 1e-10
# RK4 is stable on the negative real axis for h*|lambda| up to this value.
RK4_STABILITY_LIMIT = 2.785293563405282
# compute_metrics: tail window, fewest samples for a decay fit, error floor.
TAIL_FRACTION = 0.2
MIN_FIT_SAMPLES = 50
ERR_FLOOR = 1e-12
# Steps whose noise and consensus inputs are tabulated at once.
INPUT_BLOCK = 32


class _StateError(RuntimeError):
    """A failure located in the state: block (e.g. 'ge.theta' or 'X'), agent
    (None when the block has no agent axis or the check sums over agents),
    entry (the index inside the agent's part of the block), time t and the
    offending value."""

    def __init__(self, message: str, block: str, agent: int | None,
                 entry: tuple[int, ...], t: float, value: float):
        super().__init__(message)
        self.block, self.agent, self.entry, self.t, self.value = block, agent, entry, t, value

    def __reduce__(self):  # sweep workers send these back through pickle
        return type(self), (str(self), self.block, self.agent, self.entry, self.t, self.value)


class SimulationDiverged(_StateError):
    """A state component left the finite range during integration."""


class InvariantViolation(_StateError):
    """A conservation/symmetry invariant failed beyond integrator tolerance."""


def _entry_name(block: str, agent: int | None, entry: tuple[int, ...]) -> str:
    index = ([] if agent is None else [agent]) + list(entry)
    return f"{block}[{', '.join(str(j) for j in index)}]"


def rk4_step(field, state: np.ndarray, t: float, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of ds/dt = field(t, s)."""
    if h <= 0:
        raise ValueError("step size must be positive")
    k1 = field(t, state)
    k2 = field(t + 0.5 * h, state + 0.5 * h * k1)
    k3 = field(t + 0.5 * h, state + 0.5 * h * k2)
    k4 = field(t + h, state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _Layout:
    """Slicing map from a flat state vector to named array views.

    A block of packed rows [vec(M) | v], shape (..., n^2 + n), may name its
    two parts, e.g. ("X", "x"): consensus.split gives their views, so unpack
    also returns them and locate names an entry by its part, e.g.
    'X[3, 0, 2]' or 'drem.zy[3, 1, 2]'. checked holds the flat indices of
    the blocks the divergence guard checks.
    """

    def __init__(self):
        self._specs: list[tuple[str, tuple[int, ...], slice, bool, tuple[str, ...]]] = []
        self.size = 0
        self.checked = np.empty(0, dtype=int)

    def add(self, name: str, shape: tuple[int, ...], check: bool = True,
            per_agent: bool = True, parts: tuple[str, ...] = ()):
        """check=False exempts the block from the divergence guard (e.g. the
        monotone excitation integrals, which legitimately grow very large);
        per_agent=False marks a block without a leading agent axis."""
        sl = slice(self.size, self.size + int(np.prod(shape)))
        self._specs.append((name, shape, sl, per_agent, tuple(parts)))
        if check:
            self.checked = np.concatenate([self.checked, np.arange(sl.start, sl.stop)])
        self.size = sl.stop

    def unpack(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        views = {}
        for name, shape, sl, _, parts in self._specs:
            views[name] = rows = flat[sl].reshape(shape)
            views.update(zip(parts, cns.split(rows)))
        return views

    def locate(self, flat_index: int) -> tuple[str, int | None, tuple[int, ...]]:
        """The block (or part), agent and entry of a flat index."""
        for name, shape, sl, per_agent, parts in self._specs:
            if sl.start <= flat_index < sl.stop:
                index = tuple(int(j) for j in np.unravel_index(flat_index - sl.start, shape))
                if not per_agent:
                    return name, None, index
                for part, entries in zip(parts, cns.split(np.arange(shape[-1]))):
                    hit = np.argwhere(entries == index[-1])
                    if hit.size:
                        return part, index[0], index[1:-1] + tuple(int(j) for j in hit[0])
                return name, index[0], index[1:]
        raise IndexError(f"flat index {flat_index} outside the state")


@dataclass
class EstimatorTrace:
    theta_hat: np.ndarray  # (S, N, n) or (S, n) for the centralized baseline
    err_norm: np.ndarray  # (S, N) or (S,)
    phi: np.ndarray | None = None  # (S, N) for DREM variants
    phi_sq_int: np.ndarray | None = None  # (S, N)


@dataclass
class TraceSet:
    """Decimated time-indexed record of one scenario run."""

    t: np.ndarray
    sigma: np.ndarray
    links: np.ndarray  # (S,) number of links up
    cons_err: np.ndarray  # (S, N) spectral norm of Chat_i - Cbar
    yhat_err: np.ndarray  # (S, N)
    resid_norm: np.ndarray  # (S, N)
    estimators: dict[str, EstimatorTrace]
    theta: np.ndarray
    k: float
    t_end: float
    transient_fraction: float
    max_conservation_err: float = 0.0
    max_asymmetry: float = 0.0

    def to_csv(self, path):
        """One column per entry of each array: its label, then the entry
        index, then _a<i> when the array has an agent axis."""
        arrays = [("t", self.t, False), ("sigma", self.sigma, False), ("links", self.links, False),
                  ("cons_err", self.cons_err, True), ("yhat_err", self.yhat_err, True),
                  ("resid", self.resid_norm, True)]
        labels = {"theta_hat": "theta", "err_norm": "err"}  # where not the field's name
        for kind, tr in self.estimators.items():
            arrays += [(f"{kind}_{labels.get(name, name)}", a, ESTIMATORS[kind].per_agent)
                       for name, a in vars(tr).items() if a is not None]
        header, columns = [], []
        for label, a, per_agent in arrays:
            entries = ["".join(map(str, e)) for e in np.ndindex(a.shape[1 + per_agent:])]
            agents = [f"_a{i}" for i in range(a.shape[1])] if per_agent else [""]
            header += [label + e + agent for agent in agents for e in entries]
            columns.append(a.reshape(len(a), -1))
        np.savetxt(path, np.hstack(columns), delimiter=",", header=",".join(header), comments="")


@dataclass(frozen=True)
class Estimator:
    """One estimator kind, declared once.

    blocks(cfg) lists its state blocks as (name, shape, checked, *parts):
    a block of packed rows may name its two parts, which consensus.split
    gives (see _Layout). The state stores blocks and parts as
    "<kind>.<name>", and unchecked blocks are exempt from the divergence
    guard. field(cfg, v, out, rows) evaluates the kind at one state from its
    block views v, the consensus outputs and the packed surrogate inputs
    [C_i^T C_i | C_i^T y_i] of every agent: it returns one derivative per
    block, in block order, and the EstimatorTrace fields of a sample at that
    state, err_norm aside. per_agent=False marks a kind whose blocks have no
    agent axis. The estimators module is looked up at call time.
    """

    blocks: Callable
    field: Callable
    per_agent: bool = True


def _gradient(v, derivative) -> tuple[list, dict]:
    """A gradient kind's one derivative, and its sample."""
    return [derivative], {"theta_hat": v["theta"]}


def _mixing(cfg, v, phi, Y) -> tuple[list, dict]:
    """A DREM kind's derivatives of theta and of its running integral of
    phi^2, and its sample."""
    derivs = [est.drem_derivative(v["theta"], phi, Y, cfg.gamma_drem), phi**2]
    return derivs, {"theta_hat": v["theta"], "phi": phi, "phi_sq_int": v["phi_int"]}


def _drem_field(cfg, v, out, rows) -> tuple[list, dict]:
    dz = est.drem_filter_derivative(cfg.drem_filters, v["z"], out)
    derivs, sample = _mixing(cfg, v, *est.drem_scalarize(est.drem_extend(out, v["z"])))
    return [dz, *derivs], sample


ESTIMATORS = {
    "ge": Estimator(
        blocks=lambda cfg: [("theta", (cfg.n_agents, cfg.n), True)],
        field=lambda cfg, v, out, rows: _gradient(
            v, est.ge_derivative(v["theta"], out, cfg.gamma_ge)
        ),
    ),
    "drem": Estimator(
        blocks=lambda cfg: [
            ("z", (cfg.n_agents, cfg.drem_filters.r, cfg.n * cfg.n + cfg.n), True, "zC", "zy"),
            ("theta", (cfg.n_agents, cfg.n), True),
            ("phi_int", (cfg.n_agents,), False),
        ],
        field=_drem_field,
    ),
    "drem_simple": Estimator(
        blocks=lambda cfg: [
            ("theta", (cfg.n_agents, cfg.n), True),
            ("phi_int", (cfg.n_agents,), False),
        ],
        field=lambda cfg, v, out, rows: _mixing(cfg, v, *est.drem_simple_scalarize(out)),
    ),
    "centralized": Estimator(
        blocks=lambda cfg: [("theta", (cfg.n,), True)],
        field=lambda cfg, v, out, rows: _gradient(
            v, est.centralized_ge_derivative(
                v["theta"], *cns.split(rows.sum(axis=0)), cfg.gamma_centralized
            )
        ),
        per_agent=False,
    ),
}


def analysis_report(cfg: ScenarioConfig) -> dict:
    """The excitation report of a scenario: one pass of the analysis."""
    a: AnalysisConfig = cfg.analysis
    return exc.analyze_scenario(
        cfg.generator,
        cfg.schedule,
        a.T_grid,
        a.horizon,
        a.grid_step,
        alpha_threshold=a.alpha_threshold,
        inflation=a.inflation,
    )


def resolve_gain(cfg: ScenarioConfig, report: dict | None = None) -> float:
    """Resolve the consensus gain: explicit value, or safety_factor x bound."""
    if cfg.k != "auto":
        return float(cfg.k)
    if report is None:
        report = analysis_report(cfg)
    if not report.get("pe", False):
        raise ConfigError(
            "auto gain failed: stacked regressor is not persistently exciting "
            "on the analysis horizon (excitation level never exceeded the threshold)"
        )
    if report["k_min"] == 0:
        raise ConfigError(
            "auto gain failed: the bound gives k_min = 0 because gamma = 0 (the "
            "regressors are constant), so it asks for no gain; set an explicit k"
        )
    return cfg.gain_safety_factor * report["k_min"]


def run_scenario(cfg: ScenarioConfig) -> TraceSet:
    """Integrate one scenario and return the decimated trace.

    Deterministic given the config (including seed). Raises ConfigError
    before integrating when k * lambda_max_family * h exceeds RK4's
    real-axis stability limit, SimulationDiverged when any state magnitude
    exceeds 1e12, and InvariantViolation on conservation or symmetry
    failures at decimated samples.
    """
    n, N = cfg.n, cfg.n_agents
    gen = cfg.generator
    theta = cfg.theta
    k = resolve_gain(cfg)
    lam_max = cfg.schedule.lambda_max_family
    if k * lam_max * cfg.h > RK4_STABILITY_LIMIT:
        raise ConfigError(
            f"consensus gain k={k:.6g} is too stiff for RK4 at h={cfg.h:g}: "
            f"k*lambda_max*h = {k * lam_max * cfg.h:.4g} with lambda_max={lam_max:.6g} "
            f"exceeds the stability limit {RK4_STABILITY_LIMIT:.4f}; lower k or h"
        )
    kinds = {kind: ESTIMATORS[kind] for kind in cfg.estimators}
    blocks = {kind: spec.blocks(cfg) for kind, spec in kinds.items()}

    layout = _Layout()
    layout.add("consensus", (N, n * n + n), parts=("X", "x"))
    for kind, spec in kinds.items():
        for name, shape, check, *parts in blocks[kind]:
            layout.add(f"{kind}.{name}", shape, check, spec.per_agent,
                       tuple(f"{kind}.{part}" for part in parts))

    def kind_views(views: dict, kind: str) -> dict:
        return {name: views[f"{kind}.{name}"] for name, *_ in blocks[kind]}

    n_steps = int(round(cfg.t_end / cfg.h))
    n_samples = n_steps // cfg.decimation + 1
    ts = np.empty(n_samples)
    sigmas = np.empty(n_samples, dtype=int)
    links = np.zeros(n_samples, dtype=int)
    cons_err = np.empty((n_samples, N))
    yhat_err = np.empty((n_samples, N))
    resid_norm = np.empty((n_samples, N))
    records: dict[str, dict[str, np.ndarray]] = {kind: {} for kind in kinds}

    state = np.zeros(layout.size)
    # The field copies each stage's state into `stage` and refills the outputs
    # `out` in place: views are built once.
    stage = np.empty(layout.size)
    stage_views = layout.unpack(stage)
    out = cns.ConsensusOutput(np.empty((N, n * n + n)))
    field_kinds = [
        (spec, kind_views(stage_views, kind), records[kind]) for kind, spec in kinds.items()
    ]

    p_max = max(gen.rows_per_agent)
    noise_rngs = (
        [noise_stream(cfg.seed, i) for i in range(N)] if cfg.noise_sd > 0 else None
    )
    loss_rng = loss_stream(cfg.seed) if cfg.p_loss > 0 else None

    half_h = 0.5 * cfg.h

    def input_tables(step: int, K: int, c_prev):
        """The packed inputs the field reads over the K steps from `step` on.

        Step s's RK4 stages c = 0, 1 (twice), 2 visit the half-step grid
        times m = 2s + c, all holding s's noise draw; m*h/2 is the one
        spelling of each time, so t + h and (s+1)*h share it. P[j, c] is
        the packed surrogate [C^T C | C^T y] at stage c of step step + j,
        with y = C theta + eta. The regressors are evaluated once per grid
        time up to t_end; the first time is the previous block's last, whose
        stack c_prev is carried over. The last step only reads its stage 0,
        so its other stages repeat it. Returns P and the stack at the block's
        last grid time.
        """
        m_end = min(2 * (step + K), 2 * n_steps)
        c_grid = gen.evaluate_all(np.arange(2 * step + (c_prev is not None), m_end + 1) * half_h)
        if c_prev is not None:
            c_grid = np.concatenate([c_prev[None], c_grid])
        stages = np.minimum(2 * np.arange(K)[:, None] + np.arange(3), len(c_grid) - 1)
        c = c_grid[stages]  # (K, 3, N, p_max, n)
        y = np.einsum("...api,i->...ap", c, theta)
        if noise_rngs is not None:
            # K steps of p_i draws per agent in one call, the same numbers as
            # K calls of p_i; the padding rows stay noise-free.
            draws = [
                rng.standard_normal(K * p).reshape(K, p)
                for rng, p in zip(noise_rngs, gen.rows_per_agent)
            ]
            noise = np.zeros((K, N * p_max))
            noise[:, gen.real_rows] = cfg.noise_sd * np.concatenate(draws, axis=1)
            y += noise.reshape(K, 1, N, p_max)
        return cns.pack(*surrogate_all(c, y)), c_grid[-1].copy()

    max_conservation = max_asymmetry = 0.0

    def write_sample(i: int, t: float, rows, out, kind_samples):
        """Sample i from one field evaluation at the state of time t."""
        nonlocal max_conservation, max_asymmetry
        ts[i], sigmas[i], links[i] = t, topo_idx, links_up
        cbar, ybar = cns.average_reference(*cns.split(rows))
        cons_err[i], yhat_err[i] = cns.consensus_error(out, cbar, ybar)
        resid_norm[i] = np.linalg.norm(cns.residual(out, theta), axis=-1)
        for rec, sample in kind_samples:
            for name, value in sample.items():
                if i == 0:
                    rec[name] = np.empty((n_samples, *np.shape(value)))
                rec[name][i] = value

        X, x = stage_views["X"], stage_views["x"]
        sum_X, sum_x = np.abs(X.sum(axis=0)), np.abs(x.sum(axis=0))
        x_sum, xs_sum = np.max(sum_X), np.max(sum_x)
        agent_asym = np.max(np.abs(X - np.transpose(X, (0, 2, 1))), axis=(1, 2))
        asym = np.max(agent_asym)
        max_conservation = max(max_conservation, x_sum, xs_sum)
        max_asymmetry = max(max_asymmetry, asym)
        if x_sum > CONSERVATION_TOL or xs_sum > CONSERVATION_TOL:
            block, sums = ("X", sum_X) if x_sum >= xs_sum else ("x", sum_x)
            entry = np.unravel_index(np.argmax(sums), sums.shape)
            raise InvariantViolation(
                f"consensus-state sums drifted at t={t:g}: "
                f"max|sum X|={x_sum:.3e}, max|sum x|={xs_sum:.3e}",
                block, None, tuple(int(j) for j in entry), t, float(max(x_sum, xs_sum)),
            )
        if asym > SYMMETRY_TOL:
            agent = int(np.argmax(agent_asym))
            skew = np.abs(X[agent] - X[agent].T)
            entry = tuple(int(j) for j in np.unravel_index(np.argmax(skew), skew.shape))
            raise InvariantViolation(
                f"integrator state lost symmetry at t={t:g}: {asym:.3e} "
                f"in {_entry_name('X', agent, entry)} at agent {agent}",
                "X", agent, entry, t, float(asym),
            )

    def field(t: float, flat: np.ndarray) -> np.ndarray:
        """The derivative of every block, in layout order. Stage c = 0 of a
        decimated step, RK4's first, evaluates the step's own state and
        writes its sample. lap, step, step0, P, topo_idx and links_up are
        the current step's and block's."""
        stage[:] = flat
        c = round(t / half_h) - 2 * step
        rows = P[step - step0, c]
        np.subtract(rows, stage_views["consensus"], out=out.Z)
        derivs = [cns.dac_derivative(out, lap, k, cfg.epsilon)]
        kind_samples = []
        for spec, v, rec in field_kinds:
            kind_derivs, sample = spec.field(cfg, v, out, rows)
            derivs += kind_derivs
            kind_samples.append((rec, sample))
        if c == 0 and step % cfg.decimation == 0:
            write_sample(step // cfg.decimation, t, rows, out, kind_samples)
        return np.concatenate([d.ravel() for d in derivs])

    # Each graph's edges (i < j, row-major), for drawing its loss mask.
    graph_edges = [np.nonzero(np.triu(topo.adjacency)) for topo in cfg.schedule.topologies]
    mask = None
    links_up = 0
    next_loss_t = 0.0
    prev_topo_idx = -1
    c_last = None

    for step in range(n_steps + 1):
        t = step * cfg.h
        topo_idx = active_topology(cfg.schedule, min(t, cfg.t_end))
        switched = topo_idx != prev_topo_idx  # always at step 0
        prev_topo_idx = topo_idx
        # A switch forces a redraw of the loss mask.
        redraw = loss_rng is not None and (switched or t >= next_loss_t - 0.5 * cfg.h)
        iu, ju = graph_edges[topo_idx]
        if redraw:
            down = loss_rng.random(len(iu)) < cfg.p_loss
            mask = np.ones((N, N), dtype=bool)
            mask[iu[down], ju[down]] = mask[ju[down], iu[down]] = False
            links_up = len(iu) - int(down.sum())
            next_loss_t = t + cfg.loss_resample_dt
        elif switched:
            links_up = len(iu)
        if switched or redraw:
            lap = cns.effective_laplacian(cfg.schedule.topologies[topo_idx], mask)

        if step % INPUT_BLOCK == 0:
            step0 = step
            P = None  # never hold two blocks' tables at once
            P, c_last = input_tables(step, min(INPUT_BLOCK, n_steps + 1 - step), c_last)

        if step < n_steps:
            state = rk4_step(field, state, t, cfg.h)
            checked = np.abs(state[layout.checked])
            worst = np.argmax(checked)
            if not np.isfinite(checked[worst]) or checked[worst] > DIVERGENCE_LIMIT:
                flat_idx = int(layout.checked[worst])
                block, agent, entry = layout.locate(flat_idx)
                value = float(state[flat_idx])
                raise SimulationDiverged(
                    f"state component '{_entry_name(block, agent, entry)}' diverged "
                    f"at t={t + cfg.h:g} (value {value:.3e})",
                    block, agent, entry, t + cfg.h, value,
                )
        elif step % cfg.decimation == 0:  # the last sample has no step after it
            field(t, state)

    est_traces = {
        kind: EstimatorTrace(err_norm=np.linalg.norm(rec["theta_hat"] - theta, axis=-1), **rec)
        for kind, rec in records.items()
    }

    return TraceSet(
        t=ts,
        sigma=sigmas,
        links=links,
        cons_err=cons_err,
        yhat_err=yhat_err,
        resid_norm=resid_norm,
        estimators=est_traces,
        theta=theta.copy(),
        k=k,
        t_end=cfg.t_end,
        transient_fraction=cfg.transient_fraction,
        max_conservation_err=max_conservation,
        max_asymmetry=max_asymmetry,
    )


def fit_decay_rate(
    t: np.ndarray,
    err: np.ndarray,
    min_samples: int = MIN_FIT_SAMPLES,
    floor: float = 0.0,
) -> float:
    """Least-squares slope of log(err) vs t; the empirical exponential rate.

    Samples at or below ``floor`` are excluded: once an error saturates at
    the integrator/float noise floor its log-trace is flat noise and would
    corrupt the fitted rate of the preceding exponential decay.
    """
    keep = err > floor
    if keep.sum() < min_samples:
        raise ValueError(
            f"insufficient samples above floor for decay fit: "
            f"{int(keep.sum())} < {min_samples}"
        )
    log_err = np.log(err[keep])
    slope, _ = np.polyfit(t[keep], log_err, 1)
    return float(slope)


def in_tail(t, t_end: float):
    """Whether sample time t is in the metrics tail window, the last TAIL_FRACTION of t_end."""
    return t >= (1.0 - TAIL_FRACTION) * t_end


def compute_metrics(trace: TraceSet, ceiling: float | None = None) -> dict:
    """Convergence metrics of a trace: the metrics.json dict, in its key order.

    The decay rate discards the transient (first transient_fraction of the
    horizon) and any samples saturated below ERR_FLOOR; when an estimator
    converges to the floor before the transient window even opens, the fit
    falls back to the full trace, and an agent with fewer than
    MIN_FIT_SAMPLES usable samples even there (a short run) gets None.
    Tail suprema are over the samples in_tail admits.
    When a consensus-error ceiling is supplied, transient_end is the
    earliest sample time from which all agents' consensus errors stay
    inside it, None when the last sample is outside.
    """
    t = trace.t
    post = t >= trace.transient_fraction * trace.t_end
    tail = in_tail(t, trace.t_end)
    if not np.any(tail):
        raise ValueError("tail window is empty")

    def one_rate(err: np.ndarray) -> float | None:
        for window in (post, slice(None)):
            try:
                return fit_decay_rate(t[window], err[window], MIN_FIT_SAMPLES, ERR_FLOOR)
            except ValueError:
                pass
        return None

    per_est = {}
    for name, tr in trace.estimators.items():
        err2d = tr.err_norm.reshape(len(t), -1)
        rates = [one_rate(err2d[:, i]) for i in range(err2d.shape[1])]
        per_est[name] = {
            "final_err": err2d[-1].tolist(),
            "decay_rate": rates,
            "tail_sup_err": float(err2d[tail].max()),
        }

    transient_end = None
    if ceiling is not None:
        outside = np.nonzero(~np.all(trace.cons_err <= ceiling, axis=1))[0]
        start = outside[-1] + 1 if outside.size else 0
        transient_end = float(t[start]) if start < len(t) else None

    return {
        "per_estimator": per_est,
        "tail_sup_cons_err": float(trace.cons_err[tail].max()),
        "tail_sup_resid": float(trace.resid_norm[tail].max()),
        "transient_end": transient_end,
    }


def write_run_dir(
    outdir,
    cfg: ScenarioConfig,
    trace: TraceSet,
    metrics: dict,
    constants: dict | None = None,
):
    """Emit the standard run artifacts: traces, metrics, constants, config echo."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(outdir / "traces.csv")
    (outdir / "metrics.json").write_text(json.dumps(metrics, indent=2))
    if constants is not None:
        (outdir / "constants.json").write_text(json.dumps(constants, indent=2))
    (outdir / "config-echo.json").write_text(json.dumps(cfg.echo(), indent=2))
