"""Fixed-step integration of the coupled consensus + estimator system.

The full stacked state (consensus integrators, estimator states, filter-bank
states, and running excitation integrals) is advanced with classical RK4.
Discontinuous inputs (topology switches, packet-loss masks, measurement
noise) are frozen over each step, evaluated at the step's start for all four
stages, so the per-step field stays smooth. Each agent's noise is drawn
NOISE_BLOCK steps at a time, the same numbers as one draw per step.

The consensus layer's field is consensus.dac_derivative. Each estimator kind
is declared once, in ESTIMATORS: its state blocks and one field that gives
their derivatives and the kind's sample at the same state. Samples are
written by RK4's first stage, the field evaluation at the step's own state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

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
GAIN_FLOOR = 1e-6
# RK4 is stable on the negative real axis for h*|lambda| up to this value.
RK4_STABILITY_LIMIT = 2.785293563405282
# compute_metrics: tail window, fewest samples for a decay fit, error floor.
TAIL_FRACTION = 0.2
MIN_FIT_SAMPLES = 50
ERR_FLOOR = 1e-12
# Steps of measurement noise each agent draws at once.
NOISE_BLOCK = 256


class SimulationDiverged(RuntimeError):
    """A state component left the finite range during integration."""


class InvariantViolation(RuntimeError):
    """A conservation/symmetry invariant failed beyond integrator tolerance."""


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
    """Slicing map from a flat state vector to named array views."""

    def __init__(self):
        self._specs: list[tuple[str, tuple[int, ...], slice, bool]] = []
        self.size = 0

    def add(self, name: str, shape: tuple[int, ...], check: bool = True):
        """check=False exempts the block from the divergence guard (e.g. the
        monotone excitation integrals, which legitimately grow very large)."""
        length = int(np.prod(shape)) if shape else 1
        self._specs.append((name, shape, slice(self.size, self.size + length), check))
        self.size += length

    def unpack(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {name: flat[sl].reshape(shape) for name, shape, sl, _ in self._specs}

    def check_mask(self) -> np.ndarray:
        mask = np.zeros(self.size, dtype=bool)
        for _, _, sl, check in self._specs:
            if check:
                mask[sl] = True
        return mask

    def locate(self, flat_index: int) -> str:
        """The block and the entry inside it, e.g. 'ge.theta[17, 2]'."""
        for name, shape, sl, _ in self._specs:
            if sl.start <= flat_index < sl.stop:
                entry = np.unravel_index(flat_index - sl.start, shape)
                return f"{name}[{', '.join(str(int(j)) for j in entry)}]"
        return "<unknown>"


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
    h: float
    t_end: float
    decimation: int
    transient_fraction: float
    max_conservation_err: float = 0.0
    max_asymmetry: float = 0.0

    def to_csv(self, path):
        n = self.theta.shape[0]
        n_agents = self.cons_err.shape[1]
        cols: list[tuple[str, np.ndarray]] = [
            ("t", self.t),
            ("sigma", self.sigma),
            ("links", self.links),
        ]
        for i in range(n_agents):
            cols.append((f"cons_err_a{i}", self.cons_err[:, i]))
        for i in range(n_agents):
            cols.append((f"yhat_err_a{i}", self.yhat_err[:, i]))
        for i in range(n_agents):
            cols.append((f"resid_a{i}", self.resid_norm[:, i]))
        for name, tr in self.estimators.items():
            if tr.theta_hat.ndim == 2:  # centralized
                for mu in range(n):
                    cols.append((f"{name}_theta{mu}", tr.theta_hat[:, mu]))
                cols.append((f"{name}_err", tr.err_norm))
                continue
            for i in range(n_agents):
                for mu in range(n):
                    cols.append((f"{name}_theta{mu}_a{i}", tr.theta_hat[:, i, mu]))
            for i in range(n_agents):
                cols.append((f"{name}_err_a{i}", tr.err_norm[:, i]))
            if tr.phi is not None:
                for i in range(n_agents):
                    cols.append((f"{name}_phi_a{i}", tr.phi[:, i]))
                for i in range(n_agents):
                    cols.append((f"{name}_phi_sq_int_a{i}", tr.phi_sq_int[:, i]))
        header = ",".join(name for name, _ in cols)
        data = np.column_stack([c for _, c in cols])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


@dataclass
class Metrics:
    """Derived per-run quantities: final errors, decay rates, tail suprema."""

    per_estimator: dict
    tail_sup_cons_err: float
    tail_sup_resid: float
    transient_end: float | None = None

    def to_jsonable(self) -> dict:
        return {
            "per_estimator": self.per_estimator,
            "tail_sup_cons_err": self.tail_sup_cons_err,
            "tail_sup_resid": self.tail_sup_resid,
            "transient_end": self.transient_end,
        }


class EstimatorInput(NamedTuple):
    """What an estimator reads at one time: the consensus outputs, and the
    network's row-stacked data (zero padding rows included)."""

    out: cns.ConsensusOutput
    c_stack: np.ndarray  # (N * p_max, n)
    y_stack: np.ndarray  # (N * p_max,)


@dataclass(frozen=True)
class Estimator:
    """One estimator kind, declared once.

    blocks(cfg) lists its state blocks as (name, shape, checked); the state
    stores them as "<kind>.<name>", and unchecked blocks are exempt from the
    divergence guard. field(cfg, v, inp) evaluates the kind at one state
    from its block views v: it returns one derivative per block, in block
    order, and the EstimatorTrace fields of a sample at that state, err_norm
    aside. The estimators module is looked up at call time.
    """

    blocks: Callable
    field: Callable


def _gradient(v, derivative) -> tuple[list, dict]:
    """A gradient kind's one derivative, and its sample."""
    return [derivative], {"theta_hat": v["theta"]}


def _mixing(cfg, v, scal) -> tuple[list, dict]:
    """A DREM kind's derivatives of theta and of its running integral of
    phi^2, and its sample."""
    derivs = [est.drem_derivative(v["theta"], scal, cfg.gamma_drem), scal.phi**2]
    return derivs, {"theta_hat": v["theta"], "phi": scal.phi, "phi_sq_int": v["phi_int"]}


def _drem_field(cfg, v, inp: EstimatorInput) -> tuple[list, dict]:
    filters = est.drem_filter_derivative(cfg.drem_filters, v["zC"], v["zy"], inp.out)
    cf, yf = est.drem_extend(inp.out, v["zC"], v["zy"])
    derivs, sample = _mixing(cfg, v, est.drem_scalarize(cf, yf))
    return [*filters, *derivs], sample


ESTIMATORS = {
    "ge": Estimator(
        blocks=lambda cfg: [("theta", (cfg.n_agents, cfg.n), True)],
        field=lambda cfg, v, inp: _gradient(
            v, est.ge_derivative(v["theta"], inp.out, cfg.gamma_ge)
        ),
    ),
    "drem": Estimator(
        blocks=lambda cfg: [
            ("zC", (cfg.n_agents, cfg.drem_filters.r, cfg.n, cfg.n), True),
            ("zy", (cfg.n_agents, cfg.drem_filters.r, cfg.n), True),
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
        field=lambda cfg, v, inp: _mixing(cfg, v, est.drem_simple_scalarize(inp.out)),
    ),
    "centralized": Estimator(
        blocks=lambda cfg: [("theta", (cfg.n,), True)],
        field=lambda cfg, v, inp: _gradient(
            v, est.centralized_ge_derivative(v["theta"], inp.c_stack, inp.y_stack,
                                             cfg.gamma_centralized)
        ),
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
    return max(cfg.gain_safety_factor * report["k_min"], GAIN_FLOOR)


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
    layout.add("X", (N, n, n))
    layout.add("x", (N, n))
    for kind, kind_blocks in blocks.items():
        for name, shape, check in kind_blocks:
            layout.add(f"{kind}.{name}", shape, check)

    def kind_views(views: dict, kind: str) -> dict:
        return {name: views[f"{kind}.{name}"] for name, _, _ in blocks[kind]}

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
    check_idx = np.nonzero(layout.check_mask())[0]
    # The field copies each stage's state into `stage` and writes its
    # derivative into `d_stage`, so the named views of both are built once.
    stage = np.empty(layout.size)
    d_stage = np.zeros(layout.size)
    stage_views = layout.unpack(stage)
    dv = layout.unpack(d_stage)
    field_kinds = [
        (spec, kind_views(stage_views, kind), list(kind_views(dv, kind).values()), records[kind])
        for kind, spec in kinds.items()
    ]

    p_max = max(gen.rows_per_agent)
    noise_rngs = (
        [noise_stream(cfg.seed, i) for i in range(N)] if cfg.noise_sd > 0 else None
    )
    loss_rng = loss_stream(cfg.seed) if cfg.p_loss > 0 else None

    half_h = 0.5 * cfg.h
    regressors = [None, None, None]  # grid index, C(t), noise-free C(t) theta
    last = [None, None, None]  # grid index, noise draw, measurements

    def measured(t: float, eta):
        """Surrogates and zero-padded stacked data at time t with held noise eta.

        The regressors are evaluated once per distinct stage time: RK4 visits
        t, t + h/2 (twice) and t + h, and t + h is the next step's t. Stage
        times are snapped to the half-step grid m*h/2, so the two spellings of
        a step boundary, t + h and (step+1)*h, which can differ in the last
        bit, share one evaluation. A new noise draw only redoes y and the
        surrogates.
        """
        m = round(t / half_h)
        if m != regressors[0]:
            c_all = gen.evaluate_all(m * half_h)
            regressors[:] = m, c_all, np.einsum("api,i->ap", c_all, theta)
        if m != last[0] or eta is not last[1]:
            _, c_all, y_all = regressors
            if eta is not None:
                y_all = y_all + eta
            cp, yp = surrogate_all(c_all, y_all)
            last[:] = m, eta, (cp, yp, c_all.reshape(-1, n), y_all.reshape(-1))
        return last[2]

    max_conservation = max_asymmetry = 0.0

    def write_sample(i: int, t: float, cp, yp, out, kind_samples):
        """Sample i from one field evaluation at the state of time t."""
        nonlocal max_conservation, max_asymmetry
        cbar, ybar = cns.average_reference(cp, yp)
        cons_err[i], yhat_err[i] = cns.consensus_error(out, cbar, ybar)
        resid_norm[i] = np.linalg.norm(cns.residual(out, theta), axis=-1)
        for rec, sample in kind_samples:
            for name, value in sample.items():
                if i == 0:
                    rec[name] = np.empty((n_samples, *np.shape(value)))
                rec[name][i] = value

        X, x = stage_views["X"], stage_views["x"]
        x_sum = np.max(np.abs(X.sum(axis=0)))
        xs_sum = np.max(np.abs(x.sum(axis=0)))
        agent_asym = np.max(np.abs(X - np.transpose(X, (0, 2, 1))), axis=(1, 2))
        asym = np.max(agent_asym)
        max_conservation = max(max_conservation, x_sum, xs_sum)
        max_asymmetry = max(max_asymmetry, asym)
        if x_sum > CONSERVATION_TOL or xs_sum > CONSERVATION_TOL:
            raise InvariantViolation(
                f"consensus-state sums drifted at t={t:g}: "
                f"max|sum X|={x_sum:.3e}, max|sum x|={xs_sum:.3e}"
            )
        if asym > SYMMETRY_TOL:
            raise InvariantViolation(
                f"integrator state lost symmetry at t={t:g}: {asym:.3e} "
                f"at agent {int(np.argmax(agent_asym))}"
            )

    # Index of the sample the next field evaluation writes, if any. The loop
    # sets it just before RK4's first stage, which evaluates the step's state.
    pending: list[int] = []

    def field(t: float, flat: np.ndarray) -> np.ndarray:
        # lap and eta are the current step's, held over all four stages.
        stage[:] = flat
        cp, yp, c_stack, y_stack = measured(t, eta)
        out = cns.consensus_outputs(cp, yp, stage_views["X"], stage_views["x"])
        inp = EstimatorInput(out, c_stack, y_stack)
        dv["X"][:], dv["x"][:] = cns.dac_derivative(out, lap, k, cfg.epsilon)
        kind_samples = []
        for spec, v, d, rec in field_kinds:
            derivs, sample = spec.field(cfg, v, inp)
            for view, value in zip(d, derivs):
                view[:] = value
            kind_samples.append((rec, sample))
        if pending:
            write_sample(pending.pop(), t, cp, yp, out, kind_samples)
        return d_stage.copy()

    # Each graph's edges (i < j, row-major), for drawing its loss mask.
    graph_edges = [np.nonzero(np.triu(topo.adjacency)) for topo in cfg.schedule.topologies]
    mask = None
    links_up = 0
    next_loss_t = 0.0
    prev_topo_idx = -1

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

        eta = None
        if noise_rngs is not None:
            if step % NOISE_BLOCK == 0:
                # K steps of p_i draws per agent in one call, the same numbers
                # as K calls of p_i; the padding rows stay noise-free.
                K = min(NOISE_BLOCK, n_steps + 1 - step)
                draws = [
                    rng.standard_normal(K * p).reshape(K, p)
                    for rng, p in zip(noise_rngs, gen.rows_per_agent)
                ]
                noise = np.zeros((K, N * p_max))
                noise[:, gen.real_rows] = cfg.noise_sd * np.concatenate(draws, axis=1)
                noise = noise.reshape(K, N, p_max)
            eta = noise[step % NOISE_BLOCK]

        if step % cfg.decimation == 0:
            i = step // cfg.decimation
            ts[i], sigmas[i], links[i] = t, topo_idx, links_up
            pending.append(i)

        if step < n_steps:
            state = rk4_step(field, state, t, cfg.h)
            checked = np.abs(state[check_idx])
            worst = np.argmax(checked)
            if not np.isfinite(checked[worst]) or checked[worst] > DIVERGENCE_LIMIT:
                flat_idx = int(check_idx[worst])
                raise SimulationDiverged(
                    f"state component '{layout.locate(flat_idx)}' diverged "
                    f"at t={t + cfg.h:g} (value {state[flat_idx]:.3e})"
                )
        elif pending:  # the last sample has no step after it
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
        h=cfg.h,
        t_end=cfg.t_end,
        decimation=cfg.decimation,
        transient_fraction=cfg.transient_fraction,
        max_conservation_err=max_conservation,
        max_asymmetry=max_asymmetry,
    )


def fit_decay_rate(
    t: np.ndarray,
    err: np.ndarray,
    min_samples: int = 50,
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


def compute_metrics(trace: TraceSet, ceiling: float | None = None) -> Metrics:
    """Extract convergence metrics from a trace.

    The decay rate discards the transient (first transient_fraction of the
    horizon) and any samples saturated below ERR_FLOOR; when an estimator
    converges to the floor before the transient window even opens, the fit
    falls back to the full trace. Tail suprema use the last TAIL_FRACTION.
    When a consensus-error ceiling is supplied, transient_end is the first
    sample time at which all agents' consensus errors are inside it.
    """
    t = trace.t
    post = t >= trace.transient_fraction * trace.t_end
    tail = t >= (1.0 - TAIL_FRACTION) * trace.t_end
    if not np.any(tail):
        raise ValueError("tail window is empty")

    def one_rate(err: np.ndarray) -> float:
        try:
            return fit_decay_rate(t[post], err[post], MIN_FIT_SAMPLES, ERR_FLOOR)
        except ValueError:
            return fit_decay_rate(t, err, MIN_FIT_SAMPLES, ERR_FLOOR)

    per_est = {}
    for name, tr in trace.estimators.items():
        err2d = tr.err_norm if tr.err_norm.ndim == 2 else tr.err_norm[:, None]
        rates = [one_rate(err2d[:, i]) for i in range(err2d.shape[1])]
        per_est[name] = {
            "final_err": err2d[-1].tolist(),
            "decay_rate": rates,
            "tail_sup_err": float(err2d[tail].max()),
        }

    transient_end = None
    if ceiling is not None:
        inside = np.all(trace.cons_err <= ceiling, axis=1)
        hits = np.nonzero(inside)[0]
        transient_end = float(t[hits[0]]) if hits.size else None

    return Metrics(
        per_estimator=per_est,
        tail_sup_cons_err=float(trace.cons_err[tail].max()),
        tail_sup_resid=float(trace.resid_norm[tail].max()),
        transient_end=transient_end,
    )


def write_run_dir(
    outdir,
    cfg: ScenarioConfig,
    trace: TraceSet,
    metrics: Metrics,
    constants: dict | None = None,
):
    """Emit the standard run artifacts: traces, metrics, constants, config echo."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(outdir / "traces.csv")
    (outdir / "metrics.json").write_text(json.dumps(metrics.to_jsonable(), indent=2))
    if constants is not None:
        (outdir / "constants.json").write_text(json.dumps(constants, indent=2))
    (outdir / "config-echo.json").write_text(json.dumps(cfg.echo(), indent=2))
