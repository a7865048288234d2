"""Fixed-step integration of the coupled consensus + estimator system.

The full stacked state (consensus integrators, estimator states, filter-bank
states, and running excitation integrals) is advanced with classical RK4.
Discontinuous inputs (topology switches, packet-loss masks, measurement
noise) are frozen over each step, evaluated at the step's start for all four
stages, so the per-step field stays smooth.

The consensus layer's field is consensus.dac_derivative. Each estimator kind
is declared once, in ESTIMATORS: its state blocks, their derivative and what
it records at each sample.
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
        for name, _, sl, _ in self._specs:
            if sl.start <= flat_index < sl.stop:
                return name
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
    divergence guard. derivative(cfg, v, inp) returns one derivative per
    block, in block order, from the kind's block views v.
    record(cfg, v, inp) returns the EstimatorTrace fields of one sample,
    err_norm aside. The estimators module is looked up at call time.
    """

    blocks: Callable
    derivative: Callable
    record: Callable


def _drem_scalar(v, inp: EstimatorInput):
    cf, yf = est.drem_extend(inp.out, v["zC"], v["zy"])
    return est.drem_scalarize(cf, yf)


def _mixing_update(cfg, v, scal) -> list:
    """Derivatives of a DREM kind's theta and of its running integral of phi^2."""
    return [est.drem_derivative(v["theta"], scal, cfg.gamma_drem), scal.phi**2]


def _mixing_record(v, scal) -> dict:
    return {"theta_hat": v["theta"], "phi": scal.phi, "phi_sq_int": v["phi_int"]}


ESTIMATORS = {
    "ge": Estimator(
        blocks=lambda cfg: [("theta", (cfg.n_agents, cfg.n), True)],
        derivative=lambda cfg, v, inp: [
            est.ge_derivative(v["theta"], inp.out, cfg.gamma_ge)
        ],
        record=lambda cfg, v, inp: {"theta_hat": v["theta"]},
    ),
    "drem": Estimator(
        blocks=lambda cfg: [
            ("zC", (cfg.n_agents, cfg.drem_filters.r, cfg.n, cfg.n), True),
            ("zy", (cfg.n_agents, cfg.drem_filters.r, cfg.n), True),
            ("theta", (cfg.n_agents, cfg.n), True),
            ("phi_int", (cfg.n_agents,), False),
        ],
        derivative=lambda cfg, v, inp: [
            *est.drem_filter_derivative(cfg.drem_filters, v["zC"], v["zy"], inp.out),
            *_mixing_update(cfg, v, _drem_scalar(v, inp)),
        ],
        record=lambda cfg, v, inp: _mixing_record(v, _drem_scalar(v, inp)),
    ),
    "drem_simple": Estimator(
        blocks=lambda cfg: [
            ("theta", (cfg.n_agents, cfg.n), True),
            ("phi_int", (cfg.n_agents,), False),
        ],
        derivative=lambda cfg, v, inp: _mixing_update(
            cfg, v, est.drem_simple_scalarize(inp.out)
        ),
        record=lambda cfg, v, inp: _mixing_record(v, est.drem_simple_scalarize(inp.out)),
    ),
    "centralized": Estimator(
        blocks=lambda cfg: [("theta", (cfg.n,), True)],
        derivative=lambda cfg, v, inp: [
            est.centralized_ge_derivative(
                v["theta"], inp.c_stack, inp.y_stack, cfg.gamma_centralized
            )
        ],
        record=lambda cfg, v, inp: {"theta_hat": v["theta"]},
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


def run_scenario(cfg: ScenarioConfig, check_invariants: bool = True) -> TraceSet:
    """Integrate one scenario and return the decimated trace.

    Deterministic given the config (including seed). Raises ConfigError
    before integrating when k * lambda_max_family * h exceeds RK4's
    real-axis stability limit, SimulationDiverged when any state magnitude
    exceeds 1e12 and, when check_invariants is set, InvariantViolation on
    conservation or symmetry failures at decimated samples.
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

    state = np.zeros(layout.size)
    check_idx = np.nonzero(layout.check_mask())[0]
    # The field copies each stage's state into `stage` and writes its
    # derivative into `d_stage`, so the named views of both are built once.
    stage = np.empty(layout.size)
    d_stage = np.zeros(layout.size)
    stage_views = layout.unpack(stage)
    dv = layout.unpack(d_stage)
    field_kinds = [
        (spec, kind_views(stage_views, kind), list(kind_views(dv, kind).values()))
        for kind, spec in kinds.items()
    ]

    p_max = max(cfg.rows_per_agent)
    noise_rngs = (
        [noise_stream(cfg.seed, i) for i in range(N)] if cfg.noise_sd > 0 else None
    )
    loss_rng = loss_stream(cfg.seed) if cfg.p_loss > 0 else None

    half_h = 0.5 * cfg.h
    last = [None, None, None]  # grid index, noise draw, measurements

    def measured(t: float, eta):
        """Surrogates and zero-padded stacked data at time t with held noise eta.

        Evaluated once per distinct stage time and noise draw: RK4 visits t,
        t + h/2 (twice) and t + h, and t + h is the next step's t. Stage times
        are snapped to the half-step grid m*h/2, so the two spellings of a
        step boundary, t + h and (step+1)*h, which can differ in the last
        bit, share one evaluation.
        """
        m = round(t / half_h)
        if m != last[0] or eta is not last[1]:
            c_all = gen.evaluate_all(m * half_h)
            y_all = np.einsum("api,i->ap", c_all, theta)
            if eta is not None:
                y_all = y_all + eta
            cp, yp = surrogate_all(c_all, y_all)
            last[:] = m, eta, (cp, yp, c_all.reshape(-1, n), y_all.reshape(-1))
        return last[2]

    def observe(t: float, eta, v: dict):
        """Surrogates and the estimators' input at time t and consensus states v."""
        cp, yp, c_stack, y_stack = measured(t, eta)
        out = cns.consensus_outputs(cp, yp, v["X"], v["x"])
        return cp, yp, EstimatorInput(out, c_stack, y_stack)

    def make_field(lap, eta):
        def field(t: float, flat: np.ndarray) -> np.ndarray:
            stage[:] = flat
            _, _, inp = observe(t, eta, stage_views)
            dv["X"][:], dv["x"][:] = cns.dac_derivative(inp.out, lap, k, cfg.epsilon)
            for spec, v, d in field_kinds:
                for view, value in zip(d, spec.derivative(cfg, v, inp)):
                    view[:] = value
            return d_stage.copy()

        return field

    n_steps = int(round(cfg.t_end / cfg.h))
    n_samples = n_steps // cfg.decimation + 1
    ts = np.empty(n_samples)
    sigmas = np.empty(n_samples, dtype=int)
    links = np.zeros(n_samples, dtype=int)
    cons_err = np.empty((n_samples, N))
    yhat_err = np.empty((n_samples, N))
    resid_norm = np.empty((n_samples, N))
    records: dict[str, dict[str, np.ndarray]] = {kind: {} for kind in kinds}

    mask = None
    links_up = 0
    next_loss_t = 0.0
    prev_topo_idx = -1
    sample_idx = 0
    max_conservation = 0.0
    max_asymmetry = 0.0

    for step in range(n_steps + 1):
        t = step * cfg.h
        topo_idx = active_topology(cfg.schedule, min(t, cfg.t_end))
        topo = cfg.schedule.topologies[topo_idx]
        edges = topo.edges() if (cfg.p_loss > 0 or step == 0 or topo_idx != prev_topo_idx) else None

        if loss_rng is not None and (
            t >= next_loss_t - 0.5 * cfg.h or topo_idx != prev_topo_idx
        ):
            up = loss_rng.random(len(edges)) >= cfg.p_loss
            mask = np.ones((N, N), dtype=bool)
            for (i, j), link_up in zip(edges, up):
                if not link_up:
                    mask[i, j] = mask[j, i] = False
            links_up = int(up.sum())
            next_loss_t = t + cfg.loss_resample_dt
        elif loss_rng is None and (step == 0 or topo_idx != prev_topo_idx):
            links_up = len(edges)
        prev_topo_idx = topo_idx

        eta = None
        if noise_rngs is not None:
            # Exactly p_i draws per agent; the padding rows stay noise-free.
            draws = [rng.standard_normal(p) for rng, p in zip(noise_rngs, cfg.rows_per_agent)]
            eta = np.zeros(N * p_max)
            eta[gen.real_rows] = cfg.noise_sd * np.concatenate(draws)
            eta = eta.reshape(N, p_max)

        lap = cns.effective_laplacian(topo, mask)

        if step % cfg.decimation == 0:
            v = layout.unpack(state)
            cp, yp, inp = observe(t, eta, v)
            cbar, ybar = cns.average_reference(cp, yp)
            cerr, yerr = cns.consensus_error(inp.out, cbar, ybar)
            ts[sample_idx] = t
            sigmas[sample_idx] = topo_idx
            links[sample_idx] = links_up
            cons_err[sample_idx] = cerr
            yhat_err[sample_idx] = yerr
            resid_norm[sample_idx] = np.linalg.norm(cns.residual(inp.out, theta), axis=-1)
            for kind, spec in kinds.items():
                rec = records[kind]
                for name, value in spec.record(cfg, kind_views(v, kind), inp).items():
                    if sample_idx == 0:
                        rec[name] = np.empty((n_samples, *np.shape(value)))
                    rec[name][sample_idx] = value

            x_sum = np.max(np.abs(v["X"].sum(axis=0)))
            xs_sum = np.max(np.abs(v["x"].sum(axis=0)))
            asym = np.max(np.abs(v["X"] - np.transpose(v["X"], (0, 2, 1))))
            max_conservation = max(max_conservation, x_sum, xs_sum)
            max_asymmetry = max(max_asymmetry, asym)
            if check_invariants:
                if x_sum > CONSERVATION_TOL or xs_sum > CONSERVATION_TOL:
                    raise InvariantViolation(
                        f"consensus-state sums drifted at t={t:g}: "
                        f"max|sum X|={x_sum:.3e}, max|sum x|={xs_sum:.3e}"
                    )
                if asym > SYMMETRY_TOL:
                    raise InvariantViolation(
                        f"integrator state lost symmetry at t={t:g}: {asym:.3e}"
                    )
            sample_idx += 1

        if step < n_steps:
            state = rk4_step(make_field(lap, eta), state, t, cfg.h)
            checked = np.abs(state[check_idx])
            worst = np.argmax(checked)
            if not np.isfinite(checked[worst]) or checked[worst] > DIVERGENCE_LIMIT:
                flat_idx = int(check_idx[worst])
                raise SimulationDiverged(
                    f"state component '{layout.locate(flat_idx)}' diverged "
                    f"at t={t + cfg.h:g} (value {state[flat_idx]:.3e})"
                )

    est_traces = {
        kind: EstimatorTrace(
            err_norm=np.linalg.norm(rec["theta_hat"] - theta, axis=-1), **rec
        )
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


def compute_metrics(
    trace: TraceSet,
    ceiling: float | None = None,
    tail_fraction: float = 0.2,
    min_fit_samples: int = 50,
    err_floor: float = 1e-12,
) -> Metrics:
    """Extract convergence metrics from a trace.

    The decay rate discards the transient (first transient_fraction of the
    horizon) and any samples saturated below err_floor; when an estimator
    converges to the floor before the transient window even opens, the fit
    falls back to the full trace. Tail suprema use the last tail_fraction.
    When a consensus-error ceiling is supplied, transient_end is the first
    sample time at which all agents' consensus errors are inside it.
    """
    t = trace.t
    post = t >= trace.transient_fraction * trace.t_end
    tail = t >= (1.0 - tail_fraction) * trace.t_end
    if not np.any(tail):
        raise ValueError("tail window is empty")

    def one_rate(err: np.ndarray) -> float:
        try:
            return fit_decay_rate(t[post], err[post], min_fit_samples, err_floor)
        except ValueError:
            return fit_decay_rate(t, err, min_fit_samples, err_floor)

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
