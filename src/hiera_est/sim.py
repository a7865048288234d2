"""Fixed-step RK4 integration of the two-layer system, as a cascade.

The lower layer (the consensus integrators and the DREM filter bank) never
reads an estimate, and every estimator of the upper layer is an affine flow
x' = a(t) - B(t) x driven by the lower layer's outputs. RK4 of the cascade
is RK4 of the lower layer, followed by RK4 of the upper layer at the lower
layer's stage values, so the runner makes two passes over each block of
INPUT_BLOCK steps. The lower state is one array S of shape
(N, 1 + r, n^2 + n): row 0 is each agent's consensus row [vec(X_i) | x_i],
rows 1..r its DREM filter rows [vec(zC) | zy] (r = 0 when no kind reads
them). The lower pass steps S with rk4_step, once per step; its field
returns consensus.dac_derivative in row 0 and
estimators.drem_filter_derivative in the filter rows, and writes S and
the packed outputs Z = P - S[:, 0] of each of RK4's four evaluations into
(K, 4, ...) block tables, which every layer reads as plain packed arrays.
The upper state is one array per flow, "<kind>.<name>", holding its state
at each step of the block. The upper pass calls each kind's flow once over
all the block's stage rows to get its coefficients (a, B), turns them into
RK4's one-step maps x+ = x + (D x + rho) (affine_rk4), and scans the steps
with one product and one add each. [D | rho] is rk4_increment of the
homogeneous flow [X | x]' = [0 | a] - B [X | x] from [I | 0], the one RK4
tableau, which rk4_step adds to the lower state. The n x n products are
np.einsum contractions over the whole block. The block tables, the input
tables and the upper pass's work arrays are per-run buffers
(estimators.Buffers), sized on the first, largest block and written with
out=; the later blocks reuse them, so a GE run faults in no more memory
per block as it gets longer. Samples, invariant checks and diagnostics are
read off the tables, batched per block; every state array, lower or upper, is guarded
and named by one rule (diverged), and the failure that comes first in time
is raised. Discontinuous inputs (topology switches, packet-loss masks,
measurement noise) are frozen over each step, evaluated at the step's start
for all four stages, so the per-step field stays smooth.

The consensus layer's inputs are exogenous, so they are tabulated per block
too: each agent's noise in one draw (the same numbers as one draw per
step), the regressors in one evaluation of the block's half-step grid, and
the packed surrogates in one surrogate_all call. Each estimator kind is
declared once, in ESTIMATORS, by its flow: the shapes of the coefficients
it returns are the shapes of the kind's state arrays. The outputs
are plain values: compute_metrics gives the metrics.json dict, and
TraceSet.to_csv names every column by one rule.
"""

from __future__ import annotations

import json
from collections import defaultdict
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


def rk4_increment(field, state: np.ndarray, t: float, h: float, acc, stage) -> np.ndarray:
    """RK4's increment h/6 (k1 + 2 k2 + 2 k3 + k4) of ds/dt = field(t, s)
    from `state`, summed in that order into `acc` and returned.

    Each stage state is formed in `stage` from the doubled slope 2k the sum
    takes: (h/4)(2k) and (h/2)(2k) round as (h/2)k and hk do, so the
    increment is the textbook one bit for bit. acc and stage are written
    before they are read; state and the field's arrays are read, never
    written, and the field may return its argument or a view of a table.
    """
    k = field(t, state)
    np.copyto(acc, k)
    np.multiply(k, 0.5 * h, out=stage)
    stage += state
    for t_c, f in ((t + 0.5 * h, 0.25 * h), (t + 0.5 * h, 0.5 * h)):
        np.multiply(field(t_c, stage), 2.0, out=stage)
        acc += stage
        stage *= f
        stage += state
    acc += field(t + h, stage)
    acc *= h / 6.0
    return acc


def rk4_step(field, state: np.ndarray, t: float, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of ds/dt = field(t, s):
    state + rk4_increment, on fresh arrays."""
    if h <= 0:
        raise ValueError("step size must be positive")
    acc = rk4_increment(field, state, t, h, np.empty(state.shape), np.empty(state.shape))
    acc += state
    return acc


# The half-step input stage each of RK4's four evaluations of a step reads:
# t, t + h/2 (twice) and t + h.
STAGE_INPUT = (0, 1, 1, 2)


def affine_rk4(h: float, a: np.ndarray, B: np.ndarray | None, buffers: est.Buffers):
    """RK4's one-step map x+ = x + (D x + rho) of the affine flow x' = a - B x.

    a holds the flow's coefficient at each of RK4's four evaluations of K
    steps, shape (K, 4, ..., n); B is None for B = 0, of a's shape for a
    diagonal B, or (K, 4, ..., n, n). [D | rho] is rk4_increment of the
    homogeneous flow [X | x]' = [0 | a] - B [X | x] from [I | 0], whose
    field reads the four evaluations' (a, B) in call order: for a full B
    the state is (K, ..., n, n + 1); for a diagonal one (K, ..., n, 2), from
    [1 | 0]; for B = 0 it is rho alone, from 0. D is None, diagonal or full
    as B is. Every array is written with out= into `buffers` (an
    estimators.Buffers).
    """
    full = B is not None and B.ndim > a.ndim
    vec = (len(a), *a.shape[2:])
    n = vec[-1]
    if B is None:
        hom, origin, lead = vec, 0.0, 0
    elif full:  # entry axes first, for the contraction
        hom, origin, lead = (*vec, n + 1), np.eye(n, n + 1), 2
    else:  # each column one block, so the scan reads D and rho in row order
        hom, origin, lead = (*vec, 2), (1.0, 0.0), 1
    k, acc, stage, start = (buffers(key, hom, lead) for key in ("k", "acc", "stage", "start"))
    start[:] = origin
    columns = iter(range(4))

    def field(t, Y):
        c = next(columns)
        if B is None:
            return a[:, c]
        if c == 0:  # at the start [I | 0] (diagonal: [1 | 0]) the slope is [-B | a]
            np.negative(B[:, 0], out=k[..., :n] if full else k[..., 0])
            k[..., -1] = a[:, 0]
            return k
        if full:
            np.einsum("...ij,...jk->...ik", B[:, c], Y, out=k)
        else:
            np.multiply(B[:, c, ..., None], Y, out=k)
        np.negative(k, out=k)
        k[..., -1] += a[:, c]
        return k

    rk4_increment(field, start, 0.0, h, acc, stage)
    if not full:
        return (None, acc) if B is None else (acc[..., 0], acc[..., 1])
    D, rho = buffers("D", (*vec, n)), buffers("rho", vec)
    D[:], rho[:] = acc[..., :n], acc[..., n]
    return D, rho


def _affine_scan(x: np.ndarray, D: np.ndarray | None, rho: np.ndarray):
    """x[j + 1] = x[j] + (D[j] x[j] + rho[j]) for every step j of rho, in place:
    x[0] is the start, and D is affine_rk4's (None, diagonal or full)."""
    if D is None:
        np.add.accumulate(np.concatenate([x[:1], rho]), axis=0, out=x)
        return
    for j in range(len(rho)):
        Dx = np.einsum("...ij,...j->...i", D[j], x[j]) if D.ndim > rho.ndim else D[j] * x[j]
        np.add(x[j], Dx + rho[j], out=x[j + 1])


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
    """One estimator kind, declared once, by its flow.

    flow(cfg, tab, buffers) reads the block tables tab (packed outputs "Z",
    packed inputs "P", filter rows "z"; see run_scenario's upper_pass) and
    writes its arrays into the kind's estimators.Buffers; it returns a
    dict of the kind's affine flows x' = a - B x of the upper layer, each
    as its coefficients (a, B) at every (K, 4, ...) stage row, B as
    affine_rk4 takes it; and the kind's other sample fields at every stage
    row. Each flow's state is one array "<kind>.<name>" of a's shape past
    the stage axes. A flow with B = None (B = 0, a running integral that
    grows without bound) is exempt from the divergence guard. per_agent=False
    marks a kind whose arrays have no agent axis. filtered=True marks a kind
    that reads the DREM filter bank, which the lower layer then steps with
    the consensus rows. The estimators module is looked up at call time.
    """

    flow: Callable
    per_agent: bool = True
    filtered: bool = False


def _centralized_flows(cfg, tab, buffers) -> tuple[dict, dict]:
    """The centralized kind's flow of theta, on the network sums of the
    block's packed inputs at RK4's four evaluations of each step."""
    P = tab["P"]
    sums = np.sum(P, axis=2, out=buffers("sums", (len(P), 3, P.shape[-1])))[:, STAGE_INPUT]
    return {"theta": est.centralized_ge_flow(*cns.split(sums), cfg.gamma_centralized)}, {}


def _decoupled_flows(cfg, phi, Y) -> tuple[dict, dict]:
    """A DREM kind's flows, of theta and of its running integral of phi^2
    (B = 0), and its sample field phi."""
    return {"theta": est.drem_flow(phi, Y, cfg.gamma_drem), "phi_int": (phi**2, None)}, {"phi": phi}


ESTIMATORS = {
    "ge": Estimator(
        flow=lambda cfg, tab, buffers: (
            {"theta": est.ge_flow(tab["Z"], cfg.gamma_ge, buffers=buffers)}, {}
        ),
    ),
    "drem": Estimator(
        flow=lambda cfg, tab, buffers: _decoupled_flows(cfg, *est.drem_scalarize(
            est.drem_extend(tab["Z"], tab["z"], buffers=buffers), buffers=buffers
        )),
        filtered=True,
    ),
    "drem_simple": Estimator(
        flow=lambda cfg, tab, buffers: _decoupled_flows(
            cfg, *est.drem_simple_scalarize(tab["Z"], buffers=buffers)
        ),
    ),
    "centralized": Estimator(flow=_centralized_flows, per_agent=False),
}

# The trace field of a flow's samples, where it is not the flow's name.
_SAMPLED_AS = {"theta": "theta_hat", "phi_int": "phi_sq_int"}


def _failure_key(step: int, order: int, value: float = 0.0) -> tuple:
    """When a failure is raised: by the step it follows, a divergence (order
    0) before an invariant failure (1) found at the same step, and the
    larger |value| (NaN the largest) of two divergences."""
    return step, order, -np.inf if np.isnan(value) else -abs(value)


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
    failures at decimated samples, whichever comes first in time.
    """
    n, N = cfg.n, cfg.n_agents
    width = n * n + n
    gen = cfg.generator
    theta = cfg.theta
    h, dec = cfg.h, cfg.decimation
    k = resolve_gain(cfg)
    lam_max = cfg.schedule.lambda_max_family
    if k * lam_max * h > RK4_STABILITY_LIMIT:
        raise ConfigError(
            f"consensus gain k={k:.6g} is too stiff for RK4 at h={h:g}: "
            f"k*lambda_max*h = {k * lam_max * h:.4g} with lambda_max={lam_max:.6g} "
            f"exceeds the stability limit {RK4_STABILITY_LIMIT:.4f}; lower k or h"
        )
    kinds = {kind: ESTIMATORS[kind] for kind in cfg.estimators}
    r = cfg.drem_filters.r if any(spec.filtered for spec in kinds.values()) else 0

    n_steps = int(round(cfg.t_end / h))
    n_samples = n_steps // dec + 1
    ts = np.empty(n_samples)
    sigmas = np.empty(n_samples, dtype=int)
    links = np.zeros(n_samples, dtype=int)
    cons_err = np.empty((n_samples, N))
    yhat_err = np.empty((n_samples, N))
    resid_norm = np.empty((n_samples, N))
    records: dict[str, dict[str, np.ndarray]] = {kind: {} for kind in kinds}

    # Block tables. Row j is the block's step step0 + j and column ev RK4's
    # evaluation ev of it: the lower state S and the outputs Z at every
    # evaluation, and each upper array's state at every step (row 0 the
    # block's first), allocated by the first upper pass. Every other
    # block-sized array is a per-run buffer too, written with out=: the
    # input tables', each kind's flow's (work[kind]) and each flow's RK4
    # map's (work["<kind>.<name>"]).
    block = INPUT_BLOCK
    state = np.zeros((N, 1 + r, width))
    lower_tab = np.empty((block, 4, *state.shape))
    z_tab = np.empty((block, 4, N, width))
    upper = {}
    tables = est.Buffers()
    work = defaultdict(est.Buffers)

    p_max = max(gen.rows_per_agent)
    noise_rngs = (
        [noise_stream(cfg.seed, i) for i in range(N)] if cfg.noise_sd > 0 else None
    )
    loss_rng = loss_stream(cfg.seed) if cfg.p_loss > 0 else None

    half_h = 0.5 * h

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
        last grid time, a view of its buffer that the next call reads first.
        """
        m_end = min(2 * (step + K), 2 * n_steps)
        carried = c_prev is not None
        times = np.arange(2 * step + carried, m_end + 1) * half_h
        c_grid = tables("c_grid", (carried + len(times), N, p_max, n))
        if carried:
            c_grid[0] = c_prev  # the previous block's last row of this buffer
        c_grid[carried:] = gen.evaluate_all(times)
        stages = np.minimum(2 * np.arange(K)[:, None] + np.arange(3), len(c_grid) - 1)
        # The stages are in range; numpy buffers `out` only in mode "raise".
        c = np.take(c_grid, stages, axis=0, out=tables("c", (K, 3, N, p_max, n)), mode="clip")
        y = np.einsum("...api,i->...ap", c, theta, out=tables("y", (K, 3, N, p_max)))
        if noise_rngs is not None:
            # K steps of p_i draws per agent in one call, the same numbers as
            # K calls of p_i; the padding rows are never written, so stay 0.
            draws = [
                rng.standard_normal(K * p).reshape(K, p)
                for rng, p in zip(noise_rngs, gen.rows_per_agent)
            ]
            noise = tables("noise", (K, N * p_max))
            noise[:, gen.real_rows] = cfg.noise_sd * np.concatenate(draws, axis=1)
            y += noise.reshape(K, 1, N, p_max)
        P = tables("P", (K, 3, N, width))
        surrogate_all(c, y, out=cns.split(P))
        return P, c_grid[-1]

    max_conservation = max_asymmetry = 0.0

    def check_invariants(steps, X, x):
        """The state-sum and symmetry checks of the samples at `steps`, from
        their consensus states X and x: updates the maxima, and returns the
        first failure as (key, InvariantViolation), or None."""
        nonlocal max_conservation, max_asymmetry
        sum_X, sum_x = np.abs(X.sum(axis=1)), np.abs(x.sum(axis=1))
        x_sum, xs_sum = sum_X.max(axis=(1, 2)), sum_x.max(axis=1)
        agent_asym = np.max(np.abs(X - X.swapaxes(-1, -2)), axis=(2, 3))
        asym = agent_asym.max(axis=1)
        drifted = (x_sum > CONSERVATION_TOL) | (xs_sum > CONSERVATION_TOL)
        bad = np.flatnonzero(drifted | (asym > SYMMETRY_TOL))
        if not bad.size:
            max_conservation = max(max_conservation, x_sum.max(), xs_sum.max())
            max_asymmetry = max(max_asymmetry, asym.max())
            return None
        f = bad[0]
        step = int(steps[f])
        t = step * h
        if drifted[f]:
            block, sums = ("X", sum_X[f]) if x_sum[f] >= xs_sum[f] else ("x", sum_x[f])
            entry = np.unravel_index(np.argmax(sums), sums.shape)
            error = InvariantViolation(
                f"consensus-state sums drifted at t={t:g}: "
                f"max|sum X|={x_sum[f]:.3e}, max|sum x|={xs_sum[f]:.3e}",
                block, None, tuple(int(j) for j in entry), t, float(max(x_sum[f], xs_sum[f])),
            )
        else:
            agent = int(np.argmax(agent_asym[f]))
            skew = np.abs(X[f, agent] - X[f, agent].T)
            entry = tuple(int(j) for j in np.unravel_index(np.argmax(skew), skew.shape))
            error = InvariantViolation(
                f"integrator state lost symmetry at t={t:g}: {asym[f]:.3e} "
                f"in {_entry_name('X', agent, entry)} at agent {agent}",
                "X", agent, entry, t, float(asym[f]),
            )
        return _failure_key(step, 1), error

    def diverged(block: str, x: np.ndarray, per_agent: bool, step0: int):
        """The divergence of array `block`, whose states after steps step0,
        step0 + 1, ... are x[0], x[1], ...: at the first step with an entry
        past the limit, its largest |entry| (NaN the largest), named by its
        index in the array, as (key, SimulationDiverged); None if none is."""
        peak = np.abs(x).max(axis=tuple(range(1, x.ndim)), initial=0.0)
        over = np.flatnonzero(~(peak <= DIVERGENCE_LIMIT))  # NaN is over
        if not over.size:
            return None
        j = int(over[0])
        index = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(x[j])), x.shape[1:]))
        agent, entry = (index[0], index[1:]) if per_agent else (None, index)
        step, value = step0 + j, float(x[j][index])
        t = step * h + h
        return _failure_key(step + 1, 0, value), SimulationDiverged(
            f"state component '{_entry_name(block, agent, entry)}' diverged "
            f"at t={t:g} (value {value:.3e})",
            block, agent, entry, t, value,
        )

    def field(t: float, S: np.ndarray) -> np.ndarray:
        """The lower layer's derivative: dac_derivative in each agent's row 0
        and drem_filter_derivative in its filter rows. Evaluation ev of a
        step writes its state and outputs to table row (step - step0, ev).
        ev, step, step0, P and lap are the current evaluation's, step's and
        block's."""
        nonlocal ev
        j, e = step - step0, ev
        ev += 1
        lower_tab[j, e] = S
        Z = np.subtract(P[j, STAGE_INPUT[e]], S[:, 0], out=z_tab[j, e])
        dS = cns.dac_derivative(Z, lap, k, cfg.epsilon)[:, None]
        if r:
            dS = np.concatenate(
                [dS, est.drem_filter_derivative(cfg.drem_filters, S[:, 1:], Z)], axis=1
            )
        return dS

    def upper_pass(step0: int, n_int: int, n_rows: int):
        """Every kind's coefficients over the block's n_rows table rows in one
        flow call, and each flow's array advanced over its n_int steps by its
        RK4 maps. The flows read the tables tab: "Z", the (K, 4, N, n^2 + n)
        packed outputs; "P", the (K, 3, N, n^2 + n) packed inputs at each
        step's half-step stages (STAGE_INPUT maps evaluations to them); and
        "z", the filter rows (K, 4, N, r, n^2 + n).
        Returns each kind's sample fields and the divergence of every guarded
        array as (key, SimulationDiverged)."""
        if not n_rows:
            return {}, []
        tab = {"Z": z_tab[:n_rows], "P": P[:n_rows], "z": lower_tab[:n_rows, :, :, 1:]}
        sample_fields, failures = {}, []
        for kind, spec in kinds.items():
            coeffs, sample_fields[kind] = spec.flow(cfg, tab, work[kind])
            for name, (a, B) in coeffs.items():
                key = f"{kind}.{name}"
                if key not in upper:
                    upper[key] = np.zeros((block + 1, *a.shape[2:]))
                D, rho = affine_rk4(h, a[:n_int], None if B is None else B[:n_int], work[key])
                # A flow that diverges overflows in the block's later steps;
                # diverged names its first step.
                with np.errstate(over="ignore", invalid="ignore"):
                    _affine_scan(upper[key][:n_int + 1], D, rho)
                if B is not None:
                    failures.append(diverged(key, upper[key][1:n_int + 1], spec.per_agent, step0))
        return sample_fields, [f for f in failures if f]

    def write_samples(rows, slots, sample_fields):
        """Samples `slots` from the block's table rows `rows`."""
        Z = z_tab[rows, 0]
        cbar, ybar = cns.average_reference(*cns.split(P[rows, 0]))
        cons_err[slots], yhat_err[slots] = cns.consensus_error(Z, cbar, ybar)
        resid_norm[slots] = np.linalg.norm(cns.residual(Z, theta), axis=-1)
        samples = [(*block.split("."), x[rows]) for block, x in upper.items()] + [
            (kind, name, v[rows, 0]) for kind, fields in sample_fields.items()
            for name, v in fields.items()
        ]
        for kind, name, value in samples:
            rec, name = records[kind], _SAMPLED_AS.get(name, name)
            if name not in rec:
                rec[name] = np.empty((n_samples, *value.shape[1:]))
            rec[name][slots] = value

    # Each graph's edges (i < j, row-major), for drawing its loss mask.
    graph_edges = [np.nonzero(np.triu(topo.adjacency)) for topo in cfg.schedule.topologies]
    mask = None
    links_up = 0
    next_loss_t = 0.0
    prev_topo_idx = -1
    c_last = None

    for step0 in range(0, n_steps + 1, block):
        K = min(block, n_steps + 1 - step0)
        P, c_last = input_tables(step0, K, c_last)
        n_int = n_rows = 0  # the block's steps integrated, and table rows written
        lower_failure = None

        # Lower pass: one RK4 step of the lower layer per step, up to its
        # first divergence.
        for step in range(step0, step0 + K):
            t = step * h
            topo_idx = active_topology(cfg.schedule, min(t, cfg.t_end))
            switched = topo_idx != prev_topo_idx  # always at step 0
            prev_topo_idx = topo_idx
            # A switch forces a redraw of the loss mask.
            redraw = loss_rng is not None and (switched or t >= next_loss_t - 0.5 * h)
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
            if step % dec == 0:
                ts[step // dec], sigmas[step // dec], links[step // dec] = t, topo_idx, links_up

            ev = 0
            if step < n_steps:
                state = rk4_step(field, state, t, h)
                n_int = n_rows = n_int + 1
                if not np.abs(state).max() <= DIVERGENCE_LIMIT:  # NaN is over
                    # The lower state's named split views; an earlier view
                    # wins an exact tie.
                    views = (*cns.split(state[:, 0]), *cns.split(state[:, 1:]))
                    found = [diverged(name, v[None], True, step)
                             for name, v in zip(("X", "x", "drem.zC", "drem.zy"), views)]
                    lower_failure = min((f for f in found if f), key=lambda f: f[0])
                    break
            elif step % dec == 0:  # the last sample has no step after it
                field(t, state)
                j = step - step0  # its other evaluations repeat the first
                lower_tab[j, 1:], z_tab[j, 1:] = lower_tab[j, 0], z_tab[j, 0]
                n_rows += 1

        # The block's samples, checked on their lower states; then the upper
        # pass. The failure that comes first in time is raised.
        rows = np.arange(-step0 % dec, n_rows, dec)
        invariant_failure = rows.size and check_invariants(
            step0 + rows, *cns.split(lower_tab[rows, 0, :, 0])
        )
        sample_fields, upper_failures = upper_pass(step0, n_int, n_rows)
        failures = [f for f in (lower_failure, invariant_failure) if f] + upper_failures
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        if rows.size:
            write_samples(rows, (step0 + rows) // dec, sample_fields)
        for x in upper.values():
            x[0] = x[n_int]

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
