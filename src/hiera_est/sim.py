"""Fixed-step RK4 integration of the two-layer system, as a cascade.

The lower layer (the consensus integrators and the DREM filter bank) never
reads an estimate, and every estimator of the upper layer is an affine flow
x' = a(t) - B(t) x driven by the lower layer's outputs. RK4 of the cascade
is RK4 of the lower layer, followed by RK4 of the upper layer at the lower
layer's stage values, so the runner makes two passes over each block of
INPUT_BLOCK steps. The runner integrates a batch of members at once
(run_members; run_scenario is its one-member case): members that differ
only in eps > 0 share the network, the inputs and the gain. The lower
state carries a member axis E ahead of its agent axis, and the upper pass
reads each member's N agents in turn on one axis of E N agents. The
lower state is one array S of shape (E, N, 1 + r, n^2 + n): row 0 is each
agent's consensus row [vec(X_i) | x_i], rows 1..r its DREM filter rows
[vec(zC) | zy] (r = 0 when no kind reads them). The lower field is
consensus.dac_derivative in row 0, quantized at each member's own step,
and estimators.drem_filter_derivative in the filter rows; both read the
agent axis from the end. At eps > 0 (a quantized field) the lower pass
steps S with rk4_step, once per step for every member. At eps = 0 (one
member) the field is linear, S' = A S + B P(t), with A and B fixed between
the run's network events (network_events: graph switches and loss
redraws), so RK4's step and each of its stage states are fixed matrices
applied to [S_j; P_j] (linear_rk4); the pass forms them once per event,
through the field, and steps each segment of a block with one product for
the input terms, a scan S_j+1 = S_j + (D S_j + E P_j) and one product for
the stage states. Either pass writes S and the packed outputs
Z = P - S[..., 0, :] of each of RK4's four evaluations into (K, 4, E, ...)
block tables, which every layer reads as plain packed arrays.
The upper state is one array per flow, "<kind>.<name>", holding its state
at each step of the block. The upper pass calls each kind's flow once over
all the block's stage rows to get its coefficients (a, B), turns them into
RK4's one-step maps x+ = x + (D x + rho) (affine_rk4), and scans the steps
with one product and one add each. [D | rho] is rk4_increment of the
homogeneous flow [X | x]' = [0 | a] - B [X | x] from [I | 0], the one RK4
tableau, which also gives the lower layer's steps and maps. The n x n products are
np.einsum contractions over the whole block. The block tables, the input
tables and the upper pass's work arrays are per-run buffers
(estimators.Buffers), sized on the first, largest block and written with
out=; the later blocks reuse them, so a GE run faults in no more memory
per block as it gets longer. Samples, invariant checks and diagnostics are
read off the tables, batched per block: one rule (_first_excess) finds and
names the failing entry of each check (divergence, drift of the consensus
sums, loss of symmetry) in any member, and the failure that comes first in
time is raised. Discontinuous inputs (topology switches, packet-loss masks,
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
    entry (the index inside the agent's part of the block), time t, the
    offending value and member, the failing member's index in its batch
    (see run_members; 0 for a run_scenario run)."""

    def __init__(self, message: str, block: str, agent: int | None,
                 entry: tuple[int, ...], t: float, value: float, member: int = 0):
        super().__init__(message)
        self.block, self.agent, self.entry, self.t, self.value = block, agent, entry, t, value
        self.member = member

    def __reduce__(self):  # sweep workers send these back through pickle
        return type(self), (str(self), self.block, self.agent, self.entry, self.t, self.value,
                            self.member)


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


def linear_rk4(derivative, N: int, rows: int, h: float, buffers: est.Buffers):
    """RK4's one-step map and stage maps of a linear field S' = f(S, P).

    The state S is (N, rows, w), agent-major, and P_c (N, w) the step's input
    at half-step stage c, read by evaluation e at c = STAGE_INPUT[e]; the
    field is derivative(S, P_c - S[:, 0]), linear in S and P_c together,
    with one map for every one of the w columns. Over the flat (agent, row)
    axis of size M = N rows, the step from S_j with inputs P_j is
    S_j + [D | E] U_j and its evaluation e reads the stage state T_e U_j,
    U_j = [S_j; P_j0; P_jm; P_j1] of size C = M + 3N: [D | E] is
    rk4_increment of the homogeneous form from [I | 0], whose width axis
    carries the C basis columns, and T_e is the state evaluation e is
    given (T_0 = [I | 0]). Returns [D | E], (M, C), and T_1..T_3 stacked,
    (3M, C), written into `buffers` (an estimators.Buffers).
    """
    M = N * rows
    C = M + 3 * N
    start, acc, stage = (buffers(key, (N, rows, C)) for key in ("start", "acc", "stage"))
    np.copyto(start.reshape(M, C), np.eye(M, C))
    inputs = np.eye(3 * N, C, M).reshape(3, N, C)  # P_c's basis columns
    stages = buffers("stages", (3, M, C))
    evals = iter(range(4))

    def field(t, Y):
        e = next(evals)
        if e:
            stages[e - 1] = Y.reshape(M, C)
        return derivative(Y, inputs[STAGE_INPUT[e]] - Y[:, 0])

    rk4_increment(field, start, 0.0, h, acc, stage)
    return acc.reshape(M, C), stages.reshape(3 * M, C)


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
    marks a kind whose arrays have no agent axis: it reads only the inputs
    "P", which the members of a batch share, so its arrays have no member
    axis either and serve every member. filtered=True marks a kind
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


def _failure_key(step: int, order: int) -> tuple:
    """When a failure is raised: by the step of the state it reads, and at
    step s a divergence (order 0, after step s - 1) before a drift of the
    consensus sums (1) before a loss of symmetry (2) at the sample."""
    return step, order


def _first_excess(arrays, limit: float, steps, order: int):
    """The first state entry past `limit` in a list of named arrays.

    arrays holds (name, x, per_agent), x[j] read at step steps[j], with a
    member axis first, (members, ...), of one length for every array. At
    the first step at which any |entry| passes the limit, its largest
    |entry| (NaN passes every limit and is the largest; the earlier array,
    then the earlier member, wins an exact tie) as
    (_failure_key(step, order), name, member, agent, entry, value): agent
    None without an agent axis, entry the index past it, value the signed
    entry; None if no entry passes. Also returns each member's largest
    |entry| over all steps (0.0 if none), shape (members,).
    """
    peaks = np.array([np.abs(x).max(axis=tuple(range(2, x.ndim)), initial=0.0)
                      for _, x, _ in arrays])  # (array, step, member)
    largest = peaks.max(axis=(0, 1), initial=0.0)
    over = np.flatnonzero(~(peaks <= limit).all(axis=(0, 2)))
    if not over.size:
        return None, largest
    j = int(over[0])
    # argmax: NaN, else the first
    a, member = (int(i) for i in np.unravel_index(np.argmax(peaks[:, j]), peaks[:, j].shape))
    name, x, per_agent = arrays[a]
    at = x[j, member]
    index = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(at)), at.shape))
    agent, entry = (index[0], index[1:]) if per_agent else (None, index)
    return (_failure_key(int(steps[j]), order), name, member, agent, entry,
            float(at[index])), largest


# Each check's error and message, by its order in _failure_key.
_FAILURES = (
    (SimulationDiverged, "state component '{where}' diverged at t={t:g} (value {value:.3e})"),
    (InvariantViolation, "consensus-state sums drifted at t={t:g}: {value:.3e} in {where}"),
    (InvariantViolation,
     "integrator state lost symmetry at t={t:g}: {value:.3e} in {where} at agent {agent}"),
)


def network_events(cfg: ScenarioConfig, n_steps: int):
    """The run's network events over steps 0..n_steps, in time order.

    An event is a step at which the Laplacian changes: step 0, each graph
    switch (active_topology at the step's time, clipped at t_end) and, with
    packet loss, each redraw of the loss mask. A switch forces a redraw;
    otherwise the mask is redrawn at the first step at least
    loss_resample_dt - h/2 after the last draw, with one uniform per edge of
    the graph (i < j, row-major) from the run's loss stream. Returns the
    arrays (steps, graphs, links) of each event's step, graph index and
    number of links up, and its Laplacian (consensus.effective_laplacian),
    built once per event, stacked (events, N, N).
    """
    h, topologies = cfg.h, cfg.schedule.topologies
    t = np.arange(n_steps + 1) * h
    graph = active_topology(cfg.schedule, np.minimum(t, cfg.t_end))
    switches = np.flatnonzero(np.diff(graph, prepend=-1))
    edges = [np.nonzero(np.triu(topo.adjacency)) for topo in topologies]
    if cfg.p_loss == 0:
        steps, masks = switches, [None] * len(switches)
        links = [len(edges[g][0]) for g in graph[switches]]
    else:
        loss_rng = loss_stream(cfg.seed)
        steps, masks, links = [], [], []
        step = 0
        while step <= n_steps:
            iu, ju = edges[graph[step]]
            down = loss_rng.random(len(iu)) < cfg.p_loss
            mask = np.ones((cfg.n_agents,) * 2, dtype=bool)
            mask[iu[down], ju[down]] = mask[ju[down], iu[down]] = False
            steps.append(step)
            masks.append(mask)
            links.append(len(iu) - int(down.sum()))
            next_switch = switches[np.searchsorted(switches, step, side="right"):][:1]
            next_draw = np.searchsorted(t, t[step] + cfg.loss_resample_dt - 0.5 * h)
            step = min(max(next_draw, step + 1), *next_switch, n_steps + 1)
    steps = np.asarray(steps, dtype=int)
    laps = np.array([cns.effective_laplacian(topologies[g], mask)
                     for g, mask in zip(graph[steps], masks)])
    return steps, graph[steps], np.asarray(links, dtype=int), laps


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


def analysis_key(cfg: ScenarioConfig) -> str:
    """What analysis_report reads of cfg, as one string: configs with equal
    keys have equal reports."""
    family = (cfg.schedule.lambda_g_min, cfg.schedule.lambda_max_family)
    return repr([cfg.generator.to_jsonable(), family, vars(cfg.analysis)])


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
    failures at decimated samples, whichever comes first in time. It is
    run_members of one member.
    """
    return run_members([cfg])[0]


def _shared(cfg: ScenarioConfig) -> tuple:
    """What the members of a batch share: every document key but epsilon, and k."""
    return {key: value for key, value in cfg.raw.items() if key != "epsilon"}, cfg.k


def batches(cfgs: list[ScenarioConfig]) -> list[list[int]]:
    """The indices of cfgs by batch, as run_members takes them, in order of
    first member: the members at epsilon > 0 that share every document key
    but epsilon (and k) form one; every other member runs alone."""
    out: list[list[int]] = []
    for i, cfg in enumerate(cfgs):
        batch = next((b for b in out if cfg.epsilon > 0 and cfgs[b[0]].epsilon > 0
                      and _shared(cfgs[b[0]]) == _shared(cfg)), None)
        if batch is None:
            out.append([i])
        else:
            batch.append(i)
    return out


def run_members(cfgs: list[ScenarioConfig]) -> list[TraceSet]:
    """Integrate the members of a batch at once: one trace per member.

    A batch is one member at any epsilon, or members that all have epsilon
    > 0 and agree on every document key but epsilon (and on k); anything
    else is a ValueError. The members share the network events, the input
    tables, the gain and its stability check, and run as one integration
    along a member axis E: the lower state is (E, N, 1 + r, n^2 + n),
    quantized at each member's own step, and each per-agent upper array
    (..., E N, ...), each member's N agents in turn on one axis; an
    agent-less kind (the centralized one) reads only the shared inputs, so
    its one array is every member's. Each member's trace is its
    run_scenario trace, bit for bit. The checks read every member, and the
    failure that comes first in time in any member is raised, as
    run_scenario raises it, with its member (the error's `member`, named by
    its epsilon when E > 1).
    """
    if not cfgs:
        raise ValueError("run_members needs at least one member")
    cfg, E = cfgs[0], len(cfgs)
    epsilons = np.array([c.epsilon for c in cfgs])
    if E > 1 and not epsilons.all():
        raise ValueError(f"a batch of {E} members needs epsilon > 0 in each, got "
                         f"{epsilons.tolist()}; a member at epsilon = 0 runs alone")
    if any(_shared(c) != _shared(cfg) for c in cfgs[1:]):
        raise ValueError("the members of a batch must agree on every document key but epsilon")
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
    # The network: the Laplacian in force at each step (event_at), and the
    # sampled graph and links up.
    ev_steps, ev_graphs, ev_links, laps = network_events(cfg, n_steps)
    event_at = np.searchsorted(ev_steps, np.arange(n_steps + 1), side="right") - 1
    ts = np.arange(n_samples) * dec * h
    sigmas, links = ev_graphs[event_at[::dec]], ev_links[event_at[::dec]]
    cons_err = np.empty((n_samples, E * N))
    yhat_err = np.empty((n_samples, E * N))
    resid_norm = np.empty((n_samples, E * N))
    records: dict[str, dict[str, np.ndarray]] = {kind: {} for kind in kinds}

    # Block tables. Row j is the block's step step0 + j and column ev RK4's
    # evaluation ev of it: the lower state S and the outputs Z at every
    # evaluation, and each upper array's state at every step (row 0 the
    # block's first), allocated by the first upper pass with guarded, the
    # per_agent of each flow with a B. Every other block-sized array is a
    # per-run buffer too, written with out=: the input tables', each kind's
    # flow's (work[kind]) and each flow's RK4 map's (work["<kind>.<name>"]).
    block = INPUT_BLOCK
    state = np.zeros((E, N, 1 + r, width))
    M = N * (1 + r)  # a member's lower rows, flat (agent, row)
    lower_tab = np.empty((block + 1, 4, *state.shape))
    lower_flat = lower_tab.reshape(block + 1, 4 * E * M, width)  # evaluation-major
    z_tab = np.empty((block, 4, E, N, width))
    # The upper pass and the samples read the tables with each member's
    # agents in turn on one axis of E N agents: the flows contract only
    # entry axes, and at E = 1 the arrays keep a plain agent axis.
    z_agents = z_tab.reshape(block, 4, E * N, width)
    lower_agents = lower_tab.reshape(block + 1, 4, E * N, 1 + r, width)
    upper, guarded = {}, {}
    tables = est.Buffers()
    work = defaultdict(est.Buffers)

    p_max = max(gen.rows_per_agent)
    noise_rngs = (
        [noise_stream(cfg.seed, i) for i in range(N)] if cfg.noise_sd > 0 else None
    )

    half_h = 0.5 * h

    def input_tables(step: int, K: int):
        """The packed inputs the field reads over the K steps from `step` on.

        Step s's RK4 stages c = 0, 1 (twice), 2 visit the half-step grid
        times m = 2s + c, all holding s's noise draw; m*h/2 is the one
        spelling of each time, so t + h and (s+1)*h share it. P[j, c] is
        the packed surrogate [C^T C | C^T y] at stage c of step step + j,
        with y = C theta + eta. The regressors are evaluated once per grid
        time of the block up to t_end, in one call. The last step only reads
        its stage 0, so its other stages repeat it.
        """
        m_end = min(2 * (step + K), 2 * n_steps)
        c_grid = gen.evaluate_all(np.arange(2 * step, m_end + 1) * half_h)
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
        return P

    def derivative(S: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """The lower layer's derivative at state S (..., N, 1 + r, w) and
        outputs Z = P - S[..., 0, :]: dac_derivative in each agent's row 0,
        quantized at each member's step, and drem_filter_derivative in its
        filter rows, through the current Laplacian lap."""
        dS = cns.dac_derivative(Z, lap, k, eps_column)[..., None, :]
        if r:
            dS = np.concatenate(
                [dS, est.drem_filter_derivative(cfg.drem_filters, S[..., 1:, :], Z)], axis=-2
            )
        return dS

    def field(t: float, S: np.ndarray) -> np.ndarray:
        """The lower layer's field, for rk4_step. Evaluation ev of a step
        writes its state and outputs to table row (step - step0, ev). ev,
        step, step0 and P are the current evaluation's, step's and block's."""
        nonlocal ev
        j, e = step - step0, ev
        ev += 1
        lower_tab[j, e] = S
        # P's member axis of 1 broadcasts over E; at E = 1 a 2-D P would
        # cost numpy a slower loop than the same-rank operands.
        return derivative(S, np.subtract(P[j, STAGE_INPUT[e], None], S[..., 0, :],
                                         out=z_tab[j, e]))

    def mapped_pass(K: int) -> tuple[int, int]:
        """The lower pass at eps = 0, where the field is linear: the block's
        steps from step0 by RK4's maps (linear_rk4 of derivative), formed
        once per network event, in one pass per event's segment of the
        block: every step's input term E P_j in one product, the scan S_j+1
        = S_j + (D S_j + E P_j), and the states of evaluations 1..3, T U_j,
        in one product. Stops after the first step that diverges, as the
        stepped pass does. Writes the tables as the stepped pass does and
        returns the steps integrated and the table rows written. It steps
        one member (E = 1), whose flat rows are the tables' own."""
        nonlocal lap, formed, maps
        n = min(K, n_steps - step0)
        P_flat = P.reshape(K, 3 * N, width)
        U = tables("U", (block + 1, C, width))  # row j: [S_j; P_j]
        U[:K, M:] = P_flat
        S = U[:, :M]
        S[0] = state.reshape(M, width)
        v, dS = tables("v", (block, M, width)), tables("dS", (M, width))
        first, diverged = event_at[step0], False
        bounds = [step0, *ev_steps[first + 1:event_at[step0 + n - 1] + 1], step0 + n] if n else []
        for e, a, b in zip(range(first, len(laps)), bounds, bounds[1:]):
            a, b = a - step0, b - step0
            if formed != e:
                lap, formed = laps[e], e
                maps = linear_rk4(derivative, N, 1 + r, h, work["lower"])
            DE, T = maps
            # A state that diverges may overflow in the segment's later
            # steps; the pass keeps the steps up to its first.
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(DE[:, M:], P_flat[a:b], out=v[a:b])
                for j in range(a, b):
                    np.matmul(DE[:, :M], S[j], out=dS)
                    dS += v[j]
                    np.add(S[j], dS, out=S[j + 1])
            after = S[a + 1:b + 1]
            diverged = not (after.max() <= DIVERGENCE_LIMIT and after.min() >= -DIVERGENCE_LIMIT)
            if diverged:  # NaN is over
                over = ~(np.abs(after).max(axis=(1, 2)) <= DIVERGENCE_LIMIT)
                b = n = a + 1 + int(np.argmax(over))
            np.matmul(T, U[a:b], out=lower_flat[a:b, M:])
            if diverged:
                break
        state[...] = S[n].reshape(state.shape)
        # The last sample has no step after it.
        n_rows = n + (not diverged and n == K - 1 and n_steps % dec == 0)
        lower_flat[:n_rows, :M] = S[:n_rows]
        lower_tab[n:n_rows, 1:] = lower_tab[n:n_rows, :1]  # its evaluations repeat the first
        np.take(P[:n_rows], STAGE_INPUT, axis=1, out=z_tab[:n_rows, :, 0], mode="clip")
        z_tab[:n_rows] -= lower_tab[:n_rows, ..., 0, :]
        return n, n_rows

    def upper_pass(n_int: int, n_rows: int):
        """Every kind's coefficients over the block's n_rows table rows in one
        flow call, and each flow's array advanced over its n_int steps by its
        RK4 maps. The flows read the tables tab: "Z", the (K, 4, E N,
        n^2 + n) packed outputs; "P", the (K, 3, N, n^2 + n) packed inputs,
        every member's, at each step's half-step stages (STAGE_INPUT maps
        evaluations to them); and "z", the filter rows (K, 4, E N, r,
        n^2 + n). Returns each kind's sample fields."""
        if not n_rows:
            return {}
        tab = {"Z": z_agents[:n_rows], "P": P[:n_rows], "z": lower_agents[:n_rows, :, :, 1:]}
        sample_fields = {}
        for kind, spec in kinds.items():
            coeffs, sample_fields[kind] = spec.flow(cfg, tab, work[kind])
            for name, (a, B) in coeffs.items():
                key = f"{kind}.{name}"
                if key not in upper:
                    upper[key] = np.zeros((block + 1, *a.shape[2:]))
                    if B is not None:
                        guarded[key] = spec.per_agent
                D, rho = affine_rk4(h, a[:n_int], None if B is None else B[:n_int], work[key])
                # A flow that diverges overflows in the block's later steps;
                # the block's check names its first step.
                with np.errstate(over="ignore", invalid="ignore"):
                    _affine_scan(upper[key][:n_int + 1], D, rho)
        return sample_fields

    def write_samples(rows, slots, sample_fields):
        """Samples `slots` from the block's table rows `rows`."""
        Z = z_agents[rows, 0]
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

    eps_column = epsilons.reshape(E, 1, 1)  # each member's quantizer step
    exact = not epsilons.any()
    C = M + 3 * N  # the columns of linear_rk4's maps
    lap = maps = None
    formed = -1  # the event whose maps are formed
    max_conservation, max_asymmetry = np.zeros(E), np.zeros(E)

    for step0 in range(0, n_steps + 1, block):
        K = min(block, n_steps + 1 - step0)
        P = input_tables(step0, K)
        if exact:
            n_int, n_rows = mapped_pass(K)
        else:
            # Stepped lower pass (eps > 0, a quantized field): one RK4 step
            # per step of every member at once, up to the first divergence
            # in any member, which stops it before NaN reaches the upper pass.
            n_int = n_rows = 0  # the block's steps integrated, and table rows written
            for step in range(step0, step0 + K):
                lap = laps[event_at[step]]
                ev = 0
                if step < n_steps:
                    state = rk4_step(field, state, step * h, h)
                    n_int = n_rows = n_int + 1
                    if not np.abs(state).max() <= DIVERGENCE_LIMIT:  # NaN is over
                        break
                elif step % dec == 0:  # the last sample has no step after it
                    field(step * h, state)
                    j = step - step0  # its other evaluations repeat the first
                    lower_tab[j, 1:], z_tab[j, 1:] = lower_tab[j, 0], z_tab[j, 0]
                    n_rows += 1

        lower_tab[n_int, 0] = state  # rows 1..n_int: the lower state after each step
        rows = np.arange(-step0 % dec, n_rows, dec)
        sample_fields = upper_pass(n_int, n_rows)

        # The block's checks, one rule each, over every member: every lower
        # and guarded upper array after each step, the sums and the
        # symmetry of X at the samples. The failure that comes first in
        # time is raised.
        after = lower_tab[1:n_int + 1, 0]
        views = (*cns.split(after[..., 0, :]), *cns.split(after[..., 1:, :]))
        X, x = cns.split(lower_tab[rows, 0, ..., 0, :])
        upper_after = []
        for key, per_agent in guarded.items():
            u = upper[key][1:n_int + 1]
            if per_agent:
                u = u.reshape(n_int, E, N, *u.shape[2:])
            else:  # an agent-less kind's array is every member's
                u = np.broadcast_to(u[:, None], (n_int, E, *u.shape[1:]))
            upper_after.append((key, u, per_agent))
        checks = [
            ([(name, v, True) for name, v in zip(("X", "x", "drem.zC", "drem.zy"), views)]
             + upper_after, DIVERGENCE_LIMIT, step0 + 1 + np.arange(n_int)),
            ([("X", np.abs(X.sum(axis=-3)), False), ("x", np.abs(x.sum(axis=-2)), False)],
             CONSERVATION_TOL, step0 + rows),
            ([("X", np.abs(X - X.swapaxes(-1, -2)), True)], SYMMETRY_TOL, step0 + rows),
        ]
        found = [_first_excess(*check, order) for order, check in enumerate(checks)]
        np.maximum(max_conservation, found[1][1], out=max_conservation)
        np.maximum(max_asymmetry, found[2][1], out=max_asymmetry)
        failures = [failure for failure, _ in found if failure]
        if failures:
            (step, order), name, member, agent, entry, value = min(failures, key=lambda f: f[0])
            error, text = _FAILURES[order]
            where, t = _entry_name(name, agent, entry), step * h
            message = text.format(where=where, t=t, value=value, agent=agent)
            if E > 1:
                message += f" (member epsilon={epsilons[member]:g})"
            raise error(message, name, agent, entry, t, value, member)
        if rows.size:
            write_samples(rows, (step0 + rows) // dec, sample_fields)
        for x in upper.values():
            x[0] = x[n_int]

    def member_trace(e: int) -> TraceSet:
        """Member e's trace: its agents' slice of every per-agent array."""
        agents = slice(e * N, (e + 1) * N)
        est_traces = {}
        for kind, rec in records.items():
            rec = {name: a[:, agents] if kinds[kind].per_agent else a for name, a in rec.items()}
            est_traces[kind] = EstimatorTrace(
                err_norm=np.linalg.norm(rec["theta_hat"] - theta, axis=-1), **rec
            )
        return TraceSet(
            t=ts,
            sigma=sigmas,
            links=links,
            cons_err=cons_err[:, agents],
            yhat_err=yhat_err[:, agents],
            resid_norm=resid_norm[:, agents],
            estimators=est_traces,
            theta=theta.copy(),
            k=k,
            t_end=cfg.t_end,
            transient_fraction=cfg.transient_fraction,
            max_conservation_err=float(max_conservation[e]),
            max_asymmetry=float(max_asymmetry[e]),
        )

    return [member_trace(e) for e in range(E)]


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
    for name, doc in (("metrics", metrics), ("constants", constants), ("config-echo", cfg.echo())):
        if doc is not None:
            (outdir / f"{name}.json").write_text(json.dumps(doc, indent=2, allow_nan=False))
