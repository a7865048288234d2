"""The benchmark's workloads, their generated inputs and their output checks.

Each workload calls hiera_est through its public API only. Why each one
exists, and which layer it loads, is written down in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hiera_est
from hiera_est import cli

SCENARIO = "scenarios/nominal_switched.json"
REFERENCE = Path(__file__).with_name("reference.json")

# Shortened horizons: long enough that every layer runs, short enough for
# several timed iterations in one run.
NOMINAL_T_END = 1.0
DEGRADED_T_END = 1.0
SWEEP_T_END = 0.5
SWEEP_AXIS = "epsilon"
SWEEP_VALUES = "0,0.012,0.024,0.036"
SWEEP_JOBS = 2

# degraded_n60_ge. N_EDGES is capped at 63 only because run_scenario overflows
# its int64 link bitmask at 64 edges (see probe_edges64).
N_AGENTS = 60
N_GRAPHS = 2
N_EDGES = 63
DWELL_MIN = 0.25
REFERENCE_SEED = 0

# Outputs agree with the stored reference when |a - r| <= RTOL * |r| + atol,
# atol = RTOL * max|r| over the compared array. Residuals of exact runs are
# rounding noise (~1e-12 against outputs ~1e3), so they get RESID_ATOL.
RTOL = 1e-9
RESID_ATOL = 1e-6
N_CHECKPOINTS = 21


@dataclass
class Sample:
    """One timed iteration."""

    wall_s: float
    work_s: float  # the part that integrates: run_scenario, or the sweep
    steps: int  # RK4 steps integrated in work_s
    members: int  # scenario members completed in work_s
    members_s: float  # time those members took
    analyze_s: float = 0.0
    mismatches: list[str] = field(default_factory=list)


@dataclass
class State:
    """What set-up hands to the iterations."""

    cfg: object = None
    doc: dict | None = None
    expected: dict | None = None  # None: first iteration becomes the expectation
    reference_check: dict | None = None  # extra untimed run against the store


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _leaves(obj, prefix=""):
    """Flatten nested dicts/lists into {path: number}."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{prefix}[{i}]")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield prefix, float(obj)


def compare(actual: dict, expected: dict) -> list[str]:
    """Mismatches between two nested records of arrays, at RTOL."""
    bad = []
    for key, ref in expected.items():
        if key not in actual:
            bad.append(f"{key}: missing")
            continue
        if isinstance(ref, (str, bool)) or ref is None:
            if actual[key] != ref:
                bad.append(f"{key}: {actual[key]!r} != {ref!r}")
            continue
        if isinstance(ref, dict):
            bad += [f"{key}.{m}" for m in compare(actual[key], ref)]
            continue
        r = np.asarray(ref, dtype=float)
        a = np.asarray(actual[key], dtype=float)
        if a.shape != r.shape:
            bad.append(f"{key}: shape {a.shape} != {r.shape}")
            continue
        atol = RTOL * float(np.max(np.abs(r), initial=0.0))
        if "resid" in key:
            atol = max(atol, RESID_ATOL)
        if not np.allclose(a, r, rtol=RTOL, atol=atol, equal_nan=True):
            worst = float(np.max(np.abs(a - r)))
            bad.append(f"{key}: max abs diff {worst:.3e} (atol {atol:.1e}, rtol {RTOL})")
    return bad


def checkpoints(trace) -> dict:
    """theta_hat, cons_err and resid at N_CHECKPOINTS evenly spaced samples."""
    idx = np.unique(np.linspace(0, trace.t.shape[0] - 1, N_CHECKPOINTS).round().astype(int))
    out = {"t": trace.t[idx].tolist()}
    for name, tr in trace.estimators.items():
        out[f"theta_hat.{name}"] = tr.theta_hat[idx].tolist()
    out["cons_err"] = trace.cons_err[idx].tolist()
    out["resid"] = trace.resid_norm[idx].tolist()
    return out


def nominal_doc(root: Path, t_end: float) -> dict:
    doc = json.loads((root / SCENARIO).read_text())
    return hiera_est.apply_overrides(doc, [f"t_end={t_end}"])


def random_connected_edges(rng, n_agents: int, n_edges: int) -> list[list[int]]:
    """A random spanning tree plus random extra edges: connected by construction."""
    if not n_agents - 1 <= n_edges <= n_agents * (n_agents - 1) // 2:
        raise ValueError(f"cannot build a connected graph with {n_edges} edges")
    perm = rng.permutation(n_agents)
    edges = set()
    for i in range(1, n_agents):
        a, b = int(perm[i]), int(perm[rng.integers(i)])
        edges.add((min(a, b), max(a, b)))
    while len(edges) < n_edges:
        a, b = (int(v) for v in rng.choice(n_agents, 2, replace=False))
        edges.add((min(a, b), max(a, b)))
    return [list(e) for e in sorted(edges)]


def switching_segments(rng, t_end: float, dwell_min: float, n_graphs: int, h: float):
    """Segments (start, graph) on the step grid; gaps drawn in [dwell, 2*dwell)."""
    dwell_steps = int(round(dwell_min / h))
    segments = [[0.0, 0]]
    step = 0
    while True:
        step += int(rng.integers(dwell_steps, 2 * dwell_steps))
        if step * h >= t_end:
            return segments
        nxt = (segments[-1][1] + int(rng.integers(1, n_graphs))) % n_graphs
        segments.append([round(step * h, 9), nxt])


def degraded_doc(
    seed: int,
    n_edges: int = N_EDGES,
    t_end: float = DEGRADED_T_END,
    p_loss: float = 0.3,
) -> dict:
    """The degraded_n60_ge scenario, generated from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    h = 1e-3
    graphs = [
        {"edges": random_connected_edges(rng, N_AGENTS, n_edges)} for _ in range(N_GRAPHS)
    ]
    return {
        "n": 3,
        "n_agents": N_AGENTS,
        "theta": rng.uniform(0.5, 3.0, size=3).tolist(),
        "seed": int(rng.integers(2**31)),
        "rows_per_agent": 1,
        "coeff_range": [0, 20],
        "freq_range": [0, 3],
        "schedule": {
            "graphs": graphs,
            "segments": switching_segments(rng, t_end, DWELL_MIN, N_GRAPHS, h),
            "dwell_min": DWELL_MIN,
        },
        "k": 5.0,
        "gamma_ge": 1e-4,
        "estimators": ["ge"],
        "noise_sd": 0.2,
        "p_loss": p_loss,
        "epsilon": 0.036,
        "h": h,
        "t_end": t_end,
        "decimation": 10,
    }


def probe_edges64() -> tuple[str, str]:
    """Run a 64-edge scenario; ('xfail', why) while the bitmask defect stands.

    Links are exact so that the all-up bitmask 2**64 - 1 is stored on the
    first sample whatever the seed; with lossy links it overflows only when
    the 64th link happens to be up.
    """
    doc = degraded_doc(REFERENCE_SEED, n_edges=64, t_end=0.02, p_loss=0.0)
    try:
        hiera_est.run_scenario(hiera_est.load_config(doc))
    except OverflowError as e:
        return "xfail", f"OverflowError: {e}"
    return "xpass", "64 edges ran; the cap on degraded_n60_ge can be lifted"


class _Simulation:
    """run_scenario + compute_metrics on one scenario per iteration."""

    name = ""
    processes = 1  # cores kept busy: the host-speed kernel runs on as many
    host_sensitivity = 1.0  # d log(wall) / d log(kernel time), see hostspeed.py

    def doc(self, seed: int) -> dict:
        raise NotImplementedError

    def expect(self, seed: int, state: State):
        """Attach the outputs the iterations must reproduce (untimed)."""
        raise NotImplementedError

    def setup(self, seed: int) -> State:
        doc = self.doc(seed)
        return State(cfg=hiera_est.load_config(doc), doc=doc)

    def warm_up(self, state: State):
        """A few steps so lazy imports and first-call costs are paid untimed."""
        short = hiera_est.apply_overrides(state.doc, ["t_end=0.02"])
        hiera_est.run_scenario(hiera_est.load_config(short))

    def run(self, cfg) -> tuple[Sample, dict]:
        t0 = perf_counter()
        trace = hiera_est.run_scenario(cfg)
        t1 = perf_counter()
        hiera_est.compute_metrics(trace)
        t2 = perf_counter()
        steps = int(round(cfg.t_end / cfg.h))
        return Sample(t2 - t0, t1 - t0, steps, 1, t2 - t0), checkpoints(trace)

    def iterate(self, state: State) -> Sample:
        sample, got = self.run(state.cfg)
        if state.expected is None:
            state.expected = got
        sample.mismatches = compare(got, state.expected)
        return sample


class NominalDrem(_Simulation):
    """The shipped nominal_switched scenario (GE+DREM, N=10), shortened."""

    name = "nominal_drem"

    def __init__(self, root: Path, t_end: float = NOMINAL_T_END):
        self.root, self.t_end = root, t_end

    def doc(self, seed: int) -> dict:
        return nominal_doc(self.root, self.t_end)  # fixed input: the seed is unused

    def expect(self, seed: int, state: State):
        state.expected = load_reference()[self.name]


class DegradedN60Ge(_Simulation):
    """A generated N=60 GE scenario with noise, loss and quantization."""

    name = "degraded_n60_ge"

    def __init__(self, root: Path, t_end: float = DEGRADED_T_END):
        self.root, self.t_end = root, t_end

    def doc(self, seed: int) -> dict:
        return degraded_doc(seed, t_end=self.t_end)

    def expect(self, seed: int, state: State):
        stored = load_reference()[self.name]
        if seed == stored["seed"]:
            state.expected = stored["checkpoints"]
        else:
            # Other seeds have no stored output: each iteration must repeat the
            # first, and the reference seed is run once, untimed, against the store.
            state.reference_check = stored

    def check_reference(self, stored: dict) -> list[str]:
        cfg = hiera_est.load_config(degraded_doc(stored["seed"], t_end=self.t_end))
        _, got = self.run(cfg)
        return compare(got, stored["checkpoints"])


class CliAnalyzeSweep:
    """`analyze` on the nominal scenario, then a 4-value epsilon sweep on 2 workers."""

    name = "cli_analyze_sweep"
    processes = SWEEP_JOBS
    host_sensitivity = 0.5

    def __init__(self, root: Path, t_end: float = SWEEP_T_END, scratch: Path | None = None):
        self.root, self.t_end = root, t_end
        self.scratch = scratch or root / ".perfbench" / "tmp"

    def setup(self, seed: int) -> State:
        doc = nominal_doc(self.root, self.t_end)  # fixed input: the seed is unused
        return State(cfg=hiera_est.load_config(doc), doc=doc)

    def expect(self, seed: int, state: State):
        state.expected = load_reference()[self.name]

    def warm_up(self, state: State):
        pass  # each iteration is seconds long; first-call costs are negligible

    @staticmethod
    def _call(argv: list[str]) -> tuple[int, dict | None]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        try:
            return rc, json.loads(buf.getvalue())
        except json.JSONDecodeError:
            return rc, None

    def run(self) -> tuple[Sample, dict]:
        scenario = str(self.root / SCENARIO)
        self.scratch.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            t0 = perf_counter()
            rc_a, report = self._call(["analyze", "-c", scenario])
            t1 = perf_counter()
            rc_s, summary = self._call([
                "sweep", "-c", scenario, "-o", str(out), "--axis", SWEEP_AXIS,
                "--values", SWEEP_VALUES, "--jobs", str(SWEEP_JOBS),
                "--set", f"t_end={self.t_end}",
            ])
            t2 = perf_counter()
            missing = [
                str(p.relative_to(out))
                for p in [out / "sweep.csv"] + [
                    out / f"{SWEEP_AXIS}={float(v):g}" / f
                    for v in SWEEP_VALUES.split(",")
                    for f in ("traces.csv", "metrics.json", "constants.json", "config-echo.json")
                ]
                if not p.is_file()
            ]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        rows = [
            {k: v for k, v in row.items() if k != "outdir"}
            for row in (summary or {}).get("runs", [])
        ]
        got = {"analyze_rc": rc_a, "sweep_rc": rc_s, "analyze": report, "sweep_rows": rows,
               "missing_files": missing}
        members = len(SWEEP_VALUES.split(","))
        steps = members * int(round(self.t_end / 1e-3))
        sample = Sample(t2 - t0, t2 - t1, steps, members, t2 - t1, analyze_s=t1 - t0)
        return sample, got

    def iterate(self, state: State) -> Sample:
        sample, got = self.run()
        if got["analyze_rc"] != 0 or got["sweep_rc"] != 0:
            sample.mismatches.append(
                f"exit codes: analyze {got['analyze_rc']}, sweep {got['sweep_rc']}")
        if got["missing_files"]:
            sample.mismatches.append(f"missing artifacts: {got['missing_files']}")
        sample.mismatches += compare(
            {k: dict(_leaves(got[k])) for k in ("analyze", "sweep_rows")},
            {k: dict(_leaves(state.expected[k])) for k in ("analyze", "sweep_rows")},
        )
        return sample


WORKLOADS = {w.name: w for w in (NominalDrem, DegradedN60Ge, CliAnalyzeSweep)}
