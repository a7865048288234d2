"""Tests of the benchmark itself: inputs, span arithmetic, counts, known defect.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import hiera_est  # noqa: E402
from hiera_est import sim  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402

ITERATION = "bench.iteration"


def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, todo = {0}, deque([0])
    while todo:
        for j in adj[todo.popleft()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return len(seen) == n


def test_same_seed_same_scenario_other_seed_other_scenario():
    assert workloads.degraded_doc(7) == workloads.degraded_doc(7)
    a, b = workloads.degraded_doc(7), workloads.degraded_doc(8)
    assert a["schedule"] != b["schedule"]
    assert a["seed"] != b["seed"] and a["theta"] != b["theta"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 99, 2**40 + 5])
def test_generated_graphs_are_connected_and_respect_dwell(seed):
    doc = workloads.degraded_doc(seed)
    sched = doc["schedule"]
    assert len(sched["graphs"]) == workloads.N_GRAPHS
    for g in sched["graphs"]:
        edges = [tuple(e) for e in g["edges"]]
        assert len(set(edges)) == len(edges) == workloads.N_EDGES
        assert all(0 <= i < j < workloads.N_AGENTS for i, j in edges)
        assert is_connected(workloads.N_AGENTS, edges)
    starts = [s for s, _ in sched["segments"]]
    assert starts[0] == 0.0 and starts[-1] < doc["t_end"]
    assert all(b - a >= sched["dwell_min"] - 1e-12 for a, b in zip(starts, starts[1:]))
    graphs = [g for _, g in sched["segments"]]
    assert all(a != b for a, b in zip(graphs, graphs[1:]))
    cfg = hiera_est.load_config(doc)  # validates connectivity and dwell too
    assert min(t.lambda2 for t in cfg.schedule.topologies) > 0


def test_self_time_on_a_synthetic_span_tree():
    # 0: root [0, 10]; children 1 [1, 3] and 2 [2, 5] overlap, 3 [8, 12] runs
    # past its parent; 4 [1.5, 2.5] is a grandchild; 5 is a second root.
    parent = [-1, 0, 0, 0, 1, -1]
    start = [0.0, 1.0, 2.0, 8.0, 1.5, 20.0]
    end = [10.0, 3.0, 5.0, 12.0, 2.5, 21.0]
    got = tracing.self_times(parent, start, end)
    # root: 10 - |[1, 5] u [8, 10]| = 10 - 6
    np.testing.assert_allclose(got, [4.0, 1.0, 3.0, 4.0, 1.0, 1.0])


def traced_iteration(wl, cfg=None) -> tracing.RunStats:
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.begin_run(1)
        with tracer.span(ITERATION):
            if cfg is None:
                wl.run()
            else:
                wl.run(cfg)
    return tracing.run_stats(tracer, ITERATION)[1]


def short_cfg(wl, seed=0, t_end=0.5):
    # compute_metrics needs 50 samples: t_end >= 0.49 at h=1e-3, decimation 10
    return hiera_est.load_config(hiera_est.apply_overrides(wl.doc(seed), [f"t_end={t_end}"]))


def test_counts_repeat_exactly_between_traced_runs():
    wl = workloads.NominalDrem(ROOT)
    cfg = short_cfg(wl)
    first, second = traced_iteration(wl, cfg), traced_iteration(wl, cfg)
    names = ("sim.field_evals", "signals.measure_calls", "estimators.det_calls_per_step")
    a = {n: tracing.PER_LAYER[n][1](first) for n in names}
    b = {n: tracing.PER_LAYER[n][1](second) for n in names}
    assert a == b
    assert a["sim.field_evals"] == 4 * 500
    assert a["estimators.det_calls_per_step"] > 0
    # Self times partition the iteration: they add up to its wall time.
    assert sum(first.self_s.values()) == pytest.approx(first.wall_s, rel=1e-6)


def test_degraded_workload_never_reaches_drem_or_analysis():
    wl = workloads.DegradedN60Ge(ROOT)
    stats = traced_iteration(wl, short_cfg(wl, seed=3))
    values = {n: f(stats) for n, (_, f) in tracing.PER_LAYER.items()}
    assert values["estimators.adjugate_calls"] == 0
    assert values["excitation.analyze_calls"] == 0
    assert values["signals.noise_s"] > 0 and values["sim.steps"] == 500


def test_pool_workers_send_their_spans_back(tmp_path):
    wl = workloads.CliAnalyzeSweep(ROOT, scratch=tmp_path)
    stats = traced_iteration(wl)
    steps = int(round(workloads.SWEEP_T_END / 1e-3))
    members = len(workloads.SWEEP_VALUES.split(","))
    assert stats.calls["sim.rk4"] == members * steps
    assert stats.calls["excitation.analyze"] == 1 + members
    assert stats.self_s["cli.pool_wait"] > 0


def test_instrument_restores_the_package():
    before = (sim.quantize, sim.rk4_step, hiera_est.run_scenario, hiera_est.estimators.np)
    with tracing.instrument(tracing.Tracer()):
        assert sim.quantize is not before[0]
    after = (sim.quantize, sim.rk4_step, hiera_est.run_scenario, hiera_est.estimators.np)
    assert after == before


@pytest.mark.xfail(
    raises=OverflowError,
    strict=True,
    reason="run_scenario stores the link bitmask in int64; 64 edges overflow it",
)
def test_scenario_with_64_edges_runs():
    doc = workloads.degraded_doc(workloads.REFERENCE_SEED, n_edges=64, t_end=0.02, p_loss=0.0)
    hiera_est.run_scenario(hiera_est.load_config(doc))

