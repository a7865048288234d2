"""Spans around calls into hiera_est's modules, and the per-layer metrics.

The benchmark does not edit the package. ``instrument`` installs wrappers on
the module attributes that hiera_est's own callers look up (for example
``hiera_est.sim.quantize`` or ``hiera_est.estimators.adjugate``) and restores
them on exit. Each wrapper records one span: name, start, end, parent span
and run id. Spans stay in memory, in compact arrays, until the run ends.

A layer's self time is its span's duration minus the part of that interval
its child spans cover. Per-layer ``_s`` metrics are self times, so they
partition an iteration's wall time instead of counting nested work twice.
"""

from __future__ import annotations

import sys
import types
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from itertools import repeat
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span store. Span ids are indexes into the column arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, Counter] = {}
        self._open = [-1]
        self.begin_run(0)

    def begin_run(self, run_id: int):
        """Tag the spans and counts recorded from now on with ``run_id``."""
        self.run_id = run_id
        self._counts = self.counts.setdefault(run_id, Counter())

    def clear(self):
        """Drop every span and count (a forked pool worker inherits the parent's)."""
        for col in (self.name, self.parent, self.run, self.start, self.end):
            del col[:]
        self.counts.clear()
        del self._open[1:]
        self.begin_run(self.run_id)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str):
        self._counts[name] += 1

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def _exit(self, idx: int):
        self.end[idx] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(self.name_id(name))
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)

        traced.__wrapped__ = fn
        return traced

    def export(self) -> dict:
        """This process's spans and counts as plain data (sent back by pool workers)."""
        return {
            "names": list(self.names),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": dict(sum(self.counts.values(), Counter())),
        }

    def merge(self, exported: dict):
        """Append another process's spans under the current run id.

        Their roots stay roots: a worker's time runs in parallel with the
        parent's wait, so it must not be subtracted from the parent's self time.
        """
        offset = len(self.start)
        ids = [self.name_id(n) for n in exported["names"]]
        self.name.extend(ids[i] for i in exported["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in exported["parent"])
        self.run.extend(repeat(self.run_id, len(exported["name"])))
        self.start.extend(exported["start"])
        self.end.extend(exported["end"])
        self._counts.update(exported["counts"])

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "run": np.array(self.run, dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
        }


def self_times(parent, start, end) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping children
    (parallel work) are counted once. The union is taken in integer
    nanoseconds so that one running maximum serves every parent at once.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return end - start
    pk = parent[kids]
    base = start[pk]
    lo = np.round((np.maximum(start[kids], base) - base) * 1e9).astype(np.int64)
    hi = np.round((np.minimum(end[kids], end[pk]) - base) * 1e9).astype(np.int64)
    hi = np.maximum(hi, lo)
    order = np.lexsort((lo, pk))
    pk, lo, hi = pk[order], lo[order], hi[order]
    first = np.ones(pk.size, dtype=bool)
    first[1:] = pk[1:] != pk[:-1]
    group = np.cumsum(first) - 1
    width = int(hi.max()) + 1
    if int(group[-1]) * width >= 2**62:
        raise OverflowError("span tree too large for the nanosecond union")
    # Offsetting each parent's group by `width` keeps the running maximum
    # from leaking across groups.
    reach = np.maximum.accumulate(hi + group * width) - group * width
    prev = np.empty_like(reach)
    prev[1:] = reach[:-1]
    prev[first] = lo[first]
    covered_ns = np.maximum(hi - np.maximum(lo, prev), 0)
    covered = np.bincount(pk, weights=covered_ns, minlength=start.size) / 1e9
    return (end - start) - covered


class RunStats:
    """Per-run totals: self time and call count per span name, plus counters."""

    def __init__(self, self_s: dict, calls: dict, counts: Counter, wall_s: float):
        self.self_s = Counter(self_s)
        self.calls = Counter(calls)
        self.counts = counts
        self.wall_s = wall_s


def run_stats(tracer: Tracer, root: str) -> dict[int, RunStats]:
    """Group the tracer's spans by run id. ``root`` names each run's outer span.

    A span's parent always belongs to the same run, so self times are
    computed one run at a time.
    """
    cols = tracer.columns()
    root_id = tracer.name_id(root)
    out = {}
    for run_id in np.unique(cols["run"]).tolist():
        idx = np.flatnonzero(cols["run"] == run_id)
        parent = cols["parent"][idx]
        local = np.where(parent >= 0, np.searchsorted(idx, parent), -1)
        start, end, names = cols["start"][idx], cols["end"][idx], cols["name"][idx]
        own = self_times(local, start, end)
        by_name = np.bincount(names, weights=own, minlength=len(tracer.names))
        calls = np.bincount(names, minlength=len(tracer.names))
        roots = names == root_id
        out[run_id] = RunStats(
            {n: float(by_name[i]) for i, n in enumerate(tracer.names)},
            {n: int(calls[i]) for i, n in enumerate(tracer.names)},
            tracer.counts.get(run_id, Counter()),
            float((end[roots] - start[roots]).sum()),
        )
    return out


# Per-layer metrics: name -> (unit, value from one iteration's RunStats).
PER_LAYER = {
    "estimators.adjugate_s": ("s", lambda r: r.self_s["estimators.adjugate"]),
    "estimators.adjugate_calls": ("count", lambda r: r.calls["estimators.adjugate"]),
    "estimators.drem_scalarize_s": ("s", lambda r: r.self_s["estimators.drem_scalarize"]),
    "estimators.drem_scalarize_calls": (
        "count", lambda r: r.calls["estimators.drem_scalarize"]),
    "estimators.det_calls_per_step": (
        "count/step",
        lambda r: r.counts["estimators.det"] / r.calls["sim.rk4"] if r.calls["sim.rk4"] else 0.0,
    ),
    "estimators.ge_s": ("s", lambda r: r.self_s["estimators.ge"]),
    "estimators.drem_filter_s": ("s", lambda r: r.self_s["estimators.drem_filter"]),
    "estimators.drem_update_s": ("s", lambda r: r.self_s["estimators.drem_update"]),
    "consensus.laplacian_s": ("s", lambda r: r.self_s["consensus.laplacian"]),
    "consensus.laplacian_calls": ("count", lambda r: r.calls["consensus.laplacian"]),
    "consensus.diag_s": ("s", lambda r: r.self_s["consensus.diag"]),
    "signals.measure_s": (
        "s", lambda r: r.self_s["signals.evaluate_all"] + r.self_s["signals.surrogate_all"]),
    "signals.measure_calls": ("count", lambda r: r.calls["signals.evaluate_all"]),
    "signals.quantize_s": ("s", lambda r: r.self_s["signals.quantize"]),
    "signals.quantize_calls": ("count", lambda r: r.calls["signals.quantize"]),
    "signals.noise_s": ("s", lambda r: r.self_s["signals.noise"]),
    "graph.active_topology_s": ("s", lambda r: r.self_s["graph.active_topology"]),
    "sim.steps": ("count", lambda r: r.calls["sim.rk4"]),
    "sim.field_evals": ("count", lambda r: r.calls["sim.field"]),
    "sim.field_self_s": ("s", lambda r: r.self_s["sim.field"]),
    "sim.rk4_s": ("s", lambda r: r.self_s["sim.rk4"]),
    "sim.record_s": ("s", lambda r: r.self_s["sim.run"]),
    "sim.metrics_s": ("s", lambda r: r.self_s["sim.metrics"]),
    "sim.write_s": ("s", lambda r: r.self_s["sim.write"]),
    "excitation.pe_level_s": ("s", lambda r: r.self_s["excitation.pe_level"]),
    "excitation.pe_level_calls": ("count", lambda r: r.calls["excitation.pe_level"]),
    "excitation.bounds_s": ("s", lambda r: r.self_s["excitation.bounds"]),
    "excitation.analyze_calls": ("count", lambda r: r.calls["excitation.analyze"]),
    "cli.pool_wait_s": ("s", lambda r: r.self_s["cli.pool_wait"]),
}
# Measured on the traced set-up runs, not on the iterations.
SETUP_LAYER = {"config.load_s": ("s", lambda r: r.self_s["config.load"])}
OVERHEAD = "trace.overhead_frac"

# (module, function, span name) for plain functions. Every binding of the
# function inside the package is replaced, e.g. `from .signals import quantize`
# in sim.py as well as the definition in signals.py.
_HOOKS = (
    ("hiera_est.config", "load_config", "config.load"),
    ("hiera_est.graph", "active_topology", "graph.active_topology"),
    ("hiera_est.signals", "surrogate_all", "signals.surrogate_all"),
    ("hiera_est.signals", "quantize", "signals.quantize"),
    ("hiera_est.consensus", "effective_laplacian", "consensus.laplacian"),
    ("hiera_est.consensus", "average_reference", "consensus.diag"),
    ("hiera_est.consensus", "consensus_error", "consensus.diag"),
    ("hiera_est.consensus", "residual", "consensus.diag"),
    ("hiera_est.estimators", "ge_derivative", "estimators.ge"),
    ("hiera_est.estimators", "drem_filter_derivative", "estimators.drem_filter"),
    ("hiera_est.estimators", "drem_extend", "estimators.drem_filter"),
    ("hiera_est.estimators", "drem_scalarize", "estimators.drem_scalarize"),
    ("hiera_est.estimators", "adjugate", "estimators.adjugate"),
    ("hiera_est.estimators", "drem_derivative", "estimators.drem_update"),
    ("hiera_est.excitation", "pe_level", "excitation.pe_level"),
    ("hiera_est.excitation", "estimate_assumption_bounds", "excitation.bounds"),
    ("hiera_est.excitation", "analyze_scenario", "excitation.analyze"),
    ("hiera_est.sim", "run_scenario", "sim.run"),
    ("hiera_est.sim", "compute_metrics", "sim.metrics"),
    ("hiera_est.sim", "write_run_dir", "sim.write"),
)

# The tracer `install` put in place in this process. A pool worker forked
# from an instrumented parent inherits it together with the patched modules.
_ACTIVE: Tracer | None = None


class _TracedRng:
    """A noise generator whose draws are recorded as spans."""

    def __init__(self, rng, standard_normal):
        self._rng = rng
        self.standard_normal = standard_normal

    def __getattr__(self, name):
        return getattr(self._rng, name)


class _TracedPool(ProcessPoolExecutor):
    """Pool whose tasks trace themselves and send their spans back.

    The parent's time inside ``map`` and ``shutdown`` is ``cli.pool_wait``.
    """

    def __init__(self, tracer: Tracer, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tracer = tracer

    def map(self, fn, *iterables, **kwargs):
        out = []
        with self._tracer.span("cli.pool_wait"):
            for result, spans in super().map(_run_traced, repeat(fn), *iterables, **kwargs):
                self._tracer.merge(spans)
                out.append(result)
        return iter(out)

    def shutdown(self, *args, **kwargs):
        with self._tracer.span("cli.pool_wait"):
            super().shutdown(*args, **kwargs)


def _run_traced(fn, *args):
    """Pool task: run ``fn`` traced in this worker and return its spans too."""
    tracer = _ACTIVE
    if tracer is None:  # a spawned worker inherits nothing
        tracer = Tracer()
        install(tracer)
    tracer.clear()
    return fn(*args), tracer.export()


def install(tracer: Tracer) -> list[tuple]:
    """Install the wrappers; returns the (object, attribute, old value) patches."""
    global _ACTIVE
    from hiera_est import cli, estimators, signals, sim

    patches: list[tuple] = []

    def patch(obj, attr, new):
        patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def patch_everywhere(orig, new):
        mods = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "hiera_est"]
        for mod in mods:
            for attr in [a for a, v in vars(mod).items() if v is orig]:
                patch(mod, attr, new)

    for mod_name, fn_name, span_name in _HOOKS:
        orig = getattr(sys.modules[mod_name], fn_name)
        patch_everywhere(orig, tracer.wrap(span_name, orig))

    orig_rk4 = sim.rk4_step
    patch_everywhere(
        orig_rk4,
        tracer.wrap(
            "sim.rk4",
            lambda field, state, t, h: orig_rk4(tracer.wrap("sim.field", field), state, t, h),
        ),
    )

    orig_noise = signals.noise_stream

    def noise_stream(seed, agent):
        rng = orig_noise(seed, agent)
        return _TracedRng(rng, tracer.wrap("signals.noise", rng.standard_normal))

    patch_everywhere(orig_noise, noise_stream)

    patch(
        signals.RegressorGenerator,
        "evaluate_all",
        tracer.wrap("signals.evaluate_all", signals.RegressorGenerator.evaluate_all),
    )

    # Count np.linalg.det calls made by the estimators module only.
    real_np = estimators.np
    real_det = real_np.linalg.det
    linalg = types.ModuleType(real_np.linalg.__name__)
    vars(linalg).update(vars(real_np.linalg))

    def det(a):
        tracer.count("estimators.det")
        return real_det(a)

    linalg.det = det
    np_view = types.ModuleType(real_np.__name__)
    vars(np_view).update(vars(real_np))
    np_view.linalg = linalg
    patch(estimators, "np", np_view)

    patch(cli, "ProcessPoolExecutor", partial(_TracedPool, tracer))
    _ACTIVE = tracer
    return patches


def uninstall(patches: list[tuple]):
    global _ACTIVE
    for obj, attr, old in reversed(patches):
        setattr(obj, attr, old)
    _ACTIVE = None


@contextmanager
def instrument(tracer: Tracer):
    """Trace calls into hiera_est while the block runs."""
    patches = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patches)


def layer_values(iterations: list[RunStats], setups: list[RunStats]) -> dict[str, float]:
    """Median over runs of every per-layer metric except the overhead."""
    out = {}
    for table, runs in ((PER_LAYER, iterations), (SETUP_LAYER, setups)):
        for name, (_, value) in table.items():
            out[name] = float(np.median([value(r) for r in runs])) if runs else 0.0
    return out


def layer_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _) in {**PER_LAYER, **SETUP_LAYER}.items()}
    units[OVERHEAD] = "ratio"
    return units
