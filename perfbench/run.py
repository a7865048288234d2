"""Run one workload of the hiera_est benchmark and print its metrics.

    python3 perfbench/run.py --workload nominal_drem --seed 1 --seconds 30 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory. ``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends
half the time untraced and half traced, and reports the per-layer metrics and
the tracing overhead. Every line before the last is for people; the last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in turn, each in its own process.
Each run writes a results file (metrics, spread, sample counts, machine) to
``.perfbench/results/`` or ``--out``; ``--compare OLD.json`` prints each
metric's change against an earlier results file, judged by the bounds in
``BENCHMARK.json``. See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/hiera_est/__init__.py", "scenarios/nominal_switched.json")
RESULTS = ROOT / ".perfbench" / "results"
SETUP_REPS = 5  # before the first iteration; SETUP_REPS_BETWEEN more after each
SETUP_REPS_BETWEEN = 5
TRACED_SETUP_REPS = 5
KERNEL_REPS = 2  # host-speed samples before the first and after each iteration,
KERNEL_SHARE = 0.03  # or more after a long iteration: this share of its time
ITERATION_SPAN = "bench.iteration"


def summary(values: list[float], unit: str) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "q1": q1, "q3": q3}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@dataclass
class Measurement:
    """Iterations, set-up times and host-speed kernel times of one phase of a run."""

    sensitivity: float
    samples: list = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)

    def host_factor(self) -> float:
        """Mean, not median: wall time adds up over the host's fast and slow spells."""
        from perfbench.hostspeed import REFERENCE_S

        return (statistics.fmean(self.kernel_s) / REFERENCE_S) ** self.sensitivity

    def ok(self):
        """Timings come from the iterations that passed; from all if none did."""
        return [s for s in self.samples if not s.mismatches] or self.samples

    def wall_s(self) -> float:
        """Median iteration time at reference host speed."""
        return statistics.median(s.wall_s for s in self.ok()) / self.host_factor()


def timed_setups(wl, seed: int, reps: int, tracer=None, first_run: int = -1):
    times, state = [], None
    for i in range(reps):
        if tracer is not None:
            tracer.begin_run(first_run - i)
        t0 = perf_counter()
        state = wl.setup(seed)
        times.append(perf_counter() - t0)
    return times, state


def measure(wl, state, seed: int, seconds: float, speed, tracer=None) -> Measurement:
    """Closed loop: iterate until the next iteration would end past ``seconds``.

    Between iterations the host-speed kernel runs KERNEL_REPS times and, when
    untraced, set-up runs SETUP_REPS_BETWEEN times, so that both are sampled
    over the whole run rather than at its start.
    """
    from perfbench.hostspeed import REFERENCE_S
    from perfbench.workloads import Sample

    m = Measurement(wl.host_sensitivity)
    m.kernel_s += [speed.sample() for _ in range(KERNEL_REPS)]
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        try:
            if tracer is None:
                sample = wl.iterate(state)
            else:
                tracer.begin_run(len(m.samples) + 1)
                with tracer.span(ITERATION_SPAN):
                    sample = wl.iterate(state)
        except Exception as e:  # a failed iteration is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            wall = perf_counter() - t0
            sample = Sample(wall, wall, 1, 1, wall, mismatches=[f"raised {e!r}"])
        if sample.mismatches:
            print(f"iteration {len(m.samples)} failed: {sample.mismatches[:5]}", file=sys.stderr)
        m.samples.append(sample)
        reps = max(KERNEL_REPS, round(KERNEL_SHARE * sample.wall_s / REFERENCE_S))
        m.kernel_s += [speed.sample() for _ in range(reps)]
        if tracer is None:
            m.setup_s += timed_setups(wl, seed, SETUP_REPS_BETWEEN)[0]
        elapsed = perf_counter() - t_start
        if elapsed + statistics.median(s.wall_s for s in m.samples) > seconds:
            return m


def end_to_end(m: Measurement) -> dict:
    f, ok = m.host_factor(), m.ok()
    return {
        "setup_s": summary([t / f for t in m.setup_s], "s"),
        "wall_s": summary([s.wall_s / f for s in ok], "s"),
        "us_per_step": summary([s.work_s / f / s.steps * 1e6 for s in ok], "us"),
        "members_per_s": summary([s.members * f / s.members_s for s in ok], "1/s"),
        "peak_rss_mb": summary([peak_rss_mb()], "MB"),
    }


def raw_timings(m: Measurement) -> dict:
    """What the clock read, before the host-speed correction."""
    ok = m.ok()
    out = {"wall_raw_s": summary([s.wall_s for s in ok], "s"),
           "setup_raw_s": summary(m.setup_s, "s"),
           "host_kernel_s": summary(m.kernel_s, "s")}
    out["wall_raw_s"]["samples"] = [s.wall_s for s in m.samples]
    out["host_kernel_s"]["samples"] = m.kernel_s
    if any(s.analyze_s for s in ok):
        out["analyze_s"] = summary([s.analyze_s / m.host_factor() for s in ok], "s")
    return out


def per_layer(tracer, untraced: Measurement, traced: Measurement) -> dict:
    from perfbench import tracing

    stats = tracing.run_stats(tracer, ITERATION_SPAN)
    iters = [stats[r] for r in sorted(stats) if r > 0]
    setups = [stats[r] for r in sorted(stats) if r < 0]
    units = tracing.layer_units()
    out = {}
    for name, value in tracing.layer_values(iters, setups).items():
        out[name] = {"value": value, "unit": units[name], "n": len(iters)}
    out[tracing.OVERHEAD] = {
        "value": traced.wall_s() / untraced.wall_s() - 1.0,
        "unit": units[tracing.OVERHEAD],
        "n": len(traced.samples),
    }
    return out


def run_workload(args) -> dict:
    from perfbench import hostspeed, workloads

    wl = workloads.WORKLOADS[args.workload](ROOT)
    with hostspeed.HostSpeed(wl.processes) as speed:
        return measure_workload(wl, args, speed)


def measure_workload(wl, args, speed) -> dict:
    import numpy as np

    from perfbench import tracing, workloads

    setup_s, state = timed_setups(wl, args.seed, SETUP_REPS)
    wl.expect(args.seed, state)
    wl.warm_up(state)
    result = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if args.trace:
        untraced = measure(wl, state, args.seed, args.seconds / 2, speed)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            timed_setups(wl, args.seed, TRACED_SETUP_REPS, tracer)
            traced = measure(wl, state, args.seed, args.seconds / 2, speed, tracer)
        samples = untraced.samples + traced.samples
        result["metrics"] = per_layer(tracer, untraced, traced)
        spans = args.out.with_suffix(".spans.npz")
        spans.parent.mkdir(parents=True, exist_ok=True)
        np.savez(spans, names=np.array(tracer.names), **tracer.columns())
        result["spans_file"] = str(spans)
    else:
        m = measure(wl, state, args.seed, args.seconds, speed)
        m.setup_s[:0] = setup_s
        samples = m.samples
        result["metrics"] = end_to_end(m)
        result["extra"] = raw_timings(m)

    attempted, failed = len(samples), sum(bool(s.mismatches) for s in samples)
    if state.reference_check is not None:
        bad = wl.check_reference(state.reference_check)
        attempted, failed = attempted + 1, failed + bool(bad)
        if bad:
            print(f"reference seed failed: {bad[:5]}", file=sys.stderr)
    result.update(correct=failed == 0, attempted=attempted, failed=failed)
    result.setdefault("extra", {})["fail_frac"] = {
        "value": failed / attempted, "unit": "ratio", "n": attempted}
    if wl.name == "degraded_n60_ge":
        status, why = workloads.probe_edges64()
        result["probe_edges64"] = {"status": status, "detail": why}
    return result


def print_report(result: dict, machine: dict):
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    rows = {**result["metrics"], **result.get("extra", {})}
    for name, m in rows.items():
        line = f"  {name:<34} {m['value']:>14.6g} {m['unit']:<10} n={m['n']}"
        if "q1" in m and m["value"]:
            iqr = m["q3"] - m["q1"]
            line += f"  IQR {iqr:.4g} ({iqr / abs(m['value']):.1%} of median)"
        print(line)
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    if "probe_edges64" in result:
        p = result["probe_edges64"]
        label = {"xfail": "expected failure", "xpass": "UNEXPECTED PASS"}.get(p["status"], "ERROR")
        print(f"  probe.edges64: {label}: {p['detail']}")


def final_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    })


def run_all(args) -> dict:
    """Every workload in its own process, so each peak_rss_mb is its own."""
    from perfbench import workloads

    merged = {}
    for name in workloads.WORKLOADS:
        out = args.out.with_name(f"{args.out.stem}-{name}.json")
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print("\n".join(proc.stdout.splitlines()[:-1]))
        if proc.returncode != 0 or not out.is_file():
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        merged.update(json.loads(out.read_text())["workloads"])
        out.unlink()
    return merged


def parse_args(argv):
    names = ["nominal_drem", "degraded_n60_ge", "cli_analyze_sweep", "all"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", type=Path, help="results file (default .perfbench/results/...)")
    p.add_argument("--compare", type=Path, help="earlier results file to compare against")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.compare is not None and not args.compare.is_file():
        p.error(f"--compare: no such results file: {args.compare}")
    if args.out is None:
        args.out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: the program is not here: missing {missing} under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import results

    machine = results.machine()
    if args.workload == "all":
        by_workload = run_all(args)
        metrics = {f"{wl}.{k}": m for wl, r in by_workload.items() for k, m in r["metrics"].items()}
        correct = all(r["correct"] for r in by_workload.values())
        attempted = sum(r["attempted"] for r in by_workload.values())
        failed = sum(r["failed"] for r in by_workload.values())
    else:
        result = run_workload(args)
        print_report(result, machine)
        by_workload = {result["workload"]: result}
        metrics, correct = result["metrics"], result["correct"]
        attempted, failed = result["attempted"], result["failed"]
    doc = {"machine": machine, "workloads": by_workload}
    results.write(args.out, doc)
    print(f"results {args.out}")
    if args.compare is not None:
        old = json.loads(args.compare.read_text())
        results.compare(old, doc, results.metric_specs(ROOT / "BENCHMARK.json"))
    print(final_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
