"""Results files: the machine they were measured on, and comparison of two."""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def write(path: Path, doc: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def metric_specs(benchmark_json: Path) -> dict[str, dict]:
    spec = json.loads(benchmark_json.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def verdict(old: float, new: float, spec: dict) -> tuple[float | None, str]:
    """Relative change, and how it stands against the metric's bound."""
    if old == 0:
        return None, "same" if new == 0 else "new nonzero"
    delta = (new - old) / abs(old)
    if "bound" not in spec:
        return delta, ""
    worse = delta if spec["better"] == "lower" else -delta
    if worse > spec["bound"]:
        return delta, "WORSE than bound"
    if -worse > spec["bound"]:
        return delta, "better beyond bound"
    return delta, "within bound"


def compare(old: dict, new: dict, specs: dict[str, dict], out=sys.stdout) -> int:
    """Print per-workload, per-metric deltas; returns the number of regressions."""
    regressions = 0
    print(f"compare: {old.get('machine', {}).get('cpu_model', '?')} -> "
          f"{new.get('machine', {}).get('cpu_model', '?')}", file=out)
    for wl, res in new["workloads"].items():
        before = old.get("workloads", {}).get(wl)
        if before is None:
            print(f"{wl}: not in the earlier results file", file=out)
            continue
        for name, m in res["metrics"].items():
            if name not in before["metrics"]:
                continue
            o, n = before["metrics"][name]["value"], m["value"]
            delta, word = verdict(o, n, specs.get(name, {}))
            regressions += word == "WORSE than bound"
            change = "n/a" if delta is None else f"{delta:+.2%}"
            bound = specs.get(name, {}).get("bound")
            bound_txt = f"bound {bound:.0%}" if bound is not None else "no bound"
            print(f"{wl:<18} {name:<32} {o:>12.6g} -> {n:>12.6g} {m['unit']:<10} "
                  f"{change:>9}  {bound_txt:<10} {word}", file=out)
    return regressions
