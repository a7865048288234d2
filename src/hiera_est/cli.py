"""Command-line interface: run scenarios, analyze excitation, evaluate bounds.

Exit codes: 0 success, 2 validation error (bad config/arguments), 3 numerical
divergence during integration, 4 unwritable output location.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import excitation as exc
from .config import ConfigError, apply_overrides, load_config, number
from .graph import GraphError
from .sim import (
    InvariantViolation,
    SimulationDiverged,
    analysis_key,
    analysis_report,
    batches,
    compute_metrics,
    resolve_gain,
    run_members,
    run_scenario,
    write_run_dir,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_OUTPUT = 4


def _load_doc(path: str, overrides) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read scenario file: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"scenario file is not valid JSON: {e}") from None
    if overrides:
        doc = apply_overrides(doc, overrides)
    return doc


def _add_gain_margins(report: dict, cfg, k: float):
    if report["pe"]:
        theta_norm = float(np.linalg.norm(cfg.theta))
        report.update(exc.gain_margins(report, k, cfg.epsilon, theta_norm))


def _write_member(cfg, trace, report: dict, k: float, outdir: str) -> dict:
    """Write a run's standard artifact directory, from its trace and its
    analysis report (not modified), at the resolved gain k."""
    report = dict(report)
    _add_gain_margins(report, cfg, k)
    ceiling = None
    if report.get("pe"):
        ceiling = exc.consensus_error_bound(
            cfg.n, report["gamma"], k, report["lambda_g_min"]
        )
    metrics = compute_metrics(trace, ceiling=ceiling)
    constants = {**report, "k": k, "consensus_error_ceiling": ceiling}
    write_run_dir(outdir, cfg, trace, metrics, constants)
    return {"outdir": str(outdir), "k": k, "metrics": metrics}


def _run_one(doc: dict, outdir: str) -> dict:
    """Run a scenario document and write the standard artifact directory."""
    cfg = load_config(doc)
    report = analysis_report(cfg)  # the only excitation analysis of the run
    k = resolve_gain(cfg, report)
    trace = run_scenario(dataclasses.replace(cfg, k=k))
    return _write_member(cfg, trace, report, k, outdir)


def _run_batch(docs: list[dict], outdirs: list[str], report: dict) -> list[dict]:
    """Run a batch of sweep members (see sim.run_members) as one integration,
    at the gain their shared analysis report resolves, and write each
    member's artifact directory; one summary per member."""
    cfgs = [load_config(doc) for doc in docs]
    k = resolve_gain(cfgs[0], report)
    traces = run_members([dataclasses.replace(cfg, k=k) for cfg in cfgs])
    return [_write_member(cfg, trace, report, k, outdir)
            for cfg, trace, outdir in zip(cfgs, traces, outdirs)]


def cmd_run(args) -> int:
    doc = _load_doc(args.config, args.set)
    summary = _run_one(doc, args.output)
    print(json.dumps(summary, indent=2, allow_nan=False))
    return EXIT_OK


def cmd_analyze(args) -> int:
    doc = _load_doc(args.config, args.set)
    cfg = load_config(doc)
    report = analysis_report(cfg)
    if cfg.k != "auto":
        _add_gain_margins(report, cfg, float(cfg.k))
    print(json.dumps(report, indent=2, allow_nan=False))
    return EXIT_OK


def cmd_gain_bound(args) -> int:
    value = exc.gain_bound(
        args.n, args.N, args.beta, args.gamma, args.T, args.alpha, args.lambda_g
    )
    print(json.dumps({"k_min": value}, allow_nan=False))
    return EXIT_OK


def cmd_feasibility(args) -> int:
    # Each constant but N has its report key as its argument name.
    consts = dict(vars(args), n_agents=args.N)
    qb = exc.quantized_bounds(
        consts, args.k, args.lambda_g, args.lambda_max, args.epsilon, args.theta_norm
    )
    print(json.dumps(qb, allow_nan=False))
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(args) -> int:
    doc = _load_doc(args.config, args.set)
    raws = [v.strip() for v in args.values.split(",") if v.strip() != ""]
    try:
        values = [float(v) for v in raws]
    except ValueError:
        raise ConfigError(f"sweep values must be numeric: {args.values!r}") from None
    if not values:
        raise ConfigError("sweep needs at least one value")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")

    # Members whose values print alike would share, and overwrite, one directory.
    names = [f"{args.axis}={v:g}" for v in values]
    clashes = {m: [r for r, n in zip(raws, names) if n == m] for m in names if names.count(m) > 1}
    if clashes:
        raise ConfigError(f"sweep values share an output directory: {clashes}")

    base = Path(args.output)
    docs = [apply_overrides(doc, [f"{args.axis}={v}"]) for v in values]
    cfgs = [load_config(v_doc) for v_doc in docs]  # validate before fanning out
    outdirs = [str(base / name) for name in names]

    # One analysis for each distinct input to it, in this process; one task
    # per batch of members, each handed its members' report.
    groups = batches(cfgs)
    keys = [analysis_key(cfgs[batch[0]]) for batch in groups]
    reports: dict[str, dict] = {}
    for key, batch in zip(keys, groups):
        if key not in reports:
            reports[key] = analysis_report(cfgs[batch[0]])
    tasks = (
        [[docs[i] for i in batch] for batch in groups],
        [[outdirs[i] for i in batch] for batch in groups],
        [reports[key] for key in keys],
    )
    workers = min(args.jobs, len(groups), _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_batch, *tasks))
    else:
        done = list(map(_run_batch, *tasks))
    results = [None] * len(docs)
    for batch, summaries in zip(groups, done):
        for i, summary in zip(batch, summaries):
            results[i] = summary

    rows = []
    for v, res in zip(values, results):
        per_est = res["metrics"]["per_estimator"]
        row = {
            "value": v,
            "outdir": res["outdir"],
            "k": res["k"],
            "tail_sup_cons_err": res["metrics"]["tail_sup_cons_err"],
            "tail_sup_resid": res["metrics"]["tail_sup_resid"],
        }
        for name, m in per_est.items():
            row[f"{name}_tail_sup_err"] = m["tail_sup_err"]
            row[f"{name}_max_final_err"] = max(m["final_err"])
        rows.append(row)

    base.mkdir(parents=True, exist_ok=True)
    with open(base / "sweep.csv", "w", newline="") as f:  # csv quotes a field with a comma
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)

    print(json.dumps({"axis": args.axis, "runs": rows}, indent=2, allow_nan=False))
    return EXIT_OK


def finite(text: str) -> float:
    """argparse type of a float constant: a scenario number's finite check."""
    return number(float(text), "value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiera-est",
        description="Hierarchical distributed estimation: simulate and analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("-c", "--config", required=True, help="scenario JSON file")
    scenario.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a (dotted) config key",
    )
    constants = argparse.ArgumentParser(add_help=False)
    constants.add_argument("--n", type=int, required=True)
    constants.add_argument("--N", type=int, required=True)
    for name in ("--beta", "--gamma", "--T", "--alpha"):
        constants.add_argument(name, type=finite, required=True)
    constants.add_argument("--lambda-g", type=finite, required=True, dest="lambda_g")

    p_run = sub.add_parser(
        "run", parents=[scenario], help="integrate one scenario and write artifacts"
    )
    p_run.add_argument("-o", "--output", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser(
        "analyze", parents=[scenario], help="excitation/feasibility report (no run)"
    )
    p_an.set_defaults(func=cmd_analyze)

    p_gb = sub.add_parser(
        "gain-bound", parents=[constants], help="minimum consensus gain from constants"
    )
    p_gb.set_defaults(func=cmd_gain_bound)

    p_fs = sub.add_parser(
        "feasibility", parents=[constants], help="quantized/switched excitation feasibility check"
    )
    p_fs.add_argument("--k", type=finite, required=True)
    p_fs.add_argument("--lambda-max", type=finite, required=True, dest="lambda_max")
    p_fs.add_argument("--epsilon", type=finite, default=0.0)
    p_fs.add_argument("--theta-norm", type=finite, default=0.0, dest="theta_norm")
    p_fs.set_defaults(func=cmd_feasibility)

    p_sw = sub.add_parser(
        "sweep", parents=[scenario], help="run a scenario over a list of values"
    )
    p_sw.add_argument("-o", "--output", required=True)
    p_sw.add_argument("--axis", required=True, help="dotted config key to vary")
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers, each running one batch of members at a time (at most "
             "one per batch and per CPU); the members at epsilon > 0 of an epsilon "
             "sweep form one batch, every other member one of its own",
    )
    p_sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GraphError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SimulationDiverged, InvariantViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
