"""Command-line interface: run scenarios, analyze excitation, evaluate bounds.

Exit codes: 0 success, 2 validation error (bad config/arguments), 3 numerical
divergence during integration, 4 unwritable output location.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import excitation as exc
from .config import ConfigError, apply_overrides, load_config
from .graph import GraphError
from .sim import (
    InvariantViolation,
    SimulationDiverged,
    analysis_report,
    compute_metrics,
    resolve_gain,
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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, exc.ExcitationConstants):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _run_one(doc: dict, outdir: str) -> dict:
    """Run a scenario document and write the standard artifact directory."""
    cfg = load_config(doc)
    report = analysis_report(cfg)  # the only excitation analysis of the run
    k = resolve_gain(cfg, report)
    _add_gain_margins(report, cfg, k)
    trace = run_scenario(dataclasses.replace(cfg, k=k))
    ceiling = None
    if report.get("pe"):
        ceiling = exc.consensus_error_bound(
            cfg.n, report["gamma"], k, report["lambda_g_min"]
        )
    metrics = compute_metrics(trace, ceiling=ceiling)
    constants = dict(report)
    constants["k"] = k
    constants["consensus_error_ceiling"] = ceiling
    try:
        write_run_dir(outdir, cfg, trace, metrics, _jsonable(constants))
    except OSError as e:
        raise _OutputError(str(e)) from None
    return {
        "outdir": str(outdir),
        "k": k,
        "metrics": metrics.to_jsonable(),
    }


class _OutputError(RuntimeError):
    pass


def cmd_run(args) -> int:
    doc = _load_doc(args.config, args.set)
    summary = _run_one(doc, args.output)
    print(json.dumps(_jsonable(summary), indent=2))
    return EXIT_OK


def cmd_analyze(args) -> int:
    doc = _load_doc(args.config, args.set)
    cfg = load_config(doc)
    report = analysis_report(cfg)
    if cfg.k != "auto":
        _add_gain_margins(report, cfg, float(cfg.k))
    report.pop("constants", None)
    print(json.dumps(_jsonable(report), indent=2))
    return EXIT_OK


def cmd_gain_bound(args) -> int:
    value = exc.gain_bound(
        args.n, args.N, args.beta, args.gamma, args.T, args.alpha, args.lambda_g
    )
    print(json.dumps({"k_min": value}))
    return EXIT_OK


def cmd_feasibility(args) -> int:
    consts = exc.ExcitationConstants(
        beta=args.beta,
        gamma=args.gamma,
        alpha=args.alpha,
        T=args.T,
        n=args.n,
        n_agents=args.N,
    )
    qb = exc.quantized_bounds(
        consts,
        k=args.k,
        lambda_g=args.lambda_g,
        lambda_max=args.lambda_max,
        epsilon=args.epsilon,
        theta_norm=args.theta_norm,
    )
    print(
        json.dumps(
            {
                "feasible": qb.feasible,
                "margin": qb.margin,
                "b_eps": qb.b_eps,
                "r_eps": qb.r_eps,
            }
        )
    )
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_worker(payload):
    doc, outdir = payload
    return _run_one(doc, outdir)


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

    jobs = []
    base = Path(args.output)
    for v, name in zip(values, names):
        v_doc = apply_overrides(doc, [f"{args.axis}={v}"])
        load_config(v_doc)  # validate before fanning out
        jobs.append((v_doc, str(base / name)))

    workers = min(args.jobs, len(jobs), _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(j) for j in jobs]

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

    try:
        base.mkdir(parents=True, exist_ok=True)
        cols = list(rows[0].keys())
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(str(row[c]) for c in cols))
        (base / "sweep.csv").write_text("\n".join(lines) + "\n")
    except OSError as e:
        raise _OutputError(str(e)) from None

    print(json.dumps(_jsonable({"axis": args.axis, "runs": rows}), indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiera-est",
        description="Hierarchical distributed estimation: simulate and analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one scenario and write artifacts")
    p_run.add_argument("-c", "--config", required=True, help="scenario JSON file")
    p_run.add_argument("-o", "--output", required=True, help="output directory")
    p_run.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a (dotted) config key",
    )
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="excitation/feasibility report (no run)")
    p_an.add_argument("-c", "--config", required=True)
    p_an.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_an.set_defaults(func=cmd_analyze)

    p_gb = sub.add_parser("gain-bound", help="minimum consensus gain from constants")
    p_gb.add_argument("--n", type=int, required=True)
    p_gb.add_argument("--N", type=int, required=True)
    p_gb.add_argument("--beta", type=float, required=True)
    p_gb.add_argument("--gamma", type=float, required=True)
    p_gb.add_argument("--T", type=float, required=True)
    p_gb.add_argument("--alpha", type=float, required=True)
    p_gb.add_argument("--lambda-g", type=float, required=True, dest="lambda_g")
    p_gb.set_defaults(func=cmd_gain_bound)

    p_fs = sub.add_parser(
        "feasibility", help="quantized/switched excitation feasibility check"
    )
    p_fs.add_argument("--n", type=int, required=True)
    p_fs.add_argument("--N", type=int, required=True)
    p_fs.add_argument("--beta", type=float, required=True)
    p_fs.add_argument("--gamma", type=float, required=True)
    p_fs.add_argument("--T", type=float, required=True)
    p_fs.add_argument("--alpha", type=float, required=True)
    p_fs.add_argument("--k", type=float, required=True)
    p_fs.add_argument("--lambda-g", type=float, required=True, dest="lambda_g")
    p_fs.add_argument("--lambda-max", type=float, required=True, dest="lambda_max")
    p_fs.add_argument("--epsilon", type=float, default=0.0)
    p_fs.add_argument("--theta-norm", type=float, default=0.0, dest="theta_norm")
    p_fs.set_defaults(func=cmd_feasibility)

    p_sw = sub.add_parser("sweep", help="run a scenario over a list of values")
    p_sw.add_argument("-c", "--config", required=True)
    p_sw.add_argument("-o", "--output", required=True)
    p_sw.add_argument("--axis", required=True, help="dotted config key to vary")
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers (at most one per value and per CPU)",
    )
    p_sw.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
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
    except (_OutputError, OSError) as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
