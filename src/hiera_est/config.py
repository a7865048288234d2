"""Scenario configuration: JSON schema, validation, and object construction.

A scenario is a single JSON document; unknown keys are rejected so typos
fail loudly before any computation. Either a fixed "topology" or a
"schedule" must be given, and regressor coefficients come either from
sampling ranges (with the scenario seed) or from explicit tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .estimators import DremFilterBank, default_filter_bank
from .graph import (
    SwitchingSchedule,
    Topology,
    constant_schedule,
    topology_from_edges,
)
from .signals import RegressorGenerator, sample_coefficients


class ConfigError(ValueError):
    """Scenario configuration failed validation."""


_TOP_KEYS = {
    "n", "n_agents", "rows_per_agent", "theta",
    "coeff_range", "freq_range", "coeff_tables", "seed",
    "noise_sd", "epsilon", "p_loss", "loss_resample_dt",
    "topology", "schedule",
    "k", "gain_safety_factor",
    "gamma_ge", "gamma_drem", "gamma_centralized",
    "estimators", "drem_filters",
    "h", "t_end", "decimation", "transient_fraction",
    "analysis",
}
_ANALYSIS_KEYS = {"T_grid", "horizon", "grid_step", "alpha_threshold", "inflation"}


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    _require(not unknown, f"unknown keys in {where}: {sorted(unknown)}")


@dataclass
class AnalysisConfig:
    """Excitation-analysis settings (used by 'auto' gain mode and `analyze`)."""

    T_grid: tuple[float, ...] = (0.04, 0.08, 0.16, 0.32, 0.64)
    horizon: float = 5.0
    grid_step: float = 2e-3
    alpha_threshold: float = 1e-3
    inflation: float = 1.05

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisConfig":
        _reject_unknown(d, _ANALYSIS_KEYS, "analysis")
        kwargs: dict[str, Any] = {}
        if "T_grid" in d:
            kwargs["T_grid"] = tuple(float(x) for x in d["T_grid"])
        for key in ("horizon", "grid_step", "alpha_threshold", "inflation"):
            if key in d:
                kwargs[key] = float(d[key])
        cfg = cls(**kwargs)
        _require(cfg.horizon > 0 and cfg.grid_step > 0, "analysis times must be positive")
        _require(len(cfg.T_grid) > 0, "analysis T_grid must be nonempty")
        return cfg


@dataclass
class ScenarioConfig:
    """Validated description of one simulation run."""

    n: int
    n_agents: int
    theta: np.ndarray
    schedule: SwitchingSchedule
    generator: RegressorGenerator
    seed: int
    k: float | str  # positive gain or "auto"
    gain_safety_factor: float = 1.01
    gamma_ge: np.ndarray = None
    gamma_drem: np.ndarray = None
    gamma_centralized: np.ndarray = None
    estimators: tuple[str, ...] = ("ge", "drem")
    drem_filters: DremFilterBank = None
    noise_sd: float = 0.0
    epsilon: float = 0.0
    p_loss: float = 0.0
    loss_resample_dt: float = 0.1
    h: float = 1e-3
    t_end: float = 20.0
    decimation: int = 10
    transient_fraction: float = 0.3
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    raw: dict = field(default_factory=dict, repr=False)

    def echo(self) -> dict:
        """The original JSON document plus the sampled coefficient tables."""
        out = dict(self.raw)
        out["coeff_tables_resolved"] = self.generator.to_jsonable()
        return out


def _parse_gain_matrix(value, n: int, name: str) -> np.ndarray:
    """Scalar -> gamma*I; nested list -> symmetric positive-definite matrix."""
    if np.isscalar(value):
        g = float(value)
        _require(g > 0, f"{name} must be positive")
        return g * np.eye(n)
    m = np.asarray(value, dtype=float)
    _require(m.shape == (n, n), f"{name} must be scalar or {n}x{n}")
    _require(np.allclose(m, m.T), f"{name} must be symmetric")
    _require(np.linalg.eigvalsh(m)[0] > 0, f"{name} must be positive definite")
    return m


def _parse_gain_diag(value, n: int, name: str) -> np.ndarray:
    """Scalar or length-n list of positive diagonal gains."""
    if np.isscalar(value):
        g = float(value)
        _require(g > 0, f"{name} must be positive")
        return np.full(n, g)
    v = np.asarray(value, dtype=float)
    _require(v.shape == (n,), f"{name} must be scalar or length {n}")
    _require(np.all(v > 0), f"{name} entries must be positive")
    return v


def _build_schedule(d: dict, n_agents: int) -> SwitchingSchedule:
    if "topology" in d:
        _require("schedule" not in d, "give either topology or schedule, not both")
        topo_d = d["topology"]
        _reject_unknown(topo_d, {"edges"}, "topology")
        return constant_schedule(topology_from_edges(n_agents, topo_d["edges"]))
    _require("schedule" in d, "scenario needs a topology or a schedule")
    sch = d["schedule"]
    _reject_unknown(sch, {"graphs", "segments", "dwell_min"}, "schedule")
    topos = tuple(
        topology_from_edges(n_agents, g["edges"]) for g in sch["graphs"]
    )
    segments = tuple((float(s), int(i)) for s, i in sch["segments"])
    return SwitchingSchedule(
        topologies=topos, segments=segments, dwell_min=float(sch["dwell_min"])
    )


def _build_generator(d: dict, n: int, n_agents: int, rows, seed: int) -> RegressorGenerator:
    if "coeff_tables" in d:
        _require(
            "coeff_range" not in d and "freq_range" not in d,
            "give coeff_tables or sampling ranges, not both",
        )
        t = d["coeff_tables"]
        _reject_unknown(t, {"offset", "sin_amp", "cos_amp", "freq"}, "coeff_tables")
        gen = RegressorGenerator.from_tables(
            t["offset"], t["sin_amp"], t["cos_amp"], t["freq"], seed=seed
        )
        _require(gen.n_params == n, "coeff_tables columns disagree with n")
        _require(gen.n_agents == n_agents, "coeff_tables disagree with n_agents")
        return gen
    coeff_range = d.get("coeff_range", [0.0, 20.0])
    freq_range = d.get("freq_range", [0.0, 3.0])
    return sample_coefficients(n, n_agents, rows, coeff_range, freq_range, seed)


def load_config(d: dict) -> ScenarioConfig:
    """Validate a scenario JSON document and build the runtime objects."""
    _require(isinstance(d, dict), "scenario must be a JSON object")
    _reject_unknown(d, _TOP_KEYS, "scenario")
    try:
        n = int(d["n"])
        n_agents = int(d["n_agents"])
        theta = np.asarray(d["theta"], dtype=float)
        seed = int(d.get("seed", 0))
    except KeyError as e:
        raise ConfigError(f"missing required key: {e.args[0]}") from None
    _require(n >= 1 and n_agents >= 1, "dimensions must be positive")
    _require(theta.shape == (n,), f"theta must have length n={n}")

    rows = d.get("rows_per_agent", 1)
    schedule = _build_schedule(d, n_agents)

    try:
        generator = _build_generator(d, n, n_agents, rows, seed)
    except (ValueError, KeyError) as e:
        raise ConfigError(f"bad regressor settings: {e}") from None

    k = d.get("k", "auto")
    if k != "auto":
        k = float(k)
        _require(k > 0, "consensus gain k must be positive")

    from .sim import ESTIMATORS  # the kinds are declared with the runner

    estimators = tuple(d.get("estimators", ["ge", "drem"]))
    _require(len(estimators) > 0, "at least one estimator must be enabled")
    for e in estimators:
        _require(e in ESTIMATORS, f"unknown estimator kind {e!r}")
    _require(len(set(estimators)) == len(estimators), "duplicate estimator kinds")

    gamma_ge = _parse_gain_matrix(d.get("gamma_ge", 1.0), n, "gamma_ge")
    gamma_drem = _parse_gain_diag(d.get("gamma_drem", 1.0), n, "gamma_drem")
    gamma_centralized = _parse_gain_matrix(
        d.get("gamma_centralized", 1.0), n, "gamma_centralized"
    )

    if "drem_filters" in d:
        f = d["drem_filters"]
        _reject_unknown(f, {"alphas", "betas"}, "drem_filters")
        try:
            bank = DremFilterBank(
                alphas=np.asarray(f["alphas"], dtype=float),
                betas=np.asarray(f["betas"], dtype=float),
            )
        except ValueError as e:
            raise ConfigError(f"bad drem_filters: {e}") from None
    else:
        bank = default_filter_bank(n)

    h = float(d.get("h", 1e-3))
    t_end = float(d.get("t_end", 20.0))
    _require(h > 0, "integrator step h must be positive")
    _require(t_end >= 10 * h, "horizon must cover at least 10 steps")
    decimation = int(d.get("decimation", 10))
    _require(decimation >= 1, "decimation must be >= 1")

    noise_sd = float(d.get("noise_sd", 0.0))
    epsilon = float(d.get("epsilon", 0.0))
    p_loss = float(d.get("p_loss", 0.0))
    loss_resample_dt = float(d.get("loss_resample_dt", 0.1))
    _require(noise_sd >= 0, "noise_sd must be nonnegative")
    _require(epsilon >= 0, "epsilon must be nonnegative")
    _require(0 <= p_loss < 1, "p_loss must be in [0, 1)")
    _require(loss_resample_dt > 0, "loss_resample_dt must be positive")

    transient_fraction = float(d.get("transient_fraction", 0.3))
    _require(0 <= transient_fraction < 1, "transient_fraction must be in [0, 1)")

    gain_safety_factor = float(d.get("gain_safety_factor", 1.01))
    _require(gain_safety_factor >= 1.0, "gain_safety_factor must be >= 1")

    analysis = AnalysisConfig.from_dict(d.get("analysis", {}))

    return ScenarioConfig(
        n=n,
        n_agents=n_agents,
        theta=theta,
        schedule=schedule,
        generator=generator,
        seed=seed,
        k=k,
        gain_safety_factor=gain_safety_factor,
        gamma_ge=gamma_ge,
        gamma_drem=gamma_drem,
        gamma_centralized=gamma_centralized,
        estimators=estimators,
        drem_filters=bank,
        noise_sd=noise_sd,
        epsilon=epsilon,
        p_loss=p_loss,
        loss_resample_dt=loss_resample_dt,
        h=h,
        t_end=t_end,
        decimation=decimation,
        transient_fraction=transient_fraction,
        analysis=analysis,
        raw=d,
    )


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply "dotted.key=value" override strings onto a JSON document copy."""
    import copy
    import json

    out = copy.deepcopy(doc)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-object")
        node[parts[-1]] = value
    return out
