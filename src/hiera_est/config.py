"""Scenario configuration: JSON schema, validation, and object construction.

A scenario is a single JSON document; unknown keys are rejected so typos
fail loudly before any computation. Either a fixed "topology" or a
"schedule" must be given, and regressor coefficients come either from
sampling ranges (with the scenario seed) or from explicit tables. Each
number in the document is read through `number`.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, fields
from sys import float_info

import numpy as np

from .estimators import DremFilterBank, default_filter_bank
from .excitation import DEFAULT_ALPHA_THRESHOLD, DEFAULT_SUP_INFLATION
from .graph import SwitchingSchedule, constant_schedule, topology_from_edges
from .signals import RegressorGenerator, sample_coefficients


class ConfigError(ValueError):
    """Scenario configuration failed validation."""


# The number types a document may hold: JSON's, and numpy's from Python callers.
_REALS = (int, float, np.integer, np.floating)


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _reject_unknown(d: dict, allowed: set, where: str):
    _require(isinstance(d, dict), f"{where} must be a JSON object")
    unknown = set(d) - allowed
    _require(not unknown, f"unknown keys in {where}: {sorted(unknown)}")


def number(value, key: str, integer: bool = False) -> float | int:
    """One number of a scenario: finite, not a boolean, integral when `integer`."""
    # abs(value) <= max compares an int of any size exactly and is false for NaN.
    if isinstance(value, bool) or not (isinstance(value, _REALS) and abs(value) <= float_info.max):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if integer and not float(value).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value) if integer else float(value)


def _array(value, key: str) -> np.ndarray:
    """A number or a rectangular (nested) list of numbers, each read by `number`."""
    a = np.asarray(value, dtype=object)  # a ragged list leaves lists as entries
    return np.array([number(x, key) for x in a.flat], dtype=float).reshape(a.shape)


@dataclass
class AnalysisConfig:
    """Excitation-analysis settings (used by 'auto' gain mode and `analyze`)."""

    T_grid: tuple[float, ...] = (0.04, 0.08, 0.16, 0.32, 0.64)
    horizon: float = 5.0
    grid_step: float = 2e-3
    alpha_threshold: float = DEFAULT_ALPHA_THRESHOLD
    inflation: float = DEFAULT_SUP_INFLATION

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisConfig":
        _reject_unknown(d, {f.name for f in fields(cls)}, "analysis")
        kwargs = {key: number(v, f"analysis.{key}") for key, v in d.items() if key != "T_grid"}
        if "T_grid" in d:
            grid = _array(d["T_grid"], "analysis.T_grid")
            _require(grid.ndim == 1 and grid.size > 0, "analysis.T_grid must be a nonempty list")
            kwargs["T_grid"] = tuple(grid.tolist())
        cfg = cls(**kwargs)
        _require(cfg.horizon > 0 and cfg.grid_step > 0, "analysis times must be positive")
        return cfg


# The range of a scalar key: the rule as its error message states it, and its test.
_POSITIVE = ("> 0", lambda x: x > 0)
_NONNEGATIVE = (">= 0", lambda x: x >= 0)
_AT_LEAST_ONE = (">= 1", lambda x: x >= 1)
_FRACTION = ("in [0, 1)", lambda x: 0 <= x < 1)


def _scalar(default, valid: tuple):
    """The schema of a scalar key: its default (None when required) and range.
    The field's annotation, int or float, is the key's type."""
    return field(metadata={"default": default, "valid": valid})


@dataclass
class ScenarioConfig:
    """Validated description of one simulation run; `_scalar` fields are the schema."""

    n: int = _scalar(None, _AT_LEAST_ONE)
    n_agents: int = _scalar(None, _AT_LEAST_ONE)
    theta: np.ndarray
    schedule: SwitchingSchedule
    generator: RegressorGenerator
    seed: int = _scalar(0, _NONNEGATIVE)
    k: float | str  # positive gain or "auto"
    gain_safety_factor: float = _scalar(1.01, _AT_LEAST_ONE)
    gamma_ge: np.ndarray
    gamma_drem: np.ndarray
    gamma_centralized: np.ndarray
    estimators: tuple[str, ...]
    drem_filters: DremFilterBank
    noise_sd: float = _scalar(0.0, _NONNEGATIVE)
    epsilon: float = _scalar(0.0, _NONNEGATIVE)
    p_loss: float = _scalar(0.0, _FRACTION)
    loss_resample_dt: float = _scalar(0.1, _POSITIVE)
    h: float = _scalar(1e-3, _POSITIVE)
    t_end: float = _scalar(20.0, _POSITIVE)
    decimation: int = _scalar(10, _AT_LEAST_ONE)
    transient_fraction: float = _scalar(0.3, _FRACTION)
    analysis: AnalysisConfig
    raw: dict = field(repr=False)

    def echo(self) -> dict:
        """The original JSON document plus the sampled coefficient tables."""
        out = dict(self.raw)
        out["coeff_tables_resolved"] = self.generator.to_jsonable()
        return out


SCALAR_FIELDS = tuple(f for f in fields(ScenarioConfig) if "valid" in f.metadata)
# Document keys that are not fields: the sources of `schedule` and `generator`.
_SOURCE_KEYS = {"topology", "rows_per_agent", "coeff_range", "freq_range", "coeff_tables"}
_KEYS = {f.name for f in fields(ScenarioConfig)} - {"generator", "raw"} | _SOURCE_KEYS


def _scalars(d: dict) -> dict:
    """Every scalar key of a document, read by `number` and checked against its range."""
    out = {}
    for f in SCALAR_FIELDS:
        default, (rule, ok) = f.metadata["default"], f.metadata["valid"]
        _require(f.name in d or default is not None, f"missing required key: {f.name}")
        x = out[f.name] = number(d.get(f.name, default), f.name, integer=f.type == "int")
        if not ok(x):
            raise ConfigError(f"{f.name} must be {rule}, got {x!r}")
    _require(out["t_end"] >= 10 * out["h"], "t_end must cover at least 10 steps of h")
    return out


def _parse_gain_matrix(value, n: int, name: str) -> np.ndarray:
    """Scalar -> gamma*I; nested list -> symmetric positive-definite matrix."""
    if not isinstance(value, list):
        g = number(value, name)
        _require(g > 0, f"{name} must be positive")
        return g * np.eye(n)
    m = _array(value, name)
    _require(m.shape == (n, n), f"{name} must be scalar or {n}x{n}")
    _require(np.allclose(m, m.T), f"{name} must be symmetric")
    _require(np.linalg.eigvalsh(m)[0] > 0, f"{name} must be positive definite")
    return m


def _parse_gain_diag(value, n: int, name: str) -> np.ndarray:
    """Scalar or length-n list of positive diagonal gains."""
    if not isinstance(value, list):
        g = number(value, name)
        _require(g > 0, f"{name} must be positive")
        return np.full(n, g)
    v = _array(value, name)
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
    topos = tuple(topology_from_edges(n_agents, g["edges"]) for g in sch["graphs"])
    key = "schedule.segments"
    segments = tuple((number(s, key), number(i, key, integer=True)) for s, i in sch["segments"])
    dwell_min = number(sch["dwell_min"], "schedule.dwell_min")
    return SwitchingSchedule(topologies=topos, segments=segments, dwell_min=dwell_min)


def _build_generator(d: dict, n: int, n_agents: int, seed: int) -> RegressorGenerator:
    if "coeff_tables" in d:
        _require(
            "coeff_range" not in d and "freq_range" not in d,
            "give coeff_tables or sampling ranges, not both",
        )
        t = d["coeff_tables"]
        _reject_unknown(t, {"offset", "sin_amp", "cos_amp", "freq"}, "coeff_tables")
        # The tables are ragged across agents, so each agent's is read apart.
        gen = RegressorGenerator.from_tables(
            *([_array(a, f"coeff_tables.{key}") for a in t[key]]
              for key in ("offset", "sin_amp", "cos_amp", "freq")),
            seed=seed,
        )
        _require(gen.n_params == n, "coeff_tables columns disagree with n")
        _require(gen.n_agents == n_agents, "coeff_tables disagree with n_agents")
        return gen
    coeff_range = d.get("coeff_range", [0.0, 20.0])
    freq_range = d.get("freq_range", [0.0, 3.0])
    rows = d.get("rows_per_agent", 1)
    rows = [number(p, "rows_per_agent", integer=True)
            for p in (rows if isinstance(rows, list) else [rows] * n_agents)]
    return sample_coefficients(n, n_agents, rows, coeff_range, freq_range, seed)


def load_config(d: dict) -> ScenarioConfig:
    """Validate a scenario JSON document and build the runtime objects."""
    _reject_unknown(d, _KEYS, "scenario")
    s = _scalars(d)
    n, n_agents = s["n"], s["n_agents"]
    _require("theta" in d, "missing required key: theta")
    theta = _array(d["theta"], "theta")
    _require(theta.shape == (n,), f"theta must have length n={n}")
    schedule = _build_schedule(d, n_agents)
    try:
        generator = _build_generator(d, n, n_agents, s["seed"])
    except ConfigError:
        raise
    except (ValueError, KeyError) as e:
        raise ConfigError(f"bad regressor settings: {e}") from None

    k = d.get("k", "auto")
    if k != "auto":
        k = number(k, 'k (a number or "auto")')
        _require(k > 0, "consensus gain k must be positive")

    from .sim import ESTIMATORS  # the kinds are declared with the runner

    estimators = tuple(d.get("estimators", ["ge", "drem"]))
    _require(len(estimators) > 0, "at least one estimator must be enabled")
    for e in estimators:
        _require(e in ESTIMATORS, f"unknown estimator kind {e!r}")
    _require(len(set(estimators)) == len(estimators), "duplicate estimator kinds")

    if "drem_filters" in d:
        f = d["drem_filters"]
        _reject_unknown(f, {"alphas", "betas"}, "drem_filters")
        alphas, betas = (_array(f.get(key), f"drem_filters.{key}") for key in ("alphas", "betas"))
        try:
            bank = DremFilterBank(alphas=alphas, betas=betas)
        except ValueError as e:
            raise ConfigError(f"bad drem_filters: {e}") from None
    else:
        bank = default_filter_bank(n)

    return ScenarioConfig(
        **s, theta=theta, schedule=schedule, generator=generator, k=k,
        gamma_ge=_parse_gain_matrix(d.get("gamma_ge", 1.0), n, "gamma_ge"),
        gamma_drem=_parse_gain_diag(d.get("gamma_drem", 1.0), n, "gamma_drem"),
        gamma_centralized=_parse_gain_matrix(
            d.get("gamma_centralized", 1.0), n, "gamma_centralized"
        ),
        estimators=estimators, drem_filters=bank,
        analysis=AnalysisConfig.from_dict(d.get("analysis", {})), raw=d,
    )


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply "dotted.key=value" override strings onto a JSON document copy."""
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
