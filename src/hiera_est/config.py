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
from .excitation import DEFAULT_ALPHA_THRESHOLD, DEFAULT_SUP_INFLATION, check_window
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


def _list(value, key: str, length: int | None = None) -> list:
    """A JSON list, of exactly `length` entries when given (a missing key reads None)."""
    if not isinstance(value, list) or length not in (None, len(value)):
        what = "a list" if length is None else f"a list of {length} entries"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


# The range of a scalar key: the rule as its error message states it, and its test.
_POSITIVE = ("> 0", lambda x: x > 0)
_NONNEGATIVE = (">= 0", lambda x: x >= 0)
_AT_LEAST_ONE = (">= 1", lambda x: x >= 1)
_FRACTION = ("in [0, 1)", lambda x: 0 <= x < 1)


def _scalar(default, valid: tuple):
    """The schema of a scalar key: its default (None when required) and range.
    The field's annotation, int or float, is the key's type."""
    return field(metadata={"default": default, "valid": valid})


def _scalars(d: dict, cls, where: str = "") -> dict:
    """Every scalar key of `cls` in a document, read by `number` and checked
    against its range; `where` prefixes the key in messages."""
    out = {}
    for f in fields(cls):
        if "valid" not in f.metadata:
            continue
        key, default, (rule, ok) = where + f.name, f.metadata["default"], f.metadata["valid"]
        _require(f.name in d or default is not None, f"missing required key: {key}")
        x = out[f.name] = number(d[f.name], key, f.type == "int") if f.name in d else default
        if not ok(x):
            raise ConfigError(f"{key} must be {rule}, got {x!r}")
    return out


@dataclass
class AnalysisConfig:
    """Excitation-analysis settings (used by 'auto' gain mode and `analyze`)."""

    horizon: float = _scalar(5.0, _POSITIVE)
    grid_step: float = _scalar(2e-3, _POSITIVE)
    alpha_threshold: float = _scalar(DEFAULT_ALPHA_THRESHOLD, _NONNEGATIVE)
    # A grid maximum can only underestimate a supremum, so never shrink it.
    inflation: float = _scalar(DEFAULT_SUP_INFLATION, _AT_LEAST_ONE)
    T_grid: tuple[float, ...] = (0.04, 0.08, 0.16, 0.32, 0.64)

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisConfig":
        _reject_unknown(d, {f.name for f in fields(cls)}, "analysis")
        grid = _array(d["T_grid"], "analysis.T_grid") if "T_grid" in d else np.array(cls.T_grid)
        _require(grid.ndim == 1 and grid.size > 0, "analysis.T_grid must be a nonempty list")
        s = _scalars(d, cls, "analysis.")
        for T in grid.tolist():
            try:
                check_window(T, s["horizon"], s["grid_step"])
            except ValueError as e:
                raise ConfigError(f"analysis.T_grid entry {T:g}: {e}") from None
        return cls(**s, T_grid=tuple(grid.tolist()))


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


def _topology(d, n_agents: int, where: str):
    """A graph object {"edges": [[i, j], ...]}; each index is read by `number` as an integer."""
    _reject_unknown(d, {"edges"}, where)
    key = f"{where}.edges"
    edges = _list(d.get("edges"), key)
    # JSON integer pairs pass in one cheap sweep; any other edge is read index by index.
    if not all(type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int for e in edges):
        edges = [[number(i, key, integer=True) for i in _list(e, key, 2)] for e in edges]
    return topology_from_edges(n_agents, edges)


def _build_schedule(d: dict, n_agents: int) -> SwitchingSchedule:
    if "topology" in d:
        _require("schedule" not in d, "give either topology or schedule, not both")
        return constant_schedule(_topology(d["topology"], n_agents, "topology"))
    _require("schedule" in d, "scenario needs a topology or a schedule")
    sch = d["schedule"]
    _reject_unknown(sch, {"graphs", "segments", "dwell_min"}, "schedule")
    graphs = _list(sch.get("graphs"), "schedule.graphs")
    topos = tuple(_topology(g, n_agents, "schedule.graphs") for g in graphs)
    key = "schedule.segments"
    pairs = [_list(seg, key, 2) for seg in _list(sch.get("segments"), key)]
    segments = tuple((number(s, key), number(i, key, integer=True)) for s, i in pairs)
    dwell_min = number(sch.get("dwell_min"), "schedule.dwell_min")
    return SwitchingSchedule(topologies=topos, segments=segments, dwell_min=dwell_min)


def _table(value, key: str) -> np.ndarray:
    """One agent's coefficient table: a rows x n matrix."""
    a = _array(value, key)
    _require(a.ndim == 2, f"{key} must hold one rows x n table per agent, got {value!r}")
    return a


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
            *([_table(a, f"coeff_tables.{key}")
               for a in _list(t.get(key), f"coeff_tables.{key}", n_agents)]
              for key in ("offset", "sin_amp", "cos_amp", "freq")),
            seed=seed,
        )
        _require(gen.n_params == n, "coeff_tables columns disagree with n")
        return gen
    coeff_range, freq_range = (
        [number(x, key) for x in _list(d.get(key, default), key, 2)]
        for key, default in (("coeff_range", [0.0, 20.0]), ("freq_range", [0.0, 3.0]))
    )
    rows = d.get("rows_per_agent", 1)
    rows = [number(p, "rows_per_agent", integer=True)
            for p in (rows if isinstance(rows, list) else [rows] * n_agents)]
    return sample_coefficients(n, n_agents, rows, coeff_range, freq_range, seed)


def load_config(d: dict) -> ScenarioConfig:
    """Validate a scenario JSON document and build the runtime objects."""
    _reject_unknown(d, _KEYS, "scenario")
    s = _scalars(d, ScenarioConfig)
    t_end, h = s["t_end"], s["h"]
    _require(t_end >= 10 * h, "t_end must cover at least 10 steps of h")
    steps = t_end / h  # the runner integrates round(steps) steps of h
    _require(abs(steps - round(steps)) <= 1e-9 * steps,
             f"t_end={t_end:g} is not a whole number of steps of h={h:g} (t_end/h = "
             f"{steps:.12g}); the run would end at t={round(steps) * h:g}")
    # The runner's limits, kinds and tail window.
    from .sim import DIVERGENCE_LIMIT, EPSILON_MIN, ESTIMATORS, in_tail

    eps = s["epsilon"]
    _require(eps == 0 or eps >= EPSILON_MIN,
             f"epsilon={eps:g} is below {EPSILON_MIN:.3g} (the divergence limit "
             f"{DIVERGENCE_LIMIT:g} over the largest float): at a smaller quantizer step, "
             f"s/epsilon overflows for outputs |s| inside the limit; set epsilon = 0 for "
             f"exact links")

    # The last sample is at the last step that decimation divides (see run_scenario).
    dec = s["decimation"]
    last_t = int(round(s["t_end"] / s["h"])) // dec * dec * s["h"]
    _require(in_tail(last_t, s["t_end"]), f"decimation={dec} leaves no sample in the metrics "
             f"tail window of t_end={s['t_end']:g}: the last sample is at t={last_t:g}")
    n, n_agents = s["n"], s["n_agents"]
    _require("theta" in d, "missing required key: theta")
    theta = _array(d["theta"], "theta")
    _require(theta.shape == (n,), f"theta must have length n={n}")
    schedule = _build_schedule(d, n_agents)
    try:
        generator = _build_generator(d, n, n_agents, s["seed"])
    except ValueError as e:  # the generator's messages start with their key
        raise ConfigError(str(e)) from None

    k = d.get("k", "auto")
    if k != "auto":
        k = number(k, 'k (a number or "auto")')
        _require(k > 0, "consensus gain k must be positive")

    estimators = tuple(_list(d.get("estimators", ["ge", "drem"]), "estimators"))
    _require(len(estimators) > 0, "at least one estimator must be enabled")
    for e in estimators:
        _require(isinstance(e, str) and e in ESTIMATORS, f"unknown estimator kind {e!r}")
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
