import numpy as np
import pytest

from hiera_est.config import SCALAR_FIELDS, ConfigError, apply_overrides, load_config
from hiera_est.sim import DIVERGENCE_LIMIT, EPSILON_MIN


def base_doc():
    return {
        "n": 2,
        "n_agents": 3,
        "theta": [1.0, -2.0],
        "seed": 7,
        "coeff_range": [0, 2],
        "freq_range": [0.5, 3.0],
        "topology": {"edges": [[0, 1], [1, 2]]},
        "k": 5.0,
    }


class TestLoadConfig:
    def test_defaults(self):
        doc = base_doc()
        del doc["seed"]
        cfg = load_config(doc)
        assert (cfg.n, cfg.n_agents, cfg.seed) == (2, 3, 0)
        assert cfg.h == 1e-3 and cfg.t_end == 20.0 and cfg.decimation == 10
        assert cfg.gain_safety_factor == 1.01 and cfg.transient_fraction == 0.3
        assert cfg.noise_sd == 0.0 and cfg.loss_resample_dt == 0.1
        assert cfg.epsilon == 0.0 and cfg.p_loss == 0.0
        assert all(type(getattr(cfg, f.name)).__name__ == f.type for f in SCALAR_FIELDS)
        assert cfg.estimators == ("ge", "drem")
        np.testing.assert_array_equal(cfg.gamma_ge, np.eye(2))
        np.testing.assert_array_equal(cfg.gamma_drem, np.ones(2))
        assert cfg.drem_filters.r == 1

    @pytest.mark.parametrize("t_end, h", [(0.2006, 1e-3), (1.0, 3e-3), (0.0105, 1e-3)])
    def test_t_end_off_the_step_grid_refused(self, t_end, h):
        # The runner integrates round(t_end / h) steps, so these would end
        # at another time than t_end.
        doc = {**base_doc(), "t_end": t_end, "h": h}
        with pytest.raises(ConfigError, match=rf"t_end={t_end:g} .* steps of h={h:g}"):
            load_config(doc)

    @pytest.mark.parametrize("t_end, h", [(0.055, 1e-3), (0.3, 1e-3), (1.0, 2.5e-4), (0.7, 0.007)])
    def test_whole_step_t_end_loads(self, t_end, h):
        # t_end / h is a whole number up to rounding (0.7 / 0.007 is
        # 99.99999999999999 in floating point).
        cfg = load_config({**base_doc(), "t_end": t_end, "h": h, "decimation": 1})
        assert cfg.t_end == t_end and cfg.h == h

    def test_unknown_key_rejected(self):
        doc = base_doc()
        doc["tend"] = 5.0  # typo for t_end
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(doc)

    def test_missing_required_key(self):
        doc = base_doc()
        del doc["theta"]
        with pytest.raises(ConfigError, match="theta"):
            load_config(doc)

    def test_theta_length_checked(self):
        doc = base_doc()
        doc["theta"] = [1.0, 2.0, 3.0]
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_topology_and_schedule_exclusive(self):
        doc = base_doc()
        doc["schedule"] = {
            "graphs": [{"edges": [[0, 1], [1, 2]]}],
            "segments": [[0.0, 0]],
            "dwell_min": 1.0,
        }
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_schedule_built(self):
        doc = base_doc()
        del doc["topology"]
        doc["schedule"] = {
            "graphs": [{"edges": [[0, 1], [1, 2]]}, {"edges": [[0, 2], [1, 2]]}],
            "segments": [[0.0, 0], [2.0, 1]],
            "dwell_min": 2.0,
        }
        cfg = load_config(doc)
        assert len(cfg.schedule.topologies) == 2

    def test_auto_gain_accepted(self):
        doc = base_doc()
        doc["k"] = "auto"
        assert load_config(doc).k == "auto"

    def test_bad_gain_rejected(self):
        doc = base_doc()
        doc["k"] = -1.0
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_duplicate_estimators_rejected(self):
        doc = base_doc()
        doc["estimators"] = ["ge", "ge"]
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_unknown_estimator_rejected(self):
        doc = base_doc()
        doc["estimators"] = ["kalman"]
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_gain_matrix_validation(self):
        doc = base_doc()
        doc["gamma_ge"] = [[1.0, 2.0], [0.0, 1.0]]  # not symmetric
        with pytest.raises(ConfigError):
            load_config(doc)
        doc["gamma_ge"] = [[1.0, 0.0], [0.0, -1.0]]  # not PD
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_gamma_drem_diag(self):
        doc = base_doc()
        doc["gamma_drem"] = [0.1, 0.2]
        np.testing.assert_array_equal(load_config(doc).gamma_drem, [0.1, 0.2])
        doc["gamma_drem"] = [0.1, -0.2]
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_p_loss_range(self):
        doc = base_doc()
        doc["p_loss"] = 1.0
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_quantizer_step_below_the_float_range_refused(self):
        # EPSILON_MIN is the smallest step at which s/epsilon stays finite
        # for every |s| up to the divergence limit; epsilon = 0 is exact links.
        assert np.isfinite(np.float64(DIVERGENCE_LIMIT) / EPSILON_MIN)
        with np.errstate(over="ignore"):
            assert np.isinf(np.float64(DIVERGENCE_LIMIT) / (EPSILON_MIN / 2))
        for eps in (0.0, EPSILON_MIN, 1e-296, 0.036):
            assert load_config({**base_doc(), "epsilon": eps}).epsilon == eps
        for eps in (EPSILON_MIN / 2, 1e-305, 5e-324):
            with pytest.raises(ConfigError, match=r"^epsilon=.* is below 5\.56e-297 .*exact links"):
                load_config({**base_doc(), "epsilon": eps})

    def test_coeff_tables_exclusive_with_ranges(self):
        doc = base_doc()
        doc["coeff_tables"] = {
            "offset": [[[1.0, 0.0]]] * 3,
            "sin_amp": [[[0.0, 0.0]]] * 3,
            "cos_amp": [[[0.0, 0.0]]] * 3,
            "freq": [[[0.0, 0.0]]] * 3,
        }
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_coeff_tables_dimension_check(self):
        doc = base_doc()
        del doc["coeff_range"], doc["freq_range"]
        doc["coeff_tables"] = {
            "offset": [[[1.0, 0.0, 0.0]]] * 3,  # 3 columns but n=2
            "sin_amp": [[[0.0, 0.0, 0.0]]] * 3,
            "cos_amp": [[[0.0, 0.0, 0.0]]] * 3,
            "freq": [[[0.0, 0.0, 0.0]]] * 3,
        }
        with pytest.raises(ConfigError):
            load_config(doc)

    def test_coeff_tables_need_one_table_per_agent(self):
        doc = base_doc()
        del doc["coeff_range"], doc["freq_range"]
        doc["coeff_tables"] = {k: [] for k in ("offset", "sin_amp", "cos_amp", "freq")}
        with pytest.raises(ConfigError) as e:
            load_config(doc)
        assert str(e.value) == "coeff_tables.offset must be a list of 3 entries, got []"

    @pytest.mark.parametrize("key", ["offset", "sin_amp", "cos_amp", "freq"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True])
    def test_coeff_tables_entries_read_by_name(self, key, bad):
        # Ragged tables (agent 1 has two rows) are read one agent at a time;
        # a bad entry in the last agent's table is refused by its key.
        doc = base_doc()
        del doc["coeff_range"], doc["freq_range"]
        rows = [[[1.0, 0.5]], [[0.0, 1.0], [1.0, 1.0]], [[2.0, 0.0]]]
        doc["coeff_tables"] = {k: rows for k in ("offset", "sin_amp", "cos_amp", "freq")}
        assert load_config(doc).generator.rows_per_agent == (1, 2, 1)
        doc["coeff_tables"][key] = rows[:2] + [[[2.0, bad]]]
        with pytest.raises(ConfigError) as e:
            load_config(doc)
        assert str(e.value).startswith(f"coeff_tables.{key} must be a finite number")

    def test_echo_includes_resolved_tables(self):
        cfg = load_config(base_doc())
        echo = cfg.echo()
        assert "coeff_tables_resolved" in echo
        assert echo["k"] == 5.0

    @pytest.mark.parametrize(
        "key, value",
        [
            (f.name, v)
            for f in SCALAR_FIELDS
            for v in [float("nan"), float("inf"), -float("inf"), True, "1", -1]
            + ([2.5] if f.type == "int" else [])
        ],
    )
    def test_bad_scalar_rejected_by_name(self, key, value):
        # Every scalar key of the schema refuses a non-finite, boolean,
        # string or out-of-range value, and an integer key refuses 2.5.
        doc = base_doc()
        doc[key] = value
        with pytest.raises(ConfigError) as e:
            load_config(doc)
        assert str(e.value).startswith(f"{key} must be"), str(e.value)

    @pytest.mark.parametrize(
        "path, value",
        [
            ("k", float("nan")),
            ("k", float("inf")),
            ("k", True),
            ("k", "fast"),
            ("theta", [float("nan"), 1.0]),
            ("theta", [1.0, True]),
            ("gamma_ge", float("inf")),
            ("gamma_ge", [[1.0, 0.0], [0.0, float("nan")]]),
            ("gamma_drem", [1.0, float("inf")]),
            ("gamma_centralized", False),
            ("drem_filters.betas", [float("inf")]),
            ("drem_filters.alphas", ["1"]),
            ("analysis.horizon", float("nan")),
            ("analysis.alpha_threshold", True),
            ("analysis.T_grid", [0.1, float("inf")]),
            ("schedule.dwell_min", float("nan")),
            ("schedule.segments", [[0.0, 0.5]]),
            ("rows_per_agent", 1.5),
            ("rows_per_agent", [1, 1, 2.7]),
            ("rows_per_agent", [1, float("nan"), 1]),
            ("rows_per_agent", True),
        ],
    )
    def test_bad_structured_number_rejected_by_name(self, path, value):
        doc = base_doc()
        doc["drem_filters"] = {"alphas": [1.0], "betas": [1.0]}
        if path.startswith("schedule"):
            del doc["topology"]
            doc["schedule"] = {
                "graphs": [{"edges": [[0, 1], [1, 2]]}],
                "segments": [[0.0, 0]],
                "dwell_min": 1.0,
            }
        *parents, key = path.split(".")
        node = doc
        for p in parents:
            node = node.setdefault(p, {})
        node[key] = value
        with pytest.raises(ConfigError) as e:
            load_config(doc)
        assert str(e.value).startswith(f"{path} "), str(e.value)

    def test_integral_float_accepted_for_integer_key(self):
        doc = base_doc()
        doc["decimation"] = 5.0
        assert load_config(doc).decimation == 5

    def test_integral_float_edge_index_reads_as_int(self):
        doc = base_doc()
        reference = load_config(doc).schedule.topologies[0].adjacency
        doc["topology"] = {"edges": [[0, 1.0], [1, 2]]}
        np.testing.assert_array_equal(load_config(doc).schedule.topologies[0].adjacency, reference)

    @pytest.mark.parametrize(
        "key, value, rule",
        [("horizon", 0, "> 0"), ("horizon", -1, "> 0"), ("grid_step", 0, "> 0"),
         ("inflation", 0, ">= 1"), ("inflation", -1, ">= 1"), ("inflation", 0.99, ">= 1"),
         ("alpha_threshold", -1e-3, ">= 0")],
    )
    def test_analysis_range_refused_by_name(self, key, value, rule):
        doc = base_doc()
        doc["analysis"] = {key: value}
        with pytest.raises(ConfigError) as e:
            load_config(doc)
        assert str(e.value) == f"analysis.{key} must be {rule}, got {float(value)!r}"

    def test_analysis_defaults_in_range(self):
        a = load_config(base_doc()).analysis
        assert (a.horizon, a.grid_step, a.alpha_threshold, a.inflation) == (5.0, 2e-3, 1e-3, 1.05)
        assert a.T_grid == (0.04, 0.08, 0.16, 0.32, 0.64)

    def test_analysis_block(self):
        doc = base_doc()
        doc["analysis"] = {"T_grid": [0.1, 0.2], "horizon": 3.0}
        cfg = load_config(doc)
        assert cfg.analysis.T_grid == (0.1, 0.2)
        assert cfg.analysis.horizon == 3.0
        doc["analysis"] = {"window": 1.0}
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(doc)


class TestOverrides:
    def test_scalar_override(self):
        out = apply_overrides(base_doc(), ["epsilon=0.036", "k=3.0"])
        assert out["epsilon"] == 0.036 and out["k"] == 3.0

    def test_dotted_path(self):
        out = apply_overrides(base_doc(), ["analysis.horizon=2.5"])
        assert out["analysis"]["horizon"] == 2.5

    def test_json_values(self):
        out = apply_overrides(base_doc(), ['estimators=["ge"]'])
        assert out["estimators"] == ["ge"]

    def test_string_fallback(self):
        out = apply_overrides(base_doc(), ["k=auto"])
        assert out["k"] == "auto"

    def test_original_untouched(self):
        doc = base_doc()
        apply_overrides(doc, ["k=9.0"])
        assert doc["k"] == 5.0

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(base_doc(), ["epsilon"])
