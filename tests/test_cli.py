import csv
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hiera_est import cli, sim
from hiera_est import excitation as exc
from hiera_est.sim import run_scenario
from hiera_est.cli import (
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_VALIDATION,
    main,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracing, workloads  # noqa: E402


def _never(*args):
    raise AssertionError("analysed or integrated a refused scenario")


@pytest.fixture
def scenario_file(tmp_path):
    doc = {
        "n": 2,
        "n_agents": 3,
        "theta": [1.0, -2.0],
        "seed": 7,
        "coeff_range": [0, 2],
        "freq_range": [0.5, 3.0],
        "topology": {"edges": [[0, 1], [1, 2]]},
        "k": 5.0,
        "gamma_ge": 2.0,
        "gamma_drem": 1e-8,
        "estimators": ["ge", "drem"],
        "t_end": 1.0,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_artifacts_and_exit(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "run1"
        code = main(["run", "-c", str(scenario_file), "-o", str(out)])
        assert code == EXIT_OK
        assert {p.name for p in out.iterdir()} == {
            "traces.csv",
            "metrics.json",
            "constants.json",
            "config-echo.json",
        }
        summary = json.loads(capsys.readouterr().out)
        assert summary["k"] == 5.0
        assert "per_estimator" in summary["metrics"]

    def test_set_override(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "run2"
        code = main(
            ["run", "-c", str(scenario_file), "-o", str(out), "--set", "k=6.5"]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["k"] == 6.5
        echo = json.loads((out / "config-echo.json").read_text())
        assert echo["k"] == 6.5

    def test_auto_gain_analyses_once(self, scenario_file, tmp_path, capsys, monkeypatch):
        # The analysis that resolves k also gives the report and the margins,
        # and the run gets the resolved k.
        passes, run_gains = [], []
        bounds = exc.estimate_assumption_bounds

        def counted(*args, **kwargs):
            passes.append(1)
            return bounds(*args, **kwargs)

        def run_resolved(cfg):
            run_gains.append(cfg.k)
            # The resolved k (~5e7) is far too stiff for h = 1e-3.
            return run_scenario(dataclasses.replace(cfg, k=5.0))

        monkeypatch.setattr(exc, "estimate_assumption_bounds", counted)
        monkeypatch.setattr(cli, "run_scenario", run_resolved)
        out = tmp_path / "auto"
        code = main(["run", "-c", str(scenario_file), "-o", str(out), "--set", "k=auto"])
        assert code == EXIT_OK
        assert len(passes) == 1
        k = json.loads(capsys.readouterr().out)["k"]
        assert run_gains == [k]
        constants = json.loads((out / "constants.json").read_text())
        assert constants["k"] == k > constants["k_min"]
        assert constants["quantized"]["k"] == k

    def test_auto_gain_too_stiff_for_step_is_rejected(self, scenario_file, tmp_path, capsys):
        # The resolved k (~5e7) times lambda_max = 3 times h = 1e-3 is far past
        # RK4's stability limit: a validation error before integrating.
        out = tmp_path / "stiff"
        code = main(["run", "-c", str(scenario_file), "-o", str(out), "--set", "k=auto"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "too stiff" in err and "lambda_max=3" in err and "h=0.001" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, key", [("t_end=inf", "t_end"), ("theta=[NaN,1,2]", "theta")]
    )
    def test_non_finite_value_rejected_before_analysis(
        self, tmp_path, monkeypatch, capsys, override, key
    ):
        def never(*args):
            raise AssertionError("analysed or integrated a refused scenario")

        monkeypatch.setattr(cli, "analysis_report", never)
        monkeypatch.setattr(cli, "run_scenario", never)
        out = tmp_path / "bad"
        scenario = ROOT / "scenarios" / "nominal_switched.json"
        code = main(["run", "-c", str(scenario), "-o", str(out), "--set", override])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {key} must be a finite number")
        assert not out.exists()

    def test_decimation_past_the_tail_window_refused_before_integrating(
        self, tmp_path, monkeypatch, capsys
    ):
        # 2000 steps sampled every 1500: the last sample, t = 1.5, is before
        # the metrics tail window [1.6, 2].
        monkeypatch.setattr(cli, "analysis_report", _never)
        monkeypatch.setattr(cli, "run_scenario", _never)
        out = tmp_path / "bad"
        scenario = ROOT / "scenarios" / "nominal_switched.json"
        code = main(["run", "-c", str(scenario), "-o", str(out),
                     "--set", "t_end=2", "--set", "decimation=1500"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: decimation=1500 leaves no sample")
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["1e-305", "1e-306", "1e-308", "1e-320"])
    def test_tiny_quantizer_step_refused_before_integrating(
        self, tmp_path, monkeypatch, capsys, eps
    ):
        # s/epsilon would overflow for outputs inside the divergence limit,
        # and the run would report the NaN as a divergence of the state.
        monkeypatch.setattr(cli, "analysis_report", _never)
        monkeypatch.setattr(cli, "run_scenario", _never)
        out = tmp_path / "bad"
        scenario = ROOT / "scenarios" / "nominal_switched.json"
        code = main(["run", "-c", str(scenario), "-o", str(out),
                     "--set", f"epsilon={eps}", "--set", "t_end=0.02"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: epsilon=")
        assert "exact links" in captured.err and captured.out == ""
        assert not out.exists()

    def test_t_end_off_the_step_grid_refused_before_integrating(
        self, tmp_path, monkeypatch, capsys
    ):
        # 200.6 steps of h: the runner would integrate 201, to t = 0.201.
        monkeypatch.setattr(cli, "analysis_report", _never)
        monkeypatch.setattr(cli, "run_scenario", _never)
        out = tmp_path / "bad"
        scenario = ROOT / "scenarios" / "nominal_switched.json"
        code = main(["run", "-c", str(scenario), "-o", str(out), "--set", "t_end=0.2006"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: t_end=0.2006 is not a whole number of steps of h=0.001")
        assert not out.exists()

    def test_auto_gain_without_positive_bound_is_rejected(self, tmp_path, capsys):
        # Constant regressors give gamma = 0, so the bound asks for k_min = 0:
        # no auto gain, and the message says to give k.
        out = tmp_path / "rank1"
        scenario = ROOT / "scenarios" / "cooperative_rank1.json"
        code = main(
            ["run", "-c", str(scenario), "-o", str(out), "--set", "k=auto", "--set", "t_end=1"]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "gamma = 0" in err and "explicit k" in err
        assert not out.exists()

    def test_validation_exit(self, scenario_file, tmp_path, capsys):
        code = main(
            ["run", "-c", str(scenario_file), "-o", str(tmp_path / "x"),
             "--set", "p_loss=2.0"]
        )
        assert code == EXIT_VALIDATION

    def test_missing_file_exit(self, tmp_path):
        code = main(["run", "-c", str(tmp_path / "nope.json"), "-o", str(tmp_path)])
        assert code == EXIT_VALIDATION

    def test_divergence_exit(self, scenario_file, tmp_path):
        code = main(
            ["run", "-c", str(scenario_file), "-o", str(tmp_path / "d"),
             "--set", "gamma_ge=1e9"]
        )
        assert code == EXIT_DIVERGENCE

    def test_short_run_reports_no_decay_rate_and_writes_artifacts(self, tmp_path, capsys):
        # 20 steps, 3 samples: too few for a decay fit, which is not an error.
        out = tmp_path / "short"
        scenario = ROOT / "scenarios" / "nominal_switched.json"
        code = main(["run", "-c", str(scenario), "-o", str(out), "--set", "t_end=0.02"])
        assert code == EXIT_OK
        assert {p.name for p in out.iterdir()} == {
            "traces.csv", "metrics.json", "constants.json", "config-echo.json",
        }
        metrics = json.loads((out / "metrics.json").read_text())
        for kind, m in metrics["per_estimator"].items():
            assert m["decay_rate"] == [None] * 10, kind
            assert len(m["final_err"]) == 10
        summary = json.loads(capsys.readouterr().out)
        assert summary["metrics"] == metrics

    def test_invariant_violation_exit(self, scenario_file, tmp_path, monkeypatch, capsys):
        # A consensus field that does not conserve the state sums.
        dac = sim.cns.dac_derivative

        def leaky(Z, lap, k, eps=0.0, out=None):
            d = dac(Z, lap, k, eps, out=out)
            sim.cns.split(d)[1][:] += 1.0
            return d

        monkeypatch.setattr(sim.cns, "dac_derivative", leaky)
        # At epsilon > 0 the runner calls the field at every stage of every step.
        code = main(["run", "-c", str(scenario_file), "-o", str(tmp_path / "leak"),
                     "--set", "epsilon=1e-9"])
        assert code == EXIT_DIVERGENCE == 3
        assert "sums drifted at t=0.01:" in capsys.readouterr().err

    def test_invariant_violation_exit_at_eps0(self, scenario_file, tmp_path, monkeypatch, capsys):
        # The same at epsilon = 0, where the runner steps the lower layer by
        # RK4's maps: a Laplacian whose columns do not sum to zero.
        laplacian = sim.cns.effective_laplacian

        def leaky(topo, mask=None):
            return laplacian(topo, mask) + np.eye(topo.n_agents)

        monkeypatch.setattr(sim.cns, "effective_laplacian", leaky)
        code = main(["run", "-c", str(scenario_file), "-o", str(tmp_path / "leak")])
        assert code == EXIT_DIVERGENCE == 3
        assert "sums drifted at t=0.01:" in capsys.readouterr().err

    def test_unwritable_output_exit(self, scenario_file):
        code = main(
            ["run", "-c", str(scenario_file), "-o", "/proc/definitely/not/writable"]
        )
        assert code == EXIT_OUTPUT


class TestAnalyze:
    def test_report(self, scenario_file, capsys):
        code = main(["analyze", "-c", str(scenario_file)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["pe"] is True
        assert len(report["alpha_curve"]) == 5
        assert report["k_min"] > 0
        assert "quantized" in report  # k is explicit in the scenario

    @pytest.mark.parametrize(
        "scenario, override, message",
        [
            ("nominal_switched", "rows_per_agent=1.5", "rows_per_agent must be an integer"),
            ("nominal_switched", "rows_per_agent=[1,1,1,1,1,1,1,1,1,2.7]",
             "rows_per_agent must be an integer"),
            ("cooperative_rank1", "coeff_tables.freq=[[[NaN,0,0]],[[0,0,0]],[[0,0,0]],[[0,0,0]]]",
             "coeff_tables.freq must be a finite number"),
            ("nominal_switched", "coeff_range=[5,1]", "coeff_range must be"),
            ("nominal_switched", "freq_range=[3,0]", "freq_range must be"),
            ("nominal_switched", "rows_per_agent=0", "rows_per_agent must give"),
            ("nominal_switched", "rows_per_agent=[1,1]", "rows_per_agent must give"),
            ("cooperative_rank1", "coeff_tables.freq=[[[0,0]],[[0,0,0]],[[0,0,0]],[[0,0,0]]]",
             "coeff_tables must give"),
        ],
    )
    def test_bad_regressor_source_rejected_by_name(
        self, monkeypatch, capsys, scenario, override, message
    ):
        def never(*args):
            raise AssertionError("analysed a refused scenario")

        monkeypatch.setattr(cli, "analysis_report", never)
        path = ROOT / "scenarios" / f"{scenario}.json"
        assert main(["analyze", "-c", str(path), "--set", override]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {message}")


    @pytest.mark.parametrize(
        "scenario, override, message",
        [
            ("cooperative_rank1", "coeff_tables.offset=5", "coeff_tables.offset must be a list"),
            ("cooperative_rank1", "coeff_tables.offset=[[[1,0,0]]]",
             "coeff_tables.offset must be a list of 4 entries"),
            ("cooperative_rank1", "coeff_tables.freq=[1,2,3,4]",
             "coeff_tables.freq must hold one rows x n table per agent"),
            ("nominal_switched", "coeff_range=5", "coeff_range must be a list of 2 entries"),
            ("nominal_switched", "freq_range=[1]", "freq_range must be a list of 2 entries"),
            ("nominal_switched", "schedule.graphs=5", "schedule.graphs must be a list"),
            ("nominal_switched", "schedule.segments=[[0,0,1]]",
             "schedule.segments must be a list of 2 entries"),
            ("nominal_switched", 'estimators="ge"', "estimators must be a list"),
            ("cooperative_rank1", "topology.edges=[[0,1.5],[1,2],[2,3],[3,0]]",
             "topology.edges must be an integer"),
            ("cooperative_rank1", "topology.edges=[[0,1,2]]",
             "topology.edges must be a list of 2 entries"),
            ("cooperative_rank1", "topology.edges=[[0,true],[1,2],[2,3],[3,0]]",
             "topology.edges must be a finite number"),
        ],
    )
    def test_bad_structured_key_rejected_by_name(
        self, monkeypatch, capsys, scenario, override, message
    ):
        def never(*args):
            raise AssertionError("analysed a refused scenario")

        monkeypatch.setattr(cli, "analysis_report", never)
        path = ROOT / "scenarios" / f"{scenario}.json"
        assert main(["analyze", "-c", str(path), "--set", override]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", ["analyze", "run"])
@pytest.mark.parametrize(
    "scenario, override, rule",
    [
        ("cooperative_rank1", "analysis.T_grid=[0]", "window T must be positive"),
        ("cooperative_rank1", "analysis.T_grid=[0.001]", "grid too coarse"),
        ("nominal_switched", "analysis.horizon=0.01", "horizon must cover at least one window"),
    ],
)
def test_window_off_the_analysis_grid_refused_by_name(
    tmp_path, monkeypatch, capsys, command, scenario, override, rule
):
    monkeypatch.setattr(cli, "analysis_report", _never)
    monkeypatch.setattr(cli, "run_scenario", _never)
    argv = [command, "-c", str(ROOT / "scenarios" / f"{scenario}.json"), "--set", override]
    out = tmp_path / "out"
    assert main(argv + (["-o", str(out)] if command == "run" else [])) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: analysis.T_grid entry") and rule in err
    assert not out.exists()


class TestGainBound:
    def test_reference_constants(self, capsys):
        code = main(
            [
                "gain-bound", "--n", "3", "--N", "10", "--beta", "20.769",
                "--gamma", "8.3966", "--T", "0.16", "--alpha", "51.326",
                "--lambda-g", "0.367",
            ]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["k_min"], 2.778, rtol=0.01)

    def test_invalid_constants(self, capsys):
        code = main(
            [
                "gain-bound", "--n", "3", "--N", "10", "--beta", "1",
                "--gamma", "1", "--T", "0.1", "--alpha", "0", "--lambda-g", "1",
            ]
        )
        assert code == EXIT_VALIDATION


@pytest.mark.parametrize(
    "argv",
    [
        ["gain-bound", "--n", "3", "--N", "10", "--beta", "1", "--gamma", "1",
         "--T", "0.1", "--alpha", "nan", "--lambda-g", "1"],
        ["feasibility", "--n", "3", "--N", "10", "--beta", "inf", "--gamma", "1",
         "--T", "0.1", "--alpha", "1", "--k", "1", "--lambda-g", "1", "--lambda-max", "2"],
    ],
    ids=["gain-bound-alpha-nan", "feasibility-beta-inf"],
)
def test_non_finite_constant_rejected(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


class TestFeasibility:
    def test_fields(self, capsys):
        code = main(
            [
                "feasibility", "--n", "3", "--N", "10", "--beta", "20.769",
                "--gamma", "8.3966", "--T", "0.16", "--alpha", "51.326",
                "--k", "2.806", "--lambda-g", "0.367", "--lambda-max", "4.0",
                "--epsilon", "0.036",
            ]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"feasible", "margin", "b_eps", "r_eps"}
        assert out["r_eps"] > 0

    REFERENCE = {"--n": "3", "--N": "10", "--beta": "20.769", "--gamma": "8.3966",
                 "--T": "0.16", "--alpha": "51.326", "--k": "2.806", "--lambda-g": "0.367",
                 "--lambda-max": "4.0"}

    @pytest.mark.parametrize(
        "flag, value, rule",
        [("--n", "0", "n >= 1"), ("--N", "0", "N >= 1"), ("--T", "0", "T > 0"),
         ("--T", "-0.1", "T > 0"), ("--beta", "-1", "beta >= 0"),
         ("--gamma", "-1", "gamma >= 0"), ("--alpha", "-1", "alpha >= 0")],
    )
    def test_degenerate_constant_refused(self, capsys, flag, value, rule):
        argv = ["feasibility"]
        for f, v in {**self.REFERENCE, flag: value}.items():
            argv += [f, v]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid constants: need {rule}\n"

    def test_zero_alpha_is_infeasible(self, capsys):
        argv = ["feasibility"]
        for f, v in {**self.REFERENCE, "--alpha": "0"}.items():
            argv += [f, v]
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["feasible"] is False


class TestSweep:
    def test_traced_sweep_workers_send_their_spans_back(self, tmp_path):
        # perfbench's cli_analyze_sweep workload, traced: analyze, then an
        # epsilon sweep on two workers. Each worker's spans come back to the
        # parent: one analysis for analyze and one for the whole sweep (in
        # the parent), time waiting on the pool, and one rk4_step per step
        # of the one batch at epsilon > 0, whose three members are stepped
        # at once (at epsilon = 0 the lower layer is stepped by RK4's maps,
        # without rk4_step). Each batch runs through sim.run_members, which
        # the run_scenario hook does not see.
        wl = workloads.CliAnalyzeSweep(ROOT, scratch=tmp_path)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            tracer.begin_run(1)
            with tracer.span("bench.iteration"):
                _, got = wl.run()
        assert got["analyze_rc"] == got["sweep_rc"] == EXIT_OK
        stats = tracing.run_stats(tracer, "bench.iteration")[1]
        values = [float(v) for v in workloads.SWEEP_VALUES.split(",")]
        steps = int(round(workloads.SWEEP_T_END / 1e-3))
        assert stats.calls["excitation.analyze"] == 1 + 1
        assert stats.calls["sim.run"] == 0
        assert stats.self_s["cli.pool_wait"] > 0
        assert sum(v > 0 for v in values) == 3
        assert stats.calls["sim.rk4"] == steps * 1

    def test_epsilon_axis(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "-c", str(scenario_file), "-o", str(out),
                "--axis", "epsilon", "--values", "0,0.018",
            ]
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert [r["value"] for r in summary["runs"]] == [0.0, 0.018]
        csv_lines = (out / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 3  # header + 2 runs
        assert (out / "epsilon=0" / "traces.csv").exists()
        assert (out / "epsilon=0.018" / "traces.csv").exists()

    @pytest.mark.parametrize(
        "axis, values, jobs",
        [("epsilon", [0.0, 0.018, 0.036], "1"), ("epsilon", [0.0, 0.018, 0.036], "2"),
         ("seed", [7.0, 8.0], "1")],
    )
    def test_members_are_their_solo_runs_byte_for_byte(
        self, scenario_file, tmp_path, axis, values, jobs
    ):
        # The members at epsilon > 0 of an epsilon sweep run as one batch,
        # after one analysis in this process; a seed sweep's members draw
        # their own regressors, so each gets an analysis of its own. Every
        # artifact is the one `run` writes for the member alone.
        out = tmp_path / "sweep"
        assert main(["sweep", "-c", str(scenario_file), "-o", str(out), "--axis", axis,
                     "--values", ",".join(map(str, values)), "--jobs", jobs,
                     "--set", "t_end=0.1"]) == EXIT_OK
        for v in values:
            solo = tmp_path / f"solo{v}"
            assert main(["run", "-c", str(scenario_file), "-o", str(solo),
                         "--set", f"{axis}={v!r}", "--set", "t_end=0.1"]) == EXIT_OK
            for name in ("traces.csv", "metrics.json", "constants.json", "config-echo.json"):
                assert (out / f"{axis}={v:g}" / name).read_bytes() == (solo / name).read_bytes()

    def test_output_path_with_a_comma(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "sw,eep"
        code = main(
            [
                "sweep", "-c", str(scenario_file), "-o", str(out),
                "--axis", "epsilon", "--values", "0,0.018", "--set", "t_end=0.1",
            ]
        )
        assert code == EXIT_OK
        with open(out / "sweep.csv", newline="") as f:
            header = next(csv.reader(f))
            f.seek(0)
            rows = list(csv.DictReader(f))
        assert [(r["value"], r["outdir"]) for r in rows] == [
            ("0.0", str(out / "epsilon=0")), ("0.018", str(out / "epsilon=0.018"))
        ]
        assert all(len(r) == len(header) and None not in r for r in rows)

    def test_bad_values(self, scenario_file, tmp_path):
        code = main(
            [
                "sweep", "-c", str(scenario_file), "-o", str(tmp_path / "s"),
                "--axis", "epsilon", "--values", "a,b",
            ]
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "values, clash",
        [
            ("0.1,0.1000001", "{'epsilon=0.1': ['0.1', '0.1000001']}"),
            ("0,0.018,0", "{'epsilon=0': ['0', '0']}"),
        ],
    )
    def test_values_sharing_a_directory_rejected(
        self, scenario_file, tmp_path, monkeypatch, capsys, values, clash
    ):
        ran = []
        monkeypatch.setattr(cli, "_run_batch", lambda docs, outdirs, report: ran.append(outdirs))
        out = tmp_path / "s"
        code = main(
            ["sweep", "-c", str(scenario_file), "-o", str(out), "--axis", "epsilon",
             "--values", values, "--jobs", "2"]
        )
        assert code == EXIT_VALIDATION
        assert clash in capsys.readouterr().err
        assert ran == [] and not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, scenario_file, tmp_path, jobs):
        code = main(
            [
                "sweep", "-c", str(scenario_file), "-o", str(tmp_path / "s"),
                "--axis", "epsilon", "--values", "0,0.018", "--jobs", jobs,
            ]
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
    @pytest.mark.parametrize(
        "axis, jobs, cpus, expected",
        # noise_sd does not batch: three members, three batches. On the
        # epsilon axis the members at 0.018 and 0.036 form one batch.
        [("noise_sd", "500", 8, 3), ("noise_sd", "500", 2, 2), ("noise_sd", "2", 8, 2),
         ("noise_sd", "1", 8, None), ("noise_sd", "4", 1, None),
         ("epsilon", "500", 8, 2), ("epsilon", "2", 8, 2), ("epsilon", "1", 8, None)],
    )
    def test_workers_capped(
        self, scenario_file, tmp_path, monkeypatch, axis, jobs, cpus, expected, affinity
    ):
        started = []

        class RecordingPool:
            """Stands in for the process pool: records its size, runs in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *items):
                return map(fn, *items)

        def fake_batch(docs, outdirs, report):
            metrics = {"per_estimator": {}, "tail_sup_cons_err": 0.0, "tail_sup_resid": 0.0}
            return [{"outdir": outdir, "k": doc["k"], "metrics": metrics}
                    for doc, outdir in zip(docs, outdirs)]

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_run_batch", fake_batch)
        if affinity:
            # The affinity mask, not the host's CPU count, bounds the pool.
            monkeypatch.setattr(
                cli.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
            )
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code = main(
            [
                "sweep", "-c", str(scenario_file), "-o", str(tmp_path / "s"),
                "--axis", axis, "--values", "0,0.018,0.036", "--jobs", jobs,
            ]
        )
        assert code == EXIT_OK
        assert started == ([] if expected is None else [expected])


PLAIN = (bool, int, float, str, type(None))


def leaves(obj):
    if isinstance(obj, dict):
        return [leaf for v in obj.values() for leaf in leaves(v)]
    if isinstance(obj, list):
        return [leaf for v in obj for leaf in leaves(v)]
    return [obj]


@pytest.mark.parametrize(
    "command, documents",
    [
        (["run", "-o", "{tmp}/run"], 4),  # metrics, constants, config echo, stdout
        (["analyze"], 1),
        (["analyze", "--set", "k=auto"], 1),
        (["analyze", "--set", "coeff_range=[0,0]"], 1),
        (["sweep", "-o", "{tmp}/sweep", "--axis", "epsilon", "--values", "0,0.018"], 7),
        (["feasibility", "--n", "3", "--N", "10", "--beta", "20.769", "--gamma", "8.3966",
          "--T", "0.16", "--alpha", "51.326", "--k", "2.806", "--lambda-g", "0.367",
          "--lambda-max", "4.0", "--epsilon", "0.036"], 1),
        (["gain-bound", "--n", "3", "--N", "10", "--beta", "20.769", "--gamma", "8.3966",
          "--T", "0.16", "--alpha", "51.326", "--lambda-g", "0.367"], 1),
    ],
    ids=["run", "analyze", "analyze-auto-k", "analyze-not-pe", "sweep", "feasibility",
         "gain-bound"],
)
def test_every_json_output_holds_plain_values(
    scenario_file, tmp_path, monkeypatch, command, documents
):
    # What reaches json.dumps is already plain: no numpy scalar or array
    # (np.bool_ and np.int64 would not serialize, np.float64 only by luck).
    written = []
    dumps = json.dumps

    def recording(obj, *args, **kwargs):
        written.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", recording)
    argv = [a.format(tmp=tmp_path) for a in command]
    if argv[0] not in ("feasibility", "gain-bound"):
        argv += ["-c", str(scenario_file)]
    assert main(argv) == EXIT_OK
    assert len(written) == documents
    for doc in written:
        bad = {type(x).__name__ for x in leaves(doc) if type(x) not in PLAIN}
        assert not bad, bad
        infinite = [x for x in leaves(doc) if type(x) is float and not math.isfinite(x)]
        assert not infinite, infinite


NOMINAL = str(ROOT / "scenarios" / "nominal_switched.json")
HUGE = ["--n", "3", "--N", "10", "--beta", "1e300", "--gamma", "1e300", "--T", "1",
        "--alpha", "1", "--lambda-g", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # beta and gamma are finite, their product in k_min is not
        (["analyze", "-c", NOMINAL, "--set", "coeff_range=[0,1e76]"], "k_min is not finite"),
        # the gamma Gram (c^4) overflows
        (["analyze", "-c", NOMINAL, "--set", "coeff_range=[0,1e80]"], "analysis Grams overflow"),
        (["run", "-c", NOMINAL, "-o", "{tmp}/run", "--set", "coeff_range=[0,1e80]"],
         "analysis Grams overflow"),
        (["gain-bound", *HUGE], "k_min is not finite"),
        (["feasibility", *HUGE, "--k", "1e-300", "--lambda-max", "1e300", "--epsilon", "1e300"],
         "consensus error ceiling is not finite"),
    ],
    ids=["analyze-k_min", "analyze-gram", "run-gram", "gain-bound", "feasibility"],
)
def test_values_past_the_float_range_refused(argv, message, tmp_path, capsys):
    # Each printed Infinity, or failed with numpy's warning and LAPACK's
    # error, before it was refused.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([a.format(tmp=tmp_path) for a in argv]) == EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err
