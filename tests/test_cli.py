import dataclasses
import json

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

    def test_invariant_violation_exit(self, scenario_file, tmp_path, monkeypatch, capsys):
        # A consensus field that does not conserve the state sums.
        dac = sim.cns.dac_derivative

        def leaky(out, lap, k, eps=0.0):
            dX, dx = dac(out, lap, k, eps)
            return dX, dx + 1.0

        monkeypatch.setattr(sim.cns, "dac_derivative", leaky)
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


class TestSweep:
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
        monkeypatch.setattr(cli, "_run_one", lambda doc, outdir: ran.append(outdir))
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
        "jobs, cpus, expected",
        [("500", 8, 3), ("500", 2, 2), ("2", 8, 2), ("1", 8, None), ("4", 1, None)],
    )
    def test_workers_capped(
        self, scenario_file, tmp_path, monkeypatch, jobs, cpus, expected, affinity
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

            def map(self, fn, items):
                return map(fn, items)

        def fake_run(doc, outdir):
            metrics = {"per_estimator": {}, "tail_sup_cons_err": 0.0, "tail_sup_resid": 0.0}
            return {"outdir": outdir, "k": doc["k"], "metrics": metrics}

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_run_one", fake_run)
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
                "--axis", "epsilon", "--values", "0,0.018,0.036", "--jobs", jobs,
            ]
        )
        assert code == EXIT_OK
        assert started == ([] if expected is None else [expected])
