import numpy as np
import pytest

from hiera_est import consensus, estimators, sim
from hiera_est.config import ConfigError, load_config
from hiera_est.signals import RegressorGenerator
from hiera_est.sim import (
    InvariantViolation,
    SimulationDiverged,
    compute_metrics,
    fit_decay_rate,
    resolve_gain,
    rk4_step,
    run_scenario,
    write_run_dir,
)


def small_doc(**over):
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
        "h": 1e-3,
        "t_end": 3.0,
        "decimation": 10,
    }
    doc.update(over)
    return doc


@pytest.fixture(scope="module")
def small_trace():
    return run_scenario(load_config(small_doc()))


class TestRk4:
    def test_exponential_accuracy(self):
        # dy/dt = -y has solution e^{-t}; RK4 at h=0.01 should be ~1e-10 accurate
        y = np.array([1.0])
        f = lambda t, s: -s
        for i in range(100):
            y = rk4_step(f, y, i * 0.01, 0.01)
        np.testing.assert_allclose(y[0], np.exp(-1.0), rtol=1e-10)

    def test_fourth_order_convergence(self):
        f = lambda t, s: np.array([np.cos(t) * s[0]])

        def err(h):
            y = np.array([1.0])
            n = int(round(1.0 / h))
            for i in range(n):
                y = rk4_step(f, y, i * h, h)
            return abs(y[0] - np.exp(np.sin(1.0)))

        # halving h should reduce the error by ~2^4
        ratio = err(0.02) / err(0.01)
        assert 12 < ratio < 20

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            rk4_step(lambda t, s: s, np.zeros(1), 0.0, 0.0)


class TestRunScenario:
    def test_deterministic(self, small_trace):
        again = run_scenario(load_config(small_doc()))
        np.testing.assert_array_equal(
            small_trace.estimators["ge"].theta_hat, again.estimators["ge"].theta_hat
        )
        np.testing.assert_array_equal(small_trace.cons_err, again.cons_err)

    def test_sample_grid(self, small_trace):
        assert small_trace.t[0] == 0.0
        assert small_trace.t[-1] == pytest.approx(3.0)
        np.testing.assert_allclose(np.diff(small_trace.t), 0.01, atol=1e-12)

    def test_residual_identity_nominal(self, small_trace):
        # zero-init + noiseless + unquantized: yhat = Chat theta to roundoff
        assert small_trace.resid_norm.max() < 1e-9

    def test_invariants(self, small_trace):
        assert small_trace.max_conservation_err < 1e-8
        assert small_trace.max_asymmetry < 1e-10

    def test_estimators_converge(self, small_trace):
        ge = small_trace.estimators["ge"]
        assert ge.err_norm[-1].max() < 0.1 * ge.err_norm[0].max()

    def test_quantized_run_keeps_invariants(self):
        tr = run_scenario(load_config(small_doc(epsilon=0.036, t_end=1.0)))
        assert tr.max_conservation_err < 1e-8
        assert tr.max_asymmetry < 1e-10
        # quantization breaks the exact residual identity
        assert tr.resid_norm.max() > 1e-6

    def test_lossy_run_keeps_invariants(self):
        tr = run_scenario(load_config(small_doc(p_loss=0.4, t_end=1.0)))
        assert tr.max_conservation_err < 1e-8
        assert tr.max_asymmetry < 1e-10

    def test_noise_exact_scaling(self):
        # the estimator state is linear in the noise and the noise streams are
        # shared across runs, so halving sd exactly halves the perturbation
        t0 = run_scenario(load_config(small_doc(noise_sd=0.0, estimators=["ge"])))
        t1 = run_scenario(load_config(small_doc(noise_sd=0.2, estimators=["ge"])))
        t2 = run_scenario(load_config(small_doc(noise_sd=0.1, estimators=["ge"])))
        d1 = t1.estimators["ge"].theta_hat - t0.estimators["ge"].theta_hat
        d2 = t2.estimators["ge"].theta_hat - t0.estimators["ge"].theta_hat
        np.testing.assert_allclose(d1, 2 * d2, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("noise_sd, per_step", [(0.0, 2), (0.2, 3)])
    def test_measurements_once_per_stage_time_and_noise_draw(
        self, monkeypatch, noise_sd, per_step
    ):
        # RK4 visits t, t+h/2 (twice) and t+h; t+h is the next step's t unless
        # a new noise draw is held from there on.
        times = []
        evaluate_all = RegressorGenerator.evaluate_all

        def counted(gen, t):
            times.append(t)
            return evaluate_all(gen, t)

        monkeypatch.setattr(RegressorGenerator, "evaluate_all", counted)
        cfg = load_config(small_doc(noise_sd=noise_sd, t_end=0.1))
        run_scenario(cfg)
        n_steps = 100
        assert len(times) == per_step * n_steps + 1
        # every stage time is on the half-step grid, spelled one way
        half = 0.5 * cfg.h
        assert sorted(set(times)) == [m * half for m in range(2 * n_steps + 1)]

    def test_estimators_independent_of_each_other(self):
        # Each kind reads the consensus outputs and nothing of the others, so
        # running all four together must give bit-identical traces to running
        # each alone, with uneven rows, noise, loss and quantization.
        kinds = ["ge", "drem", "drem_simple", "centralized"]
        doc = small_doc(
            rows_per_agent=[1, 2, 3], estimators=kinds, gamma_ge=0.5,
            gamma_centralized=0.5, noise_sd=0.1, p_loss=0.3, epsilon=0.01,
            t_end=0.5,
        )
        together = run_scenario(load_config(doc))
        for kind in kinds:
            alone = run_scenario(load_config({**doc, "estimators": [kind]}))
            np.testing.assert_array_equal(
                alone.estimators[kind].theta_hat, together.estimators[kind].theta_hat
            )
            np.testing.assert_array_equal(alone.cons_err, together.cons_err)

    def test_divergence_detected_and_named(self):
        with pytest.raises(SimulationDiverged, match="ge.theta"):
            run_scenario(load_config(small_doc(gamma_ge=1e6, estimators=["ge"])))

    def test_centralized_baseline(self):
        tr = run_scenario(
            load_config(small_doc(estimators=["centralized"], gamma_centralized=0.5))
        )
        c = tr.estimators["centralized"]
        assert c.theta_hat.shape == (301, 2)
        assert c.err_norm[-1] < 0.1 * c.err_norm[0]

    def test_switching_recorded(self):
        doc = small_doc()
        del doc["topology"]
        doc["schedule"] = {
            "graphs": [{"edges": [[0, 1], [1, 2]]}, {"edges": [[0, 2], [1, 2]]}],
            "segments": [[0.0, 0], [1.5, 1]],
            "dwell_min": 1.5,
        }
        tr = run_scenario(load_config(doc))
        assert set(tr.sigma.tolist()) == {0, 1}
        # right-continuous: sample at exactly t=1.5 uses the new graph
        idx = np.searchsorted(tr.t, 1.5)
        assert tr.sigma[idx] == 1


    @pytest.mark.parametrize("p_loss", [0.0, 0.5])
    def test_links_counts_links_up_at_64_edges(self, p_loss):
        edges = [[i, j] for i in range(12) for j in range(i + 1, 12)][:64]
        doc = small_doc(
            n_agents=12, topology={"edges": edges}, estimators=["ge"],
            p_loss=p_loss, t_end=0.05, decimation=1,
        )
        tr = run_scenario(load_config(doc))
        if p_loss == 0.0:
            assert np.all(tr.links == 64)
        else:
            assert tr.links.min() >= 0 and 0 < tr.links.max() < 64

    @staticmethod
    def drift_sum(dX):
        dX[0] += 1.0  # X stays symmetric, its sum over agents drifts

    @staticmethod
    def break_symmetry(dX):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        dX[0] += skew  # the sum over agents is kept, X_0 and X_1 turn asymmetric
        dX[1] -= skew

    @pytest.mark.parametrize(
        "bump, message",
        [("drift_sum", "sums drifted at t=0.06:"), ("break_symmetry", "lost symmetry at t=0.06:")],
    )
    def test_invariant_violation_at_first_sample_after_perturbation(
        self, monkeypatch, bump, message
    ):
        # Four field evaluations per step; from call 4*50 + 1 on (the second
        # stage of the step from t = 0.05) the consensus field is perturbed,
        # so the state at t = 0.051 is the first off the invariant and the
        # sample at t = 0.06 is the first to see it.
        calls = [0]
        dac = consensus.dac_derivative

        def perturbed(out, lap, k, eps=0.0):
            dX, dx = dac(out, lap, k, eps)
            calls[0] += 1
            if calls[0] > 4 * 50 + 1:
                getattr(self, bump)(dX)
            return dX, dx

        monkeypatch.setattr(sim.cns, "dac_derivative", perturbed)
        with pytest.raises(InvariantViolation, match=message):
            run_scenario(load_config(small_doc(estimators=["ge"], t_end=0.2)))

    @pytest.mark.parametrize("decimation, last_sample_alone", [(10, 1), (7, 0)])
    def test_one_scalarization_per_field_evaluation(
        self, monkeypatch, decimation, last_sample_alone
    ):
        # Samples come from RK4's first stage, so each DREM kind scalarizes
        # once per field evaluation; only a sample at the last step, which
        # has no step after it, evaluates the field once more.
        counts = {"drem_scalarize": 0, "drem_simple_scalarize": 0}
        for name in counts:
            fn = getattr(estimators, name)

            def counted(*args, _fn=fn, _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(estimators, name, counted)
        doc = small_doc(
            estimators=["ge", "drem", "drem_simple"], t_end=0.1, decimation=decimation
        )
        tr = run_scenario(load_config(doc))
        n_steps = 100
        assert counts == {name: 4 * n_steps + last_sample_alone for name in counts}
        assert tr.t[-1] == pytest.approx(0.1 if last_sample_alone else 0.098)

    @pytest.mark.parametrize("p_loss, rebuilds", [(0.0, 3), (0.3, 5)])
    def test_laplacian_rebuilt_only_when_the_network_changes(
        self, monkeypatch, p_loss, rebuilds
    ):
        # Graph switches at 0.13 and 0.26. Without loss the Laplacian is built
        # at t = 0 and at each switch; with loss the mask is also redrawn
        # every 0.1 s and at each switch: 0, 0.1, 0.13, 0.23, 0.26.
        laplacians, redraws = [0], [0]
        laplacian = consensus.effective_laplacian
        loss_stream = sim.loss_stream

        def counted_laplacian(topo, mask=None):
            laplacians[0] += 1
            return laplacian(topo, mask)

        class CountedRng:
            def __init__(self, seed):
                self.rng = loss_stream(seed)

            def random(self, size):
                redraws[0] += 1
                return self.rng.random(size)

        monkeypatch.setattr(sim.cns, "effective_laplacian", counted_laplacian)
        monkeypatch.setattr(sim, "loss_stream", CountedRng)
        doc = small_doc(estimators=["ge"], p_loss=p_loss, t_end=0.3)
        del doc["topology"]
        doc["schedule"] = {
            "graphs": [{"edges": [[0, 1], [1, 2]]}, {"edges": [[0, 2], [1, 2]]}],
            "segments": [[0.0, 0], [0.13, 1], [0.26, 0]],
            "dwell_min": 0.13,
        }
        tr = run_scenario(load_config(doc))
        assert laplacians[0] == rebuilds
        assert redraws[0] == (rebuilds if p_loss else 0)
        assert np.flatnonzero(np.diff(tr.sigma)).size == 2

    def test_gain_past_rk4_stability_limit_rejected(self):
        # lambda_max of the 3-agent path is 3: k * 3 * 1e-3 must stay <= 2.785.
        run_scenario(load_config(small_doc(k=900.0, t_end=0.01)))
        with pytest.raises(ConfigError, match="too stiff"):
            run_scenario(load_config(small_doc(k=1000.0, t_end=0.01)))


class TestResolveGain:
    def test_explicit_gain(self):
        assert resolve_gain(load_config(small_doc(k=4.2))) == 4.2

    def test_auto_gain_exceeds_bound(self):
        cfg = load_config(small_doc(k="auto"))
        k = resolve_gain(cfg)
        assert k > 0
        # safety factor strictly above the bound
        from hiera_est.excitation import analyze_scenario

        a = cfg.analysis
        rep = analyze_scenario(
            cfg.generator, cfg.schedule, a.T_grid, a.horizon, a.grid_step
        )
        assert k >= rep["k_min"]

    def test_auto_gain_fails_without_pe(self):
        doc = small_doc(k="auto", coeff_range=[0, 0])  # identically zero regressor
        with pytest.raises(ConfigError, match="persistently exciting"):
            resolve_gain(load_config(doc))


class TestMetrics:
    def test_fit_decay_rate_exact(self):
        t = np.linspace(0, 5, 200)
        err = 3.0 * np.exp(-1.7 * t)
        assert fit_decay_rate(t, err) == pytest.approx(-1.7, rel=1e-9)

    def test_fit_excludes_floor(self):
        t = np.linspace(0, 10, 400)
        err = np.maximum(np.exp(-2 * t), 1e-14)
        rate = fit_decay_rate(t, err, floor=1e-12)
        assert rate == pytest.approx(-2.0, rel=1e-6)

    def test_fit_insufficient_samples(self):
        with pytest.raises(ValueError):
            fit_decay_rate(np.arange(10.0), np.ones(10), min_samples=50)

    def test_compute_metrics_fields(self, small_trace):
        m = compute_metrics(small_trace, ceiling=100.0)
        assert set(m.per_estimator) == {"ge", "drem"}
        ge = m.per_estimator["ge"]
        assert len(ge["final_err"]) == 3 and len(ge["decay_rate"]) == 3
        assert all(r < 0 for r in ge["decay_rate"])
        assert m.transient_end is not None
        assert m.tail_sup_resid < 1e-9

    def test_transient_end_none_when_never_inside(self, small_trace):
        m = compute_metrics(small_trace, ceiling=1e-30)
        assert m.transient_end is None


class TestRunDir:
    def test_artifacts_written(self, tmp_path, small_trace):
        cfg = load_config(small_doc())
        m = compute_metrics(small_trace)
        write_run_dir(tmp_path / "out", cfg, small_trace, m, {"k": 5.0})
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert names == {
            "traces.csv",
            "metrics.json",
            "constants.json",
            "config-echo.json",
        }
        header = (tmp_path / "out" / "traces.csv").read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[0] == "t" and "sigma" in cols
        assert "ge_theta0_a0" in cols and "drem_phi_a2" in cols
        data = np.loadtxt(
            tmp_path / "out" / "traces.csv", delimiter=",", skiprows=1
        )
        assert data.shape[0] == small_trace.t.shape[0]
        assert data.shape[1] == len(cols)

    def test_config_echo_roundtrips(self, tmp_path, small_trace):
        import json

        cfg = load_config(small_doc())
        m = compute_metrics(small_trace)
        write_run_dir(tmp_path / "o", cfg, small_trace, m)
        echo = json.loads((tmp_path / "o" / "config-echo.json").read_text())
        tables = echo.pop("coeff_tables_resolved")
        cfg2 = load_config(
            {
                **{k: v for k, v in echo.items() if k not in ("coeff_range", "freq_range")},
                "coeff_tables": {
                    "offset": tables["offset"],
                    "sin_amp": tables["sin_amp"],
                    "cos_amp": tables["cos_amp"],
                    "freq": tables["freq"],
                },
            }
        )
        tr2 = run_scenario(cfg2)
        np.testing.assert_allclose(
            tr2.estimators["ge"].theta_hat,
            small_trace.estimators["ge"].theta_hat,
            atol=1e-12,
        )
