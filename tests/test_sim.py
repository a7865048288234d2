import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiera_est import consensus, estimators, sim
from hiera_est.config import ConfigError, apply_overrides, load_config
from hiera_est.signals import RegressorGenerator
from hiera_est.sim import (
    CONSERVATION_TOL,
    SYMMETRY_TOL,
    InvariantViolation,
    SimulationDiverged,
    compute_metrics,
    fit_decay_rate,
    resolve_gain,
    rk4_step,
    run_scenario,
    write_run_dir,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# A quantizer step far below every state the tests read. At epsilon > 0 the
# runner steps the lower layer with one rk4_step of its field per step, so a
# test that injects through consensus.dac_derivative or
# estimators.drem_filter_derivative runs at this step; at epsilon = 0 the
# field is linear and the runner steps it by RK4's maps (see
# inject_inputs and perturb_laplacians for the seams that path has).
EPS_STEPPED = 1e-9


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


def scenario_doc(name, *overrides):
    """A shipped scenario's document, with --set style overrides."""
    return apply_overrides(json.loads((SCENARIOS / f"{name}.json").read_text()), list(overrides))


def inject_inputs(monkeypatch, add):
    """Calls add(step0, Cp, yp) on each block's packed input tables as the
    runner builds them through sim.surrogate_all: the matrix and vector
    surrogates, (K, 3, N, n, n) and (K, 3, N, n), of the block's steps from
    step0 on at their half-step stages. Both lower passes read them."""
    surrogate_all = sim.surrogate_all
    step0 = [0]

    def injected(c, y, out=None):
        out = surrogate_all(c, y, out=out)
        add(step0[0], *out)
        step0[0] += len(c)
        return out

    monkeypatch.setattr(sim, "surrogate_all", injected)


def perturb_laplacians(monkeypatch, bump, skip=0):
    """Adds `bump` to each Laplacian the runner builds (one per network
    event, through consensus.effective_laplacian) after the first `skip`.
    A bump whose columns do not sum to zero breaks the conservation of the
    consensus sums in both lower passes."""
    laplacian = sim.cns.effective_laplacian
    built = [0]

    def perturbed(topo, mask=None):
        built[0] += 1
        lap = laplacian(topo, mask)
        return lap + bump if built[0] > skip else lap

    monkeypatch.setattr(sim.cns, "effective_laplacian", perturbed)


def rebuilt_doc(t_event, **over):
    """small_doc whose graph is rebuilt at t_event, as a switch to a copy of itself."""
    doc = small_doc(**over)
    edges = doc.pop("topology")["edges"]
    doc["schedule"] = {"graphs": [{"edges": edges}] * 2,
                       "segments": [[0.0, 0], [t_event, 1]], "dwell_min": t_event}
    return doc


# Agent 0's Laplacian diagonal plus one: the consensus sums then drift at k
# times agent 0's outputs.
LEAK_AT_0 = np.diag([1.0, 0.0, 0.0])


# Parameters shared by each fault-injection test of the stepped pass and its
# twin at epsilon = 0.
CONSENSUS_COLUMNS = pytest.mark.parametrize(
    "n, column", [(n, c) for n in (1, 2, 3) for c in range(n * n + n)]
)
FILTER_COLUMNS = pytest.mark.parametrize(
    "n, filt, column", [(n, f, c) for n in (1, 2, 3) for f in (0, 1) for c in range(n * n + n)]
)
TIME_ORDER_CASES = pytest.mark.parametrize(
    "blow_step, drift_from, error, message",
    [
        (5, 10, SimulationDiverged, r"'ge\.theta\[0, 0\]' diverged at t=0\.006 "),
        (15, 1, InvariantViolation, r"sums drifted at t=0\.01:"),
    ],
)
SAME_STEP_CASES = pytest.mark.parametrize(
    "lower, upper, block",
    [
        (1e19, 1e18, "X"),
        (1e18, 1e19, "probe.theta"),
        (np.nan, 1e19, "X"),
        (1e19, np.nan, "probe.theta"),
    ],
    ids=["lower-larger", "upper-larger", "lower-nan", "upper-nan"],
)
FIRST_SAMPLE_CASES = pytest.mark.parametrize(
    "bump, message",
    [("drift_sum", "sums drifted at t=0.06:"), ("break_symmetry", "lost symmetry at t=0.06:")],
)


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

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
        log_h=st.floats(-4.0, 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_textbook_step_bit_for_bit_and_read_only(self, shape, log_h, seed):
        # rk4_step forms the stages in one buffer and sums the slopes in
        # another: it must give state + h/6 (k1 + 2k2 + 2k3 + k4) bit for
        # bit and write neither its state nor what its field returns, for a
        # field that returns its argument, one that returns a view of a
        # table, and a random time-varying linear one.
        rng = np.random.default_rng(seed)
        h, t = 10.0**log_h, rng.uniform(0, 10)
        state = rng.normal(size=shape)
        table = rng.normal(size=(3, *shape))
        A = rng.normal(size=(shape[-1], shape[-1]))
        state0, table0 = state.copy(), table.copy()
        fields = {
            "identity": lambda t, s: s,
            "table": lambda t, s: table[1],
            "linear": lambda t, s: s @ A.T + t,
        }
        for name, f in fields.items():
            k1 = f(t, state)
            k2 = f(t + 0.5 * h, state + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, state + 0.5 * h * k2)
            k4 = f(t + h, state + h * k3)
            want = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            np.testing.assert_array_equal(rk4_step(f, state, t, h), want, err_msg=name)
            np.testing.assert_array_equal(state, state0, err_msg=name)
            np.testing.assert_array_equal(table, table0, err_msg=name)

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
        log_h=st.floats(-4.0, 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_increment_writes_its_buffers_before_reading_them(self, shape, log_h, seed):
        # rk4_increment into buffers left full of NaN, as reused buffers
        # are left full of an earlier block's values: the increment must be
        # finite and the textbook h/6 (k1 + 2k2 + 2k3 + k4), state and the
        # field's table must stay unchanged, and rk4_step must be state plus
        # the increment, bit for bit.
        rng = np.random.default_rng(seed)
        h, t = 10.0**log_h, rng.uniform(0, 10)
        state = rng.normal(size=shape)
        table = rng.normal(size=(3, *shape))
        state0, table0 = state.copy(), table.copy()
        for name, f in {"identity": lambda t, s: s, "table": lambda t, s: table[1]}.items():
            k1 = f(t, state)
            k2 = f(t + 0.5 * h, state + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, state + 0.5 * h * k2)
            k4 = f(t + h, state + h * k3)
            want = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            acc, stage = np.full(shape, np.nan), np.full(shape, np.nan)
            got = sim.rk4_increment(f, state, t, h, acc, stage)
            assert got is acc and np.all(np.isfinite(got)), name
            np.testing.assert_array_equal(got, want, err_msg=name)
            np.testing.assert_array_equal(state, state0, err_msg=name)
            np.testing.assert_array_equal(table, table0, err_msg=name)
            np.testing.assert_array_equal(rk4_step(f, state, t, h), state + got, err_msg=name)


def rk4_map_reference(h, a, B):
    """(D, rho) of RK4's one-step map of x' = a_c - B_c x for one matrix,
    a (4, n) and B (4, n, n) or None, with np.matmul stage by stage; and
    the same sums over |a| and |B|, which bound their terms."""
    stages = ((1, 0.5, 2.0), (2, 0.5, 2.0), (3, 1.0, 1.0))
    if B is None:
        w = np.array([1.0, 2.0, 2.0, 1.0])[:, None]
        return None, h / 6.0 * (w * a).sum(0), None, h / 6.0 * (w * np.abs(a)).sum(0)
    alpha, M, alpha_b, M_b = a[0], -B[0], np.abs(a[0]), np.abs(B[0])
    D, rho, D_b, rho_b = M, alpha, M_b, alpha_b
    for c, f, w in stages:
        alpha = a[c] - f * h * (B[c] @ alpha)
        alpha_b = np.abs(a[c]) + f * h * (np.abs(B[c]) @ alpha_b)
        M = -f * h * (B[c] @ M) - B[c]
        M_b = f * h * (np.abs(B[c]) @ M_b) + np.abs(B[c])
        D, rho, D_b, rho_b = D + w * M, rho + w * alpha, D_b + w * M_b, rho_b + w * alpha_b
    return h / 6.0 * D, h / 6.0 * rho, h / 6.0 * D_b, h / 6.0 * rho_b


class TestAffineRk4:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 4),
        form=st.sampled_from(["full", "diagonal", "zero"]),
        rows=st.integers(1, 3),
        extra=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        log_h=st.floats(-4.0, 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_map_matches_per_matrix_products(self, n, form, rows, extra, log_h, seed):
        # The map's contractions over the whole block against np.matmul one
        # matrix at a time, over n = 1..4 and any block axes; through new
        # buffers, and through buffers that served a block with one more row
        # first.
        # Errors are judged against the terms' magnitudes, entry by entry.
        rng = np.random.default_rng(seed)
        h = 10.0**log_h
        a = rng.normal(size=(rows, 4, *extra, n))
        B = {
            "full": rng.normal(size=(rows, 4, *extra, n, n)),
            "diagonal": rng.normal(size=(rows, 4, *extra, n)),
            "zero": None,
        }[form]
        D_ref, rho_ref = np.zeros((rows, *extra, n, n)), np.zeros((rows, *extra, n))
        D_bound, rho_bound = np.zeros_like(D_ref), np.zeros_like(rho_ref)
        for i in np.ndindex(rows, *extra):
            at = (i[0], slice(None), *i[1:])
            B1 = None if B is None else B[at] if form == "full" else np.stack(
                [np.diag(b) for b in B[at]])
            D1, rho_ref[i], D_bound[i], rho_bound[i] = rk4_map_reference(h, a[at], B1)
            D_ref[i] = 0.0 if D1 is None else D1
        if form == "diagonal":
            D_ref, D_bound = np.diagonal(D_ref, 0, -2, -1), np.diagonal(D_bound, 0, -2, -1)
        buffers = estimators.Buffers()
        sim.affine_rk4(h, *(x if x is None else np.concatenate([x, x[:1]]) for x in (a, B)),
                       buffers=buffers)
        for D, rho in (sim.affine_rk4(h, a, B, estimators.Buffers()),
                       sim.affine_rk4(h, a, B, buffers)):
            assert (D is None) == (B is None)
            assert np.all(np.abs(rho - rho_ref) <= 1e-13 * rho_bound)
            if D is not None:
                assert D.shape == D_ref.shape
                assert np.all(np.abs(D - D_ref) <= 1e-13 * D_bound)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        form=st.sampled_from(["full", "diagonal", "zero"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_map_equals_rk4_on_the_same_tables(self, n, form, seed):
        # Coefficients drawn apart for each of RK4's four evaluations of 40
        # steps (the two at t + h/2 share a time, not their coefficients):
        # the scanned one-step maps must give rk4_step's trajectory on a
        # field that reads the same tables, evaluation by evaluation.
        rng = np.random.default_rng(seed)
        steps, n_agents, h = 40, 3, 0.05
        a = rng.normal(size=(steps, 4, n_agents, n))
        B = {
            "full": rng.normal(size=(steps, 4, n_agents, n, n)),
            "diagonal": rng.normal(size=(steps, 4, n_agents, n)),
            "zero": None,
        }[form]
        ev = 0

        def field(t, flat):
            nonlocal ev
            j, c = divmod(ev, 4)
            ev += 1
            x = flat.reshape(n_agents, n)
            if B is None:
                return a[j, c].ravel()
            Bx = (B[j, c] @ x[..., None])[..., 0] if form == "full" else B[j, c] * x
            return (a[j, c] - Bx).ravel()

        want = [rng.normal(size=n_agents * n)]
        for j in range(steps):
            want.append(rk4_step(field, want[-1], j * h, h))
        want = np.reshape(want, (steps + 1, n_agents, n))
        got = np.empty_like(want)
        got[0] = want[0]
        D, rho = sim.affine_rk4(h, a, B, estimators.Buffers())
        assert (D is None) == (B is None)
        sim._affine_scan(got, D, rho)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


ENTRIES = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0, np.inf, -np.inf, np.nan])


@st.composite
def named_arrays(draw):
    """1-4 named arrays over the same random steps and members, each with
    or without an agent axis, of entries that repeat, tie and pass any
    limit."""
    n_steps = draw(st.integers(0, 4))
    steps = draw(st.lists(st.integers(0, 50), min_size=n_steps, max_size=n_steps))
    members = draw(st.integers(1, 3))
    arrays = []
    for i in range(draw(st.integers(1, 4))):
        shape = (n_steps, members, *draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        flat = draw(st.lists(ENTRIES, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        arrays.append((f"a{i}", np.array(flat, dtype=float).reshape(shape), draw(st.booleans())))
    return arrays, steps


def first_excess_by_loops(arrays, limit, steps, order):
    """_first_excess as plain loops: over steps, then arrays in order, then
    flat indices (member first), keeping the largest |entry| (NaN the
    largest, the first of equals)."""
    largest = np.zeros(arrays[0][1].shape[1])
    for _, x, _ in arrays:
        for member in range(len(largest)):
            for v in np.abs(x[:, member]).flat:
                if np.isnan(v) or v > largest[member]:
                    largest[member] = v
    for j, step in enumerate(steps):
        best = None
        for name, x, per_agent in arrays:
            for flat, v in enumerate(x[j].flat):
                if best is None or (np.isnan(abs(v)) and not np.isnan(best[0])) or abs(v) > best[0]:
                    best = (abs(v), name, per_agent, np.unravel_index(flat, x.shape[1:]), v)
        if best is not None and not best[0] <= limit:
            _, name, per_agent, (member, *index), v = best
            index = tuple(int(i) for i in index)
            agent, entry = (index[0], index[1:]) if per_agent else (None, index)
            return ((int(step), order), name, int(member), agent, entry, float(v)), largest
    return None, largest


class TestFirstExcess:
    @given(named_arrays(), st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_loops(self, drawn, limit, order):
        arrays, steps = drawn
        got = sim._first_excess(arrays, limit, np.array(steps, dtype=int), order)
        want = first_excess_by_loops(arrays, limit, steps, order)
        # repr compares NaN with NaN, and tells -0.0 and types apart
        assert repr(got) == repr(want)


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

    @pytest.mark.parametrize("noise_sd, per_step", [(0.0, 2), (0.2, 2)])
    def test_measurements_once_per_stage_time_and_noise_draw(
        self, monkeypatch, noise_sd, per_step
    ):
        # RK4 visits t, t+h/2 (twice) and t+h; t+h is the next step's t, and a
        # new noise draw held from there on reuses its regressors. Each block
        # of steps evaluates its own stage times, clipped at t_end, in one
        # call, so the time a block shares with the next is evaluated by both.
        times, calls = [], [0]
        evaluate_all = RegressorGenerator.evaluate_all

        def counted(gen, t):
            calls[0] += 1
            times.extend(np.atleast_1d(t).tolist())
            return evaluate_all(gen, t)

        monkeypatch.setattr(RegressorGenerator, "evaluate_all", counted)
        cfg = load_config(small_doc(noise_sd=noise_sd, t_end=0.1))
        run_scenario(cfg)
        n_steps = 100
        n_blocks = -(-(n_steps + 1) // sim.INPUT_BLOCK)
        assert len(times) == per_step * n_steps + n_blocks
        assert calls[0] == n_blocks
        # each stage time is on the half-step grid, spelled one way
        half = 0.5 * cfg.h
        assert sorted(set(times)) == [m * half for m in range(2 * n_steps + 1)]

    @pytest.mark.parametrize(
        "doc",
        [
            scenario_doc(
                "nominal_switched",
                'estimators=["ge","drem","drem_simple","centralized"]',
                "gamma_centralized=1e-4",
            ),
            scenario_doc("packet_loss"),
            scenario_doc("noisy"),
            workloads.degraded_doc(3),
        ],
        ids=["nominal_all_kinds", "packet_loss", "noisy", "degraded_3"],
    )
    def test_a_shorter_run_is_a_prefix_of_a_longer_one(self, doc):
        # 0.33 and 0.5 end mid-block on a sample, 0.337 on a step that is not
        # a sample, and 0.64 leaves a one-step last block: the last sample,
        # the inputs clipped at t_end and the last block's noise draw.
        long = run_scenario(load_config(apply_overrides(doc, ["t_end=1.0"])))
        for t_end in (0.33, 0.337, 0.5, 0.64):
            short = run_scenario(load_config(apply_overrides(doc, [f"t_end={t_end}"])))
            S = len(short.t)
            assert S == int(round(t_end / doc["h"])) // doc["decimation"] + 1
            for key in ("t", "sigma", "links", "cons_err", "yhat_err", "resid_norm"):
                np.testing.assert_array_equal(getattr(short, key), getattr(long, key)[:S], (t_end, key))
            assert short.estimators.keys() == long.estimators.keys()
            for kind, tr in short.estimators.items():
                for f in dataclasses.fields(tr):
                    a, b = getattr(tr, f.name), getattr(long.estimators[kind], f.name)
                    assert (a is None) == (b is None), (t_end, kind, f.name)
                    if a is not None:
                        np.testing.assert_array_equal(a, b[:S], (t_end, kind, f.name))

    @pytest.mark.parametrize("block", [sim.INPUT_BLOCK, 7, 1])
    def test_minor_faults_do_not_grow_with_the_horizon(self, monkeypatch, block):
        # The block-sized arrays are allocated once per run, so a longer
        # run faults in no more pages per block; its extra second adds only
        # the longer trace. Each horizon is counted on its second run.
        resource = pytest.importorskip("resource")
        monkeypatch.setattr(sim, "INPUT_BLOCK", block)
        faults = {}
        for t_end in (1.0, 2.0):
            cfg = load_config(workloads.degraded_doc(5, t_end=t_end))
            run_scenario(cfg)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_scenario(cfg)
            faults[t_end] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults[2.0] - faults[1.0] < 1000, faults

    def test_drem_minor_faults_do_not_grow_with_the_horizon(self):
        # The same for a DREM run (nominal_switched), whose kinds write their
        # scalarization and adjugate into per-run buffers too. Each horizon
        # is counted in a new interpreter, whose allocator has not yet been
        # shaped by other tests, on its second run.
        pytest.importorskip("resource")
        root = Path(__file__).resolve().parent.parent
        script = (
            "import resource, sys\n"
            "from pathlib import Path\n"
            "from hiera_est.config import load_config\n"
            "from hiera_est.sim import run_scenario\n"
            "from perfbench import workloads\n"
            "cfg = load_config(workloads.nominal_doc(Path(sys.argv[1]), float(sys.argv[2])))\n"
            "run_scenario(cfg)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_scenario(cfg)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
        faults = {
            t_end: int(subprocess.run(
                [sys.executable, "-c", script, str(root), str(t_end)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout)
            for t_end in (1.0, 2.0)
        }
        assert faults[2.0] - faults[1.0] < 1000, faults

    @staticmethod
    def noisy_doc():
        # 310 steps, 311 draws: neither a multiple of 7 nor of 256
        return small_doc(
            rows_per_agent=[1, 2, 3], estimators=["ge", "drem", "centralized"],
            gamma_ge=0.5, gamma_centralized=0.5, noise_sd=0.1, p_loss=0.3, epsilon=0.01, t_end=0.31,
        )

    def test_noise_blocks_give_the_per_step_draws(self, monkeypatch):
        # A block of one step is a noise draw and an input table per step;
        # every block size must give the same trace bit for bit.
        traces = []
        for block in (1, 7, sim.INPUT_BLOCK):
            monkeypatch.setattr(sim, "INPUT_BLOCK", block)
            traces.append(run_scenario(load_config(self.noisy_doc())))
        for tr in traces[1:]:
            for name, value in vars(tr).items():
                if name != "estimators":
                    np.testing.assert_array_equal(value, getattr(traces[0], name))
            for kind, et in tr.estimators.items():
                for name, value in vars(et).items():
                    np.testing.assert_array_equal(
                        value, getattr(traces[0].estimators[kind], name)
                    )

    def test_each_agent_draws_its_noise_once_per_block(self, monkeypatch):
        sizes = {}
        noise_stream = sim.noise_stream

        class CountedRng:
            def __init__(self, seed, agent):
                self.rng, self.agent = noise_stream(seed, agent), agent

            def standard_normal(self, size):
                sizes.setdefault(self.agent, []).append(size)
                return self.rng.standard_normal(size)

        monkeypatch.setattr(sim, "noise_stream", CountedRng)
        run_scenario(load_config(self.noisy_doc()))
        n_draws, block = 310 + 1, sim.INPUT_BLOCK
        for agent, p in enumerate([1, 2, 3]):
            assert len(sizes[agent]) == -(-n_draws // block)
            assert sizes[agent] == [min(block, n_draws - s) * p for s in range(0, n_draws, block)]

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

    @staticmethod
    def lower_entry(n, column, names, filt=()):
        """The block and entry of a packed lower row's column, from the views
        consensus.split gives of the column indices: (matrix, vector) part
        names, and the filter index leading a filter row's entry."""
        for name, cols in zip(names, consensus.split(np.arange(n * n + n))):
            hit = np.argwhere(cols == column)
            if hit.size:
                return name, filt + tuple(int(j) for j in hit[0])

    @CONSENSUS_COLUMNS
    def test_divergent_consensus_entry_named_by_its_part(self, monkeypatch, n, column):
        # Agent 1's consensus row [vec(X) | x] blows up in one column. Its
        # filter rows follow the consensus outputs, and a tiny gamma_drem
        # keeps theta from outgrowing the entry through the blown-up Gram.
        dac = consensus.dac_derivative

        def blown(out, lap, k, eps=0.0):
            d = dac(out, lap, k, eps)
            d[..., 1, column] += 1e18
            return d

        monkeypatch.setattr(sim.cns, "dac_derivative", blown)
        doc = small_doc(n=n, theta=[1.0, -2.0, 0.5][:n], estimators=["drem"],
                        gamma_drem=1e-300, t_end=0.01, epsilon=EPS_STEPPED)
        block, entry = self.lower_entry(n, column, ("X", "x"))
        name = re.escape(f"{block}[{', '.join(map(str, (1, *entry)))}]")
        with pytest.raises(SimulationDiverged, match=rf"'{name}' diverged at t=0\.001 ") as err:
            run_scenario(load_config(doc))
        e = err.value
        assert (e.block, e.agent, e.entry, e.t) == (block, 1, entry, 0.001)

    @CONSENSUS_COLUMNS
    def test_divergent_consensus_input_named_by_its_part(self, monkeypatch, n, column):
        # The twin at epsilon = 0, where the lower layer is stepped by RK4's
        # maps: agent 1's input row blows up in one column. Its consensus row
        # takes k times its degree (2) times that column, its neighbours' k
        # times it and its filter rows alpha = 1 times it.
        block, entry = self.lower_entry(n, column, ("X", "x"))

        def blown(step0, Cp, yp):
            (Cp if block == "X" else yp)[(..., 1, *entry)] += 1e18

        inject_inputs(monkeypatch, blown)
        doc = small_doc(n=n, theta=[1.0, -2.0, 0.5][:n], estimators=["drem"],
                        gamma_drem=1e-300, t_end=0.01)
        name = re.escape(f"{block}[{', '.join(map(str, (1, *entry)))}]")
        with pytest.raises(SimulationDiverged, match=rf"'{name}' diverged at t=0\.001 ") as err:
            run_scenario(load_config(doc))
        e = err.value
        assert (e.block, e.agent, e.entry, e.t) == (block, 1, entry, 0.001)

    def test_located_errors_survive_pickling(self):
        import pickle

        e = pickle.loads(pickle.dumps(InvariantViolation("msg", "X", 2, (0, 1), 0.5, 3.0)))
        assert (str(e), e.block, e.agent, e.entry, e.t, e.value) == ("msg", "X", 2, (0, 1), 0.5, 3.0)
        assert e.member == 0
        e = pickle.loads(pickle.dumps(SimulationDiverged("msg", "X", 2, (0, 1), 0.5, 3.0, 4)))
        assert (e.block, e.member) == ("X", 4)

    @pytest.mark.parametrize(
        "kind, flow, index",
        [
            ("ge", "ge_flow", (2, 1)),
            ("drem", "drem_flow", (2, 1)),
            ("drem_simple", "drem_flow", (2, 1)),
            ("centralized", "centralized_ge_flow", (1,)),
        ],
        ids=["ge", "drem", "drem_simple", "centralized"],
    )
    def test_divergence_names_the_agent_and_entry(self, monkeypatch, kind, flow, index):
        # The kind's flow drives entry 1 of theta (agent 2's, where the kind
        # has an agent axis) by 1e18 at every stage row, so the first step
        # takes it past the divergence limit.
        original = getattr(estimators, flow)

        def blown(*args, **kwargs):
            a, B = original(*args, **kwargs)
            a[(..., *index)] += 1e18
            return a, B

        monkeypatch.setattr(estimators, flow, blown)
        name = re.escape(f"{kind}.theta[{', '.join(map(str, index))}]")
        doc = small_doc(estimators=[kind], gamma_centralized=0.5, t_end=0.01)
        with pytest.raises(SimulationDiverged, match=rf"'{name}' diverged at t=0\.001 ") as err:
            run_scenario(load_config(doc))
        e = err.value
        agent = index[0] if len(index) > 1 else None
        assert (e.block, e.agent, e.entry, e.t) == (f"{kind}.theta", agent, (1,), 0.001)
        assert e.value > 1e12

    @pytest.mark.parametrize(
        "kind, scalarize", [("drem", "drem_scalarize"), ("drem_simple", "drem_simple_scalarize")]
    )
    def test_unchecked_phi_integral_may_pass_the_limit(self, monkeypatch, kind, scalarize):
        # phi = 1e10 takes the integral of phi^2 past 1e12 within a step;
        # it is exempt from the divergence guard, and gamma_drem = 1e-300
        # keeps theta bounded.
        original = getattr(estimators, scalarize)

        def huge(arg, **kwargs):
            phi, Y = original(arg, **kwargs)
            return np.full_like(phi, 1e10), Y

        monkeypatch.setattr(estimators, scalarize, huge)
        doc = small_doc(estimators=[kind], gamma_drem=1e-300, t_end=0.05)
        tr = run_scenario(load_config(doc)).estimators[kind]
        assert tr.phi_sq_int[1].min() > sim.DIVERGENCE_LIMIT
        assert np.abs(tr.theta_hat).max() < 1.0

    @staticmethod
    def probe_flow(blow):
        """A test-only kind's flow: theta' = yhat - theta per agent, an
        (N, n) array, with `blow` added to agent 2's entry 1; and the
        running integral of a constant 1e18, an (N,) array with B = None."""

        def flow(cfg, tab, buffers):
            _, yhat = consensus.split(tab["Z"])
            a = yhat.copy()
            a[..., 2, 1] += blow
            integral = np.full(a.shape[:-1], 1e18)
            return {"theta": (a, np.ones_like(a)), "phi_int": (integral, None)}, {}

        return flow

    def test_a_kind_declared_by_its_flow_alone(self, monkeypatch):
        # The flow alone declares the kind: its arrays take the shapes of
        # the flow's coefficients past the stage axes, and the B = None
        # integral passes the divergence limit unguarded.
        monkeypatch.setitem(sim.ESTIMATORS, "probe", sim.Estimator(flow=self.probe_flow(0.0)))
        doc = small_doc(estimators=["probe"], t_end=0.05)
        tr = run_scenario(load_config(doc))
        probe = tr.estimators["probe"]
        assert probe.theta_hat.shape == (len(tr.t), 3, 2)
        assert probe.phi_sq_int.shape == (len(tr.t), 3) and probe.phi is None
        np.testing.assert_allclose(probe.phi_sq_int, 1e18 * tr.t[:, None] * np.ones(3), rtol=1e-12)
        assert probe.phi_sq_int[1].min() > sim.DIVERGENCE_LIMIT
        assert np.abs(probe.theta_hat).max() < 10.0
        monkeypatch.setitem(sim.ESTIMATORS, "probe", sim.Estimator(flow=self.probe_flow(1e18)))
        name = r"'probe\.theta\[2, 1\]'"
        with pytest.raises(SimulationDiverged, match=rf"{name} diverged at t=0\.001 ") as err:
            run_scenario(load_config(doc))
        e = err.value
        assert (e.block, e.agent, e.entry, e.t) == ("probe.theta", 2, (1,), 0.001)

    @TIME_ORDER_CASES
    def test_errors_are_raised_in_time_order(
        self, monkeypatch, blow_step, drift_from, error, message
    ):
        # Both failures fall in the first block of steps, whose lower pass
        # runs to its end before the upper pass starts. GE's theta (upper
        # layer) blows up in step blow_step; the consensus sums (lower layer)
        # drift from step drift_from on, so the next sample (every 10th
        # step) fails its check. The earlier of the two is raised.
        assert sim.INPUT_BLOCK > 20
        ge_flow = estimators.ge_flow

        def blown(out, gamma, buffers=None):
            a, B = ge_flow(out, gamma, buffers)
            a[blow_step, :, 0, 0] += 1e18
            return a, B

        calls = [0]
        dac = consensus.dac_derivative

        def drifting(out, lap, k, eps=0.0):
            d = dac(out, lap, k, eps)
            calls[0] += 1
            if calls[0] > 4 * drift_from:
                consensus.split(d)[1][..., 0] += 1.0
            return d

        monkeypatch.setattr(estimators, "ge_flow", blown)
        monkeypatch.setattr(sim.cns, "dac_derivative", drifting)
        with pytest.raises(error, match=message):
            run_scenario(load_config(small_doc(estimators=["ge"], t_end=0.1, epsilon=EPS_STEPPED)))

    @TIME_ORDER_CASES
    def test_errors_are_raised_in_time_order_at_eps0(
        self, monkeypatch, blow_step, drift_from, error, message
    ):
        # The twin at epsilon = 0: the graph is rebuilt at step drift_from,
        # and the rebuilt Laplacian leaks, so the sums drift from that step on.
        ge_flow = estimators.ge_flow

        def blown(out, gamma, buffers=None):
            a, B = ge_flow(out, gamma, buffers)
            a[blow_step, :, 0, 0] += 1e18
            return a, B

        monkeypatch.setattr(estimators, "ge_flow", blown)
        perturb_laplacians(monkeypatch, LEAK_AT_0, skip=1)
        with pytest.raises(error, match=message):
            run_scenario(load_config(rebuilt_doc(drift_from * 1e-3, estimators=["ge"], t_end=0.1)))

    @SAME_STEP_CASES
    def test_same_step_divergences_raise_the_larger(self, monkeypatch, lower, upper, block):
        # Agent 1's X[0, 0] (lower layer) and the probe kind's theta[2, 1]
        # (upper layer) both pass the limit in the first step; whichever
        # layer holds it, the larger |value| is raised, NaN the largest.
        dac = consensus.dac_derivative

        def blown(out, lap, k, eps=0.0):
            d = dac(out, lap, k, eps)
            d[..., 1, 0] += lower
            return d

        monkeypatch.setattr(sim.cns, "dac_derivative", blown)
        monkeypatch.setitem(sim.ESTIMATORS, "probe", sim.Estimator(flow=self.probe_flow(upper)))
        with pytest.raises(SimulationDiverged, match=r"diverged at t=0\.001 ") as err:
            run_scenario(load_config(
                small_doc(estimators=["probe"], t_end=0.01, epsilon=EPS_STEPPED)
            ))
        e = err.value
        assert e.block == block
        if np.isnan(lower) or np.isnan(upper):
            assert np.isnan(e.value)
        else:
            assert (e.agent, e.entry) == ((1, (0, 0)) if block == "X" else (2, (1,)))
            assert abs(e.value) > 5e14

    @SAME_STEP_CASES
    def test_same_step_divergences_raise_the_larger_at_eps0(
        self, monkeypatch, lower, upper, block
    ):
        # The twin at epsilon = 0: agent 1's input C^T C[0, 0] is raised by
        # lower / (2 k), so the first step takes its X[0, 0] to about h lower,
        # as the per-step injection does.
        def blown(step0, Cp, yp):
            Cp[..., 1, 0, 0] += lower / (2 * 5.0)

        inject_inputs(monkeypatch, blown)
        monkeypatch.setitem(sim.ESTIMATORS, "probe", sim.Estimator(flow=self.probe_flow(upper)))
        with pytest.raises(SimulationDiverged, match=r"diverged at t=0\.001 ") as err:
            run_scenario(load_config(small_doc(estimators=["probe"], k=5.0, t_end=0.01)))
        e = err.value
        assert e.block == block
        if np.isnan(lower) or np.isnan(upper):
            assert np.isnan(e.value)
        else:
            assert (e.agent, e.entry) == ((1, (0, 0)) if block == "X" else (2, (1,)))
            assert abs(e.value) > 5e14

    @FILTER_COLUMNS
    def test_divergent_filter_entry_named_by_its_channel(self, monkeypatch, n, filt, column):
        # Two filters for every n; each filter's packed row is [vec(zC) | zy].
        # Filter filt of agent 2 blows up in one column. A tiny gamma_drem
        # keeps theta from outgrowing that entry through the blown-up Gram.
        drem_filter_derivative = estimators.drem_filter_derivative

        def blown(bank, z, out):
            d = drem_filter_derivative(bank, z, out)
            d[..., 2, filt, column] += 1e18
            return d

        monkeypatch.setattr(estimators, "drem_filter_derivative", blown)
        doc = small_doc(
            n=n, theta=[1.0, -2.0, 0.5][:n], estimators=["drem"], gamma_drem=1e-300,
            drem_filters={"alphas": [1.0, 1.0], "betas": [1.0, 2.0]}, t_end=0.01,
            epsilon=EPS_STEPPED,
        )
        block, entry = self.lower_entry(n, column, ("drem.zC", "drem.zy"), (filt,))
        name = re.escape(f"{block}[{', '.join(map(str, (2, *entry)))}]")
        with pytest.raises(SimulationDiverged, match=rf"'{name}' diverged at t=0\.001 ") as err:
            run_scenario(load_config(doc))
        e = err.value
        assert (e.block, e.agent, e.entry, e.t) == (block, 2, entry, 0.001)

    @FILTER_COLUMNS
    def test_divergent_filter_input_named_by_its_channel(self, monkeypatch, n, filt, column):
        # The twin at epsilon = 0: agent 2's input row blows up in one column,
        # and filter filt has alpha = 1000, so its row takes 1000 times that
        # column, the other filter's 1 times and agent 2's consensus row k
        # times its degree (1).
        block, entry = self.lower_entry(n, column, ("drem.zC", "drem.zy"), (filt,))
        inputs = self.lower_entry(n, column, ("C", "y"))[1]

        def blown(step0, Cp, yp):
            (Cp if block == "drem.zC" else yp)[(..., 2, *inputs)] += 1e18

        inject_inputs(monkeypatch, blown)
        alphas = [1e3 if f == filt else 1.0 for f in (0, 1)]
        doc = small_doc(
            n=n, theta=[1.0, -2.0, 0.5][:n], estimators=["drem"], gamma_drem=1e-300,
            drem_filters={"alphas": alphas, "betas": [1.0, 2.0]}, t_end=0.01,
        )
        name = re.escape(f"{block}[{', '.join(map(str, (2, *entry)))}]")
        with pytest.raises(SimulationDiverged, match=rf"'{name}' diverged at t=0\.001 ") as err:
            run_scenario(load_config(doc))
        e = err.value
        assert (e.block, e.agent, e.entry, e.t) == (block, 2, entry, 0.001)

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
        dX[..., 0, :, :] += 1.0  # X stays symmetric, its sum over agents drifts

    @staticmethod
    def break_symmetry(dX):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        dX[..., 0, :, :] += skew  # the sum over agents is kept, X_0 and X_1 turn asymmetric
        dX[..., 1, :, :] -= skew

    @FIRST_SAMPLE_CASES
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
            d = dac(out, lap, k, eps)
            calls[0] += 1
            if calls[0] > 4 * 50 + 1:
                getattr(self, bump)(consensus.split(d)[0])
            return d

        monkeypatch.setattr(sim.cns, "dac_derivative", perturbed)
        with pytest.raises(InvariantViolation, match=message):
            run_scenario(load_config(small_doc(estimators=["ge"], t_end=0.2, epsilon=EPS_STEPPED)))

    @FIRST_SAMPLE_CASES
    def test_invariant_violation_at_first_sample_after_perturbation_at_eps0(
        self, monkeypatch, bump, message
    ):
        # The twin at epsilon = 0: from the step from t = 0.05 on, the graph
        # rebuilt there leaks, or agent 1's input C^T C turns asymmetric, so
        # the state at t = 0.051 is the first off the invariant.
        if bump == "drift_sum":
            perturb_laplacians(monkeypatch, LEAK_AT_0, skip=1)
        else:
            def skewed(step0, Cp, yp):
                Cp[max(50 - step0, 0):, :, 1] += np.array([[0.0, 1.0], [-1.0, 0.0]])

            inject_inputs(monkeypatch, skewed)
        with pytest.raises(InvariantViolation, match=message):
            run_scenario(load_config(rebuilt_doc(0.05, estimators=["ge"], t_end=0.2)))

    def test_symmetry_violation_names_the_most_asymmetric_agent(self, monkeypatch):
        # The sum over agents is kept; agent 2 turns twice as asymmetric as
        # agents 0 and 1.
        dac = consensus.dac_derivative
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])

        def perturbed(out, lap, k, eps=0.0):
            d = dac(out, lap, k, eps)
            consensus.split(d)[0][:] += np.array([1.0, 1.0, -2.0])[:, None, None] * skew
            return d

        monkeypatch.setattr(sim.cns, "dac_derivative", perturbed)
        with pytest.raises(
            InvariantViolation, match=r"lost symmetry at t=0\.01: .* in X\[2, 0, 1\] at agent 2$"
        ) as err:
            run_scenario(load_config(small_doc(estimators=["ge"], t_end=0.02, epsilon=EPS_STEPPED)))
        e = err.value
        assert (e.block, e.agent, e.entry, e.t) == ("X", 2, (0, 1), 0.01)
        assert e.value > SYMMETRY_TOL

    def test_symmetry_violation_names_the_most_asymmetric_input_agent(self, monkeypatch):
        # The twin at epsilon = 0: agent 1's input C^T C turns asymmetric; the
        # Laplacian (degree 2 at agent 1, 1 at its neighbours) makes agent 1
        # twice as asymmetric as agents 0 and 2, and keeps the sums.
        def skewed(step0, Cp, yp):
            Cp[:, :, 1] += np.array([[0.0, 1.0], [-1.0, 0.0]])

        inject_inputs(monkeypatch, skewed)
        with pytest.raises(
            InvariantViolation, match=r"lost symmetry at t=0\.01: .* in X\[1, 0, 1\] at agent 1$"
        ) as err:
            run_scenario(load_config(small_doc(estimators=["ge"], t_end=0.02)))
        e = err.value
        assert (e.block, e.agent, e.entry, e.t) == ("X", 1, (0, 1), 0.01)
        assert e.value > SYMMETRY_TOL

    def test_conservation_violation_names_the_drifting_entry(self, monkeypatch):
        # x_0 of every agent gains 1 per unit time: sum x drifts, X keeps.
        dac = consensus.dac_derivative

        def leaky(out, lap, k, eps=0.0):
            d = dac(out, lap, k, eps)
            consensus.split(d)[1][..., 0] += 1.0
            return d

        monkeypatch.setattr(sim.cns, "dac_derivative", leaky)
        with pytest.raises(InvariantViolation, match="sums drifted at t=0.01:") as err:
            run_scenario(load_config(small_doc(estimators=["ge"], t_end=0.02, epsilon=EPS_STEPPED)))
        e = err.value
        assert (e.block, e.agent, e.entry, e.t) == ("x", None, (0,), 0.01)
        assert e.value == pytest.approx(0.03)

    def test_both_lower_passes_name_the_same_drifting_entry(self, monkeypatch):
        # A leaking Laplacian drifts the sums at k times agent 0's outputs;
        # the mapped pass (epsilon = 0) and the stepped pass name the same
        # entry at the same sample, with the same value to the quantizer's
        # rounding.
        perturb_laplacians(monkeypatch, LEAK_AT_0)
        errors = []
        for eps in (0.0, EPS_STEPPED):
            with pytest.raises(InvariantViolation, match="sums drifted at t=0.01:") as err:
                run_scenario(load_config(small_doc(estimators=["ge"], t_end=0.02, epsilon=eps)))
            errors.append(err.value)
        exact, stepped = errors
        assert exact.agent is None and exact.t == 0.01
        assert (exact.block, exact.entry) == (stepped.block, stepped.entry)
        assert exact.value == pytest.approx(stepped.value, rel=1e-6)

    @pytest.mark.parametrize("n, none", [(3, True), (2, False)])
    def test_n3_scalarization_makes_no_determinant_call(self, monkeypatch, n, none):
        # The n = 3 adjugate is closed-form and phi is read off the mixing
        # product; any other n takes one batched determinant per block.
        calls = [0]
        det = np.linalg.det

        def counted(a):
            calls[0] += 1
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counted)
        doc = small_doc(n=n, theta=[1.0, -2.0, 0.5][:n], estimators=["drem", "drem_simple"],
                        t_end=0.1)
        run_scenario(load_config(doc))
        assert (calls[0] == 0) == none

    @pytest.mark.parametrize("decimation, last_sample_alone", [(10, 1), (7, 0)])
    def test_one_scalarization_per_block(
        self, monkeypatch, decimation, last_sample_alone
    ):
        # The upper pass scalarizes all stage rows of a block of steps in one
        # call per DREM kind: RK4's four evaluations of every step, each
        # once, and a sample at the last step (which has no step after it)
        # with its other evaluations repeating its first. The filterless
        # kind's rows are the outputs the lower pass evaluated, in order.
        seen = {"drem_scalarize": [], "drem_simple_scalarize": []}
        for name in seen:
            fn = getattr(estimators, name)

            def recorded(arg, _fn=fn, _name=name, **kwargs):
                # the rows themselves: the runner reuses its tables
                seen[_name].append(np.copy(arg))
                return _fn(arg, **kwargs)

            monkeypatch.setattr(estimators, name, recorded)
        outputs = []
        dac = consensus.dac_derivative

        def evaluated(out, lap, k, eps=0.0):
            # (member, agent) rows on one axis, as the flows read them
            outputs.append(out.reshape(-1, out.shape[-1]).copy())
            return dac(out, lap, k, eps)

        monkeypatch.setattr(sim.cns, "dac_derivative", evaluated)
        doc = small_doc(
            estimators=["ge", "drem", "drem_simple"], t_end=0.1, decimation=decimation,
            epsilon=EPS_STEPPED,
        )
        tr = run_scenario(load_config(doc))
        n_steps = 100
        blocks = -(-(n_steps + 1) // sim.INPUT_BLOCK)
        assert {name: len(args) for name, args in seen.items()} == {name: blocks for name in seen}
        rows = 4 * (n_steps + last_sample_alone)
        assert sum(A.shape[0] * A.shape[1] for A in seen["drem_scalarize"]) == rows
        got = np.concatenate([Z.reshape(-1, *Z.shape[2:]) for Z in seen["drem_simple_scalarize"]])
        assert len(outputs) == 4 * n_steps + last_sample_alone
        np.testing.assert_array_equal(got, np.array(outputs + outputs[-1:] * 3 * last_sample_alone))
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


def random_connected_edges(rng, n_agents):
    """A random connected graph: a spanning tree plus random extra edges."""
    most = n_agents * (n_agents - 1) // 2
    return workloads.random_connected_edges(rng, n_agents, int(rng.integers(n_agents - 1, most + 1)))


class TestInvariantsOverRandomNetworks:
    @settings(max_examples=25, deadline=None)
    @given(
        n_agents=st.integers(2, 12),
        seed=st.integers(0, 2**31 - 1),
        quantized=st.booleans(),
        p_loss=st.sampled_from([0.0, 0.3]),
        noise_sd=st.sampled_from([0.0, 0.1]),
    )
    def test_short_runs_keep_the_invariants(self, n_agents, seed, quantized, p_loss, noise_sd):
        # Two random connected graphs switching at t = 0.03, loss redrawn
        # every 0.02 s, 1 to 3 rows per agent, 8 input blocks of 7 steps.
        rng = np.random.default_rng(seed)
        doc = small_doc(
            n=3, theta=rng.uniform(-2, 2, size=3).tolist(), n_agents=n_agents, seed=seed,
            rows_per_agent=rng.integers(1, 4, size=n_agents).tolist(),
            estimators=["ge", "drem_simple"], gamma_ge=0.2, gamma_drem=1e-9,
            epsilon=float(rng.uniform(1e-3, 0.05)) if quantized else 0.0,
            p_loss=p_loss, loss_resample_dt=0.02, noise_sd=noise_sd, t_end=0.055,
            decimation=3,
        )
        del doc["topology"]
        doc["schedule"] = {
            "graphs": [{"edges": random_connected_edges(rng, n_agents)} for _ in range(2)],
            "segments": [[0.0, 0], [0.03, 1]],
            "dwell_min": 0.025,
        }
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "INPUT_BLOCK", 7)
            tr = run_scenario(load_config(doc))
        assert tr.max_conservation_err < CONSERVATION_TOL
        assert tr.max_asymmetry < SYMMETRY_TOL
        if not quantized and noise_sd == 0.0:
            # zero-init, noiseless, unquantized: yhat = Chat theta to roundoff
            assert tr.resid_norm.max() < 1e-9 * max(1.0, np.abs(tr.theta).max())


def assert_same_trace(got, want):
    """Every field of two TraceSets, arrays compared bit for bit."""
    for field in dataclasses.fields(sim.TraceSet):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name != "estimators":
            assert np.array_equal(a, b), field.name
            continue
        assert a.keys() == b.keys()
        for kind in a:
            for name in vars(a[kind]):
                x, y = getattr(a[kind], name), getattr(b[kind], name)
                assert (x is None and y is None) or np.array_equal(x, y), (kind, name)


class TestMembers:
    @settings(max_examples=20, deadline=None)
    @given(
        n_agents=st.integers(2, 12),
        seed=st.integers(0, 2**31 - 1),
        n_members=st.integers(2, 4),
        p_loss=st.sampled_from([0.0, 0.3]),
        noise_sd=st.sampled_from([0.0, 0.1]),
    )
    def test_each_member_is_its_solo_run(self, n_agents, seed, n_members, p_loss, noise_sd):
        # The networks of TestInvariantsOverRandomNetworks, every kind, and
        # 2 to 4 members at random epsilon > 0: each member of the batch
        # is its run_scenario run, bit for bit, both maxima included.
        rng = np.random.default_rng(seed)
        doc = small_doc(
            n=3, theta=rng.uniform(-2, 2, size=3).tolist(), n_agents=n_agents, seed=seed,
            rows_per_agent=rng.integers(1, 4, size=n_agents).tolist(),
            estimators=["ge", "drem", "drem_simple", "centralized"], gamma_ge=0.2,
            gamma_drem=1e-12, gamma_centralized=1e-3, p_loss=p_loss, loss_resample_dt=0.02,
            noise_sd=noise_sd, t_end=0.055, decimation=3,
        )
        del doc["topology"]
        doc["schedule"] = {
            "graphs": [{"edges": random_connected_edges(rng, n_agents)} for _ in range(2)],
            "segments": [[0.0, 0], [0.03, 1]],
            "dwell_min": 0.025,
        }
        cfgs = [load_config({**doc, "epsilon": float(eps)})
                for eps in rng.uniform(1e-3, 0.05, size=n_members)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "INPUT_BLOCK", 7)
            batch = sim.run_members(cfgs)
            solo = [run_scenario(cfg) for cfg in cfgs]
        assert len(batch) == n_members
        for got, want in zip(batch, solo):
            assert_same_trace(got, want)

    def test_divergence_in_one_member_raised_first_in_time_by_its_member(self, monkeypatch):
        # Through the field, by each member's quantizer step: member 1
        # (eps = 2e-9) blows up in agent 2's X[0, 0] from step 5 on, member
        # 0 (eps = 1e-9) in agent 0's x[1] from step 20 on. The batch raises
        # member 1's, at t = 0.006, as its solo run does, naming the member
        # by its epsilon. A tiny gamma_drem keeps theta from outgrowing the
        # entry through the blown-up Gram.
        dac = consensus.dac_derivative
        calls = [0]

        def blown(out, lap, k, eps=0.0):
            d = dac(out, lap, k, eps)
            calls[0] += 1
            steps = np.ravel(eps)
            if calls[0] > 4 * 5:
                d[steps == 2e-9, 2, 0] += 1e18
            if calls[0] > 4 * 20:
                d[steps == 1e-9, 0, 5] += 1e18
            return d

        monkeypatch.setattr(sim.cns, "dac_derivative", blown)
        cfgs = [load_config(small_doc(estimators=["drem"], gamma_drem=1e-300, t_end=0.05,
                                      epsilon=eps))
                for eps in (1e-9, 2e-9, 3e-9)]
        with pytest.raises(SimulationDiverged) as batch:
            sim.run_members(cfgs)
        calls[0] = 0
        with pytest.raises(SimulationDiverged) as solo:
            run_scenario(cfgs[1])
        e = batch.value
        assert (e.member, e.block, e.agent, e.entry, e.t) == (1, "X", 2, (0, 0), 0.006)
        assert re.fullmatch(r"state component 'X\[2, 0, 0\]' diverged at t=0\.006 "
                            r"\(value .*\) \(member epsilon=2e-09\)", str(e))
        assert solo.value.member == 0
        assert str(e) == f"{solo.value} (member epsilon=2e-09)"
        assert (e.block, e.agent, e.entry, e.t, e.value) == (
            solo.value.block, solo.value.agent, solo.value.entry, solo.value.t, solo.value.value)

    def test_refuses_members_that_do_not_batch(self):
        base = small_doc(t_end=0.05)
        cfg = lambda **over: load_config({**base, **over})  # noqa: E731
        with pytest.raises(ValueError, match="needs at least one member"):
            sim.run_members([])
        for other in ({"noise_sd": 0.1}, {"k": 4.0}, {"seed": 8}, {"estimators": ["ge"]}):
            with pytest.raises(ValueError, match="agree on every document key but epsilon"):
                sim.run_members([cfg(epsilon=0.01), cfg(epsilon=0.02, **other)])
        for epsilons in ((0.0, 0.01), (0.01, 0.0), (0.0, 0.0)):
            with pytest.raises(ValueError, match="needs epsilon > 0 in each"):
                sim.run_members([cfg(epsilon=eps) for eps in epsilons])
        one = dataclasses.replace(cfg(epsilon=0.01), k=4.0)  # k set after loading
        with pytest.raises(ValueError, match="agree on every document key but epsilon"):
            sim.run_members([cfg(epsilon=0.02), one])

    def test_batches_group_the_members_run_members_takes(self):
        base = small_doc(t_end=0.05)
        cfgs = [load_config({**base, **over}) for over in (
            {"epsilon": 0.0}, {"epsilon": 0.01}, {"epsilon": 0.02, "noise_sd": 0.1},
            {"epsilon": 0.03}, {"epsilon": 0.0}, {"epsilon": 0.04, "noise_sd": 0.1},
        )]
        assert sim.batches(cfgs) == [[0], [1, 3], [2, 5], [4]]


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
        assert set(m["per_estimator"]) == {"ge", "drem"}
        ge = m["per_estimator"]["ge"]
        assert len(ge["final_err"]) == 3 and len(ge["decay_rate"]) == 3
        assert all(r < 0 for r in ge["decay_rate"])
        assert m["transient_end"] is not None
        assert m["tail_sup_resid"] < 1e-9

    def test_final_err_is_the_last_sample_error(self, small_trace):
        m = compute_metrics(small_trace)
        for kind, tr in small_trace.estimators.items():
            assert m["per_estimator"][kind]["final_err"] == tr.err_norm[-1].tolist()

    def test_max_conservation_err_is_the_largest_sum_at_the_samples(self, monkeypatch):
        # The stepped pass's lower state after each step, recorded through
        # rk4_step. The quantizer keeps X exactly symmetric, so the run's
        # max_asymmetry differs from its drift.
        states = [np.zeros((1, 3, 1, 6))]  # (member, agent, row, column)
        rk4_step = sim.rk4_step

        def recorded(field, state, t, h):
            states.append(rk4_step(field, state, t, h))
            return states[-1]

        monkeypatch.setattr(sim, "rk4_step", recorded)
        tr = run_scenario(load_config(small_doc(estimators=["ge"], epsilon=0.01, t_end=0.5)))
        X, x = consensus.split(np.array(states)[::10, 0, :, 0])
        drift = max(np.abs(X.sum(axis=1)).max(), np.abs(x.sum(axis=1)).max())
        assert tr.max_conservation_err == drift > 0
        assert tr.max_asymmetry != drift

    def test_transient_end_none_when_never_inside(self, small_trace):
        m = compute_metrics(small_trace, ceiling=1e-30)
        assert m["transient_end"] is None

    def test_transient_end_is_where_the_errors_stay_inside(self, small_trace):
        # inside at samples 10-19, outside at 20-29, NaN (outside) at 30,
        # inside from 31 on
        cons_err = np.ones_like(small_trace.cons_err)
        cons_err[10:20] = cons_err[30:] = 0.1
        cons_err[30, 1] = np.nan
        trace = dataclasses.replace(small_trace, cons_err=cons_err)
        assert compute_metrics(trace, ceiling=0.5)["transient_end"] == small_trace.t[31]
        cons_err[-1, 2] = 1.0
        assert compute_metrics(trace, ceiling=0.5)["transient_end"] is None


def test_decimation_refused_exactly_when_the_tail_window_is_empty():
    # 50 steps: load_config refuses a decimation iff the run it would give
    # has no sample for compute_metrics' tail window.
    base = load_config(small_doc(t_end=0.05))
    refused = []
    for decimation in range(1, 51):
        try:
            load_config(small_doc(t_end=0.05, decimation=decimation))
        except ConfigError as e:
            assert str(e).startswith(f"decimation={decimation} leaves no sample")
            refused.append(decimation)
        trace = run_scenario(dataclasses.replace(base, decimation=decimation))
        if decimation in refused:
            with pytest.raises(ValueError, match="tail window is empty"):
                compute_metrics(trace)
        else:
            compute_metrics(trace)
    assert refused and len(refused) < 50


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


# One column per entry: the label, then the entry index, then _a<i> on a
# per-agent array. The pin reads each name back to the array it names.
GOLDEN_HEADER = Path(__file__).with_name("golden_traces_header.txt")
_COLUMN = re.compile(
    r"(?:(?P<kind>drem_simple|centralized|drem|ge)_)?(?P<label>[a-z_]+?)(?P<entry>\d*)(?:_a(?P<agent>\d+))?"
)
_TRACE_ARRAYS = {"t": "t", "sigma": "sigma", "links": "links", "cons_err": "cons_err",
                 "yhat_err": "yhat_err", "resid": "resid_norm"}
_KIND_ARRAYS = {"theta": "theta_hat", "err": "err_norm", "phi": "phi", "phi_sq_int": "phi_sq_int"}


def _named_array(trace, name: str) -> np.ndarray:
    m = _COLUMN.fullmatch(name)
    assert m, name
    if m["kind"]:
        a = getattr(trace.estimators[m["kind"]], _KIND_ARRAYS[m["label"]])
    else:
        a = getattr(trace, _TRACE_ARRAYS[m["label"]])
    if m["agent"]:
        a = a[:, int(m["agent"])]
    if m["entry"]:
        a = a[:, int(m["entry"])]
    assert a.ndim == 1, name
    return a


def test_run_dir_artifacts_pinned(tmp_path):
    """MIXED_DOC (1/2/3 rows, all four kinds): the full traces.csv header,
    every column against the array it names, and metrics.json's key order."""
    from test_golden_scenarios import MIXED_DOC

    cfg = load_config({**MIXED_DOC, "t_end": 0.3})
    trace = run_scenario(cfg)
    write_run_dir(tmp_path, cfg, trace, compute_metrics(trace), {"k": cfg.k})

    text = (tmp_path / "traces.csv").read_text()
    header = text.splitlines()[0]
    assert header == GOLDEN_HEADER.read_text().strip()
    data = np.loadtxt(tmp_path / "traces.csv", delimiter=",", skiprows=1)
    names = header.split(",")
    assert data.shape == (trace.t.shape[0], len(names))
    for j, name in enumerate(names):
        np.testing.assert_array_equal(data[:, j], _named_array(trace, name), err_msg=name)

    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert list(metrics) == ["per_estimator", "tail_sup_cons_err", "tail_sup_resid", "transient_end"]
    assert list(metrics["per_estimator"]) == list(cfg.estimators)
    for m in metrics["per_estimator"].values():
        assert list(m) == ["final_err", "decay_rate", "tail_sup_err"]
