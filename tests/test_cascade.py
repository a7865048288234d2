"""The two-layer cascade against a coupled reference.

``sim.run_scenario`` steps the consensus layer and the DREM filter banks with
``rk4_step`` (at epsilon > 0) or by RK4's linear maps (at epsilon = 0) and
advances every estimator by RK4's affine one-step map, driven by the lower
layer's stage values. RK4 of a cascade is RK4 of its lower layer followed
by RK4 of its upper layer driven by those stage values, so integrating the
whole state in one field must give, at epsilon > 0, the same consensus
arrays bit for bit and the same estimator arrays to rounding; at
epsilon = 0 the maps round the lower layer differently, so both agree to
rounding.

The reference below is that one field: ``dac_derivative``,
``drem_filter_derivative``, ``ge_derivative``, ``drem_derivative`` and the
centralized flow's ``a - B theta`` on one flat state, stepped by
``rk4_step``. It reads the runner's own input tables and Laplacians,
recorded during the run, so only the integration is compared.
"""

import numpy as np
import pytest

from hiera_est import consensus as cns
from hiera_est import estimators as est
from hiera_est import sim
from hiera_est.config import load_config
from test_golden_scenarios import MIXED_DOC, SWITCHED_LOSSY_DOC


def coupled_reference(cfg, tables, laps):
    """Samples of every kind's arrays and the consensus diagnostics, from
    one RK4 field over the whole state."""
    n, N, h, k = cfg.n, cfg.n_agents, cfg.h, sim.resolve_gain(cfg)
    P = np.concatenate(tables)  # P[step, c]: the input at half-step stage c
    shapes = {"S": (N, n * n + n), "z": (N, cfg.drem_filters.r, n * n + n), "ge": (N, n),
              "drem": (N, n), "drem_int": (N,), "drem_simple": (N, n),
              "drem_simple_int": (N,), "centralized": (n,)}
    cuts = np.cumsum([np.prod(s) for s in shapes.values()])[:-1]

    def evaluate(step, c, flat):
        v = {key: a.reshape(s) for (key, s), a in zip(shapes.items(), np.split(flat, cuts))}
        rows = P[step, c]
        out = rows - v["S"]
        phi = {"drem": est.drem_scalarize(est.drem_extend(out, v["z"], est.Buffers()),
                                          est.Buffers()),
               "drem_simple": est.drem_simple_scalarize(out, est.Buffers())}
        a, B = est.centralized_ge_flow(*cns.split(rows.sum(axis=0)), cfg.gamma_centralized)
        d = {"S": cns.dac_derivative(out, laps[4 * step], k, cfg.epsilon),
             "z": est.drem_filter_derivative(cfg.drem_filters, v["z"], out),
             "ge": est.ge_derivative(v["ge"], out, cfg.gamma_ge),
             "centralized": a - B @ v["centralized"]}
        for kind, (f, Y) in phi.items():
            d[kind] = est.drem_derivative(v[kind], f, Y, cfg.gamma_drem)
            d[f"{kind}_int"] = f**2
        return np.concatenate([d[key].ravel() for key in shapes]), v, out, phi

    samples = []
    state = np.zeros(cuts[-1] + n)
    n_steps = int(round(cfg.t_end / h))
    for step in range(n_steps + 1):
        if step % cfg.decimation == 0:
            _, v, out, phi = evaluate(step, 0, state)
            cbar, ybar = cns.average_reference(*cns.split(P[step, 0]))
            samples.append({**v, **{f"{kind}_phi": f for kind, (f, _) in phi.items()},
                            "cons": cns.consensus_error(out, cbar, ybar),
                            "resid": np.linalg.norm(cns.residual(out, cfg.theta), axis=-1)})
        if step < n_steps:
            field = lambda t, flat: evaluate(step, round(t / (h / 2)) - 2 * step, flat)[0]
            state = sim.rk4_step(field, state, step * h, h)
    return {key: np.array([s[key] for s in samples]) for key in samples[0]}


@pytest.mark.parametrize("doc", [MIXED_DOC, SWITCHED_LOSSY_DOC], ids=["mixed", "switched_lossy"])
def test_cascade_matches_the_coupled_integration(monkeypatch, doc):
    cfg = load_config({**doc, "t_end": 0.3, "estimators": list(sim.ESTIMATORS),
                       "gamma_centralized": 0.5})
    tables, laps = [], []
    surrogate_all, dac = sim.surrogate_all, cns.dac_derivative

    def recorded_inputs(c, y, out=None):
        out = surrogate_all(c, y, out=out)
        tables.append(cns.pack(*out))
        return out

    def recorded_laplacian(out, lap, k, eps=0.0):
        laps.append(lap)
        return dac(out, lap, k, eps)

    monkeypatch.setattr(sim, "surrogate_all", recorded_inputs)
    monkeypatch.setattr(sim.cns, "dac_derivative", recorded_laplacian)
    trace = sim.run_scenario(cfg)
    monkeypatch.undo()
    ref = coupled_reference(cfg, tables, laps)

    np.testing.assert_array_equal(trace.cons_err, ref["cons"][:, 0])
    np.testing.assert_array_equal(trace.yhat_err, ref["cons"][:, 1])
    np.testing.assert_array_equal(trace.resid_norm, ref["resid"])
    for kind, tr in trace.estimators.items():
        np.testing.assert_allclose(tr.theta_hat, ref[kind], rtol=1e-12, atol=0, err_msg=kind)
        if tr.phi is not None:
            np.testing.assert_allclose(tr.phi, ref[f"{kind}_phi"], rtol=1e-12, atol=0)
            np.testing.assert_allclose(tr.phi_sq_int, ref[f"{kind}_int"], rtol=1e-12, atol=0)


def test_mapped_lower_pass_matches_the_coupled_integration(monkeypatch):
    # At epsilon = 0 the runner steps the lower layer by RK4's maps, formed
    # once per network event (switches and loss redraws) through the field,
    # so dac_derivative is called four times per event. The reference steps
    # the field itself, with each step's Laplacian from the event table.
    cfg = load_config({**SWITCHED_LOSSY_DOC, "t_end": 0.3, "epsilon": 0.0,
                       "estimators": list(sim.ESTIMATORS), "gamma_centralized": 0.5})
    tables, calls = [], [0]
    surrogate_all, dac = sim.surrogate_all, cns.dac_derivative

    def recorded_inputs(c, y, out=None):
        out = surrogate_all(c, y, out=out)
        tables.append(cns.pack(*out))
        return out

    def counted(out, lap, k, eps=0.0):
        calls[0] += 1
        return dac(out, lap, k, eps)

    monkeypatch.setattr(sim, "surrogate_all", recorded_inputs)
    monkeypatch.setattr(sim.cns, "dac_derivative", counted)
    trace = sim.run_scenario(cfg)
    monkeypatch.undo()
    n_steps = int(round(cfg.t_end / cfg.h))
    steps, _, _, laps = sim.network_events(cfg, n_steps)
    assert calls[0] == 4 * len(steps) and len(steps) > 3
    at = np.searchsorted(steps, np.arange(n_steps + 1), side="right") - 1
    laps = np.repeat(laps[at], 4, axis=0)  # the reference reads laps[4 * step]
    ref = coupled_reference(cfg, tables, laps)

    # The consensus arrays agree to 1e-13 of their scale (the maps' rounding
    # moves the state by about an ulp, 3.6e-15 on a scale of 12.7 here).
    for got, want in ((trace.cons_err, ref["cons"][:, 0]), (trace.yhat_err, ref["cons"][:, 1]),
                      (trace.resid_norm, ref["resid"])):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    # Each estimator array agrees to 1e-12 of its scale, or, where the array
    # is more sensitive than that to the lower layer's rounding, to twice
    # the move that one-ulp changes of the inputs make in the reference
    # itself: DREM's phi = det(G) of its filtered Gram cancels, so such a
    # change moves it by 1.1e-9 of its scale (the runner's differs by
    # 8.3e-10), and its theta and integral follow.
    rng = np.random.default_rng(0)
    ulp = coupled_reference(cfg, [P * (1 + 2.0**-52 * rng.choice([-1, 1], P.shape))
                                  for P in tables], laps)
    for kind, tr in trace.estimators.items():
        for got, key in ((tr.theta_hat, kind), (tr.phi, f"{kind}_phi"),
                         (tr.phi_sq_int, f"{kind}_int")):
            if got is not None:
                tol = max(1e-12 * np.abs(ref[key]).max(), 2 * np.abs(ulp[key] - ref[key]).max())
                np.testing.assert_allclose(got, ref[key], rtol=0, atol=tol, err_msg=key)
