"""The two-layer cascade against a coupled reference.

``sim.run_scenario`` steps the consensus layer and the DREM filter banks with
``rk4_step`` and advances every estimator by RK4's affine one-step map,
driven by the lower layer's stage values. RK4 of a cascade is RK4 of its
lower layer followed by RK4 of its upper layer driven by those stage
values, so integrating the whole state in one field must give the same
consensus arrays bit for bit and the same estimator arrays to rounding.

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
