"""Golden traces of the other shipped scenarios and of a mixed-rows scenario.

``tests/golden_scenarios.json`` holds theta_hat, the consensus error, the
residual norm and the DREM mixing factors at evenly spaced samples of

- ``quantized``, ``noisy``, ``packet_loss`` and ``cooperative_rank1``, each
  run to t_end = 1.0, and
- ``MIXED_DOC``: agents with 1, 2 and 3 regressor rows, all four
  estimators, measurement noise, packet loss and quantization at once.

A change that reorders floating-point arithmetic in the simulator must still
reproduce them. The samples and the tolerances are the benchmark's own
(``perfbench.workloads.checkpoints`` and ``compare``, rtol 1e-9).

Regenerate the file only when a change is meant to alter the outputs:

    PYTHONPATH=src python tests/test_golden_scenarios.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import hiera_est as he

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_scenarios.json")
T_END = 1.0
SHIPPED = ("quantized", "noisy", "packet_loss", "cooperative_rank1")

MIXED_DOC = {
    "n": 3,
    "n_agents": 3,
    "theta": [1.0, -2.0, 0.5],
    "seed": 5,
    "rows_per_agent": [1, 2, 3],
    "coeff_range": [0, 2],
    "freq_range": [0.5, 3.0],
    "topology": {"edges": [[0, 1], [1, 2], [0, 2]]},
    "k": 5.0,
    "gamma_ge": 0.2,
    "gamma_drem": 1e-9,
    "gamma_centralized": 0.5,
    "estimators": ["ge", "drem", "drem_simple", "centralized"],
    "noise_sd": 0.1,
    "p_loss": 0.3,
    "epsilon": 0.01,
    "h": 1e-3,
    "t_end": T_END,
    "decimation": 10,
}


def scenario_doc(name: str) -> dict:
    if name == "mixed_rows":
        return MIXED_DOC
    doc = json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
    return he.apply_overrides(doc, [f"t_end={T_END}"])


def golden_record(trace) -> dict:
    """The benchmark's checkpoints plus phi and its integral of each DREM kind."""
    out = workloads.checkpoints(trace)
    idx = np.searchsorted(trace.t, out["t"])
    for name, tr in trace.estimators.items():
        if tr.phi is not None:
            out[f"phi.{name}"] = tr.phi[idx].tolist()
            out[f"phi_sq_int.{name}"] = tr.phi_sq_int[idx].tolist()
    return out


def run(name: str) -> dict:
    return golden_record(he.run_scenario(he.load_config(scenario_doc(name))))


@pytest.fixture(scope="module")
def stored():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", SHIPPED + ("mixed_rows",))
def test_matches_golden(stored, name):
    got = run(name)
    assert sorted(got) == sorted(stored[name])
    assert got["t"] == stored[name]["t"]
    assert workloads.compare(got, stored[name]) == []


if __name__ == "__main__":
    records = {name: run(name) for name in SHIPPED + ("mixed_rows",)}
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in records.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}")
