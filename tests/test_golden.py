"""Golden trace: the shortened nominal run against the stored benchmark reference.

``perfbench/reference.json`` holds theta_hat, the consensus error and the
residual norm at evenly spaced samples of ``nominal_switched`` run to
t_end = 1.0. Any change that reorders floating-point arithmetic in the
simulator must still reproduce them. The samples and the tolerances are the
benchmark's own: ``perfbench.workloads.checkpoints`` picks the samples and
``perfbench.workloads.compare`` checks them, so this test and the benchmark
cannot drift apart.
"""

import json
import sys
from pathlib import Path

import pytest

import hiera_est as he

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    reference = json.loads(workloads.REFERENCE.read_text())["nominal_drem"]
    cfg = he.load_config(workloads.nominal_doc(ROOT, workloads.NOMINAL_T_END))
    return workloads.checkpoints(he.run_scenario(cfg)), reference


def test_same_checkpoints(golden):
    got, reference = golden
    assert sorted(got) == sorted(reference)
    assert got["t"] == reference["t"]


@pytest.mark.parametrize("key", ["theta_hat.ge", "theta_hat.drem", "cons_err", "resid"])
def test_matches_reference(golden, key):
    got, reference = golden
    assert workloads.compare(got, {key: reference[key]}) == []
