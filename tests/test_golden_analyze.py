"""Golden `analyze` reports: the CLI's excitation report, key order and values.

``tests/golden_analyze.json`` holds the parsed stdout of ``hiera-est analyze``
for every shipped scenario (each has an explicit k, so its report carries
the quantized and switched margins), for ``nominal_switched`` with
``k = "auto"`` (no margins) and for ``nominal_switched`` with zero
regressors (not persistently exciting: no T, alpha or k_min). The keys must
come in the stored order at every level; the values are checked by the
benchmark's ``perfbench.workloads.compare`` (rtol 1e-9).

Run as a script, this file rewrites the stored reports:

    PYTHONPATH=src python tests/test_golden_analyze.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hiera_est.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_analyze.json")
SHIPPED = ("nominal_switched", "quantized", "noisy", "packet_loss", "cooperative_rank1")
CASES = {name: (name, []) for name in SHIPPED}
CASES["auto_k"] = ("nominal_switched", ["k=auto"])
CASES["not_pe"] = ("nominal_switched", ["coeff_range=[0,0]"])


def argv(name: str) -> list[str]:
    scenario, overrides = CASES[name]
    out = ["analyze", "-c", str(ROOT / "scenarios" / f"{scenario}.json")]
    for item in overrides:
        out += ["--set", item]
    return out


def key_order(obj, path="") -> list[str]:
    """Every key path of a parsed report, in document order."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in [f"{path}.{k}", *key_order(v, f"{path}.{k}")]]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in key_order(v, f"{path}[{i}]")]
    return []


def columns(report: dict) -> dict:
    """The report with its alpha curve as two arrays, the form `compare` reads."""
    out = dict(report)
    curve = out.pop("alpha_curve")
    out["alpha_curve.T"] = [p["T"] for p in curve]
    out["alpha_curve.alpha"] = [p["alpha"] for p in curve]
    return out


@pytest.fixture(scope="module")
def stored():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_analyze_matches_golden(stored, name, capsys):
    assert main(argv(name)) == EXIT_OK
    got = json.loads(capsys.readouterr().out)
    assert key_order(got) == key_order(stored[name])
    assert workloads.compare(columns(got), columns(stored[name])) == []


if __name__ == "__main__":
    reports = {}
    for name in CASES:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv(name)) == EXIT_OK
        reports[name] = json.loads(out.getvalue())
    GOLDEN.write_text(json.dumps(reports, indent=1) + "\n")
    print(f"wrote {', '.join(reports)} to {GOLDEN}")
