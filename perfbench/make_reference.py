"""Write perfbench/reference.json: the outputs every benchmark run is checked against.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the simulator's outputs, and say
so in that change. A faster implementation must reproduce the stored file.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy as np

    import hiera_est
    from perfbench import workloads as w

    nominal = w.NominalDrem(ROOT)
    _, nominal_out = nominal.run(hiera_est.load_config(nominal.doc(0)))
    degraded = w.DegradedN60Ge(ROOT)
    _, degraded_out = degraded.run(hiera_est.load_config(degraded.doc(w.REFERENCE_SEED)))
    _, sweep_out = w.CliAnalyzeSweep(ROOT).run()
    if sweep_out["analyze_rc"] or sweep_out["sweep_rc"] or sweep_out["missing_files"]:
        raise SystemExit(f"cli workload failed: {sweep_out}")
    ref = {
        "made_with": {"numpy": np.__version__, "python": platform.python_version(),
                      "rtol": w.RTOL, "resid_atol": w.RESID_ATOL},
        "nominal_drem": nominal_out,
        "degraded_n60_ge": {"seed": w.REFERENCE_SEED, "checkpoints": degraded_out},
        "cli_analyze_sweep": {k: sweep_out[k] for k in ("analyze", "sweep_rows")},
    }
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in ref.items()]
    w.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {w.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
