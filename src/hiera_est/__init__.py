"""Hierarchical distributed parameter estimation over dynamic consensus.

Deterministic simulator and analysis library for networks of agents that
first agree on averaged regression data via dynamic average consensus and
then run local parameter estimators (gradient flow or a regressor-extension
scalarization) on the agreed signals, including quantized, switched-topology,
noisy, and lossy-link variants.
"""

from .config import apply_overrides, load_config
from .excitation import consensus_error_bound, gain_bound, pe_level
from .sim import compute_metrics, run_scenario

__version__ = "0.1.0"

__all__ = [
    "apply_overrides",
    "compute_metrics",
    "consensus_error_bound",
    "gain_bound",
    "load_config",
    "pe_level",
    "run_scenario",
]
