"""Packed rows for the tests: the inverse of consensus.split."""

import numpy as np


def pack(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Packed rows [vec(M) | v] from (..., n, n) matrices and (..., n) vectors."""
    return np.concatenate([M.reshape(*M.shape[:-2], -1), v], axis=-1)
