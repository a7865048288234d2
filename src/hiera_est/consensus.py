"""Dynamic average consensus: derivative fields, outputs, and error measures.

All quantities are batched over agents: integrator states X (N,n,n) and
x (N,n), surrogate inputs Cp (N,n,n) and yp (N,n). The quantized and
packet-loss variants share the nominal derivative field, dac_derivative, the
only implementation of it: eps = 0 means exact communication, and lost links
are removed from the Laplacian it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Topology
from .signals import quantize


@dataclass
class ConsensusOutput:
    """Consensus outputs per agent: Chat = Cp - X, yhat = yp - x."""

    Chat: np.ndarray  # (N, n, n)
    yhat: np.ndarray  # (N, n)


def consensus_outputs(
    Cp: np.ndarray, yp: np.ndarray, X: np.ndarray, x: np.ndarray
) -> ConsensusOutput:
    """Outputs of the consensus block from its surrogate inputs and states."""
    return ConsensusOutput(Chat=Cp - X, yhat=yp - x)


def effective_laplacian(topo: Topology, loss_mask: np.ndarray | None = None) -> np.ndarray:
    """Laplacian of the topology with lost edges removed symmetrically.

    loss_mask is an (N,N) boolean matrix, True where the link is up; it is
    symmetrized so a down edge vanishes from both endpoints' neighbor sums.
    """
    a = topo.adjacency
    if loss_mask is not None:
        up = np.logical_and(loss_mask, loss_mask.T)
        a = a * up
    return np.diag(a.sum(axis=1)) - a


def dac_derivative(
    out: ConsensusOutput, lap: np.ndarray, k: float, eps: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Integrator-state derivatives (dX, dx) of the consensus block.

    Each agent integrates k times the sum over its active neighbors of the
    difference of transmitted outputs, written through the step's Laplacian
    lap (see effective_laplacian); transmission applies the floor quantizer
    at step eps (identity when eps = 0).
    """
    if k <= 0:
        raise ValueError("consensus gain k must be positive")
    n_agents = out.Chat.shape[0]
    if lap.shape != (n_agents, n_agents):
        raise ValueError("output/Laplacian agent count mismatch")
    qc = quantize(out.Chat, eps)
    qy = quantize(out.yhat, eps)
    dX = k * (lap @ qc.reshape(n_agents, -1)).reshape(qc.shape)
    dx = k * (lap @ qy)
    return dX, dx


def average_reference(Cp: np.ndarray, yp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Network averages of the surrogate signals (the ideal consensus target)."""
    return Cp.mean(axis=0), yp.mean(axis=0)


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Induced 2-norm of each matrix in a batch (...,m,n)."""
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def consensus_error(
    output: ConsensusOutput, Cbar: np.ndarray, ybar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent deviations from the network average: (matrix norms, vector norms)."""
    cerr = spectral_norms(output.Chat - Cbar)
    yerr = np.linalg.norm(output.yhat - ybar, axis=-1)
    return cerr, yerr


def residual(output: ConsensusOutput, theta: np.ndarray) -> np.ndarray:
    """Regression-identity residual r_i = yhat_i - Chat_i theta, shape (N,n).

    Identically zero for zero-initialized, noiseless, non-quantized runs; under
    quantization its norm is diagnosed against the r(eps) ceiling.
    """
    theta = np.asarray(theta, dtype=float)
    return output.yhat - np.einsum("aij,j->ai", output.Chat, theta)
