"""Dynamic average consensus: derivative fields and error measures.

Both surrogate signals obey the same equation, so they travel as one packed
channel: each agent's row is [vec(M_i) | v_i], n^2 + n entries, for the
matrix surrogate C_i^T C_i and the vector surrogate C_i^T y_i alike. Packed
are the surrogate inputs P (N, n^2+n), the integrator states S = [vec(X_i) |
x_i] and the outputs Z = P - S = [vec(Chat_i) | yhat_i]; every function
takes the packed rows, and split, the one rule for reading them, gives their
(..., n, n) and (..., n) views. The quantized and packet-loss variants share
the nominal derivative field, dac_derivative, the only implementation of it:
eps = 0 means exact communication, and lost links are removed from the
Laplacian it is given.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Topology, laplacian
from .signals import quantize


def split(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views (M, v) of packed rows [vec(M) | v]: (..., n, n) and (..., n)."""
    nn = (math.isqrt(4 * rows.shape[-1] + 1) - 1) // 2  # width = n^2 + n
    return rows[..., : nn * nn].reshape(*rows.shape[:-1], nn, nn), rows[..., nn * nn :]


def effective_laplacian(topo: Topology, loss_mask: np.ndarray | None = None) -> np.ndarray:
    """Laplacian of the topology with lost edges removed symmetrically.

    loss_mask is an (N,N) boolean matrix, True where the link is up; it is
    symmetrized so a down edge vanishes from both endpoints' neighbor sums.
    """
    a = topo.adjacency
    if loss_mask is not None:
        up = np.logical_and(loss_mask, loss_mask.T)
        a = a * up
    return laplacian(a)


def check_dac(lap: np.ndarray, k: float, n_agents: int):
    """Refuses what dac_derivative cannot take: a gain k <= 0, or a Laplacian
    lap that is not n_agents x n_agents."""
    if k <= 0:
        raise ValueError("consensus gain k must be positive")
    if lap.shape != (n_agents,) * 2:
        raise ValueError("output/Laplacian agent count mismatch")


def dac_derivative(Z: np.ndarray, lap: np.ndarray, k: float, eps=0.0, out=None) -> np.ndarray:
    """Packed integrator-state derivative [vec(dX_i) | dx_i] of the consensus block.

    Each agent integrates k times the sum over its active neighbors of the
    difference of transmitted output rows Z (..., N, n^2 + n), written
    through the step's Laplacian lap (see effective_laplacian); transmission
    applies the floor quantizer at step eps (identity when eps = 0; an
    (E, 1, 1) step column for a member axis E leading Z). Both channels take
    one quantizer call and one Laplacian product, which broadcasts over the
    leading axes.

    out, when given, is the pair (q, d) of arrays of Z's shape that Q(Z)
    and the derivative are written into; d is returned. The buffered form
    checks nothing: its caller checks lap and k once with check_dac and
    eps with signals.quantizer_steps, as quantize's buffered form takes it.
    """
    if out is None:
        check_dac(lap, k, Z.shape[-2])
        out = (None, None)
    q, d = out
    d = np.matmul(lap, quantize(Z, eps, out=q), out=d)
    d *= k
    return d


def average_reference(Cp: np.ndarray, yp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Network averages of the surrogate signals (the ideal consensus target):
    the mean over the agent axis, (..., N, n, n) and (..., N, n)."""
    return Cp.mean(axis=-3), yp.mean(axis=-2)


def consensus_error(
    Z: np.ndarray, Cbar: np.ndarray, ybar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent deviations from the network average: (matrix norms, vector norms).

    Cbar and ybar are average_reference's, with the same leading axes as the
    output rows Z less the agent axis. Chat_i - Cbar is symmetric, so its
    induced 2-norm is its largest eigenvalue magnitude.
    """
    Chat, yhat = split(Z)
    cerr = np.abs(np.linalg.eigvalsh(Chat - Cbar[..., None, :, :])).max(axis=-1)
    yerr = np.linalg.norm(yhat - ybar[..., None, :], axis=-1)
    return cerr, yerr


def residual(Z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Regression-identity residual r_i = yhat_i - Chat_i theta of the output
    rows Z, shape (N,n).

    theta is one (n,) vector for every agent or one row per agent, (N, n).
    Identically zero for zero-initialized, noiseless, non-quantized runs; under
    quantization its norm is diagnosed against the r(eps) ceiling.
    """
    Chat, yhat = split(Z)
    return yhat - (Chat @ theta[..., None])[..., 0]
