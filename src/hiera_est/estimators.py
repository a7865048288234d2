"""Local parameter estimators: gradient flow and regressor-extension variants.

Each estimator is an affine flow theta' = a - B theta driven by the
consensus outputs alone, which every function takes as the packed rows
Z = [vec(Chat) | yhat] (see consensus.split): ge_flow, drem_flow and
centralized_ge_flow give (a, B). ge_derivative and drem_derivative are
a - B theta of their flows, the per-agent equations the unit tests check
and perfbench's tracer hooks. All operations are batched over agents
(axis N), and the flows and scalarizations also over any leading axes,
such as every RK4 stage row of a block of steps. The extension
estimator stacks the consensus output atop its first-order filtered copies
into one extended regression A = [Cf | yf], and scalarizes it with two
products: Cf^T A = [G | Cf^T yf] gives the Gram G and the right-hand side
at once, and adj(G) [G | Cf^T yf] = [phi I | Y] gives the mixing factor
phi = det(G) and the decoupled regression Y = phi theta, returned as the
pair (phi, Y). The filterless variant scalarizes [Chat | yhat] the same way.

The adjugate has a closed form for n = 3 and takes one batched
determinant over all n^2 minors for every other n; phi is read off the
second product, so for n = 3 the scalarization makes no determinant call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import consensus as cns


def _cross_gather() -> np.ndarray:
    """Flat indices into a 3x3 G of the four factors of each adj(G) entry.

    adj[i, j] = G[j+1, i+1] G[j+2, i+2] - G[j+2, i+1] G[j+1, i+2] (mod 3):
    row i of adj(G) is the cross product of columns i+1 and i+2 of G.
    """
    i, j = np.ogrid[:3, :3]
    return np.stack([3 * ((j + a) % 3) + (i + b) % 3 for a, b in ((1, 1), (2, 2), (2, 1), (1, 2))])


_ADJ3_FLAT = _cross_gather()


@cache
def _augmented(width: int) -> np.ndarray:
    """Indices into a packed row [vec(M) | v] of width n^2 + n of the
    augmented matrix [M | v], (n, n + 1)."""
    return np.column_stack(cns.split(np.arange(width)))


def ge_flow(Z: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient flow as the affine flow theta' = a - B theta, per agent and row.

    a = gain Chat^T yhat and B = gain Chat^T Chat, read off one product
    Chat^T [Chat | yhat] of the augmented output rows Z.
    """
    aug = Z[..., _augmented(Z.shape[-1])]
    n = aug.shape[-2]
    G = np.matmul(gain, aug[..., :n].swapaxes(-1, -2) @ aug, out=aug)  # into aug's memory
    return G[..., n], G[..., :n]


def ge_derivative(theta_hat: np.ndarray, Z: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Gradient-flow update gain Chat^T (yhat - Chat theta_hat), as a - B theta_hat of ge_flow."""
    a, B = ge_flow(Z, gain)
    return a - (B @ theta_hat[..., None])[..., 0]


def centralized_ge_flow(
    M: np.ndarray, v: np.ndarray, gain: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient flow on the stacked network-wide regression (baseline), as (a, B).

    M = sum_i C_i^T C_i and v = sum_i C_i^T y_i are the network sums of the
    surrogates, so a - B theta = gain (v - M theta) is gain C^T (y - C theta)
    of the stacked regressor C and output y.
    """
    return (gain @ v[..., None])[..., 0], gain @ M


@dataclass(frozen=True)
class DremFilterBank:
    """First-order stable filter bank z' = -beta z + alpha u per operator.

    Each filter realizes the transfer function alpha/(s + beta) applied to
    the packed consensus output row, both channels at once; beta > 0
    (exponentially stable), alpha != 0.
    """

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        b = np.asarray(self.betas, dtype=float)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("alphas and betas must be 1-D and same length")
        if np.any(a == 0.0):
            raise ValueError("filter numerators must be nonzero")
        if np.any(b <= 0.0):
            raise ValueError("filter poles must be strictly stable (beta > 0)")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "betas", b)

    @property
    def r(self) -> int:
        return self.alphas.shape[0]


def default_filter_bank(n: int) -> DremFilterBank:
    """r = n - 1 filters with unit numerators and distinct poles 1..n-1."""
    r = max(n - 1, 0)
    return DremFilterBank(alphas=np.ones(r), betas=np.arange(1.0, r + 1.0))


def drem_filter_derivative(bank: DremFilterBank, z: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """State derivative of the filter bank driven by the consensus outputs.

    z holds each agent's r filtered copies of its packed output row Z,
    shape (N, r, n^2 + n): one filter equation for both channels.
    """
    return bank.alphas[:, None] * Z[:, None] - bank.betas[:, None] * z


def drem_extend(Z: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The extended regression A = [Cf | yf], shape (..., N, (r+1)n, n+1).

    Row block 0 is [Chat | yhat], block j the j-th filtered copy [zC | zy]:
    one gather of the augmented rows from the packed rows Z and z, over any
    leading axes the two share.
    """
    rows = np.concatenate([Z[..., None, :], z], axis=-2)
    aug = rows[..., _augmented(Z.shape[-1])]
    return aug.reshape(*rows.shape[:-2], -1, aug.shape[-1])


def adjugate(G: np.ndarray) -> np.ndarray:
    """Classical adjugate, adj(G) G = det(G) I, defined for singular G too.

    Closed form for n = 3 (row i is the cross product of columns i+1 and
    i+2). For every other n, one batched determinant of all n^2 minors (at
    n = 1, one 0x0 minor of determinant 1). No branch depends on the values,
    so rank-deficient and badly scaled input takes the same path as any
    other. Supports batched input (..., n, n).
    """
    g = np.asarray(G, dtype=float)
    n = g.shape[-1]
    if g.ndim < 2 or g.shape[-2] != n:
        raise ValueError("adjugate needs square matrices")
    batch = g.shape[:-2]
    if n == 3:
        t = g.reshape(*batch, 9)[..., _ADJ3_FLAT]
        return t[..., 0, :, :] * t[..., 1, :, :] - t[..., 2, :, :] * t[..., 3, :, :]

    idx = np.arange(n)
    # others[i] lists the indices 0..n-1 without i.
    others = idx[None, :-1] + (idx[None, :-1] >= idx[:, None])
    # minors[..., i, j] is G without row j and column i: the (j, i) minor.
    minors = g[..., others[None, :, :, None], others[:, None, None, :]]
    sign = 1.0 - 2.0 * ((idx[:, None] + idx[None, :]) % 2)
    return sign * np.linalg.det(minors)


def _mix(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """adj(G) B = [phi I | Y] for B = [G | rhs]: (phi, Y), phi = det(G) entry (0, 0), Y column n."""
    n = B.shape[-2]
    M = adjugate(B[..., :n]) @ B
    return M[..., 0, 0], M[..., n]


def drem_scalarize(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalarize the extended regression A = [Cf | yf] through the Gram adjugate.

    [G | Cf^T yf] = Cf^T A in one product, then phi = det(G) and
    Y = adj(G) Cf^T yf; well-defined (phi = 0) when G is singular.
    """
    n = A.shape[-1] - 1
    return _mix(A[..., :n].swapaxes(-1, -2) @ A)


def drem_simple_scalarize(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filterless scalarization using the square consensus output [Chat | yhat] directly."""
    return _mix(Z[..., _augmented(Z.shape[-1])])


def drem_flow(
    phi: np.ndarray, Y: np.ndarray, gain_diag: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decoupled scalar regression as the affine flow theta' = a - B theta with
    diagonal B: a = gain phi Y and B = gain phi^2, per component."""
    g = gain_diag * phi[..., None]
    return g * Y, g * phi[..., None]


def drem_derivative(
    theta_hat: np.ndarray, phi: np.ndarray, Y: np.ndarray, gain_diag: np.ndarray
) -> np.ndarray:
    """Decoupled scalar update gain * phi * (Y - phi * theta_hat), as a - B theta_hat of drem_flow."""
    a, B = drem_flow(phi, Y, gain_diag)
    return a - B * theta_hat
