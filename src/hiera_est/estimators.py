"""Local parameter estimators: gradient flow and regressor-extension variants.

Each estimator is an affine flow theta' = a - B theta driven by the
consensus outputs alone, which every function takes as the packed rows
Z = [vec(Chat) | yhat] (see consensus.split): ge_flow, drem_flow and
centralized_ge_flow give (a, B). ge_derivative and drem_derivative are
a - B theta of their flows, the per-agent equations the unit tests check
and perfbench's tracer hooks. All operations are batched over agents
(axis N), and the flows and scalarizations also over any leading axes,
such as every RK4 stage row of a block of steps. Each product of small
matrices is one np.einsum contraction over the whole batch, not one
matrix product per matrix. The flows and scalarizations write their
block-sized arrays with out= into the Buffers every caller passes, work
arrays kept from call to call (the runner keeps one per kind for a run),
whose entry axes lead in memory so that each contraction loops over the
long batch axes. The extension estimator
stacks the consensus output atop its first-order filtered copies into one
extended regression A = [Cf | yf], and scalarizes it with two products:
Cf^T A = [G | Cf^T yf] gives the Gram G and the right-hand side at once,
and adj(G) [G | Cf^T yf] = [phi I | Y] gives the mixing factor
phi = det(G) and the decoupled regression Y = phi theta, returned as the
pair (phi, Y); of the second product only entry (0, 0) and column n are
formed. The filterless variant scalarizes [Chat | yhat] the same way.

The adjugate has a closed form for n = 3 and takes one batched
determinant over all n^2 minors for every other n; phi is read off the
second product, so for n = 3 the scalarization makes no determinant call.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _augment(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The augmented matrices [M | v] of packed rows [vec(M) | v], written
    into out, (..., n, n + 1)."""
    M, v = cns.split(rows)
    out[..., :-1], out[..., -1] = M, v
    return out


class Buffers:
    """Work arrays kept from call to call, by name.

    buffers(name, shape, lead) is the array `name` of that shape: the first
    shape[0] rows of an array allocated, zeroed, on first use and again only
    when more rows or another shape are asked for, so a caller that asks for
    its largest block first allocates once. Its last `lead` (entry) axes
    lead in memory, so a contraction over them (np.einsum with out=) runs
    its inner loops over the long batch axes; lead = 0 is row order.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple, lead: int = 0) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None or a.shape[1:] != shape[1:] or len(a) < shape[0]:
            order = (*range(len(shape) - lead, len(shape)), *range(len(shape) - lead))
            a = np.zeros([shape[i] for i in order]).transpose(np.argsort(order))
            self._arrays[name] = a
        return a[: shape[0]]


def ge_flow(Z: np.ndarray, gain: np.ndarray, buffers: Buffers) -> tuple[np.ndarray, np.ndarray]:
    """Gradient flow as the affine flow theta' = a - B theta, per agent and row.

    a = gain Chat^T yhat and B = gain Chat^T Chat, read off two contractions
    over the whole batch: Chat^T [Chat | yhat] of the augmented output rows
    Z (`buffers`' "aug"), into "gram", then gain times it, written over the
    rows, which it no longer needs.
    """
    n = cns.split(Z)[1].shape[-1]
    shape = (*Z.shape[:-1], n, n + 1)
    aug = _augment(Z, buffers("aug", shape, 2))
    G = np.einsum("...ki,...kj->...ij", aug[..., :n], aug, out=buffers("gram", shape, 2))
    G = np.einsum("il,...lj->...ij", gain, G, out=aug)
    return G[..., n], G[..., :n]


def ge_derivative(theta_hat: np.ndarray, Z: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Gradient-flow update gain Chat^T (yhat - Chat theta_hat), as a - B theta_hat of ge_flow."""
    a, B = ge_flow(Z, gain, Buffers())
    return a - np.einsum("...ij,...j->...i", B, theta_hat)


def centralized_ge_flow(
    M: np.ndarray, v: np.ndarray, gain: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient flow on the stacked network-wide regression (baseline), as (a, B).

    M = sum_i C_i^T C_i and v = sum_i C_i^T y_i are the network sums of the
    surrogates, so a - B theta = gain (v - M theta) is gain C^T (y - C theta)
    of the stacked regressor C and output y.
    """
    return np.einsum("ij,...j->...i", gain, v), np.einsum("ij,...jk->...ik", gain, M)


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
    shape (..., N, r, n^2 + n) for Z (..., N, n^2 + n): one filter equation
    for both channels.
    """
    return bank.alphas[:, None] * Z[..., None, :] - bank.betas[:, None] * z


def drem_extend(Z: np.ndarray, z: np.ndarray, buffers: Buffers) -> np.ndarray:
    """The extended regression A = [Cf | yf], shape (..., N, (r+1)n, n+1).

    Row block 0 is [Chat | yhat], block j the j-th filtered copy [zC | zy]:
    the augmented rows of the packed rows Z and z, over any leading axes
    the two share, written into `buffers`' "extended".
    """
    r, n = z.shape[-2], cns.split(Z)[1].shape[-1]
    ext = buffers("extended", (*Z.shape[:-1], r + 1, n, n + 1), 3)
    _augment(Z, ext[..., 0, :, :])
    _augment(z, ext[..., 1:, :, :])
    return ext.reshape(*Z.shape[:-1], (r + 1) * n, n + 1)


def adjugate(G: np.ndarray, buffers: Buffers) -> np.ndarray:
    """Classical adjugate, adj(G) G = det(G) I, defined for singular G too.

    Closed form for n = 3 (row i is the cross product of columns i+1 and
    i+2), every array written into `buffers`: G copied to "adj.g", its
    entries gathered into "adj.factors", the two products into "adj" and
    "adj.product". For every other n, one batched determinant of all n^2
    minors (at n = 1, one 0x0 minor of determinant 1). No branch depends on
    the values, so rank-deficient and badly scaled input takes the same path
    as any other. Supports batched input (..., n, n).
    """
    g = np.asarray(G, dtype=float)
    n = g.shape[-1]
    if g.ndim < 2 or g.shape[-2] != n:
        raise ValueError("adjugate needs square matrices")
    batch = g.shape[:-2]
    if n == 3:
        g3 = buffers("adj.g", (*batch, 3, 3))
        g3[...] = g  # a contiguous copy, whose flat view is no further copy
        # mode="clip" (the indices are in range) writes out directly; "raise" buffers it.
        t = np.take(g3.reshape(*batch, 9), _ADJ3_FLAT, axis=-1, mode="clip",
                    out=buffers("adj.factors", (*batch, 4, 3, 3)))
        adj = np.multiply(t[..., 0, :, :], t[..., 1, :, :], out=buffers("adj", (*batch, 3, 3)))
        adj -= np.multiply(t[..., 2, :, :], t[..., 3, :, :], out=buffers("adj.product", (*batch, 3, 3)))
        return adj

    idx = np.arange(n)
    # others[i] lists the indices 0..n-1 without i.
    others = idx[None, :-1] + (idx[None, :-1] >= idx[:, None])
    # minors[..., i, j] is G without row j and column i: the (j, i) minor.
    minors = g[..., others[None, :, :, None], others[:, None, None, :]]
    sign = 1.0 - 2.0 * ((idx[:, None] + idx[None, :]) % 2)
    return sign * np.linalg.det(minors)


def _mix(B: np.ndarray, buffers: Buffers) -> tuple[np.ndarray, np.ndarray]:
    """adj(G) B = [phi I | Y] for B = [G | rhs], read off two contractions:
    phi = det(G), entry (0, 0), and Y, column n."""
    n = B.shape[-2]
    adj = adjugate(B[..., :n], buffers)
    return (np.einsum("...j,...j->...", adj[..., 0, :], B[..., :, 0]),
            np.einsum("...ij,...j->...i", adj, B[..., n]))


def drem_scalarize(A: np.ndarray, buffers: Buffers) -> tuple[np.ndarray, np.ndarray]:
    """Scalarize the extended regression A = [Cf | yf] through the Gram adjugate.

    [G | Cf^T yf] = Cf^T A in one contraction (into `buffers`' "gram"),
    then phi = det(G) and Y = adj(G) Cf^T yf; well-defined (phi = 0) when
    G is singular.
    """
    n = A.shape[-1] - 1
    gram = buffers("gram", (*A.shape[:-2], n, n + 1), 2)
    return _mix(np.einsum("...ki,...kj->...ij", A[..., :n], A, out=gram), buffers)


def drem_simple_scalarize(Z: np.ndarray, buffers: Buffers) -> tuple[np.ndarray, np.ndarray]:
    """Filterless scalarization using the square consensus output [Chat | yhat]
    directly, augmented into `buffers`' "aug"."""
    n = cns.split(Z)[1].shape[-1]
    return _mix(_augment(Z, buffers("aug", (*Z.shape[:-1], n, n + 1), 2)), buffers)


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
