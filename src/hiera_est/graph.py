"""Undirected communication graphs, Laplacian spectra, and switching schedules.

Graphs are unweighted (0/1 adjacency). Connectivity is decided spectrally:
a graph is connected iff the second-smallest Laplacian eigenvalue exceeds a
small numerical threshold. Switching schedules select one connected graph
from a family as a piecewise-constant, right-continuous function of time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Eigenvalues below this are treated as zero when testing connectivity.
CONNECTIVITY_TOL = 1e-10


class GraphError(ValueError):
    """Base class for graph construction errors."""


class NonSymmetricError(GraphError):
    """Adjacency matrix is not symmetric."""


class BadEntriesError(GraphError):
    """Adjacency matrix has entries outside {0,1} or a nonzero diagonal."""


class DisconnectedError(GraphError):
    """Graph is not connected (algebraic connectivity below threshold)."""


@dataclass(frozen=True)
class Topology:
    """A connected undirected graph with precomputed Laplacian spectral data.

    Attributes:
        n_agents: number of nodes N.
        adjacency: symmetric 0/1 matrix with zero diagonal, shape (N, N).
        lambda2: algebraic connectivity (second-smallest Laplacian eigenvalue).
        lambda_max: largest Laplacian eigenvalue.
    """

    n_agents: int
    adjacency: np.ndarray
    lambda2: float
    lambda_max: float

    def neighbors(self, i: int) -> np.ndarray:
        return np.nonzero(self.adjacency[i])[0]


def laplacian(adjacency: np.ndarray) -> np.ndarray:
    """L = D - A, with D the diagonal degree matrix of the adjacency A."""
    return np.diag(adjacency.sum(axis=1)) - adjacency


def build_topology(adjacency) -> Topology:
    """Validate an adjacency matrix and compute its Laplacian spectrum.

    Raises:
        NonSymmetricError: adjacency differs from its transpose.
        BadEntriesError: entries outside {0,1}, nonzero diagonal, or N < 2.
        DisconnectedError: algebraic connectivity below the zero threshold.
    """
    a = np.array(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadEntriesError(f"adjacency must be square, got shape {a.shape}")
    n = a.shape[0]
    if n < 2:
        raise BadEntriesError("need at least 2 agents")
    if not np.array_equal(a, a.T):
        raise NonSymmetricError("adjacency matrix is not symmetric")
    if not np.all((a == 0.0) | (a == 1.0)):
        raise BadEntriesError("adjacency entries must be 0 or 1")
    if np.any(np.diag(a) != 0.0):
        raise BadEntriesError("adjacency diagonal must be zero")

    eigs = np.linalg.eigvalsh(laplacian(a))
    lambda2 = float(eigs[1])
    if lambda2 <= CONNECTIVITY_TOL:
        raise DisconnectedError(
            f"graph is disconnected (algebraic connectivity {lambda2:.3e})"
        )
    a.setflags(write=False)
    return Topology(
        n_agents=n,
        adjacency=a,
        lambda2=lambda2,
        lambda_max=float(eigs[-1]),
    )


def topology_from_edges(n_agents: int, edges) -> Topology:
    """Build a Topology from a 0-based edge-pair list (scenario JSON format)."""
    a = np.zeros((n_agents, n_agents))
    for pair in edges:
        i, j = int(pair[0]), int(pair[1])
        if not (0 <= i < n_agents and 0 <= j < n_agents):
            raise BadEntriesError(f"edge ({i},{j}) out of range for N={n_agents}")
        if i == j:
            raise BadEntriesError(f"self-loop ({i},{j}) not allowed")
        a[i, j] = a[j, i] = 1.0
    return build_topology(a)



@dataclass(frozen=True)
class SwitchingSchedule:
    """Piecewise-constant selection among a family of connected graphs.

    segments is a list of (start_time, topology_index) pairs with strictly
    increasing start times beginning at 0; the last segment extends to
    infinity. Consecutive starts must be at least dwell_min apart.
    """

    topologies: tuple[Topology, ...]
    segments: tuple[tuple[float, int], ...]
    dwell_min: float

    def __post_init__(self):
        if not self.topologies:
            raise GraphError("schedule needs at least one topology")
        n_set = {t.n_agents for t in self.topologies}
        if len(n_set) != 1:
            raise GraphError(f"all topologies must share N, got {sorted(n_set)}")
        if self.dwell_min <= 0:
            raise GraphError("dwell_min must be positive")
        if not self.segments:
            raise GraphError("schedule needs at least one segment")
        starts = [s for s, _ in self.segments]
        if starts[0] != 0.0:
            raise GraphError("first segment must start at t=0")
        for (s0, _), (s1, idx) in zip(self.segments, self.segments[1:]):
            if s1 <= s0:
                raise GraphError("segment start times must be strictly increasing")
            if s1 - s0 < self.dwell_min - 1e-12:
                raise GraphError(
                    f"segment gap {s1 - s0:g} violates dwell_min {self.dwell_min:g}"
                )
        for _, idx in self.segments:
            if not (0 <= idx < len(self.topologies)):
                raise GraphError(f"topology index {idx} out of range")

    @property
    def n_agents(self) -> int:
        return self.topologies[0].n_agents

    @property
    def lambda_g_min(self) -> float:
        """Smallest algebraic connectivity over the graph family."""
        return min(t.lambda2 for t in self.topologies)

    @property
    def lambda_max_family(self) -> float:
        """Largest Laplacian eigenvalue over the graph family."""
        return max(t.lambda_max for t in self.topologies)


def constant_schedule(topo: Topology) -> SwitchingSchedule:
    """Wrap a single fixed topology as a trivial one-segment schedule."""
    return SwitchingSchedule(
        topologies=(topo,), segments=((0.0, 0),), dwell_min=float("inf")
    )


def active_topology(schedule: SwitchingSchedule, t):
    """Topology index active at time t (right-continuous at switch instants):
    an int for a scalar t, an int array for an array of times."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    starts, graphs = np.array(schedule.segments).T
    k = np.searchsorted(starts, t, side="right") - 1
    return graphs.astype(int)[k] if k.ndim else int(graphs[k])
