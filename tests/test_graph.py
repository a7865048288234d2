import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiera_est.graph import (
    BadEntriesError,
    DisconnectedError,
    GraphError,
    NonSymmetricError,
    SwitchingSchedule,
    active_topology,
    build_topology,
    constant_schedule,
    laplacian,
    topology_from_edges,
)


def ring(n):
    return topology_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestBuildTopology:
    def test_ring_spectrum(self):
        topo = ring(10)
        # ring Laplacian eigenvalues are 2(1 - cos(2 pi k / N))
        expected = sorted(2 * (1 - np.cos(2 * np.pi * k / 10)) for k in range(10))
        got = sorted(np.linalg.eigvalsh(laplacian(topo.adjacency)))
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(topo.lambda2, expected[1], atol=1e-12)
        np.testing.assert_allclose(topo.lambda_max, expected[-1], atol=1e-12)

    def test_rejects_nonsymmetric(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        with pytest.raises(NonSymmetricError):
            build_topology(a)

    def test_rejects_weights(self):
        a = np.array([[0, 0.5, 1], [0.5, 0, 1], [1, 1, 0.0]])
        with pytest.raises(BadEntriesError):
            build_topology(a)

    def test_rejects_self_loop(self):
        a = np.array([[1, 1], [1, 0.0]])
        with pytest.raises(BadEntriesError):
            build_topology(a)

    def test_rejects_disconnected(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 1.0
        with pytest.raises(DisconnectedError):
            build_topology(a)

    def test_rejects_single_node(self):
        with pytest.raises(BadEntriesError):
            build_topology(np.zeros((1, 1)))

    def test_adjacency_frozen(self):
        topo = ring(4)
        with pytest.raises(ValueError):
            topo.adjacency[0, 1] = 0.0

    def test_neighbors(self):
        topo = topology_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        np.testing.assert_array_equal(topo.neighbors(0), [1, 3])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.randoms(use_true_random=False))
def test_connectivity_matches_networkx(n, rnd):
    # random graph: accept connected ones, expect rejection otherwise
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < 0.4:
                a[i, j] = a[j, i] = 1.0
    g = nx.from_numpy_array(a)
    if n >= 2 and nx.is_connected(g):
        topo = build_topology(a)
        assert topo.lambda2 > 0
    else:
        with pytest.raises(GraphError):
            build_topology(a)


def test_path_graph_attains_connectivity_floor():
    # the path graph's lambda2 is 2(1 - cos(pi/N)), the least of any connected graph
    for n in (2, 3, 5, 10):
        path = topology_from_edges(n, [(i, i + 1) for i in range(n - 1)])
        np.testing.assert_allclose(path.lambda2, 2 * (1 - np.cos(np.pi / n)), atol=1e-12)


class TestSwitchingSchedule:
    def make(self):
        topos = (ring(4), topology_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        return SwitchingSchedule(
            topologies=topos,
            segments=((0.0, 0), (1.0, 1), (2.5, 0)),
            dwell_min=1.0,
        )

    def test_right_continuous_selection(self):
        sch = self.make()
        assert active_topology(sch, 0.0) == 0
        assert active_topology(sch, 0.999) == 0
        assert active_topology(sch, 1.0) == 1  # new graph exactly at the switch
        assert active_topology(sch, 2.4999) == 1
        assert active_topology(sch, 2.5) == 0
        assert active_topology(sch, 100.0) == 0  # last segment extends forever

    def test_family_extremes(self):
        sch = self.make()
        assert sch.lambda_g_min == min(t.lambda2 for t in sch.topologies)
        assert sch.lambda_max_family == max(t.lambda_max for t in sch.topologies)

    def test_dwell_violation_rejected(self):
        topos = (ring(4),)
        with pytest.raises(GraphError):
            SwitchingSchedule(
                topologies=topos, segments=((0.0, 0), (0.5, 0)), dwell_min=1.0
            )

    def test_must_start_at_zero(self):
        with pytest.raises(GraphError):
            SwitchingSchedule(
                topologies=(ring(4),), segments=((0.5, 0),), dwell_min=0.1
            )

    def test_index_out_of_range(self):
        with pytest.raises(GraphError):
            SwitchingSchedule(
                topologies=(ring(4),), segments=((0.0, 1),), dwell_min=0.1
            )

    def test_mixed_sizes_rejected(self):
        with pytest.raises(GraphError):
            SwitchingSchedule(
                topologies=(ring(4), ring(5)), segments=((0.0, 0),), dwell_min=1.0
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            active_topology(self.make(), -0.1)

    def test_constant_schedule(self):
        sch = constant_schedule(ring(6))
        assert active_topology(sch, 0.0) == 0
        assert active_topology(sch, 1e9) == 0
        assert sch.n_agents == 6
