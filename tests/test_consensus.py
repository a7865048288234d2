import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiera_est.consensus import (
    average_reference,
    consensus_error,
    dac_derivative,
    effective_laplacian,
    residual,
    split,
)
from hiera_est.graph import laplacian, topology_from_edges
from hiera_est.signals import quantize, sample_coefficients, surrogate_all
from packing import pack

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402


@pytest.fixture
def topo():
    return topology_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def data():
    gen = sample_coefficients(3, 4, 2, [0, 5], [0, 2], seed=21)
    theta = np.array([1.0, -0.5, 2.0])
    c_all = gen.evaluate_all(0.7)
    y_all = np.einsum("api,i->ap", c_all, theta)
    cp, yp = surrogate_all(c_all, y_all)
    return cp, yp, theta


def zeros(n_agents=4, n=3):
    """Zero-initialized consensus states (X, x)."""
    return np.zeros((n_agents, n, n)), np.zeros((n_agents, n))


def outputs(cp, yp, X, x):
    """Packed consensus output rows Z = P - S of unpacked surrogates and states."""
    return pack(cp, yp) - pack(X, x)


def derivative(out, lap, k, eps=0.0):
    """The packed DAC derivative, split into (dX, dx)."""
    return split(dac_derivative(out, lap, k, eps))


class TestDerivative:
    def test_neighbor_sum_form(self, topo, data):
        # dX_i = k * sum_{j in N_i} (Chat_i - Chat_j), written via the Laplacian
        cp, yp, _ = data
        X = np.random.default_rng(1).normal(size=(4, 3, 3))
        x = np.random.default_rng(2).normal(size=(4, 3))
        k = 3.2
        out = outputs(cp, yp, X, x)
        dX, dx = derivative(out, effective_laplacian(topo), k)
        chat, yhat = split(out)
        for i in range(4):
            expX = sum(
                chat[i] - chat[j] for j in topo.neighbors(i)
            )
            expx = sum(yhat[i] - yhat[j] for j in topo.neighbors(i))
            np.testing.assert_allclose(dX[i], k * expX, atol=1e-12)
            np.testing.assert_allclose(dx[i], k * expx, atol=1e-12)

    def test_conservation_of_sums(self, topo, data):
        cp, yp, _ = data
        out = outputs(cp, yp, *zeros())
        dX, dx = derivative(out, effective_laplacian(topo), 2.0)
        np.testing.assert_allclose(dX.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(dx.sum(axis=0), 0.0, atol=1e-12)

    def test_conservation_with_quantization_and_loss(self, topo, data):
        cp, yp, _ = data
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 1] = False  # asymmetric request: must drop both directions
        out = outputs(cp, yp, *zeros())
        dX, dx = derivative(out, effective_laplacian(topo, mask), 2.0, eps=0.036)
        np.testing.assert_allclose(dX.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(dx.sum(axis=0), 0.0, atol=1e-12)

    def test_symmetry_preserved(self, topo, data):
        cp, yp, _ = data
        out = outputs(cp, yp, *zeros())
        dX, _ = derivative(out, effective_laplacian(topo), 2.0, eps=0.018)
        np.testing.assert_array_equal(dX, np.transpose(dX, (0, 2, 1)))

    def test_consensus_fixed_point(self, topo, data):
        # when every output equals the average, the derivative vanishes
        cp, yp, _ = data
        cbar, ybar = average_reference(cp, yp)
        out = outputs(cp, yp, cp - cbar, yp - ybar)
        dX, dx = derivative(out, effective_laplacian(topo), 2.0)
        np.testing.assert_allclose(dX, 0.0, atol=1e-12)
        np.testing.assert_allclose(dx, 0.0, atol=1e-12)

    def test_gain_must_be_positive(self, topo, data):
        cp, yp, _ = data
        with pytest.raises(ValueError):
            dac_derivative(outputs(cp, yp, *zeros()), laplacian(topo.adjacency), 0.0)

    def test_agent_count_mismatch(self, topo, data):
        cp, yp, _ = data
        out = outputs(cp, yp, *zeros())
        with pytest.raises(ValueError):
            dac_derivative(out, np.zeros((5, 5)), 1.0)


class TestEffectiveLaplacian:
    def test_no_mask_is_nominal(self, topo):
        np.testing.assert_array_equal(effective_laplacian(topo), laplacian(topo.adjacency))

    def test_removed_edge(self, topo):
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        lap = effective_laplacian(topo, mask)
        assert lap[0, 1] == 0.0 and lap[1, 0] == 0.0
        np.testing.assert_array_equal(lap, lap.T)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_all_links_down_gives_zero(self, topo):
        mask = np.zeros((4, 4), dtype=bool)
        np.testing.assert_array_equal(
            effective_laplacian(topo, mask), np.zeros((4, 4))
        )


class TestErrorsAndResidual:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 5),
        n_agents=st.integers(1, 6),
        scale=st.floats(-3.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spectral_norms(self, n, n_agents, scale, seed):
        # The matrix error of a symmetric stack is its induced 2-norm, the
        # largest singular value.
        rng = np.random.default_rng(seed)
        a = 10.0**scale * rng.normal(size=(n_agents + 1, n, n))
        sym = a + np.swapaxes(a, -1, -2)
        chat, cbar = sym[1:], sym[0]
        out = pack(chat, np.zeros((n_agents, n)))
        cerr, _ = consensus_error(out, cbar, np.zeros(n))
        reference = np.linalg.svd(chat - cbar, compute_uv=False)[:, 0]
        np.testing.assert_allclose(cerr, reference, rtol=1e-13, atol=0.0)

    def test_zero_error_at_average(self, data):
        cp, yp, _ = data
        cbar, ybar = average_reference(cp, yp)
        out = outputs(cp, yp, cp - cbar, yp - ybar)
        cerr, yerr = consensus_error(out, cbar, ybar)
        np.testing.assert_allclose(cerr, 0.0, atol=1e-12)
        np.testing.assert_allclose(yerr, 0.0, atol=1e-12)

    def test_residual_zero_on_consistent_outputs(self, data):
        cp, yp, theta = data
        out = outputs(cp, yp, *zeros())
        np.testing.assert_allclose(residual(out, theta), 0.0, atol=1e-10)

    def test_residual_per_agent_theta(self, data):
        # One theta row per agent gives each agent's own residual.
        cp, yp, theta = data
        out = outputs(cp, yp, *zeros())
        thetas = theta + np.arange(4.0)[:, None]
        for i in range(4):
            np.testing.assert_array_equal(residual(out, thetas)[i], residual(out, thetas[i])[i])

    def test_residual_detects_wrong_theta(self, data):
        cp, yp, theta = data
        out = outputs(cp, yp, *zeros())
        r = residual(out, theta + np.array([0.5, 0.0, 0.0]))
        assert np.linalg.norm(r) > 1e-3


def random_connected_edges(rng, n_agents):
    """A random connected graph: a spanning tree plus random extra edges."""
    most = n_agents * (n_agents - 1) // 2
    return workloads.random_connected_edges(rng, n_agents, int(rng.integers(n_agents - 1, most + 1)))


class TestPackedChannel:
    def test_split_and_pack_are_inverse_views(self):
        X = np.arange(2 * 9.0).reshape(2, 3, 3)
        x = -np.arange(2 * 3.0).reshape(2, 3)
        rows = pack(X, x)
        assert rows.shape == (2, 12)
        M, v = split(rows)
        np.testing.assert_array_equal(M, X)
        np.testing.assert_array_equal(v, x)
        assert np.shares_memory(M, rows) and np.shares_memory(v, rows)

    @settings(max_examples=200, deadline=None)
    @given(
        n_agents=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        quantized=st.booleans(),
        lossy=st.booleans(),
    )
    def test_packed_derivative_is_the_two_channels(self, n_agents, seed, quantized, lossy):
        # One quantizer call and one Laplacian product over the packed rows
        # give, bit for bit, k L Q(Chat) and k L Q(yhat) computed apart.
        rng = np.random.default_rng(seed)
        n = 3
        rows = rng.integers(1, 4, size=n_agents).tolist()
        gen = sample_coefficients(n, n_agents, rows, [0, 5], [0, 3], seed=seed)
        c_all = gen.evaluate_all(rng.uniform(0, 10))
        y_all = np.einsum("api,i->ap", c_all, rng.normal(size=n)) + rng.normal(size=c_all.shape[:2])
        cp, yp = surrogate_all(c_all, y_all)
        X = rng.normal(size=(n_agents, n, n))
        X = X + np.transpose(X, (0, 2, 1))
        x = rng.normal(size=(n_agents, n))
        topo = topology_from_edges(n_agents, random_connected_edges(rng, n_agents))
        mask = rng.random((n_agents, n_agents)) < 0.7 if lossy else None
        lap = effective_laplacian(topo, mask)
        k = rng.uniform(0.1, 10)
        eps = rng.uniform(1e-3, 0.1) if quantized else 0.0

        dX, dx = derivative(outputs(cp, yp, X, x), lap, k, eps)
        chat, yhat = cp - X, yp - x
        np.testing.assert_array_equal(
            dX, k * (lap @ quantize(chat, eps).reshape(n_agents, -1)).reshape(chat.shape)
        )
        np.testing.assert_array_equal(dx, k * (lap @ quantize(yhat, eps)))
        # a symmetric Laplacian conserves both channels' sums over agents
        scale = k * np.abs(lap).max() * (np.abs(chat).max() + np.abs(yhat).max() + 1.0)
        assert np.abs(dX.sum(axis=0)).max() <= 64 * n_agents * np.finfo(float).eps * scale
        assert np.abs(dx.sum(axis=0)).max() <= 64 * n_agents * np.finfo(float).eps * scale
