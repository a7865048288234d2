import numpy as np
import pytest

from hiera_est.consensus import (
    average_reference,
    consensus_error,
    consensus_outputs,
    dac_derivative,
    effective_laplacian,
    residual,
    spectral_norms,
)
from hiera_est.graph import topology_from_edges
from hiera_est.signals import sample_coefficients, surrogate_all


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


class TestDerivative:
    def test_neighbor_sum_form(self, topo, data):
        # dX_i = k * sum_{j in N_i} (Chat_i - Chat_j), written via the Laplacian
        cp, yp, _ = data
        X = np.random.default_rng(1).normal(size=(4, 3, 3))
        x = np.random.default_rng(2).normal(size=(4, 3))
        k = 3.2
        out = consensus_outputs(cp, yp, X, x)
        dX, dx = dac_derivative(out, effective_laplacian(topo), k)
        for i in range(4):
            expX = sum(
                out.Chat[i] - out.Chat[j] for j in topo.neighbors(i)
            )
            expx = sum(out.yhat[i] - out.yhat[j] for j in topo.neighbors(i))
            np.testing.assert_allclose(dX[i], k * expX, atol=1e-12)
            np.testing.assert_allclose(dx[i], k * expx, atol=1e-12)

    def test_conservation_of_sums(self, topo, data):
        cp, yp, _ = data
        out = consensus_outputs(cp, yp, *zeros())
        dX, dx = dac_derivative(out, effective_laplacian(topo), 2.0)
        np.testing.assert_allclose(dX.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(dx.sum(axis=0), 0.0, atol=1e-12)

    def test_conservation_with_quantization_and_loss(self, topo, data):
        cp, yp, _ = data
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 1] = False  # asymmetric request: must drop both directions
        out = consensus_outputs(cp, yp, *zeros())
        dX, dx = dac_derivative(out, effective_laplacian(topo, mask), 2.0, eps=0.036)
        np.testing.assert_allclose(dX.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(dx.sum(axis=0), 0.0, atol=1e-12)

    def test_symmetry_preserved(self, topo, data):
        cp, yp, _ = data
        out = consensus_outputs(cp, yp, *zeros())
        dX, _ = dac_derivative(out, effective_laplacian(topo), 2.0, eps=0.018)
        np.testing.assert_array_equal(dX, np.transpose(dX, (0, 2, 1)))

    def test_consensus_fixed_point(self, topo, data):
        # when every output equals the average, the derivative vanishes
        cp, yp, _ = data
        cbar, ybar = average_reference(cp, yp)
        out = consensus_outputs(cp, yp, cp - cbar, yp - ybar)
        dX, dx = dac_derivative(out, effective_laplacian(topo), 2.0)
        np.testing.assert_allclose(dX, 0.0, atol=1e-12)
        np.testing.assert_allclose(dx, 0.0, atol=1e-12)

    def test_gain_must_be_positive(self, topo, data):
        cp, yp, _ = data
        with pytest.raises(ValueError):
            dac_derivative(consensus_outputs(cp, yp, *zeros()), topo.laplacian, 0.0)

    def test_agent_count_mismatch(self, topo, data):
        cp, yp, _ = data
        out = consensus_outputs(cp, yp, *zeros())
        with pytest.raises(ValueError):
            dac_derivative(out, np.zeros((5, 5)), 1.0)


class TestEffectiveLaplacian:
    def test_no_mask_is_nominal(self, topo):
        np.testing.assert_array_equal(effective_laplacian(topo), topo.laplacian)

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
    def test_spectral_norms(self):
        mats = np.stack([np.diag([3.0, 1.0]), np.diag([0.5, 2.0])])
        np.testing.assert_allclose(spectral_norms(mats), [3.0, 2.0])

    def test_zero_error_at_average(self, data):
        cp, yp, _ = data
        cbar, ybar = average_reference(cp, yp)
        out = consensus_outputs(cp, yp, cp - cbar, yp - ybar)
        cerr, yerr = consensus_error(out, cbar, ybar)
        np.testing.assert_allclose(cerr, 0.0, atol=1e-12)
        np.testing.assert_allclose(yerr, 0.0, atol=1e-12)

    def test_residual_zero_on_consistent_outputs(self, data):
        cp, yp, theta = data
        out = consensus_outputs(cp, yp, *zeros())
        np.testing.assert_allclose(residual(out, theta), 0.0, atol=1e-10)

    def test_residual_detects_wrong_theta(self, data):
        cp, yp, theta = data
        out = consensus_outputs(cp, yp, *zeros())
        r = residual(out, theta + np.array([0.5, 0.0, 0.0]))
        assert np.linalg.norm(r) > 1e-3
