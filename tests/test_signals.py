import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiera_est.signals import (
    RegressorGenerator,
    noise_stream,
    quantize,
    sample_coefficients,
    surrogate_all,
)


@pytest.fixture
def gen():
    return sample_coefficients(3, 5, 2, [0, 20], [0, 3], seed=11)


class TestSampling:
    def test_reproducible(self, gen):
        again = sample_coefficients(3, 5, 2, [0, 20], [0, 3], seed=11)
        for a, b in zip(gen.offset, again.offset):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(gen.freq, again.freq):
            np.testing.assert_array_equal(a, b)

    def test_seed_changes_tables(self, gen):
        other = sample_coefficients(3, 5, 2, [0, 20], [0, 3], seed=12)
        assert not np.array_equal(gen.offset[0], other.offset[0])

    def test_ranges_respected(self, gen):
        for group, lo, hi in (
            (gen.offset, 0, 20),
            (gen.sin_amp, 0, 20),
            (gen.cos_amp, 0, 20),
            (gen.freq, 0, 3),
        ):
            for a in group:
                assert np.all(a >= lo) and np.all(a <= hi)

    def test_per_agent_rows(self):
        g = sample_coefficients(2, 3, [1, 2, 4], [0, 1], [0, 1], seed=0)
        assert g.rows_per_agent == (1, 2, 4)
        assert g.evaluate(2, 0.3).shape == (4, 2)
        # the batched tables pad every agent to the longest with zero rows
        c_all = g.evaluate_all(0.3)
        assert c_all.shape == (3, 4, 2)
        for i, p in enumerate(g.rows_per_agent):
            np.testing.assert_array_equal(c_all[i, :p], g.evaluate(i, 0.3))
            np.testing.assert_array_equal(c_all[i, p:], 0.0)
            np.testing.assert_array_equal(g.evaluate_all_dot(0.3)[i, p:], 0.0)

    def test_bad_rows_rejected(self):
        with pytest.raises(ValueError):
            sample_coefficients(2, 3, [1, 0, 2], [0, 1], [0, 1], seed=0)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            sample_coefficients(2, 3, 1, [1, 0], [0, 1], seed=0)


class TestEvaluate:
    def test_entry_formula(self, gen):
        t = 0.7
        c = gen.evaluate(2, t)
        a, b, d, w = gen.offset[2], gen.sin_amp[2], gen.cos_amp[2], gen.freq[2]
        np.testing.assert_allclose(c, a + b * np.sin(w * t) + d * np.cos(w * t))

    def test_evaluate_all_matches_loop(self, gen):
        t = 1.3
        batched = gen.evaluate_all(t)
        for i in range(gen.n_agents):
            np.testing.assert_array_equal(batched[i], gen.evaluate(i, t))

    def test_derivative_finite_difference(self, gen):
        t, h = 0.9, 1e-6
        fd = (gen.evaluate_all(t + h) - gen.evaluate_all(t - h)) / (2 * h)
        np.testing.assert_allclose(gen.evaluate_all_dot(t), fd, rtol=1e-7, atol=1e-6)

    def test_jsonable_roundtrip(self, gen):
        d = gen.to_jsonable()
        back = RegressorGenerator.from_tables(
            d["offset"], d["sin_amp"], d["cos_amp"], d["freq"], seed=d["seed"]
        )
        np.testing.assert_array_equal(back.evaluate(3, 2.2), gen.evaluate(3, 2.2))

    def test_from_tables_shape_mismatch(self):
        with pytest.raises(ValueError):
            RegressorGenerator.from_tables(
                [[[1.0, 0.0]]], [[[1.0]]], [[[0.0, 0.0]]], [[[0.0, 0.0]]]
            )


def per_agent_data(gen, theta, t):
    """Each agent's (C_i, y_i) from the reference formula, unpadded."""
    return [(c, c @ theta) for c in (gen.evaluate(i, t) for i in range(gen.n_agents))]


class TestSurrogate:
    def test_definition(self, gen):
        theta = np.array([1.0, -1.0, 0.5])
        c_all = gen.evaluate_all(0.4)
        cp, yp = surrogate_all(c_all, c_all @ theta)
        for i, (c, y) in enumerate(per_agent_data(gen, theta, 0.4)):
            np.testing.assert_allclose(cp[i], c.T @ c)
            np.testing.assert_allclose(yp[i], c.T @ y)

    def test_solution_preserved(self, gen):
        theta = np.array([2.0, 0.0, -3.0])
        c_all = gen.evaluate_all(1.1)
        cp, yp = surrogate_all(c_all, c_all @ theta)
        np.testing.assert_allclose(yp, cp @ theta, atol=1e-10)

    def test_batched_matches_single(self):
        # uneven rows: the zero padding leaves C^T C and C^T y unchanged
        gen = sample_coefficients(3, 4, [1, 3, 2, 3], [0, 20], [0, 3], seed=11)
        theta = np.array([1.0, 2.0, 3.0])
        c_all = gen.evaluate_all(0.8)
        cp, yp = surrogate_all(c_all, np.einsum("api,i->ap", c_all, theta))
        for i, (c, y) in enumerate(per_agent_data(gen, theta, 0.8)):
            np.testing.assert_allclose(cp[i], c.T @ c, atol=1e-12)
            np.testing.assert_allclose(yp[i], c.T @ y, atol=1e-12)

    def test_surrogate_is_psd_symmetric(self, gen):
        cp, _ = surrogate_all(
            gen.evaluate_all(2.0), np.zeros((gen.n_agents, 2))
        )
        np.testing.assert_allclose(cp, np.transpose(cp, (0, 2, 1)), atol=1e-14)
        assert np.all(np.linalg.eigvalsh(cp) >= -1e-10)

    def test_stack_centralized(self):
        # the padded network stack has the same normal equations as the rows
        gen = sample_coefficients(3, 3, [1, 2, 3], [0, 20], [0, 3], seed=11)
        theta = np.array([1.0, 2.0, 3.0])
        c_all = gen.evaluate_all(0.5)
        c_stack = c_all.reshape(-1, 3)
        y_stack = c_stack @ theta
        c = np.vstack([c for c, _ in per_agent_data(gen, theta, 0.5)])
        assert c_stack.shape == (9, 3) and c.shape == (6, 3)
        np.testing.assert_allclose(c_stack.T @ c_stack, c.T @ c, rtol=1e-14)
        np.testing.assert_allclose(c_stack.T @ y_stack, c.T @ (c @ theta), rtol=1e-14)


class TestNoise:
    def test_streams_independent_per_agent(self):
        a = noise_stream(5, 0).standard_normal(4)
        b = noise_stream(5, 1).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_stream_reproducible(self):
        a = noise_stream(5, 2).standard_normal(4)
        b = noise_stream(5, 2).standard_normal(4)
        np.testing.assert_array_equal(a, b)


class TestQuantizer:
    def test_identity_at_zero(self):
        x = np.array([1.234, -5.67])
        np.testing.assert_array_equal(quantize(x, 0.0), x)

    def test_floor_semantics(self):
        np.testing.assert_allclose(quantize(0.05, 0.036), 0.036)
        np.testing.assert_allclose(quantize(-0.01, 0.036), -0.036)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            quantize(1.0, -0.1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(1e-6, 10.0, allow_nan=False),
    )
    def test_one_sided_error(self, s, eps):
        q = quantize(s, eps)
        err = s - q
        assert -1e-9 * max(abs(s), 1.0) <= err < eps * (1 + 1e-12)

    def test_preserves_symmetry(self):
        m = np.random.default_rng(0).normal(size=(3, 3))
        m = m + m.T
        q = quantize(m, 0.036)
        np.testing.assert_array_equal(q, q.T)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 1e-9, 0.012, 0.036, 0.5, 3.0]), min_size=1, max_size=4),
        st.integers(0, 2**31 - 1),
    )
    def test_step_column_quantizes_each_row_at_its_step(self, steps, seed):
        # One (E, 1, 1) step column against (E, N, w) rows, as a batch of
        # members quantizes them: each member's rows bit for bit as the
        # scalar quantizer gives them, a row at step 0 unquantized.
        rows = np.random.default_rng(seed).normal(scale=10.0, size=(len(steps), 4, 6))
        q = quantize(rows, np.array(steps).reshape(-1, 1, 1))
        assert q.shape == rows.shape
        for e, eps in enumerate(steps):
            np.testing.assert_array_equal(q[e], quantize(rows[e], eps))

    @pytest.mark.parametrize("steps", [[0.1, -0.1], [-0.1, 0.1], [0.0, -1e-300], [-0.2, -0.1]])
    def test_step_column_with_a_negative_step_rejected(self, steps):
        with pytest.raises(ValueError, match="nonnegative"):
            quantize(np.ones((len(steps), 2, 3)), np.array(steps).reshape(-1, 1, 1))
