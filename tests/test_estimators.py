import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiera_est.consensus import split
from hiera_est.estimators import (
    Buffers,
    DremFilterBank,
    adjugate,
    centralized_ge_flow,
    default_filter_bank,
    drem_derivative,
    drem_extend,
    drem_filter_derivative,
    drem_scalarize,
    drem_simple_scalarize,
    ge_derivative,
    ge_flow,
)
from hiera_est.signals import sample_coefficients, surrogate_all
from packing import pack


# Entries of adj(G) are sums of (n-1)-fold products of entries of G and det(G)
# one of n-fold products, so errors are judged against ||G||_F^(n-1) and
# ||G||_F^n: a tolerance relative to the data scale, not an absolute one.
SCALED_TOL = 1e-13


@st.composite
def square_batches(draw, min_axes=0, max_axes=2):
    """(..., n, n) matrices: n = 1..6, batch axes of length 1..3, data scale
    1e-3..1e5, either general or rank-deficient Grams A A^T with A of shape
    n x (n-1)."""
    n = draw(st.integers(1, 6))
    batch = tuple(draw(st.lists(st.integers(1, 3), min_size=min_axes, max_size=max_axes)))
    scale = 10.0 ** draw(st.floats(-3.0, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = scale * rng.normal(size=(*batch, n, n - 1))
        return a @ np.swapaxes(a, -1, -2)
    return scale * rng.normal(size=(*batch, n, n))


def cofactor_adjugate(g):
    """Reference: transpose of the cofactor matrix, one det per minor."""
    n = g.shape[-1]
    adj = np.ones_like(g)
    if n == 1:
        return adj
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(g, i, axis=-2), j, axis=-1)
            adj[..., j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return adj


def frobenius(g):
    return np.linalg.norm(g, axis=(-2, -1))


def make_output(rng, n_agents=3, n=2):
    chat = rng.normal(size=(n_agents, n, n))
    chat = chat + np.transpose(chat, (0, 2, 1))
    yhat = rng.normal(size=(n_agents, n))
    return pack(chat, yhat)


class TestGe:
    def test_gradient_form(self):
        rng = np.random.default_rng(0)
        out = make_output(rng)
        theta_hat = rng.normal(size=(3, 2))
        gain = np.array([[2.0, 0.3], [0.3, 1.0]])
        d = ge_derivative(theta_hat, out, gain)
        chat, yhat = split(out)
        for i in range(3):
            expected = gain @ chat[i].T @ (
                yhat[i] - chat[i] @ theta_hat[i]
            )
            np.testing.assert_allclose(d[i], expected, atol=1e-12)

    def test_zero_at_solution(self):
        rng = np.random.default_rng(1)
        chat, _ = split(make_output(rng))
        theta = rng.normal(size=2)
        out = pack(chat, np.einsum("aij,j->ai", chat, theta))
        d = ge_derivative(np.tile(theta, (3, 1)), out, np.eye(2))
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 4),
        rows=st.lists(st.integers(1, 4), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_centralized_matches_definition(self, n, rows, seed):
        # gain (sum C_i^T y_i - sum C_i^T C_i theta) is gain C^T (y - C theta)
        # of the stacked real rows; zero padding rows change neither sum.
        rng = np.random.default_rng(seed)
        gen = sample_coefficients(n, len(rows), rows, [-2, 2], [0, 3], seed=seed)
        c_all = gen.evaluate_all(rng.uniform(0, 10))
        y_all = np.zeros(c_all.shape[0] * c_all.shape[1])
        y_all[gen.real_rows] = rng.normal(size=len(gen.real_rows))
        y_all = y_all.reshape(c_all.shape[:2])
        th = rng.normal(size=n)
        a = rng.normal(size=(n, n))
        gain = a @ a.T
        M, v = split(pack(*surrogate_all(c_all, y_all)).sum(axis=0))
        C = c_all.reshape(-1, n)[gen.real_rows]
        y = y_all.reshape(-1)[gen.real_rows]
        nc = np.linalg.norm(C)
        scale = np.linalg.norm(gain) * nc * (nc * np.linalg.norm(th) + np.linalg.norm(y))
        a, B = centralized_ge_flow(M, v, gain)
        np.testing.assert_allclose(
            a - B @ th,
            gain @ C.T @ (y - C @ th),
            rtol=0,
            atol=1e-13 * scale,
        )


class TestFilterBank:
    def test_default_bank(self):
        bank = default_filter_bank(3)
        assert bank.r == 2
        np.testing.assert_array_equal(bank.betas, [1.0, 2.0])

    def test_default_bank_n1(self):
        assert default_filter_bank(1).r == 0

    def test_rejects_unstable_pole(self):
        with pytest.raises(ValueError):
            DremFilterBank(alphas=np.ones(1), betas=np.array([-1.0]))

    def test_rejects_zero_numerator(self):
        with pytest.raises(ValueError):
            DremFilterBank(alphas=np.zeros(1), betas=np.ones(1))

    def test_filter_step_response(self):
        # z' = -beta z + alpha u with constant u converges to (alpha/beta) u
        bank = DremFilterBank(alphas=np.array([2.0]), betas=np.array([4.0]))
        out = pack(np.full((1, 1, 1), 3.0), np.full((1, 1), 5.0))
        z = np.zeros((1, 1, 2))
        h = 1e-3
        for _ in range(5000):
            z = z + h * drem_filter_derivative(bank, z, out)
        zC, zy = split(z)
        np.testing.assert_allclose(zC[0, 0, 0, 0], 2.0 / 4.0 * 3.0, rtol=1e-3)
        np.testing.assert_allclose(zy[0, 0, 0], 2.0 / 4.0 * 5.0, rtol=1e-3)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 4),
        n_agents=st.integers(1, 5),
        r=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packed_filter_is_both_channel_filters(self, n, n_agents, r, seed):
        # One filter equation on the packed rows gives, bit for bit, the
        # matrix channel's -beta zC + alpha Chat and the vector channel's
        # -beta zy + alpha yhat.
        rng = np.random.default_rng(seed)
        bank = DremFilterBank(alphas=rng.uniform(0.5, 2.0, r), betas=rng.uniform(0.5, 5.0, r))
        out = make_output(rng, n_agents, n)
        z = 10.0 ** rng.uniform(-3, 5) * rng.normal(size=(n_agents, r, n * n + n))
        zC, zy = split(z)
        chat, yhat = split(out)
        a, b = bank.alphas, bank.betas
        dzC, dzy = split(drem_filter_derivative(bank, z, out))
        np.testing.assert_array_equal(
            dzC, -b[:, None, None] * zC + a[:, None, None] * chat[:, None]
        )
        np.testing.assert_array_equal(dzy, -b[:, None] * zy + a[:, None] * yhat[:, None])

    @pytest.mark.parametrize("E", [1, 3])
    @pytest.mark.parametrize("strided", [False, True])
    def test_buffered_filter_is_the_allocating_filter(self, E, strided):
        # Into a buffer of z's shape: the allocating form's bits, written
        # into the buffer, which is returned. The buffer may be the filter
        # rows of a larger array, as a runner's state-shaped buffer.
        rng = np.random.default_rng(E)
        bank = DremFilterBank(alphas=np.array([1.0, 0.5]), betas=np.array([1.0, 3.0]))
        Z = rng.normal(scale=10.0, size=(E, 4, 12))
        z = rng.normal(scale=10.0, size=(E, 4, 2, 12))
        out = np.full((E, 4, 3, 12), np.nan)[..., 1:, :] if strided else np.full(z.shape, np.nan)
        got = drem_filter_derivative(bank, z, Z, out=out)
        assert got is out
        np.testing.assert_array_equal(got, drem_filter_derivative(bank, z, Z))

    def test_extend_shapes_and_content(self):
        rng = np.random.default_rng(3)
        out = make_output(rng, n_agents=2, n=3)
        bank = default_filter_bank(3)
        z = rng.normal(size=(2, bank.r, 12))
        zC, zy = split(z)
        a = drem_extend(out, z, Buffers())
        assert a.shape == (2, 9, 4)
        cf, yf = a[..., :3], a[..., 3]
        chat, yhat = split(out)
        np.testing.assert_array_equal(cf[:, :3], chat)
        np.testing.assert_array_equal(cf[:, 3:6], zC[:, 0])
        np.testing.assert_array_equal(cf[:, 6:], zC[:, 1])
        np.testing.assert_array_equal(yf[:, :3], yhat)
        np.testing.assert_array_equal(yf[:, 3:], zy.reshape(2, -1))


class TestAdjugate:
    def test_identity_2x2(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        adj = adjugate(g, Buffers())
        np.testing.assert_allclose(adj, [[4.0, -2.0], [-3.0, 1.0]])

    def test_singular_matrix_defined(self):
        g = np.outer([1.0, 2.0], [1.0, 2.0])  # rank 1
        adj = adjugate(g, Buffers())
        np.testing.assert_allclose(adj @ g, np.zeros((2, 2)), atol=1e-12)

    def test_scalar_case(self):
        np.testing.assert_array_equal(adjugate(np.array([[7.0]]), Buffers()), [[1.0]])

    def test_batched(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=(5, 3, 3))
        adj = adjugate(g, Buffers())
        dets = np.linalg.det(g)
        for i in range(5):
            np.testing.assert_allclose(
                adj[i] @ g[i], dets[i] * np.eye(3), atol=1e-10
            )

    def test_large_nonsingular_path(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        np.testing.assert_allclose(
            adjugate(g, Buffers()) @ g, np.linalg.det(g) * np.eye(6), rtol=1e-9, atol=1e-6
        )

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            adjugate(np.zeros((2, 3)), Buffers())

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 10_000))
    def test_identity_property(self, n, seed):
        g = np.random.default_rng(seed).normal(size=(n, n))
        adj = adjugate(g, Buffers())
        det = np.linalg.det(g)
        scale = max(np.abs(adj @ g).max(), abs(det), 1.0)
        np.testing.assert_allclose(
            (adj @ g - det * np.eye(n)) / scale, 0.0, atol=1e-11
        )

    @settings(max_examples=300, deadline=None)
    @given(square_batches())
    def test_identity_scaled_property(self, g):
        n = g.shape[-1]
        adj = adjugate(g, Buffers())
        assert adj.shape == g.shape
        det = np.linalg.det(g)[..., None, None]
        tol = SCALED_TOL * frobenius(g)[..., None, None] ** n
        assert np.all(np.abs(adj @ g - det * np.eye(n)) <= tol)

    @settings(max_examples=300, deadline=None)
    @given(square_batches())
    def test_matches_cofactor_reference(self, g):
        n = g.shape[-1]
        tol = SCALED_TOL * frobenius(g)[..., None, None] ** (n - 1)
        assert np.all(np.abs(adjugate(g, Buffers()) - cofactor_adjugate(g)) <= tol)


class TestScalarize:
    def test_exact_regression(self):
        # when yf = Cf theta exactly, Y = phi * theta
        rng = np.random.default_rng(6)
        theta = np.array([1.5, -2.0])
        cf = rng.normal(size=(3, 5, 2))
        yf = np.einsum("ami,i->am", cf, theta)
        phi, Y = drem_scalarize(np.concatenate([cf, yf[..., None]], axis=-1), Buffers())
        np.testing.assert_allclose(
            Y, phi[:, None] * theta, rtol=1e-9, atol=1e-9
        )

    def test_simple_variant(self):
        rng = np.random.default_rng(7)
        theta = np.array([0.5, 1.0, -1.0])
        chat = rng.normal(size=(2, 3, 3))
        out = pack(chat, np.einsum("aij,j->ai", chat, theta))
        phi, Y = drem_simple_scalarize(out, Buffers())
        np.testing.assert_allclose(phi, np.linalg.det(chat))
        np.testing.assert_allclose(Y, phi[:, None] * theta, rtol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 4), st.integers(1, 12),
        st.floats(-3.0, 5.0), st.integers(0, 2**32 - 1),
    )
    def test_phi_is_gram_determinant(self, n, n_agents, rows, log_scale, seed):
        # rows < n makes the Gram rank-deficient: phi must then be ~0
        rng = np.random.default_rng(seed)
        cf = 10.0**log_scale * rng.normal(size=(n_agents, rows, n))
        yf = rng.normal(size=(n_agents, rows))
        gram = np.einsum("ami,amj->aij", cf, cf)
        tol = SCALED_TOL * frobenius(gram) ** n
        phi, _ = drem_scalarize(np.concatenate([cf, yf[..., None]], axis=-1), Buffers())
        assert np.all(np.abs(phi - np.linalg.det(gram)) <= tol)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 4), r=st.integers(0, 3), n_agents=st.integers(1, 5),
        log_scales=st.tuples(st.floats(-3.0, 4.0), st.floats(-3.0, 4.0)),
        deficient=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    def test_scalarize_matches_gram_references(
        self, n, r, n_agents, log_scales, deficient, seed
    ):
        # The fused products against the unfused definitions: phi against
        # det(Cf^T Cf), Y against the cofactor adjugate of the Gram times
        # Cf^T yf. n = 3 takes the closed-form adjugate, n = 1, 2 and 4
        # the det path; a deficient Cf has rank n - 1, so phi is ~0.
        rng = np.random.default_rng(seed)
        rows = (r + 1) * n
        cf = rng.normal(size=(n_agents, rows, n))
        if deficient and n > 1:
            cf = cf[..., :-1] @ rng.normal(size=(n_agents, n - 1, n))
        cf *= 10.0 ** log_scales[0]
        yf = 10.0 ** log_scales[1] * rng.normal(size=(n_agents, rows))
        phi, Y = drem_scalarize(np.concatenate([cf, yf[..., None]], axis=-1), Buffers())
        assert phi.shape == (n_agents,) and Y.shape == (n_agents, n)
        gram = np.einsum("ami,amj->aij", cf, cf)
        rhs = np.einsum("ami,am->ai", cf, yf)
        g = frobenius(gram)
        assert np.all(np.abs(phi - np.linalg.det(gram)) <= 1e-10 * g**n)
        # Entries of Y are sums of adj(G) entries times entries of Cf^T yf,
        # which |Cf|_F |yf| bounds.
        y_scale = g ** (n - 1) * frobenius(cf) * np.linalg.norm(yf, axis=-1)
        y_ref = (cofactor_adjugate(gram) @ rhs[..., None])[..., 0]
        assert np.all(np.abs(Y - y_ref) <= 1e-10 * y_scale[:, None])

    @settings(max_examples=300, deadline=None)
    @given(square_batches(min_axes=1, max_axes=1))
    def test_simple_phi_is_determinant(self, chat):
        out = pack(chat, np.ones(chat.shape[:2]))
        tol = SCALED_TOL * frobenius(chat) ** chat.shape[-1]
        phi, _ = drem_simple_scalarize(out, Buffers())
        assert np.all(np.abs(phi - np.linalg.det(chat)) <= tol)

    def test_derivative_decoupled(self):
        # each component evolves independently through its own scalar gain
        rng = np.random.default_rng(8)
        theta_hat = rng.normal(size=(2, 3))
        phi, Y = drem_simple_scalarize(make_output(rng, 2, 3), Buffers())
        gains = np.array([1.0, 2.0, 4.0])
        dd = drem_derivative(theta_hat, phi, Y, gains)
        for mu in range(3):
            expected = gains[mu] * phi * (Y[:, mu] - phi * theta_hat[:, mu])
            np.testing.assert_allclose(dd[:, mu], expected, atol=1e-12)



class TestBuffers:
    def test_rows_reused_and_reallocated(self):
        buffers = Buffers()
        a = buffers("x", (4, 2, 3), 2)
        assert a.shape == (4, 2, 3) and not a.any()
        # The entry axes lead in memory: the row axis varies fastest.
        assert a.strides[0] < a.strides[2] < a.strides[1]
        a[:] = 1.0
        fewer = buffers("x", (3, 2, 3), 2)
        assert fewer.shape == (3, 2, 3) and np.shares_memory(fewer, a)
        for shape in ((5, 2, 3), (3, 3, 3)):  # more rows, another entry shape
            other = buffers("x", shape, 2)
            assert other.shape == shape and not np.shares_memory(other, a)
        assert buffers("y", (2, 3)).flags.c_contiguous  # lead = 0: row order


# The batched contractions against np.matmul applied one matrix at a time.
CONTRACTION_TOL = 1e-13


def per_matrix(fn, batch, *arrays):
    """fn's outputs on each batch element of the arrays, stacked back to the
    batch: the per-matrix reference."""
    outs = [fn(*(a[i] for a in arrays)) for i in np.ndindex(batch)]
    return [np.reshape([o[k] for o in outs], (*batch, *np.shape(outs[0][k])))
            for k in range(len(outs[0]))]


def fresh_and_reused(kernel, batch, *arrays):
    """kernel's outputs through new Buffers, then through Buffers that
    served a block with one more row first (as the runner's last, shorter
    block is served): copies of both."""
    runs = [[np.copy(x) for x in kernel(*arrays, buffers=Buffers())]]
    if batch:
        buffers = Buffers()
        kernel(*(np.concatenate([a, a[:1]]) for a in arrays), buffers=buffers)
        runs.append([np.copy(x) for x in kernel(*arrays, buffers=buffers)])
    return runs


def assert_within(got, ref, bound):
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= CONTRACTION_TOL * bound)


class TestContractionsMatchPerMatrixProducts:
    """Every flow and scalarization over n = 1..4 and zero to three leading
    block axes, against the same equations evaluated one matrix at a time
    with np.matmul. Errors are judged against the magnitude of the summed
    terms: |gain| |C|^T |[C | y]| entry by entry for the products, and
    ||[G | rhs]||_F^n (an n-fold product of Gram entries) for the mixing."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 4),
        batch=st.lists(st.integers(1, 3), max_size=3).map(tuple),
        r=st.integers(0, 2),
        log_scale=st.floats(-3.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernels(self, n, batch, r, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        Z = scale * rng.normal(size=(*batch, n * n + n))
        z = scale * rng.normal(size=(*batch, r, n * n + n))
        M = scale * rng.normal(size=(*batch, n, n))
        v = scale * rng.normal(size=(*batch, n))
        gain = rng.normal(size=(n, n))  # not symmetric: a transposed gain shows

        def ge_ref(row):
            C, y = split(row)
            aug = np.column_stack([C, y])
            G = gain @ (C.T @ aug)
            bound = np.abs(gain) @ (np.abs(C).T @ np.abs(aug))
            return G[:, n], G[:, :n], bound[:, n], bound[:, :n]

        a_ref, B_ref, a_bound, B_bound = per_matrix(ge_ref, batch, Z)
        for a, B in fresh_and_reused(lambda Z, **kw: ge_flow(Z, gain, **kw), batch, Z):
            assert_within(a, a_ref, a_bound)
            assert_within(B, B_ref, B_bound)

        a, B = centralized_ge_flow(M, v, gain)
        a_ref, B_ref = per_matrix(lambda m, w: (gain @ w, gain @ m), batch, M, v)
        assert_within(a, a_ref, (np.abs(gain) @ np.abs(v)[..., None])[..., 0])
        assert_within(B, B_ref, np.abs(gain) @ np.abs(M))

        def mix_ref(aug):
            mixed = adjugate(aug[:, :n], Buffers()) @ aug
            return mixed[0, 0], mixed[:, n], np.linalg.norm(aug) ** n

        def extend_ref(row, rows):
            A = np.vstack([np.column_stack(split(x)) for x in (row, *rows)])
            return mix_ref(A[:, :n].T @ A)

        phi_ref, Y_ref, bound = per_matrix(extend_ref, batch, Z, z)

        def extended(Z, z, **kw):
            return drem_scalarize(drem_extend(Z, z, **kw), **kw)

        for phi, Y in fresh_and_reused(extended, batch, Z, z):
            assert_within(phi, phi_ref, bound)
            assert_within(Y, Y_ref, bound[..., None])

        phi_ref, Y_ref, bound = per_matrix(
            lambda row: mix_ref(np.column_stack(split(row))), batch, Z
        )
        for phi, Y in fresh_and_reused(drem_simple_scalarize, batch, Z):
            assert_within(phi, phi_ref, bound)
            assert_within(Y, Y_ref, bound[..., None])
