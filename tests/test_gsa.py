import numpy as np
import pytest

from eslrsim import gsa as G
from eslrsim import tensor as T
from support import grad_check, unfused_gsa_block, unfused_phi


def quadratic_attention_oracle(q, k, v):
    """Dense O(n^2) kernelized attention with phi = elu + 1 (exp on x <= 0)."""
    def phi(x):
        return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))

    a = phi(q) @ phi(k).T  # (n, n), strictly positive
    return (a @ v) / a.sum(axis=1, keepdims=True)


def make_params(n_blocks, h, k, seed=0):
    params = T.ModelParams()
    G.init_gsa_params(params, n_blocks, h, k, np.random.default_rng(seed))
    return params


def random_block(h, k, seed, dtype=np.float64):
    """One block's parameters with generic (not identity) norms and biases."""
    rng = np.random.default_rng(seed)
    params = make_params(1, h, k, seed)
    for _, t in params.items():
        t.data = t.data + 0.3 * rng.standard_normal(t.data.shape)
    return params if dtype == np.float64 else params.astype(dtype)


def attention_op(q, k, v):
    """`linear_attention` on the arrays of three tensors, as one tape op."""
    out, vjp = G.linear_attention(q.data, k.data, v.data)
    return T._node(out, (q, k, v), "attention", vjp)


class TestInject:
    """The geodesic embedding is appended after the normalized features, for
    the query/key input only."""

    def test_concatenation(self):
        params = random_block(2, 1, seed=19)
        feats = np.array([[1.0, 2.0], [0.5, -1.0]])
        embed = np.array([[5.0], [-3.0]])
        out = G.gsa_block(T.Tensor(feats), embed, params, "gsa.block0")
        ref = unfused_gsa_block(T.Tensor(feats), embed, params, "gsa.block0")
        assert out.data.tobytes() == ref.data.tobytes()

    def test_zero_embedding_pads_with_zeros(self):
        # a zero embedding meets only the rows of wq and wk beyond the features
        h, k = 3, 2
        params = random_block(h, k, seed=20)
        feats = np.random.default_rng(21).standard_normal((5, h))
        out = G.gsa_block(T.Tensor(feats), np.zeros((5, k)), params, "gsa.block0")
        for w in ("wq", "wk"):
            params[f"gsa.block0.{w}"].data = params[f"gsa.block0.{w}"].data[:h]
        ref = G.gsa_block(T.Tensor(feats), np.zeros((5, 0)), params, "gsa.block0")
        assert np.allclose(out.data, ref.data, rtol=1e-13, atol=1e-15)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="preprocess"):
            G.gsa_block(T.Tensor(np.ones((3, 2))), np.ones((4, 1)), make_params(1, 2, 1),
                        "gsa.block0")


class TestLinearAttention:
    def test_single_element_returns_its_value(self):
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((1, 4)) for _ in range(3))
        out, _ = G.linear_attention(q, k, v)
        assert np.allclose(out, v, rtol=1e-14, atol=0)

    def test_identical_keys_match_quadratic_oracle(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((6, 4))
        k = np.tile(rng.standard_normal((1, 4)), (6, 1))
        v = rng.standard_normal((6, 4))
        out, _ = G.linear_attention(q, k, v)
        ref = quadratic_attention_oracle(q, k, v)
        assert np.allclose(out, ref, rtol=1e-12)

    @pytest.mark.parametrize("n,h", [(64, 8), (128, 16), (256, 8)])
    def test_matches_quadratic_oracle(self, n, h):
        rng = np.random.default_rng(n + h)
        q, k = rng.standard_normal((2, n, h))
        v = rng.standard_normal((n, h))
        out, _ = G.linear_attention(q, k, v)
        ref = quadratic_attention_oracle(q, k, v)
        rel = np.abs(out - ref) / np.maximum(np.abs(ref), 1e-12)
        assert rel.max() <= 1e-10

    def test_denominator_always_positive(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((32, 8)) * 30 - 100  # extreme negative inputs
        k = rng.standard_normal((32, 8)) * 30 - 100
        phi_k = np.where(k > 0, k + 1.0, np.exp(np.minimum(k, 0.0)))
        assert phi_k.min() > 0.0
        v = rng.standard_normal((32, 8))
        out, _ = G.linear_attention(q, k, v)
        assert np.all(np.isfinite(out))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows of q, k, v"):
            G.linear_attention(np.ones((3, 2)), np.ones((3, 2)), np.ones((4, 2)))

    def test_gradients_pass_fd(self):
        rng = np.random.default_rng(3)
        params = T.ModelParams()
        q = params.add("q", rng.standard_normal((5, 3)))
        k = params.add("k", rng.standard_normal((5, 3)))
        v = params.add("v", rng.standard_normal((5, 3)))
        w = T.Tensor(rng.standard_normal((5, 3)))
        report = grad_check(lambda: T.tsum(T.mul(attention_op(q, k, v), w)), params)
        assert max(report.values()) <= 1e-6


PHI_INPUTS = [0.0, -0.0, -700.0, 700.0]  # both zeros, and exp far from 1 either way


class TestPhi:
    """`_phi` on arrays, with its vjp, has the values and gradients of the six
    separate ops."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_unfused_ops_bitwise(self, dtype):
        rng = np.random.default_rng(12)
        x0 = np.concatenate([10.0 * rng.standard_normal(200), PHI_INPUTS])
        x0 = x0.reshape(-1, 4).astype(dtype)
        w = rng.standard_normal(x0.shape).astype(dtype)
        y, vjp = G._phi(x0.copy())
        x = T.Tensor(x0.copy(), requires_grad=True)
        ref = unfused_phi(x)
        T.backward(T.tsum(T.mul(ref, T.Tensor(w))))
        g = vjp(w)
        assert (y.dtype, y.tobytes(), g.dtype, g.tobytes()) == (
            ref.data.dtype, ref.data.tobytes(), x.grad.dtype, x.grad.tobytes())
        assert y.dtype == dtype and g.dtype == dtype

    def test_gradient_matches_fd(self):
        params = T.ModelParams()
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal((6, 5))
        x0[np.abs(x0) < 0.05] = 0.5  # away from the kink at 0
        x = params.add("x", x0)
        w = T.Tensor(rng.standard_normal((6, 5)))

        def phi_op(t):
            y, vjp = G._phi(t.data)
            return T._node(y, (t,), "phi", lambda g: (vjp(g),))

        report = grad_check(lambda: T.tsum(T.mul(phi_op(x), w)), params)
        assert report["x"] <= 1e-6


class TestBlock:
    def test_one_tape_node(self):
        params = make_params(1, 4, 2)
        x = T.Tensor(np.ones((3, 4)), requires_grad=True)
        y = G.gsa_block(x, np.zeros((3, 2)), params, "gsa.block0")
        assert y._prev == (x, x) + tuple(params[f"gsa.block0.{k}"] for k in (
            "norm.gain", "norm.bias", "wq", "wk", "wv", "wo"))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_unfused_ops_bitwise(self, dtype):
        """Value and every parent's gradient. Column 0 of q and column 1 of k
        copy an embedding column, so `phi` meets both zeros and +-700."""
        h, k, n = 6, 2, 12
        params = random_block(h, k, seed=22, dtype=dtype)
        for w, col in (("wq", 0), ("wk", 1)):
            params[f"gsa.block0.{w}"].data[:, col] = 0.0
            params[f"gsa.block0.{w}"].data[h + col, col] = 1.0
        rng = np.random.default_rng(23)
        embed = rng.standard_normal((n, k))
        embed[:4, 0] = embed[4:8, 1] = PHI_INPUTS
        feats = rng.standard_normal((n, h)).astype(dtype)
        w = T.Tensor(rng.standard_normal((n, h)).astype(dtype))
        results = []
        for block in (G.gsa_block, unfused_gsa_block):
            params.zero_grad()
            x = T.Tensor(feats.copy(), requires_grad=True)
            y = block(x, embed, params, "gsa.block0")
            T.backward(T.tsum(T.mul(y, w)))
            results.append([y.data, x.grad] + list(params.grads().values()))
        for fused, ref in zip(*results):
            assert fused.dtype == ref.dtype == dtype
            assert fused.tobytes() == ref.tobytes()

    def test_untaped_float32_blocks_equal_unfused_ops_bitwise(self):
        # the rollout's setting: 2,025 garment rows, hidden width 64, 4 blocks
        params = make_params(4, 64, 8, seed=24).astype(np.float32)
        rng = np.random.default_rng(25)
        feats = rng.standard_normal((2025, 64)).astype(np.float32)
        embed = rng.standard_normal((2025, 8))
        outs = []
        for block in (G.gsa_block, unfused_gsa_block):
            y = T.Tensor(feats)
            with T.no_grad():
                for i in range(4):
                    y = block(y, embed, params, f"gsa.block{i}")
            outs.append(y.data)
        assert outs[0].dtype == np.float32
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_gradients_pass_fd(self):
        params = random_block(4, 2, seed=26)
        rng = np.random.default_rng(27)
        x = params.add("x", rng.standard_normal((5, 4)))
        embed = rng.standard_normal((5, 2))
        w = T.Tensor(rng.standard_normal((5, 4)))
        report = grad_check(
            lambda: T.tsum(T.mul(G.gsa_block(x, embed, params, "gsa.block0"), w)), params)
        assert max(report.values()) <= 1e-6, report

    def test_zero_output_projection_is_identity(self):
        h, k = 6, 2
        params = make_params(1, h, k, seed=4)
        params["gsa.block0.wo"].data = np.zeros((h, h))
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((7, h))
        out = G.gsa_block(T.Tensor(feats), rng.standard_normal((7, k)),
                          params, "gsa.block0")
        assert np.array_equal(out.data, feats)

    def test_permutation_equivariance(self):
        h, k = 5, 3
        params = make_params(1, h, k, seed=6)
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((8, h))
        embed = rng.standard_normal((8, k))
        out = G.gsa_block(T.Tensor(feats), embed, params, "gsa.block0").data
        perm = rng.permutation(8)
        out_p = G.gsa_block(T.Tensor(feats[perm]), embed[perm],
                            params, "gsa.block0").data
        assert np.allclose(out_p, out[perm], rtol=1e-12, atol=1e-14)

    def test_matches_composed_stage_oracle(self):
        h, k = 4, 2
        params = make_params(1, h, k, seed=8)
        rng = np.random.default_rng(9)
        feats = rng.standard_normal((6, h))
        embed = rng.standard_normal((6, k))
        out = G.gsa_block(T.Tensor(feats), embed, params, "gsa.block0").data

        mu = feats.mean(-1, keepdims=True)
        var = ((feats - mu) ** 2).mean(-1, keepdims=True)
        x = (feats - mu) / np.sqrt(var + 1e-5) * params["gsa.block0.norm.gain"].data \
            + params["gsa.block0.norm.bias"].data
        qk_in = np.concatenate([x, embed], axis=1)
        q = qk_in @ params["gsa.block0.wq"].data
        kk = qk_in @ params["gsa.block0.wk"].data
        v = x @ params["gsa.block0.wv"].data
        att = quadratic_attention_oracle(q, kk, v)
        ref = feats + att @ params["gsa.block0.wo"].data
        assert np.allclose(out, ref, rtol=1e-10, atol=1e-12)


class TestForward:
    def test_one_block_equals_gsa_block(self):
        h, k = 4, 2
        params = make_params(1, h, k, seed=10)
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((5, h))
        embed = rng.standard_normal((5, k))
        a = G.gsa_forward(T.Tensor(feats), embed, params, 1).data
        b = G.gsa_block(T.Tensor(feats), embed, params, "gsa.block0").data
        assert np.array_equal(a, b)

    def test_zero_blocks_is_identity(self):
        # the ablation without the long-range branch passes its input through
        h, k = 4, 2
        params = make_params(0, h, k, seed=12)
        rng = np.random.default_rng(13)
        feats = T.Tensor(rng.standard_normal((6, h)))
        embed = rng.standard_normal((6, k))
        assert G.gsa_forward(feats, embed, params, 0) is feats

    def test_default_depth_runs_finite_on_500_vertices(self):
        h, k = 16, 8
        params = make_params(4, h, k, seed=14)
        rng = np.random.default_rng(15)
        feats = rng.standard_normal((500, h))
        embed = rng.standard_normal((500, k))
        with T.no_grad():
            out = G.gsa_forward(T.Tensor(feats), embed, params, 4)
        assert np.all(np.isfinite(out.data))

    def test_geodesic_sensitivity_and_k0_invariance(self):
        h = 5
        rng = np.random.default_rng(16)
        feats = rng.standard_normal((7, h))
        # swapping two embedding rows changes the output when k > 0
        params = make_params(1, h, 3, seed=17)
        embed = rng.standard_normal((7, 3))
        base = G.gsa_forward(T.Tensor(feats), embed, params, 1).data
        swapped = embed.copy()
        swapped[[1, 4]] = swapped[[4, 1]]
        other = G.gsa_forward(T.Tensor(feats), swapped, params, 1).data
        assert np.abs(base - other).max() > 0.0
        # with k = 0 the embedding cannot matter
        params0 = make_params(1, h, 0, seed=18)
        e0 = np.zeros((7, 0))
        a = G.gsa_forward(T.Tensor(feats), e0, params0, 1).data
        b = G.gsa_forward(T.Tensor(feats), e0, params0, 1).data
        assert np.array_equal(a, b)
