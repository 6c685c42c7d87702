import numpy as np
import pytest

from eslrsim import gsa as G
from eslrsim import tensor as T


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


class TestInject:
    def test_concatenation(self):
        out = G.gsa_inject(T.Tensor([[1.0, 2.0]]), np.array([[5.0]]))
        assert np.array_equal(out.data, [[1.0, 2.0, 5.0]])

    def test_zero_embedding_pads_with_zeros(self):
        out = G.gsa_inject(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), np.zeros((2, 3)))
        assert np.array_equal(out.data[:, 2:], np.zeros((2, 3)))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="preprocess"):
            G.gsa_inject(T.Tensor(np.ones((3, 2))), np.ones((4, 1)))


class TestLinearAttention:
    def test_single_element_returns_its_value(self):
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((1, 4)) for _ in range(3))
        out = G.linear_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v))
        assert np.allclose(out.data, v, rtol=1e-14, atol=0)

    def test_identical_keys_match_quadratic_oracle(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((6, 4))
        k = np.tile(rng.standard_normal((1, 4)), (6, 1))
        v = rng.standard_normal((6, 4))
        out = G.linear_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v))
        ref = quadratic_attention_oracle(q, k, v)
        assert np.allclose(out.data, ref, rtol=1e-12)

    @pytest.mark.parametrize("n,h", [(64, 8), (128, 16), (256, 8)])
    def test_matches_quadratic_oracle(self, n, h):
        rng = np.random.default_rng(n + h)
        q, k = rng.standard_normal((2, n, h))
        v = rng.standard_normal((n, h))
        out = G.linear_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v))
        ref = quadratic_attention_oracle(q, k, v)
        rel = np.abs(out.data - ref) / np.maximum(np.abs(ref), 1e-12)
        assert rel.max() <= 1e-10

    def test_denominator_always_positive(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((32, 8)) * 30 - 100  # extreme negative inputs
        k = rng.standard_normal((32, 8)) * 30 - 100
        phi_k = np.where(k > 0, k + 1.0, np.exp(np.minimum(k, 0.0)))
        assert phi_k.min() > 0.0
        v = rng.standard_normal((32, 8))
        out = G.linear_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v))
        assert np.all(np.isfinite(out.data))

    def test_gradients_pass_fd(self):
        rng = np.random.default_rng(3)
        params = T.ModelParams()
        q = params.add("q", rng.standard_normal((5, 3)))
        k = params.add("k", rng.standard_normal((5, 3)))
        v = params.add("v", rng.standard_normal((5, 3)))
        w = T.Tensor(rng.standard_normal((5, 3)))
        report = T.grad_check(
            lambda: T.tsum(T.mul(G.linear_attention(q, k, v), w)), params)
        assert max(report.values()) <= 1e-6


class TestBlock:
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
