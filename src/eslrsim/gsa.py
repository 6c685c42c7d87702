"""Long-range processor: linear self-attention over garment vertices with
geodesic coordinates appended to the query/key inputs.

The kernel feature map is elu(x) + 1, which is strictly positive, so the
normalization denominator never vanishes and the O(n) two-summary form is
algebraically identical to the O(n^2) kernelized attention it replaces.

A block is one tape op that runs the separate ops' expressions and, in its
vjp, their vjps in reverse. Each array that fed two of them (the block input,
the query/key input, the normalized features, phi(q), phi(k)) gets exactly two
gradients, whose sum does not depend on their order: the bytes are the same.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ModelParams, Tensor


def init_gsa_params(params: ModelParams, n_blocks: int, hidden_dim: int,
                    embed_dim: int, rng: np.random.Generator,
                    zero_output: bool = False) -> None:
    """zero_output zeroes the output projections so every block starts as the
    identity; the projection's own gradient is nonzero, so it trains normally."""
    h, k = hidden_dim, embed_dim
    for i in range(n_blocks):
        name = f"gsa.block{i}"
        params.add(f"{name}.wq", T.kaiming_uniform(rng, h + k, (h + k, h)))
        params.add(f"{name}.wk", T.kaiming_uniform(rng, h + k, (h + k, h)))
        params.add(f"{name}.wv", T.kaiming_uniform(rng, h, (h, h)))
        wo = T.kaiming_uniform(rng, h, (h, h))
        params.add(f"{name}.wo", np.zeros((h, h)) if zero_output else wo)
        params.add(f"{name}.norm.gain", np.ones(h))
        params.add(f"{name}.norm.bias", np.zeros(h))


def _phi(x: np.ndarray):
    """elu(x) + 1 written as relu(x) + exp(min(x, 0)), and its vjp.

    Identical function, but the negative branch is exp rather than expm1 + 1,
    which stays strictly positive down to x ~ -745 in float64 instead of
    rounding to zero near -36; that keeps the attention denominator positive.
    In float32 exp underflows near -87 (subnormal, zero below -103) and
    expm1 + 1 rounds to zero near -17. The values and gradients are those of
    `relu(x) + exp(-relu(-x))` as separate ops: the vjp adds the relu
    branch's gradient first, then the exp branch's.
    """
    e = np.exp(-np.maximum(-x, 0.0))
    return np.maximum(x, 0.0) + e, lambda g: g * (x > 0.0) + g * e * (x < 0.0)


def linear_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Kernelized attention in O(n) via two global summaries: `(out, vjp)`,
    with `vjp(g)` the gradients of q, k and v.

    out_i = phi(q_i) S / (phi(q_i) . z) with S = sum_j phi(k_j) v_j^T and
    z = sum_j phi(k_j); phi = elu + 1 > 0.
    """
    if q.shape[0] != k.shape[0] or k.shape[0] != v.shape[0]:
        raise ValueError("linear_attention: rows of q, k, v must agree")
    phi_q, phi_q_vjp = _phi(q)
    phi_k, phi_k_vjp = _phi(k)
    phi_k_t = phi_k.T.copy()
    s = phi_k_t @ v
    z_t = phi_k.sum(axis=0, keepdims=True).T.copy()  # (h, 1)
    num = phi_q @ s
    den = phi_q @ z_t  # (n, 1)

    def vjp(g):
        g_num = g / den
        g_den = (-g * num / (den * den)).sum(axis=1, keepdims=True)
        g_s = phi_q.T @ g_num
        # C order, as the separate ops summed it: k's gradient meets matmuls
        g_phi_k = np.add((g_s @ v.T).T, (phi_q.T @ g_den).T, order="C")
        return (phi_q_vjp(g_den @ z_t.T + g_num @ s.T), phi_k_vjp(g_phi_k),
                phi_k_t.T @ g_s)

    return num / den, vjp


def gsa_block(vertex_feats: Tensor, embed: np.ndarray, params: ModelParams,
              name: str) -> Tensor:
    """Pre-norm, embedding appended to the query/key input, projections,
    attention, output projection and residual, as one tape op with parents
    `(vertex_feats, vertex_feats, gain, bias, wq, wk, wv, wo)`."""
    vertex_feats = T.as_tensor(vertex_feats)
    p = [params[f"{name}.{key}"] for key in ("norm.gain", "norm.bias", "wq", "wk", "wv", "wo")]
    gain, bias, wq, wk, wv, wo = (t.data for t in p)
    n, h = vertex_feats.data.shape
    if embed.shape[0] != n:
        raise ValueError(
            f"geodesic embedding rows ({embed.shape[0]}) do not match garment "
            f"vertex count ({n}); re-run preprocess for this mesh")
    xhat, inv = T._normalize(vertex_feats.data.copy(), 1e-5)
    x = xhat * gain + bias
    qk_in = np.concatenate([x, embed.astype(x.dtype, copy=False)], axis=-1)
    att, att_vjp = linear_attention(qk_in @ wq, qk_in @ wk, x @ wv)
    out = vertex_feats.data + att @ wo

    def vjp(g):
        g_q, g_k, g_v = att_vjp(g @ wo.T)
        g_x = (g_q @ wq.T + g_k @ wk.T)[:, :h] + g_v @ wv.T
        return (g, T._layer_norm_dx(g_x, gain, xhat, inv), g_x * xhat, g_x,
                qk_in.T @ g_q, qk_in.T @ g_k, x.T @ g_v, att.T @ g)

    return T._node(out, (vertex_feats, vertex_feats, *p), "gsa", vjp)


def gsa_forward(garment_feats: Tensor, embed: np.ndarray, params: ModelParams,
                n_blocks: int) -> Tensor:
    """Sequential blocks over garment rows; zero blocks (the ablation) is the identity."""
    for i in range(n_blocks):
        garment_feats = gsa_block(garment_feats, embed, params, f"gsa.block{i}")
    return garment_feats
