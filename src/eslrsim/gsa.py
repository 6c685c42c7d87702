"""Long-range processor: linear self-attention over garment vertices with
geodesic coordinates appended to the query/key inputs.

The kernel feature map is elu(x) + 1, which is strictly positive, so the
normalization denominator never vanishes and the O(n) two-summary form is
algebraically identical to the O(n^2) kernelized attention it replaces.
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


def _phi(x: Tensor) -> Tensor:
    """elu(x) + 1 written as relu(x) + exp(min(x, 0)), as one tape op.

    Identical function, but the negative branch is exp rather than expm1 + 1,
    which stays strictly positive down to x ~ -745 in float64 instead of
    rounding to zero near -36; that keeps the attention denominator positive.
    In float32 exp underflows near -87 (subnormal, zero below -103) and
    expm1 + 1 rounds to zero near -17. The values and gradients are
    those of `relu(x) + exp(-relu(-x))` as separate ops: the vjp adds the
    relu branch's gradient first, then the exp branch's.
    """
    e = np.exp(-np.maximum(-x.data, 0.0))
    return T._node(np.maximum(x.data, 0.0) + e, (x,), "phi",
                   lambda g: (g * (x.data > 0.0) + g * e * (x.data < 0.0),))


def gsa_inject(vertex_feats: Tensor, embed: np.ndarray) -> Tensor:
    """Append per-vertex geodesic coordinates along the feature axis.

    Used only for the query/key inputs; values stay at the raw feature width.
    """
    vertex_feats = T.as_tensor(vertex_feats)
    n = vertex_feats.data.shape[0]
    if embed.shape[0] != n:
        raise ValueError(
            f"geodesic embedding rows ({embed.shape[0]}) do not match garment "
            f"vertex count ({n}); re-run preprocess for this mesh")
    return T.concat([vertex_feats, Tensor(embed.astype(vertex_feats.data.dtype, copy=False))],
                    axis=-1)


def linear_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Kernelized attention in O(n) via two global summaries.

    out_i = phi(q_i) S / (phi(q_i) . z) with S = sum_j phi(k_j) v_j^T and
    z = sum_j phi(k_j); phi = elu + 1 > 0.
    """
    if q.data.shape[0] != k.data.shape[0] or k.data.shape[0] != v.data.shape[0]:
        raise ValueError("linear_attention: rows of q, k, v must agree")
    phi_q = _phi(q)
    phi_k = _phi(k)
    s = T.matmul(T.transpose(phi_k), v)
    z = T.tsum(phi_k, axis=0, keepdims=True)  # (1, h)
    num = T.matmul(phi_q, s)
    den = T.matmul(phi_q, T.transpose(z))  # (n, 1)
    return T.div(num, den)


def gsa_block(vertex_feats: Tensor, embed: np.ndarray, params: ModelParams,
              name: str) -> Tensor:
    """Pre-norm, inject, project, attend, output-project, residual add."""
    x = T.layer_norm(vertex_feats, params[f"{name}.norm.gain"],
                     params[f"{name}.norm.bias"])
    qk_in = gsa_inject(x, embed)
    q = T.matmul(qk_in, params[f"{name}.wq"])
    k = T.matmul(qk_in, params[f"{name}.wk"])
    v = T.matmul(x, params[f"{name}.wv"])
    att = linear_attention(q, k, v)
    out = T.matmul(att, params[f"{name}.wo"])
    return T.add(vertex_feats, out)


def gsa_forward(garment_feats: Tensor, embed: np.ndarray, params: ModelParams,
                n_blocks: int) -> Tensor:
    """Sequential blocks over garment rows; zero blocks (the ablation) is the identity."""
    for i in range(n_blocks):
        garment_feats = gsa_block(garment_feats, embed, params, f"gsa.block{i}")
    return garment_feats
