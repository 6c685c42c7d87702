"""Helpers that only the tests use: a finite-difference gradient checker, an
OBJ writer for the garments the tests build, the moving average of the
training-loss checks, the unfused ops that fused ones are checked against
(among them the GSA block as separate ops) and the pair-list contact filter
that the contact record replaced."""

from typing import Callable

import numpy as np

from eslrsim import tensor as T
from eslrsim.mesh import Mesh, obj_text


def grad_check(f: Callable[[], T.Tensor], params: T.ModelParams, h: float = 1e-5,
               sample_fraction: float = 1.0, seed: int = 0,
               names: list[str] | None = None,
               scale_floor: float | None = None) -> dict[str, float]:
    """Compare autodiff gradients of scalar f() against central finite differences.

    Returns, per parameter, max_j |fd_j - ad_j| normalized by the parameter's
    gradient magnitude (L-inf over the sampled entries). The scale is floored
    at 1e-6 * max(1, |f|) by default so parameters whose entire gradient sits
    below the finite-difference roundoff floor are not judged against their own
    noise; a genuinely wrong backward rule still stands out by orders of
    magnitude. Callers are responsible for avoiding non-smooth points (relu at
    0 etc.).
    """
    params.zero_grad()
    loss = f()
    T.backward(loss)
    if scale_floor is None:
        scale_floor = 1e-6 * max(1.0, abs(float(loss.data)))
    auto = params.grads()
    rng = np.random.default_rng(seed)
    report: dict[str, float] = {}
    for name, t in params.items():
        if names is not None and name not in names:
            continue
        n = t.data.size
        k = max(1, int(round(n * sample_fraction)))
        idx = np.arange(n) if k >= n else rng.choice(n, size=k, replace=False)
        ag = auto[name].reshape(-1)
        fds = np.empty(len(idx))
        for pos, j in enumerate(idx):
            orig = t.data.flat[j]
            with T.no_grad():
                t.data.flat[j] = orig + h
                fp = float(f().data)
                t.data.flat[j] = orig - h
                fm = float(f().data)
            t.data.flat[j] = orig
            fds[pos] = (fp - fm) / (2.0 * h)
        sampled_ag = ag[idx]
        scale = max(np.abs(fds).max(), np.abs(sampled_ag).max(), scale_floor)
        report[name] = float(np.abs(fds - sampled_ag).max() / scale)
    return report


def save_obj(path, mesh: Mesh) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(obj_text(mesh.vertices, mesh.triangles))


def smoothed(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average; entry i averages the last `window` values."""
    out = np.empty(len(values))
    c = np.cumsum(np.insert(values, 0, 0.0))
    for i in range(len(values)):
        lo = max(0, i + 1 - window)
        out[i] = (c[i + 1] - c[lo]) / (i + 1 - lo)
    return out


def neg(a) -> T.Tensor:
    a = T.as_tensor(a)
    return T._node(-a.data, (a,), "neg", lambda g: (-g,))


def exp(a) -> T.Tensor:
    a = T.as_tensor(a)
    e = np.exp(a.data)
    return T._node(e, (a,), "exp", lambda g: (g * e,))


def sqrt(a) -> T.Tensor:
    a = T.as_tensor(a)
    root = np.sqrt(a.data)
    return T._node(root, (a,), "sqrt", lambda g: (g * 0.5 / root,))


def unfused_row_norm(a) -> T.Tensor:
    """`tensor.row_norm` as the three separate ops it fuses."""
    return sqrt(T.tsum(T.mul(a, a), axis=-1, keepdims=True))


def transpose(a) -> T.Tensor:
    a = T.as_tensor(a)
    return T._node(a.data.T.copy(), (a,), "transpose", lambda g: (g.T,))


def concat(parts, axis: int = -1) -> T.Tensor:
    parts = [T.as_tensor(p) for p in parts]
    widths = [p.data.shape[axis] for p in parts]

    def vjp(g):
        offsets = np.cumsum([0] + widths)
        idx = [slice(None)] * g.ndim
        grads = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            idx[axis] = slice(lo, hi)
            grads.append(g[tuple(idx)])
        return grads

    return T._node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts),
                   "concat", vjp)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> T.Tensor:
    """LayerNorm over the last axis as one tape op, made from the program's
    `_normalize` and `_layer_norm_dx`."""
    x, gain, bias = T.as_tensor(x), T.as_tensor(gain), T.as_tensor(bias)
    xhat, inv = T._normalize(x.data.copy(), eps)
    return T._node(xhat * gain.data + bias.data, (x, gain, bias), "layer_norm",
                   lambda g: (T._layer_norm_dx(g, gain.data, xhat, inv)
                              if x.requires_grad else None,
                              g * xhat if gain.requires_grad else None, g))


def unfused_phi(x) -> T.Tensor:
    """`gsa._phi` as the six separate ops it fuses."""
    return T.add(T.relu(x), exp(neg(T.relu(neg(x)))))


def unfused_linear_attention(q, k, v) -> T.Tensor:
    """`gsa.linear_attention` as separate tape ops."""
    phi_q = unfused_phi(q)
    phi_k = unfused_phi(k)
    s = T.matmul(transpose(phi_k), v)
    z = T.tsum(phi_k, axis=0, keepdims=True)  # (1, h)
    num = T.matmul(phi_q, s)
    den = T.matmul(phi_q, transpose(z))  # (n, 1)
    return T.div(num, den)


def unfused_gsa_block(vertex_feats, embed: np.ndarray, params: T.ModelParams,
                      name: str) -> T.Tensor:
    """`gsa.gsa_block` as separate tape ops: pre-norm, the embedding appended
    to the query/key input, projections, attention, output projection and
    residual add."""
    x = layer_norm(vertex_feats, params[f"{name}.norm.gain"], params[f"{name}.norm.bias"])
    qk_in = concat([x, T.Tensor(embed.astype(x.data.dtype, copy=False))])
    q = T.matmul(qk_in, params[f"{name}.wq"])
    k = T.matmul(qk_in, params[f"{name}.wk"])
    v = T.matmul(x, params[f"{name}.wv"])
    att = unfused_linear_attention(q, k, v)
    return T.add(vertex_feats, T.matmul(att, params[f"{name}.wo"]))


def contact_pairs(world_pairs: np.ndarray, x_curr_g: np.ndarray, pos_b: np.ndarray,
                  body_normals: np.ndarray, margin: float) -> np.ndarray:
    """World-edge pairs whose normal distance is below the margin at x_curr:
    friction's contact set before contacts were one record per state."""
    if len(world_pairs) == 0:
        return world_pairs.reshape(-1, 2)
    xg = np.asarray(x_curr_g)[world_pairs[:, 0]]
    xb = np.asarray(pos_b)[world_pairs[:, 1]]
    nb = body_normals[world_pairs[:, 1]]
    dist = ((xg - xb) * nb).sum(axis=1)
    return world_pairs[dist < margin]
