"""Dense f64 tensors with reverse-mode automatic differentiation.

Every op makes its output through `_node(data, parents, op_name, vjp)`. When
any parent requires a gradient, the output records its parents and `vjp`, its
vector-Jacobian product: `vjp(g)` maps the gradient `g` of the output to one
gradient per parent, in parent order, or `None` for a parent that needs none.
A gradient may have the output's broadcast shape; `backward()` sums it back to
the parent's shape. `vjp` must not refer to the output tensor, so a tape holds
no reference cycles and is freed by reference counting as soon as its loss is
dropped.

`backward()` walks the implicit tape in reverse topological order and is the
only place gradients are accumulated. All math is float64 and every reduction
runs in a fixed (ascending-index) order, so replaying the same computation is
bit-identical.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Sequence

import numpy as np

CHECKPOINT_MAGIC = b"ESLR-CKPT1\n"

# Toggled by no_grad(); when False, ops do not record parents or closures.
_GRAD_ENABLED = True

# When True, every op output is checked for NaN/Inf (debug assertion).
_CHECK_FINITE = False


def set_finite_checks(enabled: bool) -> None:
    global _CHECK_FINITE
    _CHECK_FINITE = bool(enabled)


class no_grad:
    """Context manager: ops inside build no tape."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_vjp", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._vjp: Callable | None = None
        self._prev: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return pow_scalar(self, p)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # g may alias another node's grad (e.g. a slice view); safe because grads
    # are only ever replaced, never mutated in place
    if t.grad is None:
        t.grad = g if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _node(data: np.ndarray, parents: Sequence[Tensor], op_name: str,
          vjp: Callable) -> Tensor:
    if _CHECK_FINITE and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by op '{op_name}'")
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._vjp = vjp
    return out


def _shape_err(op: str, *shapes) -> ValueError:
    return ValueError(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


# -- elementwise binary ops ------------------------------------------------
# A single-parent op is on the tape only if its parent requires a gradient,
# so only multi-parent ops guard their entries with `requires_grad`.

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data + b.data, (a, b), "add", lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data - b.data, (a, b), "sub",
                 lambda g: (g, -g if b.requires_grad else None))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data * b.data, (a, b), "mul",
                 lambda g: (g * b.data if a.requires_grad else None,
                            g * a.data if b.requires_grad else None))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data / b.data, (a, b), "div",
                 lambda g: (g / b.data if a.requires_grad else None,
                            -g * a.data / (b.data * b.data) if b.requires_grad else None))


def atan2(y, x) -> Tensor:
    """Elementwise arctan2(y, x); gradients are smooth away from the origin."""
    y, x = as_tensor(y), as_tensor(x)

    def vjp(g):
        denom = x.data * x.data + y.data * y.data
        return (g * x.data / denom if y.requires_grad else None,
                -g * y.data / denom if x.requires_grad else None)

    return _node(np.arctan2(y.data, x.data), (y, x), "atan2", vjp)


def cross3(a, b) -> Tensor:
    """Row-wise cross product of (..., 3) arrays."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[-1] != 3 or b.data.shape[-1] != 3:
        raise _shape_err("cross3", a.data.shape, b.data.shape)
    return _node(np.cross(a.data, b.data), (a, b), "cross3",
                 lambda g: (np.cross(b.data, g) if a.requires_grad else None,
                            np.cross(g, a.data) if b.requires_grad else None))


# -- elementwise unary ops -------------------------------------------------

def neg(a) -> Tensor:
    a = as_tensor(a)
    return _node(-a.data, (a,), "neg", lambda g: (-g,))


def pow_scalar(a, p: float) -> Tensor:
    a = as_tensor(a)
    return _node(a.data ** p, (a,), "pow", lambda g: (g * p * a.data ** (p - 1),))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    root = np.sqrt(a.data)
    return _node(root, (a,), "sqrt", lambda g: (g * 0.5 / root,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    e = np.exp(a.data)
    return _node(e, (a,), "exp", lambda g: (g * e,))


def relu(a) -> Tensor:
    # Subgradient at 0 is defined as 0.
    a = as_tensor(a)
    return _node(np.maximum(a.data, 0.0), (a,), "relu", lambda g: (g * (a.data > 0.0),))


def huber_norm(a, delta: float) -> Tensor:
    """Row-wise smoothed L2 norm of an (n, d) array.

    Quadratic r^2/(2*delta) inside |r| <= delta, linear r - delta/2 outside;
    C1 everywhere, which is the point of using it near zero.
    """
    a = as_tensor(a)
    r = np.sqrt((a.data * a.data).sum(axis=-1))
    small = r <= delta
    val = np.where(small, r * r / (2.0 * delta), r - delta / 2.0)

    def vjp(g):
        safe_r = np.where(small, 1.0, r)
        scale = np.where(small, 1.0 / delta, 1.0 / safe_r)
        return (g[..., None] * scale[..., None] * a.data,)

    return _node(val, (a,), "huber_norm", vjp)


# -- structural ops --------------------------------------------------------

def transpose(a) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.T.copy(), (a,), "transpose", lambda g: (g.T,))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise _shape_err("matmul", a.data.shape, b.data.shape)
    return _node(a.data @ b.data, (a, b), "matmul",
                 lambda g: (g @ b.data.T if a.requires_grad else None,
                            a.data.T @ g if b.requires_grad else None))


def concat(parts: Iterable, axis: int = -1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    widths = [p.data.shape[axis] for p in parts]

    def vjp(g):
        offsets = np.cumsum([0] + widths)
        idx = [slice(None)] * g.ndim
        grads = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            idx[axis] = slice(lo, hi)
            grads.append(g[tuple(idx)])
        return grads

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts),
                 "concat", vjp)


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)

    return _node(a.data[..., start:stop], (a,), "slice_cols", vjp)


def gather_rows(a, index) -> Tensor:
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.intp)
    return _node(a.data[index], (a,), "gather_rows",
                 lambda g: (_scatter_add_rows(g, index, a.data.shape[0]),))


def _scatter_add_rows(values: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """Deterministic row scatter-add: accumulation follows ascending row order.

    One bincount over composite (segment, column) ids; bincount adds in input
    order, so per-segment sums always accumulate rows ascending.
    """
    if values.ndim == 1:
        return np.bincount(ids, weights=values, minlength=n)
    h = values.shape[1]
    flat_ids = (ids[:, None] * h + np.arange(h)).ravel()
    return np.bincount(flat_ids, weights=values.ravel(),
                       minlength=n * h).reshape(n, h)


def segment_sum(values, segment_ids, n_segments: int) -> Tensor:
    """Sum rows of `values` into `n_segments` buckets; empty segments are zero."""
    values = as_tensor(values)
    ids = np.asarray(segment_ids, dtype=np.intp)
    if ids.shape[0] != values.data.shape[0]:
        raise _shape_err("segment_sum", values.data.shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= n_segments):
        raise ValueError("segment_sum: segment id out of range")
    return _node(_scatter_add_rows(values.data, ids, n_segments), (values,),
                 "segment_sum", lambda g: (g[ids],))


def segment_mean(values, segment_ids, n_segments: int) -> Tensor:
    """Per-segment mean; segments of size 0 yield zeros by convention."""
    values = as_tensor(values)
    ids = np.asarray(segment_ids, dtype=np.intp)
    counts = np.bincount(ids, minlength=n_segments).astype(np.float64)
    safe = np.maximum(counts, 1.0)
    summed = _scatter_add_rows(values.data, ids, n_segments)
    denom = safe if summed.ndim == 1 else safe[:, None]
    return _node(summed / denom, (values,), "segment_mean",
                 lambda g: ((g / denom)[ids],))


def tsum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), "sum", vjp)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    h = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.einsum("...i,...i->...", xc, xc)[..., None] / h
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def vjp(g):
        dx = None
        if x.requires_grad:
            dxhat = g * gain.data
            dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
                  - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
        return dx, (g * xhat if gain.requires_grad else None), g

    return _node(xhat * gain.data + bias.data, (x, gain, bias), "layer_norm", vjp)


def row_norm(a) -> Tensor:
    """Euclidean norm of each row of an (n, d) array, shape (n, 1)."""
    return sqrt(tsum(mul(a, a), axis=-1, keepdims=True))


def dot_rows(a, b) -> Tensor:
    """Row-wise dot product of two (n, d) arrays, shape (n, 1)."""
    return tsum(mul(a, b), axis=-1, keepdims=True)


# -- backward pass ---------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; accumulates into .grad fields."""
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if not node._prev:
            continue
        for p, g in zip(node._prev, node._vjp(node.grad)):
            if g is not None and p.requires_grad:
                _accumulate(p, _unbroadcast(g, p.data.shape))


# -- parameter store -------------------------------------------------------

class ModelParams:
    """Named parameter tensors; names are unique and shapes fixed after creation."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.array(array, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def grads(self) -> dict[str, np.ndarray]:
        """Gradient per parameter; parameters unreachable from the loss get zeros."""
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self._params.items()
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, arr in state.items():
            t = self._params[name]
            if t.data.shape != arr.shape:
                raise _shape_err(f"load_state_dict[{name}]", t.data.shape, arr.shape)
            t.data = np.array(arr, dtype=np.float64)


# -- checkpoint file format ------------------------------------------------
# Magic line, one JSON header line (config echo, iteration, seed, parameter
# names + shapes in storage order), then raw little-endian f64 blocks.

def save_checkpoint(path, params: ModelParams, config: dict, iteration: int,
                    seed: int) -> None:
    header = {
        "config": config,
        "iteration": int(iteration),
        "seed": int(seed),
        "params": [{"name": n, "shape": list(t.data.shape)} for n, t in params.items()],
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, t in params.items():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (name -> array, header dict)."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        header = json.loads(fh.readline().decode("utf-8"))
        state: dict[str, np.ndarray] = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"{path}: truncated block for '{entry['name']}'")
            state[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return state, header


# -- MLP helpers -----------------------------------------------------------

def kaiming_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def mlp_init(params: ModelParams, name: str, in_dim: int, hidden: int, out_dim: int,
             rng: np.random.Generator, norm: bool = False,
             zero_output: bool = False) -> None:
    """Two hidden layers of width `hidden`, ReLU, final linear; optional LayerNorm."""
    dims = [in_dim, hidden, hidden, out_dim]
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = kaiming_uniform(rng, d_in, (d_in, d_out))
        if zero_output and i == 2:
            w = np.zeros((d_in, d_out))
        params.add(f"{name}.w{i}", w)
        params.add(f"{name}.b{i}", np.zeros(d_out))
    if norm:
        params.add(f"{name}.ln_gain", np.ones(out_dim))
        params.add(f"{name}.ln_bias", np.zeros(out_dim))


def mlp_apply(params: ModelParams, name: str, x) -> Tensor:
    """Apply the MLP stored under `name`; LayerNorm iff it was initialized with one."""
    x = as_tensor(x)
    if x.data.shape[-1] != params[f"{name}.w0"].data.shape[0]:
        raise _shape_err(f"mlp_apply[{name}]", x.data.shape,
                         params[f"{name}.w0"].data.shape)
    h = x
    for i in range(3):
        h = add(matmul(h, params[f"{name}.w{i}"]), params[f"{name}.b{i}"])
        if i < 2:
            h = relu(h)
    if f"{name}.ln_gain" in params:
        h = layer_norm(h, params[f"{name}.ln_gain"], params[f"{name}.ln_bias"])
    return h


# -- gradient checking -----------------------------------------------------

def grad_check(f: Callable[[], Tensor], params: ModelParams, h: float = 1e-5,
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
    backward(loss)
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
            with no_grad():
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
