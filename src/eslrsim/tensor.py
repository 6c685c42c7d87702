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
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ValidationError

CHECKPOINT_MAGIC = b"ESLR-CKPT1\n"

# Toggled by no_grad(); when False, ops do not record parents or closures.
_GRAD_ENABLED = True


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


def linear(x, w, b) -> Tensor:
    """`x @ w + b` as one op; the bias is added in place to the product, so the
    values equal those of `add(matmul(x, w), b)`."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise _shape_err("linear", x.data.shape, w.data.shape)
    y = x.data @ w.data
    y += b.data
    return _node(y, (x, w, b), "linear",
                 lambda g: (g @ w.data.T if x.requires_grad else None,
                            x.data.T @ g if w.requires_grad else None, g))


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


class Incidence:
    """Which of `n` segments each row of a (R, ...) array belongs to, for
    deterministic segment sums that can be built once and reused.

    `sum(values)` starts every segment at 0.0 and adds its rows in ascending
    row order, the order `np.bincount` adds in, so its results are
    bit-identical to a bincount scatter, signed zeros included. Rows are
    grouped by segment and segments visited in descending size: step k adds
    the k-th row of every segment with more than k rows in one gather,
    `acc[:m_k] += values[rows_k]`, and one last gather puts the segments back
    in id order. The loop runs as many times as the largest segment has rows;
    for a mesh incidence that is the largest vertex degree (at most 12 on the
    meshes used here). The grouping is made on first use and kept.
    """

    def __init__(self, ids, n: int):
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 1:
            raise ValueError(f"Incidence: ids must be 1-d, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError("segment id out of range")
        self.ids = ids
        self.n = n

    @cached_property
    def counts(self) -> np.ndarray:
        """Rows per segment."""
        return np.bincount(self.ids, minlength=self.n)

    @cached_property
    def steps(self) -> list[np.ndarray]:
        """Step k: the k-th row of each segment with more than k rows, for
        segments in `order`."""
        sizes = self.counts[self.order]
        by_segment = np.argsort(self.ids, kind="stable")  # rows ascending per segment
        starts = (np.cumsum(self.counts) - self.counts)[self.order]
        return [by_segment[starts[:np.count_nonzero(sizes > k)] + k]
                for k in range(sizes[0] if self.n else 0)]

    @cached_property
    def order(self) -> np.ndarray:
        """Segments by descending size; ties in id order."""
        return np.argsort(-self.counts, kind="stable")

    @cached_property
    def inverse(self) -> np.ndarray:
        """Position of each segment in `order`: `acc[inverse]` is in id order."""
        inv = np.empty(self.n, dtype=np.intp)
        inv[self.order] = np.arange(self.n)
        return inv

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-segment sums of the rows of `values`; empty segments are 0.0."""
        if values.shape[0] != self.ids.shape[0]:
            raise _shape_err("Incidence.sum", values.shape, self.ids.shape)
        acc = np.zeros((self.n,) + values.shape[1:])
        for rows in self.steps:
            acc[:len(rows)] += values[rows]
        return acc[self.inverse]


def _incidence(op: str, segment_ids, n: int) -> Incidence:
    """`segment_ids` as an Incidence over `n` segments."""
    if not isinstance(segment_ids, Incidence):
        try:
            return Incidence(segment_ids, n)
        except ValueError as e:
            raise ValueError(f"{op}: {e}") from None
    if segment_ids.n != n:
        raise ValueError(f"{op}: incidence has {segment_ids.n} segments, expected {n}")
    return segment_ids


def gather_rows(a, index) -> Tensor:
    """Rows `a[index]`; `index` is an id array or an Incidence over a's rows,
    whose sum is the backward scatter."""
    a = as_tensor(a)
    inc = _incidence("gather_rows", index, a.data.shape[0])
    return _node(a.data[inc.ids], (a,), "gather_rows", lambda g: (inc.sum(g),))


def segment_sum(values, segment_ids, n_segments: int) -> Tensor:
    """Sum rows of `values` into `n_segments` buckets; empty segments are zero.
    `segment_ids` is an id per row or a prebuilt Incidence."""
    values = as_tensor(values)
    inc = _incidence("segment_sum", segment_ids, n_segments)
    if inc.ids.shape[0] != values.data.shape[0]:
        raise _shape_err("segment_sum", values.data.shape, inc.ids.shape)
    return _node(inc.sum(values.data), (values,), "segment_sum",
                 lambda g: (g[inc.ids],))


def segment_mean(values, segment_ids, n_segments: int) -> Tensor:
    """Per-segment mean; segments of size 0 yield zeros by convention.
    `segment_ids` is an id per row or a prebuilt Incidence."""
    values = as_tensor(values)
    inc = _incidence("segment_mean", segment_ids, n_segments)
    safe = np.maximum(inc.counts, 1.0)
    summed = inc.sum(values.data)
    denom = safe if summed.ndim == 1 else safe[:, None]
    return _node(summed / denom, (values,), "segment_mean",
                 lambda g: ((g / denom)[inc.ids],))


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
    """Read a checkpoint; returns (name -> array, header dict). A file that is
    not a well-formed checkpoint raises ValidationError."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != CHECKPOINT_MAGIC:
            raise ValidationError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ValidationError(f"{path}: unreadable header: {e}") from None
        entries = header.get("params") if isinstance(header, dict) else None
        if not isinstance(entries, list) or not all(_is_param_entry(e) for e in entries):
            raise ValidationError(
                f"{path}: header needs 'params', a list of {{name, shape}} entries "
                f"with non-negative integer dimensions")
        seed = header.get("seed")
        if type(seed) is not int or seed < 0:
            raise ValidationError(
                f"{path}: header field 'seed' must be a non-negative integer, got {seed!r}")
        state: dict[str, np.ndarray] = {}
        for entry in entries:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValidationError(f"{path}: truncated block for '{entry['name']}'")
            state[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return state, header


def _is_param_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in entry["shape"]))


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
        h = linear(h, params[f"{name}.w{i}"], params[f"{name}.b{i}"])
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
