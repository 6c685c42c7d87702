"""Dense float32/float64 tensors with reverse-mode automatic differentiation.

Every op makes its output through `_node(data, parents, op_name, vjp)`. When
any parent requires a gradient, the output records its parents and `vjp`, its
vector-Jacobian product: `vjp(g)` maps the gradient `g` of the output to one
gradient per parent, in parent order, or `None` for a parent that needs none.
A gradient may have the output's broadcast shape; `backward()` sums it back to
the parent's shape. `vjp` must not refer to the output tensor, so a tape holds
no reference cycles and is freed by reference counting. Fused ops (`mlp_apply`,
one node per MLP call; `row_norm`; `gsa.gsa_block`, one node per attention
block) run the separate ops' expressions, keeping only what their vjp needs;
a parent listed twice gets its gradients in the listed order, the order the
separate ops accumulated them. An array inside a fused op that fed two of its
ops gets its two gradients summed, which no order of addition changes.

`backward()` walks the implicit tape in reverse topological order and is the
only place gradients are accumulated. Backward consumes the tape: after a
node's vjp has run, the node drops its vjp, parents and gradient, so
activations are freed during the sweep; leaves keep their gradients, and a
second `backward()` through a consumed tape raises. Every reduction runs in a
fixed (ascending-index) order, so replaying the same computation is
bit-identical.

The dtype follows the data: a `Tensor` keeps float32 and float64 input and
makes anything else float64, and every op computes in numpy's promotion of
its inputs. Training and its parameters are float64; `ModelParams.astype`
makes the float32 copy that a rollout runs (see `sim`).

Without a tape, `mlp_apply` runs a hidden-width MLP over blocks of 512 rows
(`row_blocks`) and makes each block's input when it needs it, so no whole
concatenated input or hidden activation exists. OpenBLAS 0.3.31 gave row
blocks of `x @ W` with 64 output columns the whole product's bits at every
size probed, but not 1-row blocks, 3-column products (so the decoder runs as
one block) or `(n, 36) @ (36, 12)` from n = 2,432: an untaped step keeps the
taped step's bytes at the sizes and widths the tests check, and at other
widths can differ from it in the last bits.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import container
from .errors import ValidationError

CHECKPOINT_MAGIC = b"ESLR-CKPT1\n"

# Toggled by no_grad(); when False, ops do not record parents or closures.
_GRAD_ENABLED = True
_FLOATS = (np.float32, np.float64)  # the dtypes a Tensor keeps
_ROW_BLOCK = 512  # rows per block of an untaped MLP, see the module docstring


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
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._vjp: Callable | None = None
        self._prev: tuple[Tensor, ...] = ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


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

def pow_scalar(a, p: float) -> Tensor:
    a = as_tensor(a)
    return _node(a.data ** p, (a,), "pow", lambda g: (g * p * a.data ** (p - 1),))


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

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise _shape_err("matmul", a.data.shape, b.data.shape)
    return _node(a.data @ b.data, (a, b), "matmul",
                 lambda g: (g @ b.data.T if a.requires_grad else None,
                            a.data.T @ g if b.requires_grad else None))


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)

    return _node(a.data[..., start:stop], (a,), "slice_cols", vjp)


class Incidence:
    """Which of `n` segments each row of an incidence belongs to, for
    deterministic segment sums that can be built once and reused. Incidence
    row r reads row `rows[r]` of the values (row r itself without a row map),
    so a sum can route value rows to segments without gathering them first.

    `sum(values)` starts every segment at 0.0 and adds its rows in ascending
    incidence-row order, the order `np.bincount` adds in, so its results are
    bit-identical to a bincount scatter of `values[rows]`, signed zeros
    included. Rows are grouped by segment and segments visited in descending
    size: step k adds the k-th row of every segment with more than k rows in
    one gather, `acc[:m_k] += values[steps[k]]`, and one last gather puts the
    segments back in id order (`add_steps`). The loop runs as many times as
    the largest segment has rows; for a mesh incidence that is the largest
    vertex degree (at most 12 on the meshes used here). The grouping is made
    on first use and kept.
    """

    def __init__(self, ids, n: int, rows=None):
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 1:
            raise ValueError(f"Incidence: ids must be 1-d, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError("segment id out of range")
        if rows is not None:
            rows = np.asarray(rows, dtype=np.intp)
            if rows.shape != ids.shape or (rows.size and rows.min() < 0):
                raise ValueError("Incidence: rows must be one index >= 0 per id")
        self.ids = ids
        self.n = n
        self.rows = rows

    @cached_property
    def counts(self) -> np.ndarray:
        """Rows per segment."""
        return np.bincount(self.ids, minlength=self.n)

    @cached_property
    def steps(self) -> list[np.ndarray]:
        """Step k: the value rows of the k-th incidence row of each segment
        with more than k rows, for segments in `order`."""
        sizes = self.counts[self.order]
        by_segment = np.argsort(self.ids, kind="stable")  # rows ascending per segment
        if self.rows is not None:
            by_segment = self.rows[by_segment]
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

    def add_steps(self, parts, like: np.ndarray) -> np.ndarray:
        """Per-segment sums of `parts`, one (m_k,) + like.shape[1:] block of
        like's dtype per step (the step's rows, gathered or built by the
        caller); empty segments are 0.0."""
        acc = np.zeros((self.n,) + like.shape[1:], like.dtype)
        for part in parts:
            acc[:len(part)] += part
            del part  # holding two parts at once made a 2k incident sum ~25 % slower
        return acc[self.inverse]

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-segment sums of the rows of `values`; empty segments are 0.0."""
        if self.rows is None:
            fits = values.shape[0] == self.ids.shape[0]
        else:  # every mapped row must exist
            fits = values.shape[0] > self.rows.max(initial=-1)
        if not fits:
            raise _shape_err("Incidence.sum", values.shape, self.ids.shape)
        return self.add_steps((values[rows] for rows in self.steps), values)


def _incidence(op: str, segment_ids, n: int) -> Incidence:
    """`segment_ids` as an Incidence over `n` segments, one id per value row."""
    if not isinstance(segment_ids, Incidence):
        try:
            return Incidence(segment_ids, n)
        except ValueError as e:
            raise ValueError(f"{op}: {e}") from None
    if segment_ids.n != n:
        raise ValueError(f"{op}: incidence has {segment_ids.n} segments, expected {n}")
    if segment_ids.rows is not None:
        raise ValueError(f"{op}: incidence has a row map")
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


def _normalize(y: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """LayerNorm's `xhat`, made from the rows of `y` in place, and `inv` (1/std)."""
    y -= y.mean(axis=-1, keepdims=True)
    var = np.einsum("...i,...i->...", y, y)[..., None] / y.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    y *= inv
    return y, inv


def _layer_norm_dx(g, gain, xhat, inv) -> np.ndarray:
    dxhat = g * gain
    return (dxhat - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv


def row_norm(a) -> Tensor:
    """Euclidean norm of each row of an (n, d) array, shape (n, 1), as one op
    with parents `(a, a)`: the bytes of `sqrt(tsum(mul(a, a)))`."""
    a = as_tensor(a)
    root = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    return _node(root, (a, a), "row_norm", lambda g: (g * 0.5 / root * a.data,) * 2)


def dot_rows(a, b) -> Tensor:
    """Row-wise dot product of two (n, d) arrays, shape (n, 1)."""
    return tsum(mul(a, b), axis=-1, keepdims=True)


# -- backward pass ---------------------------------------------------------

def _consumed(g):
    raise RuntimeError("backward: this tape was consumed by an earlier backward()")


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss into the leaves' .grad; consumes the tape."""
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
    while topo:
        node = topo.pop()
        if node._vjp is None:  # a leaf keeps its gradient
            continue
        for p, g in zip(node._prev, node._vjp(node.grad)):
            if g is not None and p.requires_grad:
                _accumulate(p, _unbroadcast(g, p.data.shape))
        node.grad, node._vjp, node._prev = None, _consumed, ()


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

    def astype(self, dtype) -> ModelParams:
        """Every parameter cast to `dtype` (an array already of `dtype` is
        shared, not copied), names and shapes kept. A finite value that the
        cast makes infinite raises ValidationError naming its parameter, the
        first one in storage order."""
        out = ModelParams()
        with np.errstate(over="ignore"):
            for name, t in self._params.items():
                data = t.data.astype(dtype, copy=False)
                if np.any(np.isinf(data) & np.isfinite(t.data)):
                    raise ValidationError(f"parameter '{name}' holds a value beyond "
                                          f"the range of {np.dtype(dtype).name}")
                out._params[name] = Tensor(data, requires_grad=t.requires_grad)
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, arr in state.items():
            t = self._params[name]
            if t.data.shape != arr.shape:
                raise ValidationError(f"parameter '{name}' has shape {arr.shape}, "
                                      f"the model expects {t.data.shape}")
            t.data = np.array(arr, dtype=np.float64)


# -- checkpoint file format ------------------------------------------------
# A container file (see `container`): the header holds the config echo,
# iteration, seed and the parameter names and shapes in storage order; the
# blocks are the parameters.

def save_checkpoint(path, params: ModelParams, config: dict, iteration: int,
                    seed: int) -> None:
    header = {
        "config": config,
        "iteration": int(iteration),
        "seed": int(seed),
        "params": [{"name": n, "shape": list(t.data.shape)} for n, t in params.items()],
    }
    container.write(path, CHECKPOINT_MAGIC, header, (t.data for _, t in params.items()))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (name -> array, header dict). A file that is
    not a well-formed checkpoint raises ValidationError."""
    header, state = container.read(path, CHECKPOINT_MAGIC, "a checkpoint",
                                   _checkpoint_layout)
    return state, header


def _checkpoint_layout(header: dict) -> dict[str, tuple[int, ...]]:
    entries = header.get("params")
    shapes: dict[str, tuple[int, ...]] = {}
    for e in entries if isinstance(entries, list) else [None]:  # None: no list
        if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                and e["name"] not in shapes and isinstance(e.get("shape"), list)
                and all(container.is_count(d) for d in e["shape"])):
            raise ValidationError(
                "header needs 'params', a list of {name, shape} entries with "
                "unique names and non-negative integer dimensions")
        shapes[e["name"]] = tuple(e["shape"])
    if not container.is_count(header.get("seed")):
        raise ValidationError(f"header field 'seed' must be a non-negative integer, "
                              f"got {header.get('seed')!r}")
    return shapes


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


def row_blocks(n: int) -> list[slice]:
    """`n` rows in blocks of `_ROW_BLOCK`, a shorter tail joined to the last:
    each block has 512-1,023 rows, or all rows when n < 1,024."""
    k = max(n // _ROW_BLOCK, 1 if n else 0)
    return [slice(i * _ROW_BLOCK, n if i == k - 1 else (i + 1) * _ROW_BLOCK)
            for i in range(k)]


def _mlp_forward(p: list[Tensor], x: np.ndarray, keep: bool):
    """The MLP's arithmetic on the rows of `x`: `(y, ins, xhat, inv)`, with
    `ins` the input of each linear layer if `keep`, else empty, and `xhat`
    and `inv` those of the LayerNorm, if there is one."""
    ins = [x]
    for i in range(3):
        y = ins[-1] @ p[2 * i].data
        y += p[2 * i + 1].data
        ins = ins if keep else []
        if i < 2:
            ins.append(np.maximum(y, 0.0, out=y))
    xhat = inv = None
    if len(p) > 6:
        xhat, inv = _normalize(y, 1e-5)
        y = xhat * p[6].data + p[7].data
    return y, ins, xhat, inv


def mlp_apply(params: ModelParams, name: str, x, residual=None) -> Tensor:
    """Apply the MLP stored under `name` (linear, relu, linear, relu, linear,
    LayerNorm iff it was initialized with one), plus `residual` if given, as
    one tape op with parents `(residual, *inputs, *parameters)`. It keeps the
    input, both ReLU outputs (`a > 0` equals `relu(a) > 0`), `xhat` and `inv`.
    `x` is a tensor, or a list of `(tensor, rows)` parts whose columns make
    the input: all rows (`rows` None) or the rows an Incidence gathers, whose
    sum is the backward scatter. Without a tape, see the module docstring."""
    parts = x if isinstance(x, list) else [(as_tensor(x), None)]
    p = [params[f"{name}.{k}"] for k in ("w0", "b0", "w1", "b1", "w2", "b2", "ln_gain",
                                          "ln_bias") if f"{name}.{k}" in params]
    widths = [t.data.shape[-1] if t.data.ndim == 2 else -1 for t, _ in parts]
    if -1 in widths or sum(widths) != p[0].data.shape[0]:
        raise _shape_err(f"mlp_apply[{name}]", *(t.data.shape for t, _ in parts),
                         p[0].data.shape)

    def build(rows):
        cols = [t.data[rows] if inc is None else t.data[inc.ids[rows]] for t, inc in parts]
        return cols[0] if len(cols) == 1 else np.concatenate(cols, axis=-1)

    t0, inc0 = parts[0]
    parents = ([] if residual is None else [residual]) + [t for t, _ in parts]
    if not _GRAD_ENABLED:
        n, w = (t0.data.shape[0] if inc0 is None else len(inc0.ids)), p[4].data
        out = np.empty((n, w.shape[1]), np.result_type(*(t.data for t in parents + p)))
        for rows in row_blocks(n) if w.shape[0] == w.shape[1] else [slice(0, n)]:
            out[rows] = _mlp_forward(p, build(rows), keep=False)[0]
            if residual is not None:
                out[rows] += residual.data[rows]
        return _node(out, parents, "mlp", None)
    y, ins, xhat, inv = _mlp_forward(p, build(slice(None)), keep=True)
    if residual is not None:
        y += residual.data

    def vjp(g):
        head = [] if residual is None else [g]
        grads = []
        if len(p) > 6:
            grads = [g * xhat, g]
            g = _layer_norm_dx(g, p[6].data, xhat, inv)
        for i in (2, 1, 0):
            grads[:0] = [ins[i].T @ g, g]
            if i:
                g = (g @ p[2 * i].data.T) * (ins[i] > 0.0)
        g_x = [None] * len(parts)
        if any(t.requires_grad for t, _ in parts):
            g_x = np.split(g @ p[0].data.T, np.cumsum(widths)[:-1], axis=-1)
        return head + [gi if gi is None or inc is None else inc.sum(gi)
                       for gi, (_, inc) in zip(g_x, parts)] + grads

    return _node(y, parents + p, "mlp", vjp)
