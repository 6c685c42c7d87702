import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eslrsim import tensor as T
from eslrsim.errors import ValidationError
from support import exp, grad_check, layer_norm, sqrt, unfused_row_norm


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f(x) w.r.t. array x."""
    g = np.zeros_like(x)
    for j in range(x.size):
        orig = x.flat[j]
        x.flat[j] = orig + h
        fp = f(x)
        x.flat[j] = orig - h
        fm = f(x)
        x.flat[j] = orig
        g.flat[j] = (fp - fm) / (2 * h)
    return g


def check_op(op_tape, op_np, shape, rng, rel_tol=1e-6, shift=0.0):
    """FD-check a unary tape op against its numpy forward."""
    x = rng.standard_normal(shape) + shift
    xt = T.Tensor(x.copy(), requires_grad=True)
    out = T.tsum(T.mul(op_tape(xt), T.Tensor(rng.standard_normal(np.shape(op_np(x))))))
    # fixed weights so the scalar is generic
    weights = out._prev[0]._prev[1].data if out._prev else None
    T.backward(out)

    def scalar(arr):
        return float((op_np(arr) * weights).sum())

    num = fd_grad(scalar, x.copy())
    denom = np.maximum(np.maximum(np.abs(num), np.abs(xt.grad)), 1e-8)
    assert np.max(np.abs(num - xt.grad) / denom) <= rel_tol


class TestPrimitives:
    def test_add_broadcast(self):
        a = T.Tensor(np.ones((3, 4)), requires_grad=True)
        b = T.Tensor(np.arange(4.0), requires_grad=True)
        out = T.tsum(T.add(a, b))
        T.backward(out)
        assert np.array_equal(a.grad, np.ones((3, 4)))
        assert np.array_equal(b.grad, np.full(4, 3.0))

    def test_segment_sum_value(self):
        out = T.segment_sum(T.Tensor([1.0, 2.0, 3.0]), [0, 0, 1], 2)
        assert np.array_equal(out.data, [3.0, 3.0])

    def test_segment_mean_empty_segment_is_zero(self):
        out = T.segment_mean(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), [0, 0], 3)
        assert np.array_equal(out.data, [[2.0, 3.0], [0.0, 0.0], [0.0, 0.0]])

    def test_segment_sum_grad(self):
        v = T.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = T.segment_sum(v, [1, 0, 1], 2)
        T.backward(T.tsum(T.mul(out, out)))
        ref = 2 * out.data[[1, 0, 1]]
        assert np.allclose(v.grad, ref)

    def test_matmul_grad_matches_fd(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        w = rng.standard_normal((3, 2))
        at = T.Tensor(a.copy(), requires_grad=True)
        bt = T.Tensor(b.copy(), requires_grad=True)
        wt = T.Tensor(w)  # constant operand: no gradient
        T.backward(T.tsum(T.mul(T.matmul(at, bt), wt)))
        ga = fd_grad(lambda x: float(((x @ b) * w).sum()), a.copy())
        gb = fd_grad(lambda x: float(((a @ x) * w).sum()), b.copy())
        assert np.max(np.abs(ga - at.grad)) / np.abs(ga).max() <= 1e-7
        assert np.max(np.abs(gb - bt.grad)) / np.abs(gb).max() <= 1e-7
        assert wt.grad is None

    def test_matmul_shape_error_names_op(self):
        with pytest.raises(ValueError, match="matmul"):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))

    def test_layer_norm_grad(self):
        # the program's `_normalize` and `_layer_norm_dx`, which the MLP and
        # the GSA block share, as one LayerNorm op
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 8))
        gain = rng.standard_normal(8)
        bias = rng.standard_normal(8)
        w = rng.standard_normal((5, 8))
        xt = T.Tensor(x.copy(), requires_grad=True)
        gt = T.Tensor(gain.copy(), requires_grad=True)
        bt = T.Tensor(bias.copy(), requires_grad=True)
        T.backward(T.tsum(T.mul(layer_norm(xt, gt, bt), T.Tensor(w))))

        def ln(xa, ga, ba):
            mu = xa.mean(-1, keepdims=True)
            var = ((xa - mu) ** 2).mean(-1, keepdims=True)
            return (xa - mu) / np.sqrt(var + 1e-5) * ga + ba

        gx = fd_grad(lambda a: float((ln(a, gain, bias) * w).sum()), x.copy())
        gg = fd_grad(lambda a: float((ln(x, a, bias) * w).sum()), gain.copy())
        gb = fd_grad(lambda a: float((ln(x, gain, a) * w).sum()), bias.copy())
        for num, got in ((gx, xt.grad), (gg, gt.grad), (gb, bt.grad)):
            denom = np.maximum(np.maximum(np.abs(num), np.abs(got)), 1e-8)
            assert np.max(np.abs(num - got) / denom) <= 1e-6

    def test_smooth_unary_ops_fd(self):
        rng = np.random.default_rng(2)
        check_op(exp, np.exp, (4, 3), rng)  # the oracle of the fused `gsa._phi`
        check_op(sqrt, np.sqrt, (4, 3), rng, shift=3.0)  # the oracle of `row_norm`
        check_op(T.row_norm, lambda x: np.sqrt((x * x).sum(axis=-1, keepdims=True)),
                 (4, 3), rng)
        check_op(lambda x: T.pow_scalar(x, 3), lambda x: x ** 3, (4, 3), rng)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_norm_equals_unfused_ops_bitwise(self, dtype):
        """Value and gradient; the input takes a third gradient from another
        op, so the order of `row_norm`'s two contributions against it shows."""
        rng = np.random.default_rng(5)
        a0 = rng.standard_normal((40, 3)).astype(dtype)
        a0[3] = 0.0  # a zero row: the separate ops' 0/0 gradient, nan
        w, u = (T.Tensor(rng.standard_normal(s).astype(dtype)) for s in ((40, 1), (40, 3)))
        results = []
        for norm in (T.row_norm, unfused_row_norm):
            base = T.Tensor(a0.copy(), requires_grad=True)
            a = T.mul(base, np.asarray(1.5, dtype))
            with np.errstate(divide="ignore", invalid="ignore"):
                T.backward(T.add(T.tsum(T.mul(a, u)), T.tsum(T.mul(norm(a), w))))
            results.append((norm(a).data.tobytes(), base.grad.dtype, base.grad.tobytes()))
        assert results[0] == results[1] and results[0][1] == dtype

    def test_row_norm_is_one_node_with_its_input_twice(self):
        a = T.Tensor(np.ones((2, 3)), requires_grad=True)
        assert T.row_norm(a)._prev == (a, a)

    def test_relu_grad_away_from_zero(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 2))
        x[np.abs(x) < 0.1] += 0.2  # keep away from the subgradient point
        check_op(T.relu, lambda a: np.maximum(a, 0), (6, 2),
                 np.random.default_rng(3))

    def test_atan2_grad(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(5) + 2.0
        x = rng.standard_normal(5) + 2.0
        yt = T.Tensor(y.copy(), requires_grad=True)
        xt = T.Tensor(x.copy(), requires_grad=True)
        T.backward(T.tsum(T.atan2(yt, xt)))
        gy = fd_grad(lambda a: float(np.arctan2(a, x).sum()), y.copy())
        gx = fd_grad(lambda a: float(np.arctan2(y, a).sum()), x.copy())
        assert np.allclose(gy, yt.grad, rtol=1e-6)
        assert np.allclose(gx, xt.grad, rtol=1e-6)

    def test_cross3_grad(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 3))
        at = T.Tensor(a.copy(), requires_grad=True)
        bt = T.Tensor(b.copy(), requires_grad=True)
        T.backward(T.tsum(T.mul(T.cross3(at, bt), T.Tensor(w))))
        ga = fd_grad(lambda x: float((np.cross(x, b) * w).sum()), a.copy())
        gb = fd_grad(lambda x: float((np.cross(a, x) * w).sum()), b.copy())
        assert np.allclose(ga, at.grad, rtol=1e-6, atol=1e-9)
        assert np.allclose(gb, bt.grad, rtol=1e-6, atol=1e-9)

    def test_huber_norm_forward_and_grad(self):
        delta = 0.5
        x = np.array([[0.1, 0.0, 0.0], [3.0, 4.0, 0.0]])
        xt = T.Tensor(x.copy(), requires_grad=True)
        out = T.huber_norm(xt, delta)
        assert np.allclose(out.data, [0.01 / (2 * delta), 5.0 - delta / 2])
        T.backward(T.tsum(out))
        num = fd_grad(lambda a: float(
            np.where(np.linalg.norm(a, axis=1) <= delta,
                     (a * a).sum(1) / (2 * delta),
                     np.linalg.norm(a, axis=1) - delta / 2).sum()), x.copy())
        assert np.allclose(num, xt.grad, rtol=1e-6)

    def test_gather_and_slice(self):
        x = T.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = T.slice_cols(T.gather_rows(x, [2, 2, 0]), 1, 3)
        T.backward(T.tsum(out))
        expected = np.zeros((4, 3))
        expected[2, 1:] = 2.0
        expected[0, 1:] = 1.0
        assert np.array_equal(x.grad, expected)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        p = T.Tensor(np.arange(5.0), requires_grad=True)
        T.backward(T.tsum(p))
        assert np.array_equal(p.grad, np.ones(5))

    def test_unreachable_parameter_gets_zero(self):
        params = T.ModelParams()
        a = params.add("a", np.ones(3))
        params.add("b", np.ones(2))
        T.backward(T.tsum(T.mul(a, a)))
        grads = params.grads()
        assert np.array_equal(grads["a"], 2 * np.ones(3))
        assert np.array_equal(grads["b"], np.zeros(2))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            T.backward(T.Tensor(np.ones(2), requires_grad=True))

    def test_diamond_graph_accumulates(self):
        x = T.Tensor(2.0, requires_grad=True)
        y = T.add(T.mul(x, x), T.mul(x, 3.0))  # x^2 + 3x -> grad 2x+3 = 7
        T.backward(y)
        assert float(x.grad) == 7.0

    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 4))
        w = rng.standard_normal((4, 4))

        def run():
            xt = T.Tensor(x, requires_grad=True)
            wt = T.Tensor(w)  # constant operand: no gradient
            out = T.tsum(T.relu(T.matmul(xt, wt)))
            T.backward(out)
            assert wt.grad is None
            return out.data.copy(), xt.grad.copy()

        o1, g1 = run()
        o2, g2 = run()
        assert o1.tobytes() == o2.tobytes()
        assert g1.tobytes() == g2.tobytes()

    def test_tape_freed_by_reference_counting(self):
        gc.disable()
        try:
            x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
            hidden = T.relu(T.mul(x, 2.0))
            hidden_data = weakref.ref(hidden.data)
            loss = T.tsum(T.mul(hidden, hidden))
            del hidden
            T.backward(loss)
            del loss
            assert hidden_data() is None
        finally:
            gc.enable()

    def test_no_grad_builds_no_tape(self):
        p = T.Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            out = T.mul(p, 2.0)
        assert out._prev == () and not out.requires_grad


class TestMLP:
    def test_zero_weights_zero_output_pre_norm(self):
        params = T.ModelParams()
        rng = np.random.default_rng(0)
        T.mlp_init(params, "m", 4, 8, 3, rng)
        for name, t in params.items():
            t.data = np.zeros_like(t.data)
        out = T.mlp_apply(params, "m", T.Tensor(np.ones((2, 4))))
        assert np.array_equal(out.data, np.zeros((2, 3)))

    def test_identity_single_linear(self):
        # identity-configured final layer with pass-through hidden layers
        params = T.ModelParams()
        rng = np.random.default_rng(0)
        T.mlp_init(params, "m", 3, 3, 3, rng)
        eye = np.eye(3)
        for i in range(3):
            params[f"m.w{i}"].data = eye.copy()
            params[f"m.b{i}"].data = np.zeros(3)
        x = np.abs(np.random.default_rng(1).standard_normal((5, 3)))  # relu-safe
        out = T.mlp_apply(params, "m", T.Tensor(x))
        assert np.allclose(out.data, x)

    def test_mlp_jacobian_matches_fd(self):
        params = T.ModelParams()
        rng = np.random.default_rng(3)
        T.mlp_init(params, "m", 4, 6, 2, rng, norm=True)
        x = T.Tensor(rng.standard_normal((3, 4)))
        w = T.Tensor(rng.standard_normal((3, 2)))
        report = grad_check(lambda: T.tsum(T.mul(T.mlp_apply(params, "m", x), w)),
                            params)
        assert max(report.values()) <= 1e-6

    @pytest.mark.parametrize("n", [5248, 6184])
    def test_untaped_decoder_equals_taped_bitwise(self, n):
        """A 3-wide MLP runs as one block. From 5,248 rows OpenBLAS rounds 512-row
        blocks of its (n, 64) @ (64, 3) product differently from the whole."""
        params = T.ModelParams()
        rng = np.random.default_rng(4)
        T.mlp_init(params, "m", 64, 64, 3, rng)
        x = T.Tensor(rng.standard_normal((n, 64)))
        taped = T.mlp_apply(params, "m", x)
        assert taped.requires_grad
        with T.no_grad():
            untaped = T.mlp_apply(params, "m", x)
        assert untaped.data.tobytes() == taped.data.tobytes()

    def test_width_mismatch(self):
        params = T.ModelParams()
        T.mlp_init(params, "m", 4, 6, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="mlp_apply"):
            T.mlp_apply(params, "m", T.Tensor(np.ones((2, 5))))


@pytest.mark.parametrize("n, bounds", [
    (0, []), (1, [(0, 1)]), (511, [(0, 511)]), (1023, [(0, 1023)]),
    (1024, [(0, 512), (512, 1024)]),
    (6184, [(i, i + 512) for i in range(0, 5632, 512)] + [(5632, 6184)])])
def test_row_blocks_fold_a_short_tail_into_the_last_block(n, bounds):
    assert [(b.start, b.stop) for b in T.row_blocks(n)] == bounds


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tensor_keeps_float32_and_float64(self, dtype):
        a = np.ones((2, 3), dtype)
        assert T.Tensor(a).data is a

    @pytest.mark.parametrize("value", [np.arange(3), np.array([True, False]), 2, 1.5,
                                       [1, 2], np.ones(2, np.float16),
                                       np.ones(2, ">f8")])
    def test_tensor_makes_anything_else_float64(self, value):
        data = T.Tensor(value).data
        assert data.dtype == np.dtype(np.float64)
        assert np.array_equal(data, np.asarray(value, dtype=np.float64))

    def test_ops_follow_the_data(self):
        a = T.Tensor(np.ones((2, 2), np.float32))
        assert T.matmul(a, a).data.dtype == np.float32
        assert T.row_norm(a).data.dtype == np.float32
        # a Python float becomes a float64 Tensor, so it promotes like an array
        assert T.mul(a, 2.0).data.dtype == np.float64
        assert T.add(a, np.ones((2, 2))).data.dtype == np.float64

    def test_incidence_sum_keeps_the_values_dtype(self):
        inc = T.Incidence([0, 2, 0], 3)
        for dtype in (np.float32, np.float64):
            values = np.arange(6, dtype=dtype).reshape(3, 2)
            got = inc.sum(values)
            assert got.dtype == dtype
            assert np.array_equal(got, [[4, 6], [0, 0], [2, 3]])

    def test_untaped_mlp_output_follows_its_inputs(self):
        params = T.ModelParams()
        T.mlp_init(params, "m", 4, 8, 8, np.random.default_rng(0), norm=True)
        p32 = params.astype(np.float32)
        x = np.random.default_rng(1).standard_normal((5, 4))
        with T.no_grad():
            assert T.mlp_apply(p32, "m", T.Tensor(x.astype(np.float32))).data.dtype == np.float32
            empty = T.mlp_apply(p32, "m", T.Tensor(np.zeros((0, 4), np.float32)))
            assert empty.data.dtype == np.float32 and empty.data.shape == (0, 8)
            assert T.mlp_apply(params, "m", T.Tensor(x)).data.dtype == np.float64

    def test_astype_keeps_names_and_shapes(self):
        params = T.ModelParams()
        T.mlp_init(params, "m", 3, 4, 2, np.random.default_rng(2), norm=True)
        params.add("scale", np.array([np.inf]))
        cast = params.astype(np.float32)
        assert cast.names() == params.names()
        for name, t in cast.items():
            src = params[name].data
            assert t.data.dtype == np.float32 and t.data.shape == src.shape
            assert np.array_equal(t.data, src.astype(np.float32))
            assert t.requires_grad and src.dtype == np.float64
        cast["m.w0"].data[...] = 0.0  # a copy: the source keeps its values
        assert np.any(params["m.w0"].data)

    def test_astype_names_the_first_value_float32_cannot_hold(self):
        params = T.ModelParams()
        params.add("ok", np.array([3e38, -np.inf, np.nan]))
        params.add("big", np.array([1.0, 1e39]))
        params.add("bigger", np.array([-1e300]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="'big' holds a value beyond "
                                                      "the range of float32"):
                params.astype(np.float32)


class TestGradCheck:
    def test_quadratic(self):
        params = T.ModelParams()
        x = params.add("x", np.array([3.0]))
        # central differences are exact for quadratics, so a larger h avoids
        # the f64 roundoff floor entirely
        report = grad_check(lambda: T.tsum(T.mul(x, x)), params, h=1e-3)
        assert report["x"] <= 1e-10

    def test_zero_grad_for_independent_loss(self):
        params = T.ModelParams()
        params.add("x", np.array([3.0]))
        y = T.Tensor(np.array([2.0]), requires_grad=True)
        params.zero_grad()
        T.backward(T.tsum(y))
        assert np.array_equal(params.grads()["x"], np.zeros(1))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = T.ModelParams()
        rng = np.random.default_rng(0)
        T.mlp_init(params, "enc", 3, 4, 4, rng, norm=True)
        params.add("scale", np.array([1.5]))
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, params, {"hidden_dim": 4}, iteration=7, seed=42)
        state, header = T.load_checkpoint(path)
        assert header["iteration"] == 7 and header["seed"] == 42
        assert header["config"] == {"hidden_dim": 4}
        for name, t in params.items():
            assert state[name].tobytes() == t.data.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        def write(path):
            params = T.ModelParams()
            T.mlp_init(params, "enc", 3, 4, 4, np.random.default_rng(5))
            T.save_checkpoint(path, params, {"a": 1}, 0, 5)
            return path.read_bytes()

        assert write(tmp_path / "a.ckpt") == write(tmp_path / "b.ckpt")

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOPE\n{}\n")
        with pytest.raises(ValueError, match="magic"):
            T.load_checkpoint(p)


@st.composite
def _array2d(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 4))
    vals = draw(st.lists(st.floats(-3, 3), min_size=rows * cols, max_size=rows * cols))
    return np.array(vals).reshape(rows, cols)


@given(_array2d(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_elementwise_ops_fd_property(x, seed):
    """Smooth elementwise primitives pass FD on randomized shapes."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(x.shape)
    xt = T.Tensor(x.copy(), requires_grad=True)
    T.backward(T.tsum(T.mul(T.pow_scalar(xt, 2), T.Tensor(w))))
    num = fd_grad(lambda a: float((a ** 2 * w).sum()), x.copy())
    denom = np.maximum(np.maximum(np.abs(num), np.abs(xt.grad)), 1e-4)
    assert np.max(np.abs(num - xt.grad) / denom) <= 1e-4


@given(st.lists(st.integers(0, 3), min_size=1, max_size=20), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_segment_sum_fd_property(ids, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((len(ids), 3))
    w = rng.standard_normal((4, 3))
    vt = T.Tensor(vals.copy(), requires_grad=True)
    T.backward(T.tsum(T.mul(T.segment_sum(vt, ids, 4), T.Tensor(w))))
    ref = w[np.asarray(ids)]
    assert np.allclose(vt.grad, ref, rtol=1e-12, atol=1e-12)


def bincount_rows(values, ids, n):
    """Reference scatter-add: one bincount per column, which adds each
    segment's rows in ascending row order onto 0.0."""
    if values.ndim == 1:
        return np.bincount(ids, weights=values, minlength=n)
    return np.stack([np.bincount(ids, weights=values[:, c], minlength=n)
                     for c in range(values.shape[1])], axis=1).reshape(
                         (n,) + values.shape[1:])


_signed_floats = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))


@st.composite
def _segments(draw):
    n = draw(st.integers(1, 9))
    ids = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=30))
    shape = (len(ids),) if draw(st.booleans()) else (len(ids), draw(st.integers(1, 3)))
    vals = draw(st.lists(_signed_floats, min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    return np.array(ids, dtype=np.intp), n, np.array(vals, dtype=np.float64).reshape(shape)


@given(_segments())
@settings(max_examples=200, deadline=None)
def test_incidence_sum_equals_bincount_bitwise(case):
    """Empty segments, repeated ids, 1-d and 2-d values and -0.0 entries all
    give the bincount bytes."""
    ids, n, vals = case
    inc = T.Incidence(ids, n)
    assert inc.sum(vals).tobytes() == bincount_rows(vals, ids, n).tobytes()
    assert inc.sum(vals).tobytes() == inc.sum(vals).tobytes()  # reuse of the grouping


@st.composite
def _mapped_segments(draw):
    """Segments over incidence rows that read value rows through a row map;
    the values may have rows that no incidence row reads."""
    ids, n, _ = draw(_segments())
    n_values = draw(st.integers(1, 8))
    rows = np.array(draw(st.lists(st.integers(0, n_values - 1), min_size=len(ids),
                                  max_size=len(ids))), dtype=np.intp)
    shape = (n_values,) if draw(st.booleans()) else (n_values, draw(st.integers(1, 3)))
    vals = draw(st.lists(_signed_floats, min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    return ids, n, rows, np.array(vals, dtype=np.float64).reshape(shape)


@given(_mapped_segments())
@settings(max_examples=200, deadline=None)
def test_row_map_sum_equals_sum_of_gathered_rows_bitwise(case):
    """Empty segments, repeated ids and rows, 1-d and 2-d values and -0.0
    entries: reading through the row map gives the bytes of gathering first."""
    ids, n, rows, vals = case
    mapped = T.Incidence(ids, n, rows=rows)
    assert mapped.sum(vals).tobytes() == T.Incidence(ids, n).sum(vals[rows]).tobytes()


class TestIncidence:
    def test_sum_rejects_values_it_would_index_out_of_range(self):
        with pytest.raises(ValueError, match="Incidence.sum"):
            T.Incidence([0, 1, 1], 2).sum(np.ones((2, 3)))
        mapped = T.Incidence([0, 1, 1], 2, rows=[0, 4, 2])
        assert mapped.sum(np.ones(5)).tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="Incidence.sum"):
            mapped.sum(np.ones((4, 3)))
        with pytest.raises(ValueError, match="rows"):
            T.Incidence([0, 1], 2, rows=[0, -1])
        with pytest.raises(ValueError, match="rows"):
            T.Incidence([0, 1], 2, rows=[0])

    def test_id_ops_reject_a_row_map(self):
        mapped = T.Incidence([0, 1], 2, rows=[1, 0])
        with pytest.raises(ValueError, match="segment_sum: incidence has a row map"):
            T.segment_sum(T.Tensor(np.ones(2)), mapped, 2)
        with pytest.raises(ValueError, match="gather_rows: incidence has a row map"):
            T.gather_rows(T.Tensor(np.ones(2)), mapped)

    def test_signed_zeros_and_empty_segments(self):
        ids = np.array([2, 2, 0])
        out = T.Incidence(ids, 4).sum(np.array([-0.0, -0.0, -0.0]))
        # bincount starts every segment at +0.0, and 0.0 + -0.0 is +0.0
        assert np.signbit(out).tolist() == [False, False, False, False]

    def test_loop_count_is_the_largest_segment(self):
        inc = T.Incidence([3, 1, 3, 3, 0, 1], 5)
        assert [len(rows) for rows in inc.steps] == [3, 2, 1]
        assert inc.counts.tolist() == [1, 2, 0, 3, 0]

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            T.Incidence([0, 3], 3)
        with pytest.raises(ValueError, match="segment_sum: segment id out of range"):
            T.segment_sum(T.Tensor(np.ones(2)), [0, -1], 3)

    def test_prebuilt_incidence_matches_ids(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 5, 12)
        vals = rng.standard_normal((12, 3))
        inc = T.Incidence(ids, 5)
        for op in (T.segment_sum, T.segment_mean):
            assert op(T.Tensor(vals), inc, 5).data.tobytes() == \
                op(T.Tensor(vals), ids, 5).data.tobytes()
        with pytest.raises(ValueError, match="segments"):
            T.segment_sum(T.Tensor(vals), inc, 6)

    def test_gather_rows_backward_uses_the_incidence(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 2))
        ids = np.array([4, 0, 4, 4, 1])
        w = rng.standard_normal((5, 2))
        grads = []
        for index in (ids, T.Incidence(ids, 5)):
            at = T.Tensor(a.copy(), requires_grad=True)
            out = T.gather_rows(at, index)
            assert out.data.tobytes() == a[ids].tobytes()
            T.backward(T.tsum(T.mul(out, T.Tensor(w))))
            grads.append(at.grad)
        assert grads[0].tobytes() == grads[1].tobytes() == \
            bincount_rows(w, ids, 5).tobytes()


def reference_layer_norm(x, gain, bias, eps=1e-5):
    """LayerNorm as a separate tape op, with its own forward and vjp."""
    h = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.einsum("...i,...i->...", xc, xc)[..., None] / h
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def vjp(g):
        dxhat = g * gain.data
        dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
              - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
        return dx, g * xhat, g

    return T._node(xhat * gain.data + bias.data, (x, gain, bias), "layer_norm", vjp)


def unfused_mlp(params, name, x):
    """The MLP as separate tape ops: matmul plus bias, relu, ..., LayerNorm."""
    h = x
    for i in range(3):
        h = T.add(T.matmul(h, params[f"{name}.w{i}"]), params[f"{name}.b{i}"])
        if i < 2:
            h = T.relu(h)
    if f"{name}.ln_gain" in params:
        h = reference_layer_norm(h, params[f"{name}.ln_gain"], params[f"{name}.ln_bias"])
    return h


def random_mlp(norm, seed, d_in=5, hidden=6, d_out=4):
    rng = np.random.default_rng(seed)
    params = T.ModelParams()
    T.mlp_init(params, "m", d_in, hidden, d_out, rng, norm=norm)
    for _, t in params.items():  # generic biases and LayerNorm parameters
        t.data = t.data + 0.3 * rng.standard_normal(t.data.shape)
    return params


class TestFusedMLP:
    def test_values_and_grads_equal_unfused_ops_bitwise(self):
        for norm in (True, False):
            for x_grad in (True, False):
                params = random_mlp(norm, seed=8)
                rng = np.random.default_rng(9)
                x = rng.standard_normal((7, 5))
                x[2] = 0.0  # with b0[0] = 0, a pre-activation sits exactly at the kink
                params["m.b0"].data[0] = 0.0
                g = rng.standard_normal((7, 4))
                results = []
                for apply in (T.mlp_apply, unfused_mlp):
                    params.zero_grad()
                    xt = T.Tensor(x.copy(), requires_grad=x_grad)
                    # x also feeds a residual, so its gradient is accumulated
                    out = T.add(apply(params, "m", xt), T.slice_cols(xt, 0, 4))
                    T.backward(T.tsum(T.mul(out, T.Tensor(g))))
                    results.append([out.data, xt.grad] + list(params.grads().values()))
                assert (results[0][1] is None) == (not x_grad)
                for fused, ref in zip(*results):
                    assert (fused is None and ref is None) or fused.tobytes() == ref.tobytes()

    def test_grad_matches_fd(self):
        for norm in (True, False):
            params = random_mlp(norm, seed=10)
            rng = np.random.default_rng(11)
            params.add("x", rng.standard_normal((4, 5)))
            g = T.Tensor(rng.standard_normal((4, 4)))

            def f():
                out = T.mlp_apply(params, "m", params["x"])
                return T.tsum(T.mul(T.mul(out, out), g))

            assert max(grad_check(f, params).values()) <= 1e-6

    def test_constant_operands_get_no_gradient(self):
        params = random_mlp(True, seed=12)
        params["m.w1"].requires_grad = False
        x = T.Tensor(np.ones((2, 5)))
        T.backward(T.tsum(T.mlp_apply(params, "m", x)))
        assert x.grad is None and params["m.w1"].grad is None
        assert params["m.w0"].grad.shape == (5, 6)

    def test_shape_error_names_op(self):
        params = random_mlp(False, seed=13)
        with pytest.raises(ValueError, match="mlp_apply"):
            T.mlp_apply(params, "m", T.Tensor(np.ones(5)))

    def test_mlp_records_one_tape_node(self):
        params = random_mlp(True, seed=14)
        x = T.Tensor(np.ones((5, 5)))
        out = T.mlp_apply(params, "m", x)
        assert out._prev == (x,) + tuple(t for _, t in params.items())
        assert all(not p._prev for p in out._prev)


class TestTapeConsumption:
    def test_intermediate_data_freed_during_backward(self):
        gc.disable()
        try:
            x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
            seen = []
            # the first op's vjp runs last and looks at a later intermediate
            first = T._node(x.data * 2.0, (x,), "probe",
                            lambda g: (seen.append(hidden_data()) or g * 2.0,))
            hidden = T.relu(first)
            hidden_data = weakref.ref(hidden.data)
            loss = T.tsum(T.mul(hidden, hidden))
            del hidden, first
            T.backward(loss)
            assert seen == [None]
            assert float(loss.data) == 220.0  # the loss is still held
            assert np.array_equal(x.grad, 8.0 * x.data)
        finally:
            gc.enable()

    def test_leaves_keep_gradients_and_intermediates_drop_theirs(self):
        x = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        hidden = T.mul(x, 3.0)
        loss = T.tsum(hidden)
        T.backward(loss)
        assert np.array_equal(x.grad, [3.0, 3.0])
        assert hidden.grad is None and loss.grad is None
        assert hidden._prev == () and loss._prev == ()

    def test_second_backward_raises(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        loss = T.tsum(T.mul(x, x))
        T.backward(loss)
        with pytest.raises(RuntimeError, match="consumed"):
            T.backward(loss)
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_new_op_on_a_consumed_node_raises(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        hidden = T.mul(x, 2.0)
        T.backward(T.tsum(hidden))
        with pytest.raises(RuntimeError, match="consumed"):
            T.backward(T.tsum(T.mul(hidden, hidden)))
