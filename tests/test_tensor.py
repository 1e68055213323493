import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import actdock.tensor as T
from actdock.tensor import GraphError, ParameterSet, ShapeError, Tensor

from actdock.policy import _conv, _patchify
from oracles import central_diff, conv2d_naive, layer_norm_naive, softmax_naive


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def conv_nhwc(x, w, b):
    """The backbone's stride = kernel convolution of (B, H, W, Cin) x with a
    (Cout, Cin, k, k) kernel, k in {1, 2}."""
    if w.shape[-1] == 2:
        x = _patchify(x)
    return _conv(x, {"c.w": w, "c.b": b}, "c")


def fd_check(build, *shapes, h=1e-6, tol=1e-6, rng_seed=0):
    """Compare analytic grads of scalar build(*tensors) with central diffs."""
    rng = np.random.default_rng(rng_seed)
    leaves = [leaf(rng.normal(size=s)) for s in shapes]
    out = build(*leaves)
    out.backward()
    for i, t in enumerate(leaves):
        def f(flat, i=i, t=t):
            keep = t.data.copy()
            t.data = flat.reshape(t.data.shape)
            try:
                return build(*leaves).data.item()
            finally:
                t.data = keep

        num = central_diff(f, t.data.reshape(-1), h=h).reshape(t.data.shape)
        assert t.grad is not None, f"input {i} missing grad"
        np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


def softmax_via_attention(x):
    """softmax over the last axis of (B, S) x, read off a cross-attention block
    with one head and width 1 + S. The block input is zero, so the residual adds
    nothing, and wq is zero, so the query is its bias sqrt(1 + S) e0 whatever
    the layer norm gives. Memory row j is [x_j, e_j]: wk keeps column 0, so the
    scores are x, and wv is the identity, so columns 1.. of the output are the
    attention weights."""
    bsz, n = x.shape
    width = n + 1
    eye, zero = Tensor(np.eye(width)), Tensor(np.zeros(width))
    memory = T.concat([T.reshape(x, (bsz, n, 1)),
                       Tensor(np.broadcast_to(np.eye(n), (bsz, n, n)))], axis=2)
    key = np.zeros((width, width))
    key[0, 0] = 1.0
    query_bias = np.zeros(width)
    query_bias[0] = np.sqrt(width)
    out = T.attention(Tensor(np.zeros((bsz, 1, width))), Tensor(np.ones(width)), zero,
                      Tensor(np.zeros((width, width))), Tensor(query_bias), Tensor(key), zero,
                      eye, zero, eye, zero, 1, memory)
    return out[:, 0, 1:]


def _heads_core(q, k, v, n_heads):
    """softmax(q_h k_h^T / sqrt(dh)) v_h per head, merged: the attention core
    between the projections, as its own node. The forward takes each head's
    softmax from softmax_naive; the backward spells the softmax Jacobian-vector
    product the way T.attention does, so that the composed block's gradients can
    be compared with the fused one's bit for bit."""
    dh = q.shape[-1] // n_heads
    heads = [slice(h * dh, (h + 1) * dh) for h in range(n_heads)]
    probs = [softmax_naive(q.data[..., c] @ k.data[..., c].transpose(0, 2, 1) / np.sqrt(dh))
             for c in heads]
    out = np.empty_like(q.data)
    for c, p in zip(heads, probs):
        out[..., c] = p @ v.data[..., c]

    def backward(g):
        gq, gk, gv = (np.empty_like(t.data) for t in (q, k, v))
        for c, p in zip(heads, probs):
            t = (g[..., c] @ v.data[..., c].transpose(0, 2, 1)) * p
            gscores = (t - p * t.sum(axis=-1, keepdims=True)) * (1.0 / np.sqrt(dh))
            gq[..., c] = gscores @ k.data[..., c]
            gk[..., c] = gscores.transpose(0, 2, 1) @ q.data[..., c]
            gv[..., c] = p.transpose(0, 2, 1) @ g[..., c]
        T._accumulate(q, gq)
        T._accumulate(k, gk)
        T._accumulate(v, gv)

    return T._make(out, (q, k, v), backward)


def attention_reference(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, n_heads, memory=None):
    """The pre-norm attention block composed node by node: T.layer_norm, T.linear
    projections, the per-head core, T.linear, T.add."""
    h = T.layer_norm(x, gain, bias)
    kv = h if memory is None else memory
    core = _heads_core(T.linear(h, wq, bq), T.linear(kv, wk, bk), T.linear(kv, wv, bv), n_heads)
    return T.add(x, T.linear(core, wo, bo))


def feed_forward_reference(x, gain, bias, w1, b1, w2, b2):
    """The pre-norm feed-forward block composed node by node."""
    h = T.layer_norm(x, gain, bias)
    return T.add(x, T.linear(T.gelu(T.linear(h, w1, b1)), w2, b2))


def block_inputs(rng, x_shape, d, memory_shape=None):
    """x, layer-norm gain and bias, the eight projection arrays, then memory if
    memory_shape is given; random, so every gradient is non-trivial."""
    arrays = [rng.normal(size=x_shape), 1.0 + 0.1 * rng.normal(size=d), rng.normal(size=d)]
    arrays += [rng.normal(size=(d, d) if i % 2 == 0 else d) for i in range(8)]
    return arrays + ([] if memory_shape is None else [rng.normal(size=memory_shape)])


def assert_fused_matches(fused, composed, arrays):
    """fused(*leaves) and composed(*leaves): forward values and every leaf's
    gradient of sum(out * out) equal at atol=0; returns the fused output."""
    outs = []
    for op in (fused, composed):
        leaves = [leaf(a) for a in arrays]
        out = op(*leaves)
        T.tsum(T.mul(out, out)).backward()
        outs.append((out, leaves))
    (got, got_leaves), (want, want_leaves) = outs
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=0)
    for i, (a, b) in enumerate(zip(got_leaves, want_leaves)):
        assert a.grad is not None, f"input {i} missing grad"
        np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=0, err_msg=f"input {i}")
    return got


class TestElementwise:
    def test_add_broadcast(self):
        fd_check(lambda a, b: T.tsum(T.mul(T.add(a, b), T.add(a, b))), (3, 4), (4,))

    def test_mul_broadcast_leading(self):
        fd_check(lambda a, b: T.tsum(T.mul(a, b)), (2, 3, 4), (3, 4))

    def test_scale_shift(self):
        fd_check(lambda a: T.tsum(T.scale(a, 2.5)), (5,))

    def test_exp_tanh(self):
        fd_check(lambda a: T.tsum(T.exp(a)), (3, 3))
        fd_check(lambda a: T.tsum(T.tanh(a)), (3, 2))

    def test_abs_away_from_kink(self):
        a = leaf([[2.0, -3.0], [1.5, -0.5]])
        out = T.tsum(T.tabs(a))
        out.backward()
        assert np.array_equal(a.grad, np.sign(a.data))

    def test_gelu_matches_reference_forward(self):
        x = np.linspace(-3, 3, 13)
        got = T.gelu(Tensor(x)).data
        ref = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_gelu_grad(self):
        fd_check(lambda a: T.tsum(T.gelu(a)), (7,))


class TestShapeOps:
    def test_reshape(self):
        fd_check(lambda a: T.tsum(T.mul(T.reshape(a, (6,)), T.reshape(a, (6,)))), (2, 3))

    def test_transpose(self):
        fd_check(lambda a, b: T.tsum(T.mul(T.transpose(a, (1, 0, 2)), b)),
                 (2, 3, 4), (3, 2, 4))

    def test_concat(self):
        fd_check(lambda a, b: T.tsum(T.mul(T.concat([a, b], axis=1),
                                           T.concat([b, a], axis=1))),
                 (2, 3), (2, 3))

    def test_take_rows(self):
        a = leaf(np.arange(12.0).reshape(4, 3))
        out = T.tsum(T.take(a, np.array([0, 2, 2])))
        out.backward()
        expected = np.zeros((4, 3))
        expected[0] = 1.0
        expected[2] = 2.0  # row picked twice accumulates
        assert np.array_equal(a.grad, expected)

    def test_getitem_sugar(self):
        a = leaf(np.arange(6.0).reshape(2, 3))
        out = T.tsum(a[1])
        out.backward()
        assert np.array_equal(a.grad, [[0, 0, 0], [1, 1, 1]])


class TestMatmul:
    """Matrix products: T.linear is the one matmul op, over flattened leading axes."""

    def test_2d(self):
        fd_check(lambda x, w: T.tsum(T.mul(T.linear(x, w), T.linear(x, w))), (3, 4), (4, 2))

    def test_batched(self):
        fd_check(lambda x, w: T.tsum(T.mul(T.linear(x, w), T.linear(x, w))), (2, 5, 4), (4, 2))

    def test_broadcast_leading(self):
        fd_check(lambda x, w: T.tsum(T.mul(T.linear(x, w), T.linear(x, w))),
                 (2, 3, 5, 4), (4, 2))

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear(leaf(np.zeros((2, 3))), leaf(np.zeros((4, 2))))
        with pytest.raises(ShapeError):
            T.linear(leaf(np.zeros((2, 3))), leaf(np.zeros((3, 2))), leaf(np.zeros(3)))

    def test_linear_with_bias(self):
        fd_check(lambda x, w, b: T.tsum(T.mul(T.linear(x, w, b), T.linear(x, w, b))),
                 (2, 5, 3), (3, 4), (4,))

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_matches_x_at_w_plus_b(self, with_bias):
        rng = np.random.default_rng(9)
        x, w, b = rng.normal(size=(2, 5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
        got = T.linear(Tensor(x), Tensor(w), Tensor(b) if with_bias else None).data
        ref = x @ w + b if with_bias else x @ w
        assert got.shape == (2, 5, 4)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


class TestReductions:
    def test_sum_all(self):
        fd_check(lambda a: T.tsum(T.mul(T.tsum(a), T.tsum(a))), (3, 2))

    def test_sum_last_axis(self):
        fd_check(lambda a, b: T.tsum(T.mul(T.tsum(a, axis=1), b)), (3, 4), (3,))

    def test_sum_axis(self):
        fd_check(lambda a, b: T.tsum(T.mul(T.tsum(a, axis=0), b)), (4, 3), (3,))


class TestNormalizationAttention:
    def test_layer_norm_forward_matches_reference(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5, 8))
        g = rng.normal(size=8)
        b = rng.normal(size=8)
        got = T.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
        np.testing.assert_allclose(got, layer_norm_naive(x, g, b), atol=1e-12)

    def test_layer_norm_grads(self):
        fd_check(lambda x, g, b: T.tsum(T.mul(T.layer_norm(x, g, b),
                                              T.layer_norm(x, g, b))),
                 (3, 6), (6,), (6,), tol=1e-5)

    def test_layer_norm_shape_check(self):
        with pytest.raises(ShapeError):
            T.layer_norm(leaf(np.zeros((2, 4))), leaf(np.zeros(3)), leaf(np.zeros(4)))

    def test_softmax_forward(self):
        x = np.random.default_rng(4).normal(size=(3, 5))
        np.testing.assert_allclose(softmax_via_attention(Tensor(x)).data, softmax_naive(x),
                                   atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(5).normal(size=(4, 7)))
        np.testing.assert_allclose(softmax_via_attention(x).data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_grad(self):
        fd_check(lambda a, b: T.tsum(T.mul(softmax_via_attention(a), b)), (3, 5), (3, 5))

    # dh = 4 in the block tests below, so 1/sqrt(dh) is exact
    def test_attention_matches_composition(self):
        rng = np.random.default_rng(6)
        bsz, tq, tk, d, n_heads = 2, 3, 5, 8, 2
        cross = block_inputs(rng, (bsz, tq, d), d, memory_shape=(bsz, tk, d))
        got = assert_fused_matches(lambda *t: T.attention(*t[:11], n_heads, t[11]),
                                   lambda *t: attention_reference(*t[:11], n_heads, t[11]),
                                   cross)
        assert got.shape == (bsz, tq, d)
        # self-attention: the query, key and value gradients meet in the normed input
        assert_fused_matches(lambda *t: T.attention(*t, n_heads),
                             lambda *t: attention_reference(*t, n_heads),
                             block_inputs(rng, (bsz, tk, d), d))

    def test_attention_grads(self):
        def block(x, *rest):
            out = T.attention(x, *rest[:10], 2, *rest[10:])
            return T.tsum(T.mul(out, out))

        shapes = [(8,), (8,)] + [(8, 8) if i % 2 == 0 else (8,) for i in range(8)]
        fd_check(block, (2, 3, 8), *shapes, (2, 5, 8), tol=1e-5)  # cross-attention
        fd_check(block, (2, 5, 8), *shapes, tol=1e-5)  # self-attention

    def test_attention_shape_checks(self):
        x, gain, bias, *ws = [leaf(a) for a in block_inputs(np.random.default_rng(0),
                                                            (1, 2, 6), 6)]
        with pytest.raises(ShapeError):  # 6 does not split into 4 heads
            T.attention(x, gain, bias, *ws, 4)
        with pytest.raises(ShapeError):  # memory width differs from the input's
            T.attention(x, gain, bias, *ws, 2, leaf(np.zeros((1, 3, 5))))
        with pytest.raises(ShapeError):  # batch sizes differ
            T.attention(x, gain, bias, *ws, 2, leaf(np.zeros((2, 3, 6))))
        with pytest.raises(ShapeError):  # input is not (B, T, d)
            T.attention(leaf(np.zeros((2, 6))), gain, bias, *ws, 2)
        with pytest.raises(ShapeError):  # a projection bias of the wrong width
            T.attention(x, gain, bias, *ws[:-1], leaf(np.zeros(5)), 2)
        with pytest.raises(ShapeError, match="layer-norm gain"):
            T.attention(x, leaf(np.ones(5)), bias, *ws, 2)
        with pytest.raises(ShapeError, match="layer-norm gain"):
            T.attention(x, gain, leaf(np.zeros(7)), *ws, 2)

    def test_feed_forward_matches_composition(self):
        rng = np.random.default_rng(8)
        arrays = [rng.normal(size=(2, 3, 4)), 1.0 + 0.1 * rng.normal(size=4),
                  rng.normal(size=4), rng.normal(size=(4, 6)), rng.normal(size=6),
                  rng.normal(size=(6, 4)), rng.normal(size=4)]
        got = assert_fused_matches(T.feed_forward, feed_forward_reference, arrays)
        assert got.shape == (2, 3, 4)

    def test_feed_forward_grads(self):
        def block(*t):
            out = T.feed_forward(*t)
            return T.tsum(T.mul(out, out))

        fd_check(block, (2, 3, 4), (4,), (4,), (4, 6), (6,), (6, 4), (4,), tol=1e-5)

    def test_feed_forward_shape_checks(self):
        x, gain, bias = leaf(np.zeros((2, 4))), leaf(np.ones(4)), leaf(np.zeros(4))
        w1, b1, w2, b2 = (leaf(np.zeros(s)) for s in ((4, 6), 6, (6, 4), 4))
        with pytest.raises(ShapeError):  # w1 rows differ from the width
            T.feed_forward(x, gain, bias, leaf(np.zeros((3, 6))), b1, w2, b2)
        with pytest.raises(ShapeError):  # w2 does not map the hidden width back
            T.feed_forward(x, gain, bias, w1, b1, leaf(np.zeros((5, 4))), b2)
        with pytest.raises(ShapeError):  # the residual needs a (d, d)-shaped path
            T.feed_forward(x, gain, bias, w1, b1, leaf(np.zeros((6, 5))), leaf(np.zeros(5)))
        with pytest.raises(ShapeError):  # b1 of the wrong width
            T.feed_forward(x, gain, bias, w1, leaf(np.zeros(5)), w2, b2)
        with pytest.raises(ShapeError, match="layer-norm gain"):
            T.feed_forward(x, leaf(np.ones(3)), bias, w1, b1, w2, b2)
        with pytest.raises(ShapeError, match="layer-norm gain"):
            T.feed_forward(x, gain, leaf(np.zeros(5)), w1, b1, w2, b2)


class TestConv2d:
    """The backbone's convolutions, channels-last: kernel size equals stride
    (2x2/stride-2 through the patchify, 1x1) and there is no padding."""

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 0)])
    def test_forward_matches_naive(self, stride, pad):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 6, 8))
        w = rng.normal(size=(4, 3, stride, stride))
        b = rng.normal(size=4)
        got = conv_nhwc(Tensor(x.transpose(0, 2, 3, 1)), Tensor(w), Tensor(b)).data
        ref = conv2d_naive(x, w, b, stride=stride, pad=pad)
        np.testing.assert_allclose(got.transpose(0, 3, 1, 2), ref, rtol=0, atol=1e-14)

    def test_grads(self):
        fd_check(lambda x, w, b: T.tsum(T.mul(conv_nhwc(x, w, b), conv_nhwc(x, w, b))),
                 (2, 4, 6, 2), (3, 2, 2, 2), (3,), tol=1e-5)

    def test_one_by_one_kernel(self):
        fd_check(lambda x, w, b: T.tsum(conv_nhwc(x, w, b)), (1, 4, 4, 3), (2, 3, 1, 1), (2,))


class TestGraph:
    def test_shared_subgraph_accumulates(self):
        a = leaf([2.0])
        b = T.mul(a, a)  # a^2
        out = T.tsum(T.add(b, b))  # 2 a^2 -> d/da = 4a = 8
        out.backward()
        assert a.grad.item() == pytest.approx(8.0)

    def test_diamond_graph(self):
        a = leaf([3.0])
        left = T.mul(a, a)
        right = T.exp(a)
        out = T.tsum(T.mul(left, right))  # a^2 e^a -> (2a + a^2) e^a
        out.backward()
        expected = (2 * 3.0 + 9.0) * np.exp(3.0)
        assert a.grad.item() == pytest.approx(expected, rel=1e-12)

    def test_backward_requires_scalar(self):
        a = leaf(np.ones((2, 2)))
        with pytest.raises(GraphError):
            T.mul(a, a).backward()

    def test_backward_requires_graph(self):
        plain = Tensor(np.array(3.0))
        with pytest.raises(GraphError):
            plain.backward()

    def test_no_grad_leaves_untouched(self):
        a = Tensor(np.ones(3))  # requires_grad=False
        b = leaf(np.ones(3))
        out = T.tsum(T.mul(a, b))
        out.backward()
        assert a.grad is None
        assert np.array_equal(b.grad, np.ones(3))

    def test_deep_chain_iterative_topo(self):
        # deep graphs must not hit the recursion limit
        a = leaf([1.0])
        x = a
        for _ in range(5000):
            x = T.scale(x, 1.0001)
        T.tsum(x).backward()
        assert a.grad is not None

    def test_no_grad_context_builds_no_graph(self):
        a = leaf([1.0, 2.0])
        with T.no_grad():
            out = T.tsum(T.mul(a, a))
        assert out._parents == () and out._backward is None and not out.requires_grad
        with pytest.raises(RuntimeError), T.no_grad():
            raise RuntimeError("grad mode must come back after an error")
        assert T.tsum(T.mul(a, a)).requires_grad

    def test_nonfinite_detected(self):
        a = leaf([1e308])
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            T.mul(T.exp(a), Tensor(np.array([1.0])))

    def test_nonfinite_leaf_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.array([1.0, np.nan]))

    def test_finiteness_check_survives_sum_overflow(self):
        with np.errstate(over="ignore"):
            big = Tensor(np.array([1e308, 1e308]))  # finite, but its sum overflows
            assert np.array_equal(T.add(big, Tensor(np.zeros(2))).data, [1e308, 1e308])
        for bad in (np.nan, np.inf, -np.inf):
            with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError):
                Tensor(np.array([1e308, bad]))
        for s in (np.nan, 10.0, -10.0):  # finite input, NaN / inf / -inf output
            with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError):
                T.scale(Tensor(np.array([1e308, 1.0])), s)


def rewrite_tensor_entries(path, edit):
    """Replace the checkpoint header's tensor list by edit(list); the payload stays."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[:8], "little")
    header = json.loads(raw[8:8 + hlen])
    header["tensors"] = edit(header["tensors"])
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(len(blob).to_bytes(8, "little") + blob + raw[8 + hlen:])


def payload_start(raw) -> int:
    """Byte index of the checkpoint payload's first float."""
    return 8 + int.from_bytes(raw[:8], "little")


class TestParameterSet:
    def make(self):
        return ParameterSet({"w": np.array([[1.0, -2.0], [0.5, 3.0]]),
                             "b": np.array([0.1, -0.1])})

    def test_add_and_lookup(self):
        ps = self.make()
        assert ps.names() == ["w", "b"]
        assert "w" in ps and "missing" not in ps
        assert ps.n_scalars() == 6
        assert len(ps) == 2

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        self.make().save(path)
        rewrite_tensor_entries(path, lambda es: es + [dict(es[0])])
        with pytest.raises(ValueError, match="'w' \\(param\\) is listed twice") as err:
            ParameterSet.load(path)
        assert str(path) in str(err.value)

    def test_construction_copies_the_arrays(self):
        w = np.array([[1.0, -2.0], [0.5, 3.0]])
        ps = ParameterSet({"w": w})
        w[0, 0] = 9.0
        assert ps["w"].data[0, 0] == 1.0 and ps["w"].requires_grad
        assert np.array_equal(ps._m["w"], np.zeros((2, 2)))

    def test_adam_single_step_hand_computed(self):
        ps = ParameterSet({"p": np.array([1.0, 2.0])})
        p = ps["p"]
        p.grad = np.array([0.5, -1.0])
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        ps.adam_step(lr=lr, beta1=b1, beta2=b2, eps=eps)
        g = np.array([0.5, -1.0])
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        mhat = m / (1 - b1)
        vhat = v / (1 - b2)
        expected = np.array([1.0, 2.0]) - lr * mhat / (np.sqrt(vhat) + eps)
        assert np.array_equal(p.data, expected)

    def test_adam_two_steps_bias_correction(self):
        ps = ParameterSet({"p": np.array([0.0])})
        p = ps["p"]
        m = np.zeros(1)
        v = np.zeros(1)
        x = np.array([0.0])
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        for t in (1, 2):
            g = np.array([1.0]) * t
            p.grad = g.copy()
            ps.adam_step(lr=lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert np.array_equal(p.data, x)

    def test_adam_flat_matches_per_tensor_loop(self):
        rng = np.random.default_rng(11)
        shapes = {"w": (3, 4), "b": (4,), "k": (2, 1, 2, 2)}
        ps = ParameterSet({name: rng.normal(size=shape) for name, shape in shapes.items()})
        ref = {name: [ps[name].data.copy(), np.zeros(shape), np.zeros(shape)]
               for name, shape in shapes.items()}
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        for t in (1, 2, 3):
            for name, shape in shapes.items():
                g = None if (name == "b" and t == 2) else rng.normal(size=shape)
                ps[name].grad = None if g is None else g.copy()
                x, m, v = ref[name]
                g = np.zeros(shape) if g is None else g
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                x -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            ps.adam_step(lr=lr, beta1=b1, beta2=b2, eps=eps)
            for name, (x, m, v) in ref.items():
                assert np.array_equal(ps[name].data, x)
                assert np.array_equal(ps._m[name], m)
                assert np.array_equal(ps._v[name], v)

    def test_adam_clears_grads(self):
        ps = self.make()
        ps["w"].grad = np.ones((2, 2))
        ps.adam_step()
        assert ps["w"].grad is None

    def test_missing_grad_treated_as_zero_but_state_advances(self):
        ps = self.make()
        w_before = ps["w"].data.copy()
        ps.adam_step()
        np.testing.assert_allclose(ps["w"].data, w_before, atol=1e-15)

    def test_zero_grad(self):
        ps = self.make()
        ps["w"].grad = np.ones((2, 2))
        ps.zero_grad()
        assert ps["w"].grad is None

    def test_save_load_bit_exact(self, tmp_path):
        ps = self.make()
        ps["w"].grad = np.ones((2, 2))
        ps.adam_step()  # nonzero moments + step counter
        path = tmp_path / "ck.bin"
        ps.save(path, meta={"note": "x", "val": 3})
        again, meta = ParameterSet.load(path)
        assert meta["note"] == "x" and meta["val"] == 3
        assert again.names() == ps.names()
        for name, t in ps.items():
            assert np.array_equal(again[name].data, t.data)
            assert again[name].data.tobytes() == t.data.tobytes()

    def test_save_load_resume_identical_updates(self, tmp_path):
        ps = self.make()
        ps["w"].grad = np.full((2, 2), 0.3)
        ps["b"].grad = np.array([1.0, -1.0])
        ps.adam_step()
        ps.save(tmp_path / "ck.bin")
        twin, _ = ParameterSet.load(tmp_path / "ck.bin")
        for target in (ps, twin):
            target["w"].grad = np.full((2, 2), -0.2)
            target["b"].grad = np.array([0.5, 0.5])
            target.adam_step()
        for name, t in ps.items():
            assert np.array_equal(twin[name].data, t.data)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        ps = self.make()
        ps["w"].grad = np.ones((2, 2))
        ps.adam_step()
        path = tmp_path / "ck.bin"
        ps.save(path, meta={"iteration": 1})
        before = path.read_bytes()
        w_saved = ps["w"].data.copy()

        class FailingWriter:
            """Writes the first chunk through, then fails like a full disk."""

            def __init__(self, f):
                self.f, self.calls = f, 0

            def write(self, data):
                self.calls += 1
                if self.calls > 1:
                    raise OSError("No space left on device")
                return self.f.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(T, "open",
                            lambda *a, **k: FailingWriter(open(*a, **k)), raising=False)
        ps["w"].grad = np.ones((2, 2))
        ps.adam_step()
        with pytest.raises(OSError):
            ps.save(path, meta={"iteration": 2})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]
        again, meta = ParameterSet.load(path)
        assert meta == {"iteration": 1} and again.step_count == 1
        assert again["w"].data.tobytes() == w_saved.tobytes()
        assert not np.array_equal(ps["w"].data, w_saved)

    def test_save_fsyncs_before_rename(self, tmp_path, monkeypatch):
        events = []

        def recorded(name):
            call = getattr(T.os, name)

            def wrapped(*args):
                events.append(name)
                return call(*args)
            return wrapped

        for name in ("fsync", "replace"):
            monkeypatch.setattr(T.os, name, recorded(name))
        self.make().save(tmp_path / "ck.bin")
        assert events == ["fsync", "replace", "fsync"]  # the file, then its directory

    @pytest.mark.parametrize("edit, what", [
        (lambda es: [e for e in es if (e["kind"], e["name"]) != ("adam_m", "w")],
         "adam_m entries do not match"),
        (lambda es: es + [{"name": "ghost", "kind": "adam_v", "shape": [2], "offset": 0}],
         "adam_v entries do not match"),
    ], ids=["missing", "unknown-name"])
    def test_load_rejects_moments_unlike_parameters(self, tmp_path, edit, what):
        path = tmp_path / "ck.bin"
        self.make().save(path)
        rewrite_tensor_entries(path, edit)
        with pytest.raises(ValueError) as err:
            ParameterSet.load(path)
        assert str(path) in str(err.value) and what in str(err.value)

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00" * 4)
        with pytest.raises(ValueError):
            ParameterSet.load(bad)

    def test_load_rejects_nonfinite_moment(self, tmp_path):
        path = tmp_path / "ck.bin"
        ps = self.make()
        ps.save(path)
        raw = bytearray(path.read_bytes())
        first_m = payload_start(raw) + 8 * ps.n_scalars()
        raw[first_m:first_m + 8] = np.float64(np.nan).tobytes()
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="'w' \\(adam_m\\) holds non-finite") as err:
            ParameterSet.load(path)
        assert str(path) in str(err.value)

    def test_load_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "ck.bin"
        self.make().save(path)
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(ValueError, match="16 bytes follow .* 'b' \\(adam_v\\)") as err:
            ParameterSet.load(path)
        assert str(path) in str(err.value)

    def test_load_rejects_shifted_offset(self, tmp_path):
        path = tmp_path / "ck.bin"
        self.make().save(path)
        rewrite_tensor_entries(path, lambda es: [dict(es[0], offset=es[0]["offset"] + 8)]
                               + es[1:])
        with pytest.raises(ValueError, match="param entries do not match .* at 'w'") as err:
            ParameterSet.load(path)
        assert str(path) in str(err.value)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_save_load_save_round_trip(self, data):
        shapes = data.draw(st.dictionaries(
            st.text(min_size=1, max_size=6),
            st.lists(st.integers(1, 3), max_size=3).map(tuple), max_size=5))
        ps = ParameterSet({name: np.zeros(shape) for name, shape in shapes.items()})
        n = ps.n_scalars()
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=3 * n, max_size=3 * n))
        ps._buf[...] = np.reshape(values, (3, n))
        ps.step_count = data.draw(st.integers(0, 2**40))
        meta = data.draw(st.dictionaries(st.text(max_size=4),
                                         st.integers() | st.text(max_size=4), max_size=3))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.ckpt", Path(tmp) / "b.ckpt"
            ps.save(first, meta=meta)
            again, meta_again = ParameterSet.load(first)
            again.save(second, meta=meta_again)
            assert second.read_bytes() == first.read_bytes()
        assert again.names() == ps.names() and meta_again == meta
        assert [t.shape for _, t in again.items()] == [t.shape for _, t in ps.items()]
        assert again.step_count == ps.step_count
        assert again._buf.tobytes() == ps._buf.tobytes()
