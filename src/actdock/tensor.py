"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Everything is float64 numpy underneath. A Tensor wraps either a leaf array
(inputs, parameters) or the result of an op; calling ``backward()`` on a
scalar result walks the graph in reverse topological order and accumulates
gradients into every reachable tensor with ``requires_grad``. Graphs are
built fresh each forward pass and discarded with the result.

The op set is exactly what the docking policy needs: elementwise arithmetic,
reshape/concat/indexing, a one-node affine map over the last axis, layer
normalization, the tanh activation, the reductions used by the L1 and KL
losses, the convolutional image backbone as one node, and the two pre-norm
transformer blocks as one node each: layer norm -> multi-head attention with
its four projections -> residual add, and layer norm -> linear -> GELU ->
linear -> residual add.
Inside ``no_grad()`` ops record no graph.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from contextlib import contextmanager
from typing import Iterable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible for an op."""


class GraphError(RuntimeError):
    """Autodiff misuse, e.g. backward on a non-scalar or before any forward."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        # One cheap full-array reduction; a NaN or inf anywhere poisons it. Only
        # a sum that is not finite (possibly an overflow) needs the full check.
        if not math.isfinite(self.data.sum()) and not np.isfinite(self.data).all():
            raise ValueError("tensor holds non-finite values")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={'yes' if self.requires_grad else 'no'})"

    def __getitem__(self, idx):
        return take(self, idx)

    def backward(self) -> None:
        """Backpropagate from a scalar result."""
        if self.data.size != 1:
            raise GraphError(f"backward requires a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise GraphError("backward called on a tensor with no differentiable history")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = True


@contextmanager
def no_grad():
    """Ops inside the block build plain tensors: no parents, no backward."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        if t.grad is None:
            if g.shape != t.data.shape:
                g = np.broadcast_to(g, t.data.shape)
            t.grad = np.array(g, dtype=np.float64)  # a copy: g may be shared
        else:
            t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce gradient g back down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# --- elementwise / broadcast arithmetic ---


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from None

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward)


def scale(a, s: float) -> Tensor:
    a = _coerce(a)
    s = float(s)

    def backward(g):
        _accumulate(a, g * s)

    return _make(a.data * s, (a,), backward)


# --- shape ops ---


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    shape = tuple(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = [_coerce(t) for t in tensors]
    if not ts:
        raise ShapeError("concat: need at least one tensor")
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(out_data, tuple(ts), backward)


def take(a, idx) -> Tensor:
    """Integer/slice indexing; duplicate fancy indices accumulate gradient."""
    a = _coerce(a)
    out_data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    return _make(np.array(out_data, copy=True), (a,), backward)


# --- affine map ---


def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b) on the last axis, as one GEMM over the flattened leading axes."""
    x, w = _coerce(x), _coerce(w)
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: cannot map {x.shape} with weight {w.shape}")
    din, dout = w.shape
    if b is not None:
        b = _coerce(b)
        if b.shape != (dout,):
            raise ShapeError(f"linear: bias must have shape ({dout},), got {b.shape}")
    x2 = x.data.reshape(-1, din)
    out_data = x2 @ w.data
    if b is not None:
        out_data += b.data
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g2 = g.reshape(-1, dout)
        if w.requires_grad:
            _accumulate(w, x2.T @ g2)
        if b is not None and b.requires_grad:
            _accumulate(b, g2.sum(axis=0))
        if x.requires_grad:
            _accumulate(x, (g2 @ w.data.T).reshape(x.shape))

    return _make(out_data.reshape(x.shape[:-1] + (dout,)), parents, backward)


# --- reductions ---


def tsum(a, axis=None) -> Tensor:
    a = _coerce(a)

    def backward(g):  # _accumulate broadcasts g back over the summed axes
        _accumulate(a, g if axis is None else np.expand_dims(g, axis))

    return _make(a.data.sum(axis=axis), (a,), backward)


# --- elementwise nonlinearities ---


def tabs(a) -> Tensor:
    a = _coerce(a)

    def backward(g):
        _accumulate(a, g * np.sign(a.data))

    return _make(np.abs(a.data), (a,), backward)


def exp(a) -> Tensor:
    a = _coerce(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)

    return _make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = _coerce(a)
    out_data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smooth GELU (tanh form) of x, and the tanh term its slope needs."""
    u = x * x
    u *= x
    u *= _GELU_A
    u += x
    u *= _GELU_C
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), t


def _gelu_slope(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu(x) / dx, given _gelu's tanh term t."""
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


# --- normalization, transformer blocks ---


def _layer_norm(op: str, x: np.ndarray, gain: Tensor, bias: Tensor, eps: float = 1e-5):
    """Layer normalization of x over its last axis with elementwise gain and
    bias: (output, normalized x, 1 / std), the last two for the backward."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"{op}: layer-norm gain/bias must have shape ({d},), "
                         f"got {gain.shape}/{bias.shape}")
    # sum / d is exactly what mean computes, without its dispatch
    xc = x - x.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return gain.data * xhat + bias.data, xhat, inv


def _layer_norm_backward(gain: Tensor, bias: Tensor, xhat: np.ndarray, inv: np.ndarray,
                         g: np.ndarray) -> np.ndarray:
    """Accumulates the gain and bias gradients for output gradient g and
    returns the input's, given _layer_norm's normalized x and 1 / std."""
    d = xhat.shape[-1]
    _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
    _accumulate(bias, g.reshape(-1, d).sum(axis=0))
    gy = g * gain.data
    return inv * (
        gy
        - gy.sum(axis=-1, keepdims=True) / d
        - xhat * (gy * xhat).sum(axis=-1, keepdims=True) / d
    )


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    out_data, xhat, inv = _layer_norm("layer_norm", x.data, gain, bias, eps)

    def backward(g):
        _accumulate(x, _layer_norm_backward(gain, bias, xhat, inv, g))

    return _make(out_data, (x, gain, bias), backward)


def _affine(x2: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """x2 @ w + b for a 2-D x2, the bias added in place."""
    out = x2 @ w.data
    out += b.data
    return out


def _affine_backward(x2: np.ndarray, w: Tensor, b: Tensor, g2: np.ndarray) -> np.ndarray:
    """Accumulates the gradients of w and b in x2 @ w + b for output gradient
    g2 and returns x2's."""
    _accumulate(w, x2.T @ g2)
    _accumulate(b, g2.sum(axis=0))
    return g2 @ w.data.T


def attention(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, n_heads: int,
              memory=None) -> Tensor:
    """Pre-norm attention block, x + MHA(h, kv) with h = layer_norm(x, gain, bias):
    kv is memory (cross-attention), or h itself when memory is None (self-attention).

    MHA(h, kv) is (softmax(q_h k_h^T / sqrt(dh)) v_h, heads merged) @ wo + bo,
    with q = h @ wq + bq, k = kv @ wk + bk, v = kv @ wv + bv. x: (B, T, d),
    memory: (B, S, d), every w (d, d), every b (d,); head h is the slice
    h*dh:(h+1)*dh of the last axis, dh = d / n_heads. Returns (B, T, d).
    One node: the norm, projections, softmax, output projection and residual
    share one backward."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    ps = wq, bq, wk, bk, wv, bv, wo, bo = tuple(map(_coerce, (wq, bq, wk, bk, wv, bv, wo, bo)))
    if memory is not None:
        memory = _coerce(memory)
    kv_shape = x.shape if memory is None else memory.shape
    if x.ndim != 3 or len(kv_shape) != 3 or kv_shape[::2] != x.shape[::2]:
        raise ShapeError(f"attention: need x (B,T,d), memory (B,S,d); got {x.shape}, {kv_shape}")
    bsz, tq, d = x.shape
    tk = kv_shape[1]
    if {w.shape for w in ps[0::2]} != {(d, d)} or {b.shape for b in ps[1::2]} != {(d,)}:
        raise ShapeError(f"attention: width {d} needs ({d}, {d}) weights and ({d},) biases, "
                         f"got {[p.shape for p in ps]}")
    if d % n_heads:
        raise ShapeError(f"attention: width {d} does not split into {n_heads} heads")
    dh = d // n_heads

    def heads(a, tlen):  # (B*t, d) -> (B, h, t, dh)
        return a.reshape(bsz, tlen, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(a, tlen):  # (B, h, t, dh) -> (B*t, d)
        return a.transpose(0, 2, 1, 3).reshape(bsz * tlen, d)

    x2 = x.data.reshape(-1, d)
    h2, xhat, inv = _layer_norm("attention", x2, gain, bias)
    kv2 = h2 if memory is None else memory.data.reshape(-1, d)
    qh = heads(_affine(h2, wq, bq), tq)
    kh = heads(_affine(kv2, wk, bk), tk)
    vh = heads(_affine(kv2, wv, bv), tk)
    c = 1.0 / math.sqrt(dh)
    s = np.matmul(qh, kh.swapaxes(-1, -2))
    s *= c
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    o2 = merge(np.matmul(s, vh), tq)

    def backward(g):
        g2 = g.reshape(-1, d)
        _accumulate(wo, o2.T @ g2)
        _accumulate(bo, g2.sum(axis=0))
        gh = heads(g2 @ wo.data.T, tq)
        t = np.matmul(gh, vh.swapaxes(-1, -2)) * s
        gscores = (t - s * t.sum(axis=-1, keepdims=True)) * c
        gh2 = _affine_backward(h2, wq, bq, merge(np.matmul(gscores, kh), tq))
        gk = _affine_backward(kv2, wk, bk, merge(np.matmul(gscores.swapaxes(-1, -2), qh), tk))
        gv = _affine_backward(kv2, wv, bv, merge(np.matmul(s.swapaxes(-1, -2), gh), tk))
        if memory is None:  # h's gradient sums as (q-part + k-part) + v-part
            gh2 += gk
            gh2 += gv
        else:
            _accumulate(memory, gk.reshape(memory.shape))
            _accumulate(memory, gv.reshape(memory.shape))
        _accumulate(x, (g2 + _layer_norm_backward(gain, bias, xhat, inv, gh2)).reshape(x.shape))

    out_data = _affine(o2, wo, bo)
    out_data += x2
    parents = (x, gain, bias) + ps + (() if memory is None else (memory,))
    return _make(out_data.reshape(x.shape), parents, backward)


def feed_forward(x, gain, bias, w1, b1, w2, b2) -> Tensor:
    """Pre-norm feed-forward block, x + gelu(h @ w1 + b1) @ w2 + b2 with
    h = layer_norm(x, gain, bias) on the last axis, as one node."""
    x, gain, bias, w1, b1, w2, b2 = map(_coerce, (x, gain, bias, w1, b1, w2, b2))
    d = x.shape[-1]
    if (w1.ndim != 2 or w1.shape[0] != d or w2.shape != w1.shape[::-1]
            or b1.shape != w1.shape[1:] or b2.shape != (d,)):
        raise ShapeError(f"feed_forward: cannot map {x.shape} with weights "
                         f"{w1.shape}, {w2.shape} and biases {b1.shape}, {b2.shape}")
    x2 = x.data.reshape(-1, d)
    h2, xhat, inv = _layer_norm("feed_forward", x2, gain, bias)
    pre = _affine(h2, w1, b1)
    hidden, t = _gelu(pre)
    out_data = _affine(hidden, w2, b2)
    out_data += x2

    def backward(g):
        g2 = g.reshape(-1, d)
        _accumulate(w2, hidden.T @ g2)
        _accumulate(b2, g2.sum(axis=0))
        gh2 = _affine_backward(h2, w1, b1, (g2 @ w2.data.T) * _gelu_slope(pre, t))
        _accumulate(x, (g2 + _layer_norm_backward(gain, bias, xhat, inv, gh2)).reshape(x.shape))

    return _make(out_data.reshape(x.shape), (x, gain, bias, w1, b1, w2, b2), backward)


def _kernel(w: Tensor) -> np.ndarray:
    """A stored (Cout, Cin, kh, kw) kernel as a (Cin*kh*kw, Cout) matrix view."""
    return w.data.reshape(w.shape[0], -1).T


def _kernel_grad(x2: np.ndarray, w: Tensor, g2: np.ndarray) -> np.ndarray:
    """The gradient of w, in its stored shape, for x2 @ _kernel(w) with output
    gradient g2."""
    return (x2.T @ g2).T.reshape(w.shape)


def backbone(x, blocks, proj_w, proj_b) -> Tensor:
    """Channels-last convolutional backbone as one node.

    x: (B, H, W, C) images. Each block (down_w, down_b, res_w, res_b) maps its
    input a to y = gelu(patches(a) @ Wd + bd), then gelu(y + y @ Wr + br), where
    patches(a) holds every aligned 2x2 patch of a as one row ordered (channel,
    row, column), and Wd, Wr are the stored (Cout, Cin, 2, 2) and
    (Cout, Cout, 1, 1) kernels read as (Cin*kh*kw, Cout) matrices: a
    2x2/stride-2 and a 1x1 convolution. The last block's output goes through
    the 1x1 projection proj_w (d, C', 1, 1), proj_b (d,). Returns
    (B, H/2^n * W/2^n, d) tokens, row-major over the feature grid."""
    x, proj_w, proj_b = _coerce(x), _coerce(proj_w), _coerce(proj_b)
    blocks = [tuple(map(_coerce, block)) for block in blocks]
    if x.ndim != 4:
        raise ShapeError(f"backbone: need images (B, H, W, C), got {x.shape}")
    bsz, h, w, c = x.shape
    for dw, db, rw, rb in blocks:
        cout = dw.shape[0] if dw.ndim else 0
        if (dw.shape != (cout, c, 2, 2) or rw.shape != (cout, cout, 1, 1)
                or db.shape != (cout,) or rb.shape != (cout,)):
            raise ShapeError(f"backbone: a block on {c} channels needs (Cout, {c}, 2, 2) and "
                             f"(Cout, Cout, 1, 1) kernels and (Cout,) biases, got "
                             f"{[p.shape for p in (dw, db, rw, rb)]}")
        if h % 2 or w % 2:
            raise ShapeError(f"backbone: a {h}x{w} grid does not split into 2x2 patches")
        h, w, c = h // 2, w // 2, cout
    d = proj_w.shape[0] if proj_w.ndim else 0
    if proj_w.shape != (d, c, 1, 1) or proj_b.shape != (d,):
        raise ShapeError(f"backbone: the projection of {c} channels needs a (d, {c}, 1, 1) "
                         f"kernel and a (d,) bias, got {proj_w.shape}, {proj_b.shape}")

    a, saved = x.data, []
    for dw, db, rw, rb in blocks:
        n, hh, ww, cin = a.shape
        grid = (n, hh // 2, ww // 2)
        p2 = a.reshape(n, hh // 2, 2, ww // 2, 2, cin).transpose(0, 1, 3, 5, 2, 4)
        p2 = p2.reshape(-1, cin * 4)
        pre1 = p2 @ _kernel(dw)
        pre1 += db.data
        y, t1 = _gelu(pre1)
        pre2 = y @ _kernel(rw)
        pre2 += rb.data
        pre2 += y
        a, t2 = _gelu(pre2)
        if _grad_enabled:  # under no_grad no backward runs, so keep nothing for it
            saved.append((p2, pre1, y, t1, pre2, t2, grid))
        a = a.reshape(grid + (-1,))
    a2 = a.reshape(-1, c)
    out_data = a2 @ _kernel(proj_w)
    out_data += proj_b.data

    def backward(g):
        g2 = g.reshape(-1, d)
        _accumulate(proj_w, _kernel_grad(a2, proj_w, g2))
        _accumulate(proj_b, g2.sum(axis=0))
        ga = g2 @ _kernel(proj_w).T
        for i in reversed(range(len(blocks))):
            dw, db, rw, rb = blocks[i]
            p2, pre1, y, t1, pre2, t2, grid = saved[i]
            gpre2 = ga * _gelu_slope(pre2, t2)
            _accumulate(rw, _kernel_grad(y, rw, gpre2))
            _accumulate(rb, gpre2.sum(axis=0))
            # y's gradient sums two terms, the 1x1 convolution's and the skip's,
            # which any order adds to the same bits
            gy = gpre2 @ _kernel(rw).T
            gy += gpre2
            gpre1 = gy * _gelu_slope(pre1, t1)
            _accumulate(dw, _kernel_grad(p2, dw, gpre1))
            _accumulate(db, gpre1.sum(axis=0))
            if i == 0 and not x.requires_grad:
                return
            cin = dw.shape[1]
            gp = (gpre1 @ _kernel(dw).T).reshape(grid + (cin, 2, 2))
            ga = gp.transpose(0, 1, 4, 2, 5, 3).reshape(-1, cin)
        _accumulate(x, ga.reshape(x.shape))

    parents = (x,) + tuple(p for block in blocks for p in block) + (proj_w, proj_b)
    return _make(out_data.reshape(bsz, h * w, d), parents, backward)


# --- parameters, optimizer, checkpoints ---

CHECKPOINT_FORMAT_VERSION = 1


class ParameterSet:
    """Named float64 parameter tensors plus their Adam state.

    Parameters, first moments and second moments are the three rows of one
    (3, n) buffer; every tensor's data and both moment arrays are views of
    their slice of a row, so the update runs once over each row. The two
    work buffers for its intermediates are allocated by the first adam_step."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        shapes = {name: np.shape(a) for name, a in arrays.items()}
        self._buf = np.zeros((3, sum(math.prod(s) for s in shapes.values())))
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._work: np.ndarray | None = None
        self.step_count = 0
        off = 0
        for name, shape in shapes.items():
            end = off + math.prod(shape)
            p, self._m[name], self._v[name] = (row[off:end].reshape(shape) for row in self._buf)
            p[...] = arrays[name]
            self._params[name] = Tensor(p, requires_grad=True)
            off = end

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def n_scalars(self) -> int:
        return self._buf.shape[1]

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def adam_step(self, lr: float = 1e-4, beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8) -> None:
        """One bias-corrected Adam update; missing gradients count as zero.
        Gradients are cleared afterwards."""
        if self._work is None:
            self._work = np.empty((2, self.n_scalars()))
        p, m, v = self._buf
        g, tmp = self._work
        off = 0
        for t in self._params.values():
            if t.grad is None:
                g[off:off + t.size] = 0.0
            else:
                g[off:off + t.size] = t.grad.reshape(-1)
                t.grad = None
            off += t.size
        self.step_count += 1
        c1 = 1.0 - beta1**self.step_count
        c2 = 1.0 - beta2**self.step_count
        # m = b1 m + (1-b1) g; v = b2 v + (1-b2) g g;
        # p -= lr (m / c1) / (sqrt(v / c2) + eps), evaluated in that order in place.
        np.multiply(g, 1.0 - beta1, out=tmp)
        m *= beta1
        m += tmp
        np.multiply(g, 1.0 - beta2, out=tmp)
        tmp *= g
        v *= beta2
        v += tmp
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(m, c1, out=g)
        g *= lr
        g /= tmp
        p -= g

    # checkpoint format: 8-byte little-endian header length, JSON header, then
    # the (3, n) buffer as little-endian float64. The header lists _layout()'s
    # entries, and load accepts no other placement.
    def _layout(self) -> list[dict]:
        """Name, kind, shape and payload byte offset of each tensor, row by row."""
        starts = list(itertools.accumulate((t.size for t in self._params.values()), initial=0))
        return [{"name": name, "kind": kind, "shape": list(t.shape),
                 "offset": 8 * (row * self.n_scalars() + start)}
                for row, kind in enumerate(("param", "adam_m", "adam_v"))
                for (name, t), start in zip(self._params.items(), starts)]

    def save(self, path, meta: dict | None = None) -> None:
        header = {"format_version": CHECKPOINT_FORMAT_VERSION, "adam_step": self.step_count,
                  "meta": meta if meta is not None else {}, "tensors": self._layout()}
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        # Write a sibling temp file, flush it to disk, rename it over `path` and
        # flush the directory entry, so neither an interrupted save nor a power
        # loss leaves a torn or missing checkpoint.
        path = os.fspath(path)
        tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as f:
                f.write(struct.pack("<Q", len(blob)))
                f.write(blob)
                f.write(self._buf.astype("<f8", copy=False).data)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
            fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(cls, path) -> tuple["ParameterSet", dict]:
        """Read a checkpoint that save wrote: each tensor must sit where save puts it."""
        def bad(msg):
            return ValueError(f"checkpoint {path}: {msg}")

        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            hlen = int.from_bytes(f.read(8), "little")
            if size < 8 + hlen:
                raise bad("truncated inside its header")
            try:
                header = json.loads(f.read(hlen))
            except ValueError as err:
                raise bad(f"header is not JSON ({err})") from None
            version = header.get("format_version") if isinstance(header, dict) else None
            if version != CHECKPOINT_FORMAT_VERSION:
                raise bad(f"unsupported format_version {version!r}")
            entries = header.get("tensors")
            if not isinstance(entries, list):
                raise bad("header has no 'tensors' list")
            for i, e in enumerate(entries):
                if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                        and isinstance(e.get("kind"), str) and isinstance(e.get("shape"), list)
                        and all(type(n) is int and n >= 0 for n in e["shape"])):
                    raise bad(f"tensor entry {i} needs a name, a kind and a shape of "
                              f"non-negative integers, got {e!r}")
            ps = cls({e["name"]: np.broadcast_to(0.0, e["shape"])
                      for e in entries if e["kind"] == "param"})
            layout, seen = ps._layout(), set()
            for e, want in itertools.zip_longest(entries, layout, fillvalue={}):
                name, kind = (e or want)["name"], (e or want)["kind"]
                if (name, kind) in seen:
                    raise bad(f"tensor {name!r} ({kind}) is listed twice")
                if e != want:
                    raise bad(f"{kind} entries do not match the parameters' names, shapes and "
                              f"offsets at {name!r}: the header lists {e}, save writes {want}")
                seen.add((name, kind))
            got = f.readinto(ps._buf)

        def tensor_at(byte):  # the tensor holding payload byte `byte`, else the last one
            e = next((e for e in reversed(layout) if e["offset"] <= byte), {})
            return f"tensor {e.get('name')!r} ({e.get('kind')})"

        extra = size - 8 - hlen - ps._buf.nbytes
        if extra:
            raise bad(f"the payload ends inside {tensor_at(got)} (truncated?)" if extra < 0
                      else f"{extra} bytes follow the payload's last tensor, {tensor_at(got)}")
        if not np.little_endian:
            ps._buf.byteswap(inplace=True)
        finite = np.isfinite(ps._buf)
        if not finite.all():
            raise bad(f"{tensor_at(8 * int(finite.argmin()))} holds non-finite values")
        ps.step_count = int(header.get("adam_step", 0))
        return ps, header.get("meta", {})
