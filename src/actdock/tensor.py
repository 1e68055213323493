"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Everything is float64 numpy underneath. A Tensor wraps either a leaf array
(inputs, parameters) or the result of an op; calling ``backward()`` on a
scalar result walks the graph in reverse topological order and accumulates
gradients into every reachable tensor with ``requires_grad``. Graphs are
built fresh each forward pass and discarded with the result.

The op set is exactly what the docking policy needs: elementwise arithmetic,
reshape/transpose/concat/indexing, a one-node affine map over the last axis,
layer normalization, fused multi-head scaled dot-product attention, GELU/tanh
activations and the reductions used by the L1 and KL losses. Inside
``no_grad()`` ops record no graph.
"""

from __future__ import annotations

import json
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
        # One cheap full-array reduction; a NaN or inf anywhere poisons it.
        if not np.isfinite(self.data.sum()):
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

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

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
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None
    out_data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"sub: cannot broadcast {a.shape} with {b.shape}") from None
    out_data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from None
    out_data = a.data * b.data

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


def shift(a, c: float) -> Tensor:
    """Add a python scalar constant."""
    a = _coerce(a)

    def backward(g):
        _accumulate(a, g)

    return _make(a.data + float(c), (a,), backward)


# --- shape ops ---


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    shape = tuple(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose(a, axes) -> Tensor:
    a = _coerce(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(a, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), backward)


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


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
            return
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _make(out_data, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


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


def gelu(a) -> Tensor:
    """Smooth GELU (tanh form)."""
    a = _coerce(a)
    x = a.data
    u = x * x
    u *= x
    u *= _GELU_A
    u += x
    u *= _GELU_C
    t = np.tanh(u)

    def backward(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        _accumulate(a, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du))

    return _make(0.5 * x * (1.0 + t), (a,), backward)


# --- normalization, attention ---


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = gain.data * xhat + bias.data

    def backward(g):
        _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        gy = g * gain.data
        gx = inv * (
            gy
            - gy.mean(axis=-1, keepdims=True)
            - xhat * (gy * xhat).mean(axis=-1, keepdims=True)
        )
        _accumulate(x, gx)

    return _make(out_data, (x, gain, bias), backward)


def multi_head_attention(q, k, v, n_heads: int) -> Tensor:
    """softmax(q_h k_h^T / sqrt(dh)) v_h for every head h, heads merged.

    q: (B, T, d), k/v: (B, S, d); head h is the slice h*dh:(h+1)*dh of the
    last axis, dh = d / n_heads. Returns (B, T, d). One node: the head split,
    scores, softmax, weighted sum and head merge share one backward."""
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if q.ndim != 3 or k.shape != v.shape or k.shape[::2] != q.shape[::2]:
        raise ShapeError(f"attention: need q (B,T,d), k/v (B,S,d); got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    bsz, tq, d = q.shape
    tk = k.shape[1]
    if d % n_heads:
        raise ShapeError(f"attention: width {d} does not split into {n_heads} heads")
    dh = d // n_heads

    def heads(x, tlen):  # (B, t, d) -> (B, h, t, dh)
        return x.reshape(bsz, tlen, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x, tlen):  # (B, h, t, dh) -> (B, t, d)
        return x.transpose(0, 2, 1, 3).reshape(bsz, tlen, d)

    qh, kh, vh = heads(q.data, tq), heads(k.data, tk), heads(v.data, tk)
    c = 1.0 / np.sqrt(dh)
    scores = np.matmul(qh, kh.swapaxes(-1, -2)) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        gh = heads(g, tq)
        if v.requires_grad:
            _accumulate(v, merge(np.matmul(s.swapaxes(-1, -2), gh), tk))
        t = np.matmul(gh, vh.swapaxes(-1, -2)) * s
        gscores = (t - s * t.sum(axis=-1, keepdims=True)) * c
        if q.requires_grad:
            _accumulate(q, merge(np.matmul(gscores, kh), tq))
        if k.requires_grad:
            _accumulate(k, merge(np.matmul(gscores.swapaxes(-1, -2), qh), tk))

    return _make(merge(np.matmul(s, vh), tq), (q, k, v), backward)


# --- parameters, optimizer, checkpoints ---

CHECKPOINT_FORMAT_VERSION = 1


class ParameterSet:
    """Named float64 parameter tensors plus their Adam state.

    The first adam_step packs parameters, first and second moments into one
    flat buffer each; from then on every tensor's data and both moment arrays
    are views of their slice, and the update runs once over each buffer, with
    two same-sized work buffers kept for its intermediates."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._flat: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._work: tuple[np.ndarray, np.ndarray] | None = None
        self.step_count = 0

    def add(self, name: str, values) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        self._m[name] = np.zeros_like(t.data)
        self._v[name] = np.zeros_like(t.data)
        self._flat = None  # repacked by the next adam_step
        return t

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
        return sum(t.size for t in self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def _pack(self) -> None:
        n = self.n_scalars()
        self._flat = (np.empty(n), np.empty(n), np.empty(n))
        self._work = (np.empty(n), np.empty(n))
        off = 0
        for name, t in self._params.items():
            end = off + t.size
            views = tuple(flat[off:end].reshape(t.shape) for flat in self._flat)
            for view, arr in zip(views, (t.data, self._m[name], self._v[name])):
                view[...] = arr
            t.data, self._m[name], self._v[name] = views
            off = end

    def adam_step(self, lr: float = 1e-4, beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8) -> None:
        """One bias-corrected Adam update; missing gradients count as zero.
        Gradients are cleared afterwards."""
        if self._flat is None:
            self._pack()
        p, m, v = self._flat
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
    # each tensor's float64 little-endian bytes at its recorded byte offset.
    def save(self, path, meta: dict | None = None) -> None:
        entries = []
        payload = bytearray()
        for kind, table in (("param", self._params), ("adam_m", self._m), ("adam_v", self._v)):
            for name, val in table.items():
                arr = val.data if isinstance(val, Tensor) else val
                entries.append(
                    {
                        "name": name,
                        "kind": kind,
                        "shape": list(arr.shape),
                        "offset": len(payload),
                    }
                )
                payload.extend(arr.astype("<f8").tobytes(order="C"))
        header = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "adam_step": self.step_count,
            "meta": meta if meta is not None else {},
            "tensors": entries,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        # Write a sibling temp file and rename it over `path`, so an interrupted
        # save never leaves a torn checkpoint behind.
        path = os.fspath(path)
        tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as f:
                f.write(struct.pack("<Q", len(blob)))
                f.write(blob)
                f.write(bytes(payload))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(cls, path) -> tuple["ParameterSet", dict]:
        with open(path, "rb") as f:
            raw = f.read()
        hlen = int.from_bytes(raw[:8], "little")
        if len(raw) < 8 + hlen:
            raise ValueError(f"checkpoint {path} is truncated inside its header")
        header = json.loads(raw[8 : 8 + hlen].decode("utf-8"))
        if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"checkpoint {path}: unsupported format_version "
                             f"{header.get('format_version')!r}")
        payload = raw[8 + hlen :]
        ps = cls()
        for e in header["tensors"]:
            shape = tuple(e["shape"])
            count = int(np.prod(shape)) if shape else 1
            start = e["offset"]
            if start + 8 * count > len(payload):
                raise ValueError(f"checkpoint {path}: tensor {e['name']!r} ({e['kind']}) runs "
                                 f"past the end of the {len(payload)}-byte payload (truncated?)")
            arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
            arr = arr.reshape(shape).astype(np.float64)
            if e["kind"] == "param":
                ps.add(e["name"], arr)
            elif e["kind"] == "adam_m":
                ps._m[e["name"]] = arr.copy()
            elif e["kind"] == "adam_v":
                ps._v[e["name"]] = arr.copy()
            else:
                raise ValueError(f"unknown tensor kind {e['kind']!r} in checkpoint")
        ps.step_count = int(header.get("adam_step", 0))
        return ps, header.get("meta", {})
