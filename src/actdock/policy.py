"""Chunked transformer docking policy with a CVAE style encoder.

An observation (one camera image + 13-dim chaser state) is tokenized by a small
non-overlapping convolutional backbone plus a linear state projection. A
transformer encoder self-attends over [image tokens, state token, z token];
a decoder turns k learned queries into a chunk of k future actions, squashed
into actuator bounds with tanh. The style variable z comes from a separate
CVAE encoder over (state, action chunk) during training and is zero at
inference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import tensor as T
from .tensor import ParameterSet, Tensor

# Fixed input normalization for the 13-dim state [r, v, q, w]: positions are
# tens of meters, speeds a few m/s, rates hundredths of rad/s.
STATE_SCALE_13 = np.array([30.0, 30.0, 30.0, 3.0, 3.0, 3.0,
                           1.0, 1.0, 1.0, 1.0, 0.1, 0.1, 0.1])


@dataclass
class PolicyConfig:
    k: int = 8  # actions per chunk
    d_model: int = 64
    n_heads: int = 4
    n_layers_enc: int = 2
    n_layers_dec: int = 2
    n_layers_vae: int = 2
    d_ff: int = 128
    d_z: int = 32  # style latent width
    image_height: int = 24
    image_width: int = 32
    backbone_channels: tuple = (8, 16, 32)
    # per-component action bounds used for tanh scaling (thrust N, torque N*m)
    action_scale: tuple = (15.0, 15.0, 15.0, 1.0, 1.0, 1.0)
    # fixed by the simulator: state [r, v, q, w], action [thrust, torque]
    d_state: ClassVar[int] = 13
    d_action: ClassVar[int] = 6

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError(f"policy.k must be >= 1, got {self.k}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"policy.d_model ({self.d_model}) must divide by n_heads ({self.n_heads})"
            )
        if self.d_model % 4 != 0:
            raise ValueError(f"policy.d_model must be a multiple of 4, got {self.d_model}")
        for name in ("n_layers_enc", "n_layers_dec", "n_layers_vae", "d_ff", "d_z"):
            if getattr(self, name) < 1:
                raise ValueError(f"policy.{name} must be >= 1, got {getattr(self, name)}")
        factor = 2 ** len(self.backbone_channels)
        if self.image_height % factor or self.image_width % factor:
            raise ValueError(
                f"image size {self.image_height}x{self.image_width} must divide by {factor}"
            )
        if len(self.action_scale) != self.d_action:
            raise ValueError("policy.action_scale length must equal d_action")
        if any(s <= 0 for s in self.action_scale):
            raise ValueError("policy.action_scale entries must be positive")

    @property
    def feat_height(self) -> int:
        return self.image_height // 2 ** len(self.backbone_channels)

    @property
    def feat_width(self) -> int:
        return self.image_width // 2 ** len(self.backbone_channels)

    def action_scale_vec(self) -> np.ndarray:
        return np.asarray(self.action_scale, dtype=np.float64)


@dataclass
class LatentStyle:
    """CVAE posterior over the style variable; tensors during training."""

    mu: Tensor
    log_sigma: Tensor
    z: Tensor


# --- positional encodings ---


@functools.lru_cache(maxsize=16)
def sinusoidal_pos_1d(n: int, d: int) -> np.ndarray:
    """(n, d) fixed sin/cos sequence encoding; cached, read-only."""
    if d % 2 != 0:
        raise ValueError(f"sinusoidal encoding width must be even, got {d}")
    pos = np.arange(n, dtype=np.float64)[:, None]
    div = np.power(10000.0, np.arange(0, d, 2, dtype=np.float64) / d)
    pe = np.zeros((n, d))
    pe[:, 0::2] = np.sin(pos / div)
    pe[:, 1::2] = np.cos(pos / div)
    pe.flags.writeable = False
    return pe


@functools.lru_cache(maxsize=16)
def sinusoidal_pos_2d(h: int, w: int, d: int) -> np.ndarray:
    """(h*w, d) grid encoding: first half encodes the row, second the column;
    cached, read-only.

    Position (0, 0) has every sine component 0 and every cosine component 1.
    """
    if d % 4 != 0:
        raise ValueError(f"2-D sinusoidal encoding width must divide by 4, got {d}")
    half = d // 2
    out = np.concatenate([np.repeat(sinusoidal_pos_1d(h, half), w, axis=0),
                          np.tile(sinusoidal_pos_1d(w, half), (h, 1))], axis=1)
    out.flags.writeable = False
    return out


# --- parameter construction ---


def _xavier(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    lim = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape)


def _add_linear(ps, rng, name, d_in, d_out):
    ps[f"{name}.w"] = _xavier(rng, d_in, d_out, (d_in, d_out))
    ps[f"{name}.b"] = np.zeros(d_out)


def _add_layernorm(ps, name, d):
    ps[f"{name}.g"] = np.ones(d)
    ps[f"{name}.b"] = np.zeros(d)


# T.attention's argument order; init draws the weights first, then the biases
_ATTENTION_PARTS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def _add_attention(ps, rng, name, d):
    for part in _ATTENTION_PARTS[0::2]:
        ps[f"{name}.{part}"] = _xavier(rng, d, d, (d, d))
    for part in _ATTENTION_PARTS[1::2]:
        ps[f"{name}.{part}"] = np.zeros(d)


def _add_encoder_layer(ps, rng, name, cfg):
    _add_layernorm(ps, f"{name}.ln1", cfg.d_model)
    _add_attention(ps, rng, f"{name}.attn", cfg.d_model)
    _add_layernorm(ps, f"{name}.ln2", cfg.d_model)
    _add_linear(ps, rng, f"{name}.ff1", cfg.d_model, cfg.d_ff)
    _add_linear(ps, rng, f"{name}.ff2", cfg.d_ff, cfg.d_model)


def _add_decoder_layer(ps, rng, name, cfg):
    _add_layernorm(ps, f"{name}.ln1", cfg.d_model)
    _add_attention(ps, rng, f"{name}.self", cfg.d_model)
    _add_layernorm(ps, f"{name}.ln2", cfg.d_model)
    _add_attention(ps, rng, f"{name}.cross", cfg.d_model)
    _add_layernorm(ps, f"{name}.ln3", cfg.d_model)
    _add_linear(ps, rng, f"{name}.ff1", cfg.d_model, cfg.d_ff)
    _add_linear(ps, rng, f"{name}.ff2", cfg.d_ff, cfg.d_model)


def init_params(cfg: PolicyConfig, seed: int = 0) -> ParameterSet:
    """Deterministic parameter initialization for the given seed."""
    cfg.validate()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x9077))))
    arrays: dict[str, np.ndarray] = {}
    _add_params(arrays, rng, cfg)
    return ParameterSet(arrays)


class _Shapes(dict):
    """Stands in for both the array dict and the generator: records shapes and
    draws nothing, so checking a checkpoint costs no second initialization."""

    def __setitem__(self, name, values):
        super().__setitem__(name, np.shape(values))

    def uniform(self, low, high, size):
        return np.broadcast_to(0.0, size)

    def standard_normal(self, size):
        return np.broadcast_to(0.0, size)


def param_shapes(cfg: PolicyConfig) -> dict[str, tuple]:
    """Name -> shape of every parameter that init_params(cfg) creates."""
    shapes = _Shapes()
    _add_params(shapes, shapes, cfg)
    return shapes


def _add_params(ps, rng, cfg: PolicyConfig) -> None:
    d = cfg.d_model

    cin = 1
    for i, cout in enumerate(cfg.backbone_channels):
        ps[f"backbone.b{i}.down.w"] = _xavier(rng, cin * 4, cout * 4, (cout, cin, 2, 2))
        ps[f"backbone.b{i}.down.b"] = np.zeros(cout)
        ps[f"backbone.b{i}.res.w"] = _xavier(rng, cout, cout, (cout, cout, 1, 1))
        ps[f"backbone.b{i}.res.b"] = np.zeros(cout)
        cin = cout
    ps["backbone.proj.w"] = _xavier(rng, cin, d, (d, cin, 1, 1))
    ps["backbone.proj.b"] = np.zeros(d)

    _add_linear(ps, rng, "embed.state", cfg.d_state, d)
    ps["embed.state.pos"] = 0.02 * rng.standard_normal(d)

    ps["vae.cls"] = 0.02 * rng.standard_normal(d)
    _add_linear(ps, rng, "vae.state", cfg.d_state, d)
    _add_linear(ps, rng, "vae.action", cfg.d_action, d)
    for i in range(cfg.n_layers_vae):
        _add_encoder_layer(ps, rng, f"vae.layers.{i}", cfg)
    _add_layernorm(ps, "vae.ln", d)
    _add_linear(ps, rng, "vae.head", d, 2 * cfg.d_z)

    _add_linear(ps, rng, "ztok", cfg.d_z, d)
    ps["ztok.pos"] = 0.02 * rng.standard_normal(d)

    for i in range(cfg.n_layers_enc):
        _add_encoder_layer(ps, rng, f"enc.layers.{i}", cfg)
    _add_layernorm(ps, "enc.ln", d)

    ps["dec.query"] = 0.02 * rng.standard_normal((cfg.k, d))
    for i in range(cfg.n_layers_dec):
        _add_decoder_layer(ps, rng, f"dec.layers.{i}", cfg)
    _add_layernorm(ps, "dec.ln", d)
    _add_linear(ps, rng, "head", d, cfg.d_action)


# --- transformer blocks ---


def _attend(x: Tensor, ps: ParameterSet, layer: str, ln: str, block: str, cfg: PolicyConfig,
            memory: Tensor | None = None) -> Tensor:
    """x + attention through layer's `ln` norm and `block` projections; over
    memory if given, else self-attention."""
    return T.attention(x, ps[f"{layer}.{ln}.g"], ps[f"{layer}.{ln}.b"],
                       *(ps[f"{layer}.{block}.{part}"] for part in _ATTENTION_PARTS),
                       cfg.n_heads, memory)


def _ffn(x: Tensor, ps: ParameterSet, layer: str, ln: str) -> Tensor:
    return T.feed_forward(x, ps[f"{layer}.{ln}.g"], ps[f"{layer}.{ln}.b"],
                          ps[f"{layer}.ff1.w"], ps[f"{layer}.ff1.b"],
                          ps[f"{layer}.ff2.w"], ps[f"{layer}.ff2.b"])


def _encoder_layer(x: Tensor, ps: ParameterSet, name: str, cfg: PolicyConfig) -> Tensor:
    return _ffn(_attend(x, ps, name, "ln1", "attn", cfg), ps, name, "ln2")


# --- observation tokenization ---


def _patchify(x: Tensor) -> Tensor:
    """(B, H, W, C) -> (B, H/2, W/2, C*4): every aligned 2x2 patch as one row,
    ordered (channel, row, column) like a flattened (Cout, Cin, 2, 2) kernel."""
    bsz, h, w, c = x.shape
    x = T.reshape(x, (bsz, h // 2, 2, w // 2, 2, c))
    x = T.transpose(x, (0, 1, 3, 5, 2, 4))
    return T.reshape(x, (bsz, h // 2, w // 2, c * 4))


def _conv(x: Tensor, ps: ParameterSet, name: str) -> Tensor:
    """Convolution with a kernel that spans one row of x's last axis: the
    stored (Cout, Cin, kh, kw) kernel as a (Cin*kh*kw, Cout) matrix."""
    w = ps[f"{name}.w"]
    return T.linear(x, T.transpose(T.reshape(w, (w.shape[0], -1)), (1, 0)), ps[f"{name}.b"])


def image_feature_tokens(images: np.ndarray, ps: ParameterSet, cfg: PolicyConfig) -> Tensor:
    """Backbone features of (B, 1, H, W) images as (B, fh*fw, d_model) tokens,
    before any positional encoding, ordered row-major over the feature grid.
    Tokens are local: each sees exactly one aligned 2^len(channels)-pixel
    square patch.

    The backbone runs channels-last: each 2x2/stride-2 convolution is a
    patchify followed by a linear map, each 1x1 convolution a linear map."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[1] != 1:
        raise ValueError(f"images must have shape (B, 1, H, W), got {images.shape}")
    x = Tensor(images[:, 0, :, :, None])
    for bi in range(len(cfg.backbone_channels)):
        x = T.gelu(_conv(_patchify(x), ps, f"backbone.b{bi}.down"))
        x = T.gelu(T.add(x, _conv(x, ps, f"backbone.b{bi}.res")))
    x = _conv(x, ps, "backbone.proj")
    return T.reshape(x, (images.shape[0], cfg.feat_height * cfg.feat_width, cfg.d_model))


def embed_observation(images: np.ndarray, state: np.ndarray, ps: ParameterSet,
                      cfg: PolicyConfig) -> Tensor:
    """Tokenize one observation batch: [image tokens ..., state token]."""
    feats = image_feature_tokens(images, ps, cfg)
    pe = sinusoidal_pos_2d(cfg.feat_height, cfg.feat_width, cfg.d_model)
    img_tokens = T.add(feats, Tensor(pe))

    state = np.asarray(state, dtype=np.float64)
    if state.ndim == 1:
        state = state[None, :]
    if state.shape != (images.shape[0], cfg.d_state):
        raise ValueError(f"state must have shape (B, {cfg.d_state}), got {state.shape}")
    st = T.linear(Tensor(state / STATE_SCALE_13), ps["embed.state.w"], ps["embed.state.b"])
    st = T.add(st, ps["embed.state.pos"])
    st = T.reshape(st, (state.shape[0], 1, cfg.d_model))
    return T.concat([img_tokens, st], axis=1)


# --- CVAE style encoder ---


def encode_style(state: np.ndarray, actions: np.ndarray, ps: ParameterSet,
                 cfg: PolicyConfig, eps: np.ndarray | None = None) -> LatentStyle:
    """Posterior over z from (state, action chunk); z = mu + sigma*eps.

    `eps` is the reparameterization draw, (B, d_z); omitted -> zeros (z = mu).
    """
    state = np.asarray(state, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if state.ndim == 1:
        state = state[None, :]
    if actions.ndim == 2:
        actions = actions[None, :, :]
    bsz = state.shape[0]
    if actions.shape != (bsz, cfg.k, cfg.d_action):
        raise ValueError(
            f"actions must have shape (B, {cfg.k}, {cfg.d_action}), got {actions.shape}"
        )
    d = cfg.d_model
    cls = T.add(Tensor(np.zeros((bsz, 1, d))), T.reshape(ps["vae.cls"], (1, d)))
    st = T.linear(Tensor(state / STATE_SCALE_13), ps["vae.state.w"], ps["vae.state.b"])
    st = T.reshape(st, (bsz, 1, d))
    act = T.linear(Tensor(actions / cfg.action_scale_vec()), ps["vae.action.w"],
                   ps["vae.action.b"])
    x = T.concat([cls, st, act], axis=1)
    x = T.add(x, Tensor(sinusoidal_pos_1d(cfg.k + 2, d)))
    for i in range(cfg.n_layers_vae):
        x = _encoder_layer(x, ps, f"vae.layers.{i}", cfg)
    x = T.layer_norm(x, ps["vae.ln.g"], ps["vae.ln.b"])
    head = T.linear(x[:, 0, :], ps["vae.head.w"], ps["vae.head.b"])
    mu = head[:, : cfg.d_z]
    log_sigma = head[:, cfg.d_z :]
    if eps is None:
        eps = np.zeros((bsz, cfg.d_z))
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (bsz, cfg.d_z):
        raise ValueError(f"eps must have shape (B, {cfg.d_z}), got {eps.shape}")
    z = T.add(mu, T.mul(T.exp(log_sigma), Tensor(eps)))
    return LatentStyle(mu=mu, log_sigma=log_sigma, z=z)


# --- chunk prediction ---


def decoder_start(ps: ParameterSet, cfg: PolicyConfig, bsz: int) -> Tensor:
    """Decoder layer 0's state after its self-attention block, (bsz, k, d_model).
    It reads only dec.query and that block's parameters, never the observation."""
    queries = T.add(Tensor(np.zeros((bsz, cfg.k, cfg.d_model))), ps["dec.query"])
    return _attend(queries, ps, "dec.layers.0", "ln1", "self", cfg)


def predict_chunk(obs_tokens: Tensor, z, ps: ParameterSet, cfg: PolicyConfig,
                  start: Tensor | None = None) -> Tensor:
    """Predicted action chunk (B, k, d_action), tanh-squashed to actuator bounds.

    `start` is decoder_start(ps, cfg, B), computed here when omitted."""
    if not isinstance(z, Tensor):
        z = Tensor(np.asarray(z, dtype=np.float64))
    if z.ndim == 1:
        z = T.reshape(z, (1, z.shape[0]))
    bsz = obs_tokens.shape[0]
    d = cfg.d_model
    zt = T.linear(z, ps["ztok.w"], ps["ztok.b"])
    zt = T.add(zt, ps["ztok.pos"])
    zt = T.reshape(zt, (bsz, 1, d))
    x = T.concat([obs_tokens, zt], axis=1)
    for i in range(cfg.n_layers_enc):
        x = _encoder_layer(x, ps, f"enc.layers.{i}", cfg)
    memory = T.layer_norm(x, ps["enc.ln.g"], ps["enc.ln.b"])

    y = decoder_start(ps, cfg, bsz) if start is None else start
    for i in range(cfg.n_layers_dec):
        name = f"dec.layers.{i}"
        if i > 0:
            y = _attend(y, ps, name, "ln1", "self", cfg)
        y = _attend(y, ps, name, "ln2", "cross", cfg, memory)
        y = _ffn(y, ps, name, "ln3")
    y = T.layer_norm(y, ps["dec.ln.g"], ps["dec.ln.b"])
    raw = T.linear(y, ps["head.w"], ps["head.b"])
    return T.mul(T.tanh(raw), Tensor(cfg.action_scale_vec()))


def infer_chunk(images: np.ndarray, state: np.ndarray, ps: ParameterSet,
                cfg: PolicyConfig, start: Tensor | None = None) -> np.ndarray:
    """Inference-time (k, d_action) chunk for a single observation; style z is
    zero and no autodiff graph is recorded. `start` is decoder_start(ps, cfg, 1),
    computed here when omitted."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    with T.no_grad():
        tokens = embed_observation(images, state, ps, cfg)
        out = predict_chunk(tokens, np.zeros((1, cfg.d_z)), ps, cfg, start)
    return out.data[0]
