import numpy as np
import pytest

from actdock.policy import (
    PolicyConfig,
    embed_observation,
    encode_style,
    image_feature_tokens,
    infer_chunk,
    init_params,
    param_shapes,
    predict_chunk,
    sinusoidal_pos_1d,
    sinusoidal_pos_2d,
)
import actdock.policy as policy_mod
from actdock.training import bc_loss
import actdock.tensor as T
from actdock.tensor import Tensor

from conftest import tiny_policy_config
from oracles import conv2d_naive, layer_norm_naive, softmax_naive


@pytest.fixture(scope="module")
def cfg():
    return tiny_policy_config()


@pytest.fixture(scope="module")
def params(cfg):
    return init_params(cfg, seed=0)


def obs_batch(cfg, bsz=2, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 1, size=(bsz, 1, cfg.image_height, cfg.image_width))
    states = rng.normal(size=(bsz, cfg.d_state))
    states[:, 6:10] /= np.linalg.norm(states[:, 6:10], axis=1, keepdims=True)
    return images, states


class TestConfig:
    def test_default_valid(self):
        PolicyConfig().validate()

    def test_feature_grid(self):
        c = PolicyConfig()
        assert (c.feat_height, c.feat_width) == (3, 4)
        # three stride-2 stages on a 48x64 input give the 6x8 map
        wide = PolicyConfig(image_height=48, image_width=64)
        assert (wide.feat_height, wide.feat_width) == (6, 8)

    @pytest.mark.parametrize("kw", [
        dict(d_model=30),                 # not divisible by 4
        dict(d_model=64, n_heads=5),      # heads don't divide
        dict(k=0),
        dict(image_height=50),            # not divisible by 2^3
        dict(action_scale=(1.0,) * 5),    # wrong length
        dict(action_scale=(1.0,) * 5 + (-1.0,)),
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            PolicyConfig(**kw).validate()


class TestPositionalEncodings:
    def test_1d_first_row_is_zero_one_pattern(self):
        pe = sinusoidal_pos_1d(5, 8)
        assert np.array_equal(pe[0, 0::2], np.zeros(4))
        assert np.array_equal(pe[0, 1::2], np.ones(4))

    def test_1d_known_entry(self):
        pe = sinusoidal_pos_1d(3, 4)
        assert pe[2, 0] == pytest.approx(np.sin(2.0))
        assert pe[2, 1] == pytest.approx(np.cos(2.0))
        assert pe[2, 2] == pytest.approx(np.sin(2.0 / 10000.0 ** 0.5))

    def test_2d_origin_and_shape(self):
        pe = sinusoidal_pos_2d(3, 4, 8)
        assert pe.shape == (12, 8)
        assert np.array_equal(pe[0, 0::2], np.zeros(4))
        assert np.array_equal(pe[0, 1::2], np.ones(4))

    def test_2d_rows_and_columns_separable(self):
        pe = sinusoidal_pos_2d(3, 4, 8)
        # same row, different column: first half identical
        assert np.array_equal(pe[1][:4], pe[2][:4])
        # same column, different row: second half identical
        assert np.array_equal(pe[1][4:], pe[5][4:])

    @pytest.mark.parametrize("fn, args", [(sinusoidal_pos_1d, (6, 8)),
                                          (sinusoidal_pos_2d, (3, 4, 8))])
    def test_cached_codes_read_only(self, fn, args):
        pe = fn(*args)
        assert fn(*args) is pe and not pe.flags.writeable
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0
        assert np.array_equal(pe, fn.__wrapped__(*args))  # a fresh computation

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            sinusoidal_pos_1d(4, 7)
        with pytest.raises(ValueError):
            sinusoidal_pos_2d(2, 2, 6)


class TestInitParams:
    def test_deterministic(self, cfg):
        a = init_params(cfg, seed=3)
        b = init_params(cfg, seed=3)
        assert a.names() == b.names()
        for name, t in a.items():
            assert np.array_equal(t.data, b[name].data)

    def test_seed_changes_weights(self, cfg):
        a = init_params(cfg, seed=0)
        b = init_params(cfg, seed=1)
        assert any(not np.array_equal(t.data, b[name].data) for name, t in a.items())

    def test_param_shapes_match_init(self, cfg):
        for c in (cfg, PolicyConfig()):
            shapes = param_shapes(c)
            assert list(shapes.items()) == [(n, t.shape) for n, t in init_params(c).items()]

    def test_layer_norms_start_as_identity(self, params):
        assert np.array_equal(params["enc.ln.g"].data, np.ones(32))
        assert np.array_equal(params["enc.ln.b"].data, np.zeros(32))


class TestBackboneLocality:
    def test_token_patch_permutation(self):
        """Swapping two aligned input patches permutes the corresponding
        feature tokens exactly: the backbone is strictly patch-local."""
        cfg = tiny_policy_config(image_height=16, image_width=16)
        ps = init_params(cfg, seed=0)
        patch = 2 ** len(cfg.backbone_channels)
        assert (cfg.feat_height, cfg.feat_width) == (2, 2)
        rng = np.random.default_rng(8)
        img = rng.uniform(0, 1, size=(1, 1, 16, 16))
        swapped = img.copy()
        swapped[0, 0, :patch, :patch] = img[0, 0, patch:, patch:]
        swapped[0, 0, patch:, patch:] = img[0, 0, :patch, :patch]
        base = image_feature_tokens(img, ps, cfg).data[0]
        perm = image_feature_tokens(swapped, ps, cfg).data[0]
        # tokens are row-major over the 2x2 grid: 0 <-> 3 swapped, 1, 2 fixed
        np.testing.assert_allclose(perm[0], base[3], atol=1e-12)
        np.testing.assert_allclose(perm[3], base[0], atol=1e-12)
        np.testing.assert_allclose(perm[1], base[1], atol=1e-12)
        np.testing.assert_allclose(perm[2], base[2], atol=1e-12)

    def test_bad_image_shape_rejected(self, cfg, params):
        with pytest.raises(ValueError):
            image_feature_tokens(np.zeros((2, 3, 8, 8)), params, cfg)


def gelu_np(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


class TestChannelsLastBackbone:
    """The patchify + linear backbone against NCHW convolutions by conv2d_naive
    (single convolutions: tests/test_tensor.py TestConv2d)."""

    def test_feature_tokens_match_nchw_composition(self, cfg, params):
        images, _ = obs_batch(cfg)
        x = images
        for bi in range(len(cfg.backbone_channels)):
            name = f"backbone.b{bi}"
            x = gelu_np(conv2d_naive(x, params[f"{name}.down.w"].data,
                                     params[f"{name}.down.b"].data, stride=2))
            x = gelu_np(x + conv2d_naive(x, params[f"{name}.res.w"].data,
                                         params[f"{name}.res.b"].data))
        x = conv2d_naive(x, params["backbone.proj.w"].data, params["backbone.proj.b"].data)
        ref = x.reshape(x.shape[0], cfg.d_model, -1).transpose(0, 2, 1)  # token i*fw + j
        got = image_feature_tokens(images, params, cfg).data
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


class TestFusedAttentionBlock:
    def test_matches_per_node_composition(self, cfg, params):
        """_attend against the per-node form it replaced: layer norm, batched
        matmul + bias, per-head softmax, head merge, residual add; cross- and
        self-attention. Agreement is at rounding level."""
        rng = np.random.default_rng(14)
        layer = "dec.layers.1"
        h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads

        def split(a):
            return a.reshape(a.shape[0], a.shape[1], h, dh).transpose(0, 2, 1, 3)

        for ln, block, memory in (("ln2", "cross", rng.normal(size=(2, 5, cfg.d_model))),
                                  ("ln1", "self", None)):
            x = rng.normal(size=(2, 3, cfg.d_model))
            p = {part: params[f"{layer}.{block}.{part}"].data
                 for part in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")}
            normed = layer_norm_naive(x, params[f"{layer}.{ln}.g"].data,
                                      params[f"{layer}.{ln}.b"].data)
            kv = normed if memory is None else memory
            q, k, v = (split(a @ p[f"w{c}"] + p[f"b{c}"]) for c, a in
                       (("q", normed), ("k", kv), ("v", kv)))
            heads = softmax_naive(q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)) @ v
            ref = x + heads.transpose(0, 2, 1, 3).reshape(x.shape) @ p["wo"] + p["bo"]
            got = policy_mod._attend(Tensor(x), params, layer, ln, block, cfg,
                                     None if memory is None else Tensor(memory)).data
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14, err_msg=block)


class TestEmbedObservation:
    def test_token_count_and_shape(self, cfg, params):
        images, states = obs_batch(cfg)
        tokens = embed_observation(images, states, params, cfg)
        assert tokens.shape == (2, cfg.feat_height * cfg.feat_width + 1, cfg.d_model)

    def test_state_only_touches_state_token(self, cfg, params):
        images, states = obs_batch(cfg)
        t1 = embed_observation(images, states, params, cfg).data
        states2 = states.copy()
        states2[0, 0] += 1.0
        t2 = embed_observation(images, states2, params, cfg).data
        assert np.array_equal(t1[0, :-1], t2[0, :-1])
        assert not np.array_equal(t1[0, -1], t2[0, -1])
        assert np.array_equal(t1[1], t2[1])  # other batch row untouched

    def test_state_shape_rejected(self, cfg, params):
        images, states = obs_batch(cfg)
        with pytest.raises(ValueError):
            embed_observation(images, states[:, :5], params, cfg)


class TestEncodeStyle:
    def test_zero_eps_gives_mu(self, cfg, params):
        _, states = obs_batch(cfg)
        actions = np.random.default_rng(1).uniform(-1, 1, size=(2, cfg.k, cfg.d_action))
        style = encode_style(states, actions, params, cfg)
        assert np.array_equal(style.z.data, style.mu.data)
        assert style.mu.shape == (2, cfg.d_z)
        assert style.log_sigma.shape == (2, cfg.d_z)

    def test_reparameterization(self, cfg, params):
        _, states = obs_batch(cfg)
        actions = np.zeros((2, cfg.k, cfg.d_action))
        eps = np.ones((2, cfg.d_z))
        style = encode_style(states, actions, params, cfg, eps)
        expected = style.mu.data + np.exp(style.log_sigma.data)
        np.testing.assert_allclose(style.z.data, expected, atol=1e-12)

    def test_bad_shapes_rejected(self, cfg, params):
        _, states = obs_batch(cfg)
        with pytest.raises(ValueError):
            encode_style(states, np.zeros((2, cfg.k + 1, cfg.d_action)), params, cfg)
        with pytest.raises(ValueError):
            encode_style(states, np.zeros((2, cfg.k, cfg.d_action)), params, cfg,
                         eps=np.zeros((2, cfg.d_z + 1)))


class TestPredictChunk:
    def test_shape_and_bounds(self, cfg, params):
        images, states = obs_batch(cfg)
        tokens = embed_observation(images, states, params, cfg)
        out = predict_chunk(tokens, np.zeros((2, cfg.d_z)), params, cfg)
        assert out.shape == (2, cfg.k, cfg.d_action)
        bound = np.asarray(cfg.action_scale)
        assert (np.abs(out.data) <= bound).all()

    def test_saturated_head_reaches_bounds(self, cfg, params):
        # tanh squashing approaches but never exceeds the bound
        images, states = obs_batch(cfg)
        tokens = embed_observation(images, states, params, cfg)
        out = predict_chunk(tokens, 100.0 * np.ones((2, cfg.d_z)), params, cfg)
        assert (np.abs(out.data) < np.asarray(cfg.action_scale)).all()

    def test_gradients_reach_every_parameter(self, cfg, params):
        images, states = obs_batch(cfg)
        targets = np.random.default_rng(2).uniform(-0.5, 0.5, size=(2, cfg.k, cfg.d_action))
        masks = np.ones((2, cfg.k), dtype=bool)
        eps = np.random.default_rng(3).normal(size=(2, cfg.d_z))
        params.zero_grad()
        tokens = embed_observation(images, states, params, cfg)
        style = encode_style(states, targets, params, cfg, eps)
        pred = predict_chunk(tokens, style.z, params, cfg)
        scale = cfg.action_scale_vec()
        total, _, _ = bc_loss(T.mul(pred, Tensor(1.0 / scale)), targets / scale,
                              masks, style, beta=10.0)
        total.backward()
        missing = [name for name, t in params.items() if t.grad is None]
        assert missing == []
        zero = [name for name, t in params.items() if np.abs(t.grad).max() == 0.0]
        assert zero == []
        params.zero_grad()


class TestInferChunk:
    def test_returns_action_array(self, cfg, params):
        images, states = obs_batch(cfg, bsz=1)
        chunk = infer_chunk(images[0], states[0], params, cfg)
        assert isinstance(chunk, np.ndarray)
        assert chunk.shape == (cfg.k, cfg.d_action)

    def test_deterministic(self, cfg, params):
        images, states = obs_batch(cfg, bsz=1)
        a = infer_chunk(images[0], states[0], params, cfg)
        b = infer_chunk(images[0], states[0], params, cfg)
        assert np.array_equal(a, b)

    def test_no_graph_and_same_actions_as_grad_mode(self, cfg, params, monkeypatch):
        images, states = obs_batch(cfg, bsz=1)
        params.zero_grad()
        outputs = []
        real = policy_mod.predict_chunk

        def capture(*args, **kwargs):
            outputs.append(real(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(policy_mod, "predict_chunk", capture)
        chunk = infer_chunk(images[0], states[0], params, cfg)
        (out,) = outputs
        assert out._parents == () and out._backward is None and not out.requires_grad
        assert all(t.grad is None for _, t in params.items())
        tokens = embed_observation(images, states, params, cfg)
        grad_mode = real(tokens, np.zeros((1, cfg.d_z)), params, cfg)
        assert grad_mode.requires_grad
        assert np.array_equal(chunk, grad_mode.data[0])

    def test_batched_predict_matches_single_infer(self):
        """predict_chunk on 8 observations at z = 0 against 8 B=1 infer_chunk
        calls. Not bit-exact: the GEMMs run at another row count, which moves
        results at the ulp level (up to 3.2e-14 N over six seeds with
        OpenBLAS 0.3.31); 1e-12 N pins that."""
        cfg = PolicyConfig()
        params = init_params(cfg, seed=1)
        images, states = obs_batch(cfg, bsz=8, seed=1)
        with T.no_grad():
            tokens = embed_observation(images, states, params, cfg)
            batch = predict_chunk(tokens, np.zeros((8, cfg.d_z)), params, cfg).data
        single = np.stack([infer_chunk(images[i], states[i], params, cfg) for i in range(8)])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)

    def test_given_start_is_the_computed_one(self, cfg, params):
        images, states = obs_batch(cfg, bsz=1)
        with T.no_grad():
            start = policy_mod.decoder_start(params, cfg, 1)
        assert start.shape == (1, cfg.k, cfg.d_model)
        assert np.array_equal(infer_chunk(images[0], states[0], params, cfg, start),
                              infer_chunk(images[0], states[0], params, cfg))
        with pytest.raises(T.ShapeError):  # a start for another batch size
            infer_chunk(images[0], states[0], params, cfg,
                        policy_mod.decoder_start(params, cfg, 2))
