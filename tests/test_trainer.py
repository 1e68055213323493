import math
from dataclasses import asdict

import numpy as np
import pytest

from actdock.dynamics import Action, InitMode, SimConfig
from actdock.evaluate import Episode, StepRecord
from actdock.expert import ExpertConfig, generate_demos
from actdock import policy
from actdock.policy import LatentStyle, PolicyConfig, init_params
from actdock.render import CameraModel, MarkerGeometry
from actdock.tensor import ParameterSet, Tensor
from actdock.training import (
    DemoDataset,
    TrainConfig,
    TrainingError,
    bc_loss,
    chunk_l1,
    kl_divergence,
    load_policy,
    train,
    write_loss_curve,
)

from conftest import make_state, tiny_policy_config


def tiny_camera():
    return CameraModel(f=8.0, cx=4.0, cy=4.0, width=8, height=8)


def short_demos(n=3, seed=0, horizon=6):
    sim = SimConfig(horizon=horizon)
    return generate_demos(n, InitMode.SAME, seed, ExpertConfig(), sim)


class TestChunkL1:
    def test_hand_value_with_mask(self):
        pred = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]), requires_grad=True)
        target = np.zeros((1, 2, 2))
        mask = np.array([[True, False]])
        # |diff| over the unmasked row sums to 3 across 2 entries
        assert chunk_l1(pred, target, mask).item() == pytest.approx(1.5)

    def test_hand_value_all_unmasked(self):
        pred = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]), requires_grad=True)
        target = np.zeros((1, 2, 2))
        mask = np.ones((1, 2), dtype=bool)
        assert chunk_l1(pred, target, mask).item() == pytest.approx(2.5)

    def test_masked_rows_get_no_gradient(self):
        pred = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]), requires_grad=True)
        loss = chunk_l1(pred, np.zeros((1, 2, 2)), np.array([[True, False]]))
        loss.backward()
        np.testing.assert_allclose(pred.grad[0, 0], [0.5, 0.5])
        np.testing.assert_allclose(pred.grad[0, 1], [0.0, 0.0])

    def test_all_masked_rejected(self):
        pred = Tensor(np.zeros((1, 2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            chunk_l1(pred, np.zeros((1, 2, 2)), np.zeros((1, 2), dtype=bool))


class TestKL:
    def test_standard_normal_is_zero(self):
        style = LatentStyle(
            mu=Tensor(np.zeros((2, 3))), log_sigma=Tensor(np.zeros((2, 3))),
            z=Tensor(np.zeros((2, 3))))
        assert kl_divergence(style).item() == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        # 0.5*(mu^2 + s^2 - 1 - 2 log s) per latent: 0.125 and 0.93185282
        mu = Tensor(np.array([[0.5, -0.5]]))
        ls = Tensor(np.array([[0.0, math.log(2.0)]]))
        style = LatentStyle(mu=mu, log_sigma=ls, z=mu)
        expected = 0.125 + 0.5 * (0.25 + 4.0 - 1.0 - 2.0 * math.log(2.0))
        assert kl_divergence(style).item() == pytest.approx(expected, rel=1e-12)

    def test_batch_average(self):
        mu = Tensor(np.array([[1.0], [0.0]]))
        ls = Tensor(np.zeros((2, 1)))
        style = LatentStyle(mu=mu, log_sigma=ls, z=mu)
        assert kl_divergence(style).item() == pytest.approx(0.25, rel=1e-12)

    def test_bc_loss_combines(self):
        pred = Tensor(np.ones((1, 1, 2)), requires_grad=True)
        mu = Tensor(np.array([[1.0]]))
        style = LatentStyle(mu=mu, log_sigma=Tensor(np.zeros((1, 1))), z=mu)
        total, l1, kl = bc_loss(pred, np.zeros((1, 1, 2)),
                                np.ones((1, 1), dtype=bool), style, beta=10.0)
        assert l1.item() == pytest.approx(1.0)
        assert kl.item() == pytest.approx(0.5)
        assert total.item() == pytest.approx(1.0 + 10.0 * 0.5)


def graph_size(root):
    """(tensors reachable from root, those holding a backward closure)."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return len(seen), sum(node._backward is not None for node in seen.values())


def test_default_bc_loss_graph_size():
    """Every pre-norm attention and feed-forward block (layer norm, block,
    residual add) is one node; splitting one again (or adding nodes anywhere
    else) changes these counts."""
    cfg = PolicyConfig()
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    states = rng.normal(size=(2, cfg.d_state))
    targets = rng.uniform(-1.0, 1.0, size=(2, cfg.k, cfg.d_action))
    tokens = policy.embed_observation(rng.uniform(size=(2, 1, cfg.image_height,
                                                        cfg.image_width)), states, params, cfg)
    style = policy.encode_style(states, targets, params, cfg, rng.normal(size=(2, cfg.d_z)))
    pred = policy.predict_chunk(tokens, style.z, params, cfg)
    total, _, _ = bc_loss(pred, targets, np.ones((2, cfg.k), dtype=bool), style, beta=10.0)
    assert graph_size(total) == (264, 99)


def fake_episode(actions, eid=0):
    records = [
        StepRecord(state=make_state(r=(0.0, -25.0 + i, 0.0)),
                   action=Action(thrust=np.full(3, float(a)), torque=np.zeros(3)),
                   dt=0.9)
        for i, a in enumerate(actions)
    ]
    return Episode(episode_id=eid, seed=0, policy="expert", records=records,
                   final_state=make_state())


class TestDemoDataset:
    def test_flat_index_covers_all_steps(self):
        ds = DemoDataset([fake_episode([1, 2, 3]), fake_episode([4, 5], eid=1)])
        assert len(ds) == 5
        assert ds.entry(0) == (0, 0)
        assert ds.entry(3) == (1, 0)
        assert ds.entry(4) == (1, 1)

    def test_chunk_targets_inside_episode(self):
        ds = DemoDataset([fake_episode([1, 2, 3])])
        target, mask = ds.chunk_targets(0, 0, k=2)
        np.testing.assert_allclose(target[:, 0], [1.0, 2.0])
        assert mask.tolist() == [True, True]

    def test_chunk_targets_pad_repeat_last(self):
        ds = DemoDataset([fake_episode([1, 2, 3])])
        target, mask = ds.chunk_targets(0, 2, k=4)
        np.testing.assert_allclose(target[:, 0], [3.0, 3.0, 3.0, 3.0])
        assert mask.tolist() == [True, False, False, False]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DemoDataset([])
        with pytest.raises(ValueError):
            DemoDataset([Episode(episode_id=0, seed=0, policy="x", records=[],
                                 final_state=make_state())])


class TestTrainConfig:
    def test_defaults_pass(self):
        TrainConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("iterations", 0), ("batch_size", 0), ("learning_rate", 0.0),
        ("beta", -1.0), ("checkpoint_every", -1),
    ])
    def test_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value}).validate()


class TestTrainLoop:
    def test_smoke_loss_drops(self, tmp_path):
        demos = short_demos()
        cfg = tiny_policy_config()
        tcfg = TrainConfig(iterations=60, batch_size=4, learning_rate=3e-4, seed=1)
        params, curve = train(demos, cfg, tcfg, tiny_camera(), MarkerGeometry())
        assert len(curve) == 60
        first = np.mean([c[1] for c in curve[:10]])
        last = np.mean([c[1] for c in curve[-10:]])
        assert last < first
        assert all(math.isfinite(c[3]) for c in curve)

    def test_deterministic_given_seed(self):
        demos = short_demos(n=2)
        cfg = tiny_policy_config()
        tcfg = TrainConfig(iterations=5, batch_size=2, seed=7)
        p1, c1 = train(demos, cfg, tcfg, tiny_camera(), MarkerGeometry())
        p2, c2 = train(demos, cfg, tcfg, tiny_camera(), MarkerGeometry())
        assert c1 == c2
        for name, t in p1.items():
            np.testing.assert_array_equal(t.data, p2[name].data)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        demos = short_demos(n=2)
        cfg = tiny_policy_config()
        cam, marker = tiny_camera(), MarkerGeometry()
        straight, _ = train(demos, cfg, TrainConfig(iterations=10, batch_size=2, seed=3),
                            cam, marker)
        ckpt = tmp_path / "half.npz"
        train(demos, cfg, TrainConfig(iterations=5, batch_size=2, seed=3),
              cam, marker, checkpoint_path=ckpt)
        resumed, curve = train(demos, cfg, TrainConfig(iterations=10, batch_size=2, seed=3),
                               cam, marker, resume_from=ckpt)
        assert [c[0] for c in curve] == list(range(5, 10))
        for name, t in straight.items():
            np.testing.assert_array_equal(t.data, resumed[name].data)

    @pytest.mark.parametrize("field, value", [("k", 3), ("d_ff", 16)])
    def test_resume_rejects_other_policy_config(self, tmp_path, field, value):
        demos = short_demos(n=2)
        cam, marker = tiny_camera(), MarkerGeometry()
        ckpt = tmp_path / "half.npz"
        train(demos, tiny_policy_config(), TrainConfig(iterations=2, batch_size=2, seed=3),
              cam, marker, checkpoint_path=ckpt)
        with pytest.raises(ValueError) as err:
            train(demos, tiny_policy_config(**{field: value}),
                  TrainConfig(iterations=4, batch_size=2, seed=3),
                  cam, marker, resume_from=ckpt)
        assert str(err.value) == (f"checkpoint {ckpt}: policy_config differs from "
                                  f"the run's in {field}")

    def test_checkpoint_round_trip(self, tmp_path):
        demos = short_demos(n=2)
        cfg = tiny_policy_config()
        ckpt = tmp_path / "policy.npz"
        params, _ = train(demos, cfg, TrainConfig(iterations=3, batch_size=2, seed=2),
                          tiny_camera(), MarkerGeometry(), checkpoint_path=ckpt,
                          meta_extra={"note": "smoke"})
        loaded, cfg2, meta = load_policy(ckpt)
        assert cfg2 == cfg
        assert meta["iteration"] == 3
        assert meta["note"] == "smoke"
        for name, t in params.items():
            np.testing.assert_array_equal(t.data, loaded[name].data)

    def test_periodic_checkpoints_written(self, tmp_path, monkeypatch):
        demos = short_demos(n=1)
        cfg = tiny_policy_config()
        ckpt = tmp_path / "p.npz"
        saved = []
        save = ParameterSet.save

        def recorded(self, path, meta=None):
            saved.append(meta["iteration"])
            save(self, path, meta=meta)

        monkeypatch.setattr(ParameterSet, "save", recorded)
        train(demos, cfg, TrainConfig(iterations=4, batch_size=1, seed=0,
                                      checkpoint_every=2),
              tiny_camera(), MarkerGeometry(), checkpoint_path=ckpt)
        assert saved == [2, 4]
        _, _, meta = load_policy(ckpt)
        assert meta["iteration"] == 4

    def test_missing_config_metadata_rejected(self, tmp_path):
        params = init_params(tiny_policy_config(), seed=0)
        path = tmp_path / "bare.npz"
        params.save(path, meta={"iteration": 0})
        with pytest.raises(ValueError, match="policy_config"):
            load_policy(path)

    def test_parameter_shapes_checked_against_policy_config(self, tmp_path):
        cfg = tiny_policy_config()
        path = tmp_path / "wide.ckpt"
        init_params(cfg, seed=0).save(path, meta={"policy_config": asdict(cfg)})
        load_policy(path)
        wider = asdict(cfg)
        wider["d_ff"] = 2 * cfg.d_ff
        init_params(cfg, seed=0).save(path, meta={"policy_config": wider})
        expect = (r"wide\.ckpt: parameter '.*ff1\.w': file has \(32, 32\), "
                  r"policy_config expects \(32, 64\)")
        with pytest.raises(ValueError, match=expect):
            load_policy(path)

    def test_divergence_reported_with_iteration(self):
        demos = short_demos(n=1)
        cfg = tiny_policy_config()
        # an absurd learning rate overflows the exp inside a few steps
        tcfg = TrainConfig(iterations=50, batch_size=2, learning_rate=1e6, seed=0)
        with pytest.raises(TrainingError, match="iteration"):
            with np.errstate(over="ignore", invalid="ignore"):
                train(demos, cfg, tcfg, tiny_camera(), MarkerGeometry())


class TestLossCurveFile:
    def test_round_trips_exact_floats(self, tmp_path):
        curve = [(0, 0.5, 179.25, 1793.0), (1, 1 / 3, 2 / 7, 0.1)]
        path = tmp_path / "curve.csv"
        write_loss_curve(path, curve)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "iteration,l1,kl,total"
        for line, (it, l1, kl, total) in zip(lines[1:], curve):
            f = line.split(",")
            assert int(f[0]) == it
            assert float(f[1]) == l1 and float(f[2]) == kl and float(f[3]) == total
