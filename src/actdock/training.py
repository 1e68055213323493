"""Behavioral-cloning trainer: masked L1 on action chunks plus a weighted KL
pull of the style posterior toward the unit Gaussian prior.

Chunks are sampled uniformly over all (episode, step) pairs; targets past an
episode's end repeat its final action and are masked out of the loss. Camera
images are re-rendered from recorded states on the fly, so datasets stay
small and observations are exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .evaluate import Episode
from .policy import (
    LatentStyle,
    PolicyConfig,
    embed_observation,
    encode_style,
    init_params,
    param_shapes,
    predict_chunk,
)
from .render import CameraModel, MarkerGeometry, render
from .tensor import ParameterSet, Tensor


class TrainingError(RuntimeError):
    """Training diverged or was misconfigured at runtime."""


@dataclass
class TrainConfig:
    iterations: int = 20000
    batch_size: int = 8
    learning_rate: float = 1e-4
    beta: float = 10.0  # KL weight
    seed: int = 0
    checkpoint_every: int = 0  # also write every N iterations (0: only final)

    def validate(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"train.iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"train.learning_rate must be positive, got {self.learning_rate}")
        if self.beta < 0.0:
            raise ValueError(f"train.beta must be non-negative, got {self.beta}")
        if self.checkpoint_every < 0:
            raise ValueError(f"train.checkpoint_every must be >= 0, got {self.checkpoint_every}")


# --- losses ---


def chunk_l1(pred: T.Tensor, target: np.ndarray, mask: np.ndarray) -> T.Tensor:
    """Mean absolute error over unmasked chunk entries."""
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum()) * target.shape[-1]
    if count == 0:
        raise ValueError("chunk_l1: every chunk entry is masked")
    diff = T.tabs(T.add(pred, Tensor(-target)))
    masked = T.mul(diff, Tensor(mask[..., None].astype(np.float64)))
    return T.scale(T.tsum(masked), 1.0 / count)


def kl_divergence(style: LatentStyle) -> T.Tensor:
    """KL(q(z) || N(0, I)): 0.5 * sum(mu^2 + sigma^2 - 1 - 2 log sigma),
    summed over the latent, averaged over the batch."""
    mu2 = T.mul(style.mu, style.mu)
    s2 = T.exp(T.scale(style.log_sigma, 2.0))
    inner = T.add(T.add(mu2, s2), T.add(T.scale(style.log_sigma, -2.0), Tensor(-1.0)))
    return T.scale(T.scale(T.tsum(T.tsum(inner, axis=1)), 1.0 / inner.shape[0]), 0.5)


def bc_loss(pred: T.Tensor, target: np.ndarray, mask: np.ndarray, style: LatentStyle,
            beta: float) -> tuple[T.Tensor, T.Tensor, T.Tensor]:
    """(total, l1, kl) loss tensors; total = l1 + beta * kl."""
    l1 = chunk_l1(pred, target, mask)
    kl = kl_divergence(style)
    return T.add(l1, T.scale(kl, beta)), l1, kl


# --- dataset ---


class DemoDataset:
    """Flat index over every (episode, step) pair of a demo set."""

    def __init__(self, episodes: list[Episode]):
        if not episodes:
            raise ValueError("dataset needs at least one episode")
        for ep in episodes:
            if ep.steps < 1:
                raise ValueError(f"episode {ep.episode_id} has no steps")
        self.episodes = episodes
        self._index = [(i, t) for i, ep in enumerate(episodes) for t in range(ep.steps)]

    def __len__(self) -> int:
        return len(self._index)

    def entry(self, flat: int) -> tuple[int, int]:
        return self._index[flat]

    def chunk_targets(self, ep_index: int, t: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k target actions from step t; rows past the episode end repeat the
        final action and are masked False."""
        ep = self.episodes[ep_index]
        length = ep.steps
        target = np.empty((k, ep.records[0].action.vector().size))
        mask = np.zeros(k, dtype=bool)
        last = ep.records[-1].action.vector()
        for j in range(k):
            idx = t + j
            if idx < length:
                target[j] = ep.records[idx].action.vector()
                mask[j] = True
            else:
                target[j] = last
        return target, mask


# --- training loop ---


def _batch_arrays(dataset: DemoDataset, draws, k: int, cam: CameraModel,
                  marker: MarkerGeometry):
    states, images, targets, masks = [], [], [], []
    for ep_index, t in draws:
        ep = dataset.episodes[ep_index]
        rec = ep.records[t]
        states.append(rec.state.vector())
        images.append(render(rec.state, cam, marker)[None])  # one camera
        target, mask = dataset.chunk_targets(ep_index, t, k)
        targets.append(target)
        masks.append(mask)
    return (np.array(states), np.array(images), np.array(targets), np.array(masks))


def train(demos: list[Episode], policy_cfg: PolicyConfig, train_cfg: TrainConfig,
          cam: CameraModel, marker: MarkerGeometry, curve_path=None,
          checkpoint_path=None, resume_from=None,
          meta_extra: dict | None = None) -> tuple[ParameterSet, list]:
    """Run behavioral cloning; returns the trained parameters and the loss
    curve [(iteration, l1, kl, total)]. Bit-deterministic for a given seed."""
    policy_cfg.validate()
    train_cfg.validate()
    dataset = DemoDataset(demos)
    if resume_from is not None:
        params, saved_cfg, meta = load_policy(resume_from)
        ours, theirs = asdict(policy_cfg), asdict(saved_cfg)
        differ = [name for name in ours if ours[name] != theirs[name]]
        if differ:
            raise ValueError(f"checkpoint {resume_from}: policy_config differs from "
                             f"the run's in {', '.join(differ)}")
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = meta["rng_state"]
        start = int(meta["iteration"])
    else:
        params = init_params(policy_cfg, seed=train_cfg.seed)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((train_cfg.seed, 0xBC)))
        )
        start = 0
    scale = policy_cfg.action_scale_vec()
    curve = []

    def save(path, iteration):
        meta = {
            "iteration": iteration,
            "rng_state": rng.bit_generator.state,
            "policy_config": asdict(policy_cfg),
        }
        if meta_extra:
            meta.update(meta_extra)
        params.save(path, meta=meta)

    for it in range(start, train_cfg.iterations):
        flat = rng.integers(0, len(dataset), size=train_cfg.batch_size)
        draws = [dataset.entry(int(f)) for f in flat]
        eps = rng.standard_normal((train_cfg.batch_size, policy_cfg.d_z))
        states, images, targets, masks = _batch_arrays(
            dataset, draws, policy_cfg.k, cam, marker
        )
        try:
            tokens = embed_observation(images, states, params, policy_cfg)
            style = encode_style(states, targets, params, policy_cfg, eps)
            pred = predict_chunk(tokens, style.z, params, policy_cfg)
            pred_n = T.mul(pred, Tensor(1.0 / scale))
            total, l1, kl = bc_loss(pred_n, targets / scale, masks, style,
                                    train_cfg.beta)
        except ValueError as err:
            # the tensor engine rejects non-finite intermediates
            raise TrainingError(f"diverged at iteration {it}: {err}") from err
        if not math.isfinite(total.item()):
            raise TrainingError(f"non-finite loss at iteration {it}")
        params.zero_grad()
        total.backward()
        params.adam_step(lr=train_cfg.learning_rate)
        curve.append((it, l1.item(), kl.item(), total.item()))
        # the final save below writes the last iteration's checkpoint
        if (checkpoint_path is not None and train_cfg.checkpoint_every
                and (it + 1) % train_cfg.checkpoint_every == 0
                and it + 1 < train_cfg.iterations):
            save(checkpoint_path, it + 1)
    if checkpoint_path is not None:
        save(checkpoint_path, train_cfg.iterations)
    if curve_path is not None:
        write_loss_curve(curve_path, curve)
    return params, curve


def load_policy(path) -> tuple[ParameterSet, PolicyConfig, dict]:
    """Load a checkpoint back into (parameters, policy config, full meta).

    The embedded policy_config is validated like a run-config section, and the
    parameter names and shapes must be exactly the ones it builds."""
    from .config import checkpoint_section  # deferred: config imports this module

    params, meta = ParameterSet.load(path)
    cfg = checkpoint_section(path, meta, "policy_config", PolicyConfig)
    expected = param_shapes(cfg)
    found = {name: t.shape for name, t in params.items()}
    for name in [*expected, *found]:
        if found.get(name) != expected.get(name):
            raise ValueError(f"checkpoint {path}: parameter {name!r}: file has "
                             f"{found.get(name, 'no tensor')}, policy_config expects "
                             f"{expected.get(name, 'no tensor')}")
    return params, cfg, meta


def write_loss_curve(path, curve) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("iteration,l1,kl,total\n")
        for it, l1, kl, total in curve:
            f.write(f"{it},{l1!r},{kl!r},{total!r}\n")
