"""Single JSON run configuration covering every module, strictly validated.

Unknown keys are rejected with the full dotted path; values are coerced to
the field's type. policy.image size and policy.action_scale default to the
camera size and sim actuator bounds unless set explicitly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dynamics import InitMode, SimConfig
from .evaluate import GridSpec
from .expert import ExpertConfig
from .policy import PolicyConfig
from .render import CameraModel, MarkerGeometry
from .training import TrainConfig

CONFIG_FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Configuration rejected; message names the offending field."""


@dataclass
class EvalConfig:
    n_episodes: int = 100
    mode: str = "same"
    ensemble_decay: float = 0.01  # temporal-ensembling weight decay m
    success_radii: tuple = (0.8, 2.0, 4.0)

    def validate(self) -> None:
        if self.n_episodes < 1:
            raise ValueError(f"eval.n_episodes must be >= 1, got {self.n_episodes}")
        if self.mode not in ("same", "random"):
            raise ValueError(f"eval.mode must be 'same' or 'random', got {self.mode!r}")
        if self.ensemble_decay < 0.0:
            raise ValueError(f"eval.ensemble_decay must be >= 0, got {self.ensemble_decay}")
        if not self.success_radii or any(r <= 0 for r in self.success_radii):
            raise ValueError("eval.success_radii must be positive")

    def init_mode(self) -> InitMode:
        return InitMode(self.mode)


@dataclass
class RunConfig:
    seed: int = 0
    sim: SimConfig = field(default_factory=SimConfig)
    camera: CameraModel = field(default_factory=CameraModel)
    marker: MarkerGeometry = field(default_factory=MarkerGeometry)
    expert: ExpertConfig = field(default_factory=ExpertConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    grid: GridSpec = field(default_factory=GridSpec)

    def validate(self) -> None:
        for name in ("sim", "camera", "marker", "expert", "policy", "train", "eval", "grid"):
            try:
                getattr(self, name).validate()
            except ValueError as err:
                raise ConfigError(str(err)) from None
        if (self.policy.image_height, self.policy.image_width) != (
            self.camera.height, self.camera.width
        ):
            raise ConfigError(
                "policy image size "
                f"{self.policy.image_height}x{self.policy.image_width} does not match "
                f"camera {self.camera.height}x{self.camera.width}"
            )
        expected_scale = (self.sim.t_max,) * 3 + (self.sim.l_max,) * 3
        if tuple(self.policy.action_scale) != expected_scale:
            raise ConfigError(
                f"policy.action_scale {self.policy.action_scale} does not match sim "
                f"actuator bounds {expected_scale}"
            )


_SECTIONS = ("sim", "camera", "marker", "expert", "policy", "train", "eval", "grid")


def _apply_section(obj, data: dict, section: str) -> None:
    valid = {f.name for f in fields(obj)}
    for key, raw in data.items():
        if key not in valid:
            raise ConfigError(f"unknown key '{section}.{key}'")
        current = getattr(obj, key)
        try:
            if isinstance(current, np.ndarray):
                arr = np.asarray(raw, dtype=np.float64)
                if arr.shape == (3,):  # diagonal shorthand for the inertia tensor
                    arr = np.diag(arr)
                value = arr
            elif isinstance(current, bool):
                if not isinstance(raw, bool):
                    raise ValueError("expected true/false")
                value = raw
            elif isinstance(current, int):
                if isinstance(raw, bool) or int(raw) != raw:
                    raise ValueError("expected an integer")
                value = int(raw)
            elif isinstance(current, float):
                value = float(raw)
            elif isinstance(current, tuple):
                value = tuple(raw)
            elif isinstance(current, str):
                value = str(raw)
            else:
                value = raw
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad value for '{section}.{key}': {err}") from None
        setattr(obj, key, value)


def load_run_config(source) -> RunConfig:
    """Build a RunConfig from a dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        data = source
    else:
        text = source if isinstance(source, str) and source.lstrip().startswith("{") else None
        if text is None:
            with open(source, "r", encoding="utf-8") as f:
                text = f.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err.msg} (line {err.lineno})") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    version = data.get("format_version")
    if version != CONFIG_FORMAT_VERSION:
        raise ConfigError(f"config format_version must be {CONFIG_FORMAT_VERSION}, got {version!r}")

    cfg = RunConfig()
    allowed_top = {"format_version", "seed", *_SECTIONS}
    for key in data:
        if key not in allowed_top:
            raise ConfigError(f"unknown key '{key}'")
    if "seed" in data:
        if isinstance(data["seed"], bool) or int(data["seed"]) != data["seed"]:
            raise ConfigError("bad value for 'seed': expected an integer")
        cfg.seed = int(data["seed"])
    for section in _SECTIONS:
        if section in data:
            if not isinstance(data[section], dict):
                raise ConfigError(f"'{section}' must be a JSON object")
            _apply_section(getattr(cfg, section), data[section], section)
    # derive policy geometry/bounds from camera and sim unless given explicitly
    policy_keys = data.get("policy", {})
    if "image_height" not in policy_keys:
        cfg.policy.image_height = cfg.camera.height
    if "image_width" not in policy_keys:
        cfg.policy.image_width = cfg.camera.width
    if "action_scale" not in policy_keys:
        cfg.policy.action_scale = (cfg.sim.t_max,) * 3 + (cfg.sim.l_max,) * 3
    cfg.validate()
    return cfg


def default_run_config() -> RunConfig:
    cfg = RunConfig()
    cfg.validate()
    return cfg


def section_dict(obj) -> dict:
    """JSON-safe dict of one config dataclass."""
    out = {}
    for key, val in asdict(obj).items():
        if isinstance(val, np.ndarray):
            val = val.tolist()
        elif isinstance(val, tuple):
            val = list(val)
        out[key] = val
    return out


def checkpoint_section(path, meta: dict, key: str, cls):
    """Checkpoint meta section `key` read like a run-config section into a
    validated `cls`; errors name the checkpoint and the field."""
    if key not in meta:
        raise ConfigError(f"checkpoint {path} carries no {key} metadata")
    obj = cls()
    try:
        if not isinstance(meta[key], dict):
            raise ConfigError(f"'{key}' must be a JSON object")
        _apply_section(obj, meta[key], key)
        obj.validate()
    except ValueError as err:
        raise ConfigError(f"checkpoint {path}: {err}") from None
    return obj
