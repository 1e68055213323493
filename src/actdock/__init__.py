"""Desk-scale imitation-learned spacecraft docking.

Relative-motion simulator with synthetic camera views, a chunked
transformer policy trained by behavioral cloning from a scripted
expert, a temporal-ensembling executor, and an evaluation and
hypothesis-testing harness.
"""

from .dynamics import (
    Action,
    ChaserState,
    InitMode,
    PropagationError,
    SimConfig,
    episode_rng,
    mean_motion,
    sample_initial,
    step,
)
from .render import CameraModel, MarkerGeometry, render
from .policy import PolicyConfig, infer_chunk, init_params
from .ensemble import ChunkBuffer, ensemble, push
from .expert import ExpertConfig, ExpertController, expert_action, generate_demos
from .evaluate import (
    ActController,
    Episode,
    EvalReport,
    GridSpec,
    StepRecord,
    heatmap,
    rollout,
    run_episodes,
    smoothness,
    terminal_report,
)
from .training import TrainConfig, load_policy, train
from .config import ConfigError, RunConfig, default_run_config, load_run_config

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ActController",
    "CameraModel",
    "ChaserState",
    "ChunkBuffer",
    "ConfigError",
    "Episode",
    "EvalReport",
    "ExpertConfig",
    "ExpertController",
    "GridSpec",
    "InitMode",
    "MarkerGeometry",
    "PolicyConfig",
    "PropagationError",
    "RunConfig",
    "SimConfig",
    "StepRecord",
    "TrainConfig",
    "__version__",
    "default_run_config",
    "ensemble",
    "episode_rng",
    "expert_action",
    "generate_demos",
    "heatmap",
    "infer_chunk",
    "init_params",
    "load_policy",
    "load_run_config",
    "mean_motion",
    "push",
    "render",
    "rollout",
    "run_episodes",
    "sample_initial",
    "smoothness",
    "step",
    "terminal_report",
    "train",
]
