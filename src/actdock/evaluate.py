"""Closed-loop episode rollout, terminal metrics and occupancy heatmaps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    Action,
    ChaserState,
    InitMode,
    PropagationError,
    SimConfig,
    episode_rng,
    sample_dt,
    sample_initial,
    step,
)
from .ensemble import ChunkBuffer, ensemble, push
from .policy import PolicyConfig, decoder_start, infer_chunk
from .render import CameraModel, MarkerGeometry, render
from .tensor import ParameterSet, no_grad


@dataclass
class StepRecord:
    """State observed at decision time, the action taken, and the hold time."""

    state: ChaserState
    action: Action
    dt: float


@dataclass
class Episode:
    episode_id: int
    seed: int
    policy: str
    records: list[StepRecord]
    final_state: ChaserState
    failed: bool = False
    diagnostic: str = ""
    chunk_trace: list | None = None  # [(step, chunk array)] when traced

    @property
    def steps(self) -> int:
        return len(self.records)

    @property
    def r_k(self) -> float:
        return _norm(self.final_state.r)

    @property
    def v_k(self) -> float:
        return _norm(self.final_state.v)


def _norm(x: np.ndarray) -> float:
    """|x|: np.linalg.norm's rounding, which written episodes and reports carry,
    while every square is far from overflow; math.hypot beyond, where
    np.linalg.norm would return inf for a finite norm."""
    if max(map(abs, x.tolist())) < 1e150:
        return float(np.linalg.norm(x))
    return math.hypot(*x.tolist())


class ActController:
    """Runs the chunk policy with temporal ensembling; queries every step.

    The parameters are read once per episode: reset() computes the decoder's
    observation-independent start from them, so a change to them takes effect
    at the next reset()."""

    needs_image = True

    def __init__(self, params: ParameterSet, cfg: PolicyConfig, decay: float = 0.01,
                 name: str = "act", collect_trace: bool = False):
        self.params = params
        self.cfg = cfg
        self.decay = decay
        self.name = name
        self.collect_trace = collect_trace
        self.buffer: ChunkBuffer | None = None
        self.trace: list | None = None
        self.start = None

    def reset(self) -> None:
        self.buffer = ChunkBuffer(k=self.cfg.k, decay=self.decay)
        self.trace = [] if self.collect_trace else None
        with no_grad():
            self.start = decoder_start(self.params, self.cfg, 1)

    def act(self, state: ChaserState, t: int, image: np.ndarray) -> Action:
        chunk = infer_chunk(image[None], state.vector(), self.params, self.cfg, self.start)
        push(self.buffer, chunk, t)
        if self.trace is not None:
            self.trace.append((t, chunk))
        return Action.from_vector(ensemble(self.buffer, t))


def rollout(controller, mode: InitMode, seed: int, sim: SimConfig,
            cam: CameraModel | None = None, marker: MarkerGeometry | None = None,
            episode_index: int = 0) -> Episode:
    """One closed-loop episode. Deterministic given (controller, mode, seed,
    episode_index): the per-episode RNG stream drives the start state and the
    decision intervals, in that order, with one dt drawn after each action."""
    rng = episode_rng(seed, episode_index)
    state = sample_initial(mode, rng)
    controller.reset()
    records: list[StepRecord] = []
    failed = False
    diagnostic = ""
    for t in range(sim.horizon):
        image = None
        if controller.needs_image:
            image = render(state, cam, marker)
        action = controller.act(state, t, image)
        dt = sample_dt(sim, rng)
        records.append(StepRecord(state=state, action=action, dt=dt))
        try:
            state = step(state, action, dt, sim)
        except PropagationError as err:
            failed = True
            diagnostic = f"step {t}: {err}"
            break
        if float(np.linalg.norm(state.r)) < sim.dock_radius:
            break
    ep = Episode(
        episode_id=episode_index,
        seed=seed,
        policy=controller.name,
        records=records,
        final_state=state,
        failed=failed,
        diagnostic=diagnostic,
    )
    if controller.trace is not None:
        ep.chunk_trace = controller.trace
    return ep


def run_episodes(controller, n: int, mode: InitMode, seed: int, sim: SimConfig,
                 cam: CameraModel | None = None,
                 marker: MarkerGeometry | None = None) -> list[Episode]:
    """n independent episodes on streams derived from (seed, episode index)."""
    return [rollout(controller, mode, seed, sim, cam, marker, episode_index=i)
            for i in range(n)]


# --- metrics ---


def smoothness(episode: Episode) -> float:
    """Mean L2 distance between consecutive 6-dim actions over the episode."""
    if episode.steps < 2:
        raise ValueError("smoothness needs at least 2 actions")
    acts = np.array([rec.action.vector() for rec in episode.records])
    return float(np.linalg.norm(np.diff(acts, axis=0), axis=1).mean())


def nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile: value at index ceil(p/100 * N) of the sorted
    sample (1-based)."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    rank = math.ceil(p / 100.0 * arr.size)
    return float(arr[rank - 1])


@dataclass
class EvalReport:
    """Terminal-condition statistics for one policy's episode batch.

    The r_K and v_K statistics include a failed episode's last finite state;
    a failed episode counts as a miss at every success radius, and `failures`
    names each one as an (episode_id, diagnostic) pair."""

    policy: str
    n_episodes: int
    n_failed: int
    total_steps: int
    r_k_mean: float
    r_k_p75: float
    r_k_p95: float
    r_k_p99: float
    v_k_mean: float
    v_k_p75: float
    v_k_p95: float
    v_k_p99: float
    smoothness_mean: float
    smoothness_sd: float
    success_rates: dict = field(default_factory=dict)  # radius [m] -> fraction
    failures: list = field(default_factory=list)  # (episode_id, diagnostic) per failed episode

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["success_rates"] = {f"{r:g}": v for r, v in self.success_rates.items()}
        out["failures"] = [list(pair) for pair in self.failures]
        return out


def terminal_report(episodes: list[Episode],
                    success_radii=(0.8, 2.0, 4.0)) -> EvalReport:
    if not episodes:
        raise ValueError("terminal_report needs at least one episode")
    r_k = np.array([ep.r_k for ep in episodes])
    v_k = np.array([ep.v_k for ep in episodes])
    failed = np.array([ep.failed for ep in episodes])
    smo = np.array([smoothness(ep) for ep in episodes if ep.steps >= 2])
    if smo.size == 0:
        smo = np.array([0.0])
    return EvalReport(
        policy=episodes[0].policy,
        n_episodes=len(episodes),
        n_failed=int(failed.sum()),
        total_steps=int(sum(ep.steps for ep in episodes)),
        r_k_mean=float(r_k.mean()),
        r_k_p75=nearest_rank(r_k, 75),
        r_k_p95=nearest_rank(r_k, 95),
        r_k_p99=nearest_rank(r_k, 99),
        v_k_mean=float(v_k.mean()),
        v_k_p75=nearest_rank(v_k, 75),
        v_k_p95=nearest_rank(v_k, 95),
        v_k_p99=nearest_rank(v_k, 99),
        smoothness_mean=float(smo.mean()),
        smoothness_sd=float(smo.std(ddof=1)) if smo.size > 1 else 0.0,
        success_rates={float(r): float(((r_k < r) & ~failed).mean())
                       for r in success_radii},
        failures=[(ep.episode_id, ep.diagnostic) for ep in episodes if ep.failed],
    )


# --- occupancy heatmap ---


@dataclass
class GridSpec:
    """Cell grid over a position plane [m]; out-of-range samples land in the
    nearest border cell."""

    u_min: float = -5.0
    u_max: float = 5.0
    v_min: float = -30.0
    v_max: float = 5.0
    cell: float = 0.1

    def validate(self) -> None:
        if self.u_max <= self.u_min or self.v_max <= self.v_min:
            raise ValueError("grid extents must satisfy max > min")
        if self.cell <= 0.0:
            raise ValueError(f"grid.cell must be positive, got {self.cell}")

    @property
    def n_u(self) -> int:
        return max(1, math.ceil((self.u_max - self.u_min) / self.cell - 1e-9))

    @property
    def n_v(self) -> int:
        return max(1, math.ceil((self.v_max - self.v_min) / self.cell - 1e-9))


def heatmap(episodes: list[Episode], plane: str, grid: GridSpec) -> np.ndarray:
    """Integer visit counts over recorded step positions, shape (n_v, n_u).

    plane 'xy' maps (x, y) to (u, v); plane 'zy' maps (z, y)."""
    grid.validate()
    if plane not in ("xy", "zy"):
        raise ValueError(f"plane must be 'xy' or 'zy', got {plane!r}")
    u_axis = 0 if plane == "xy" else 2
    counts = np.zeros((grid.n_v, grid.n_u), dtype=np.int64)
    for ep in episodes:
        for rec in ep.records:
            u = rec.state.r[u_axis]
            v = rec.state.r[1]
            iu = int(math.floor((u - grid.u_min) / grid.cell))
            iv = int(math.floor((v - grid.v_min) / grid.cell))
            iu = min(max(iu, 0), grid.n_u - 1)
            iv = min(max(iv, 0), grid.n_v - 1)
            counts[iv, iu] += 1
    return counts
