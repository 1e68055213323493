"""The three workloads, driven through the functions the actdock CLI calls.

Every workload runs whole rounds of the same operations until the measured
time is spent. A round's inputs come from (seed, round index) only. The
program functions are looked up on their modules at call time, so the
wrappers that `spans` installs see every call.

"Step" is the unit of work every per-step figure is divided by: one training
iteration on `train`, one control decision on `closed_loop` and `demos`.
"""

from __future__ import annotations

import time
from dataclasses import asdict

import numpy as np

from actdock import dataio, evaluate, expert, policy, training
from actdock import tensor as T
from actdock.config import default_run_config, section_dict
from actdock.dynamics import Action, ChaserState, InitMode, sample_dt, sample_initial, step
from actdock.tensor import ParameterSet, Tensor

import checks
from spans import Patches

N_DEMOS = 100  # the paper's demonstration count
TRAIN_ROUND_ITERS = 50  # iterations per train() call, checkpoint saved at its end
LOSS_WINDOW = 10  # iterations averaged at each end of a round's L1 curve
CONTROL_ROUND_EPISODES = 4
EXPERT_MAX_FINAL_RANGE_M = 0.3  # demos must end this close to the port


def round_seed(seed: int, index: int) -> int:
    """Seed of round `index` of a run started with `seed`; distinct within a run."""
    return seed * 1000 + index


class StepClock:
    """Clock reads at step boundaries, grouped per episode or per train() call.

    `stamp_before`/`stamp_after` wrap the function that marks a boundary;
    `group` wraps the call that runs a sequence of steps."""

    def __init__(self, close_with_group_end: bool):
        self.stamps: list[int] = []
        self.groups: list[tuple[int, int]] = []  # (first stamp index, end ns)
        self.close_with_group_end = close_with_group_end

    def stamp_before(self, fn):
        stamps = self.stamps

        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter_ns())
            return fn(*args, **kwargs)

        return stamped

    def stamp_after(self, fn):
        stamps = self.stamps

        def stamped(*args, **kwargs):
            out = fn(*args, **kwargs)
            stamps.append(time.perf_counter_ns())
            return out

        return stamped

    def group(self, fn):
        def grouped(*args, **kwargs):
            first = len(self.stamps)
            try:
                return fn(*args, **kwargs)
            finally:
                self.groups.append((first, time.perf_counter_ns()))

        return grouped

    def reset(self) -> None:
        self.stamps.clear()
        self.groups.clear()

    def step_ms(self) -> list[float]:
        """Duration of every step seen since the last reset."""
        out: list[float] = []
        bounds = [g[0] for g in self.groups] + [len(self.stamps)]
        for i, (first, end) in enumerate(self.groups):
            marks = self.stamps[first:bounds[i + 1]]
            if self.close_with_group_end:
                marks = marks + [end]
            out.extend(np.diff(np.asarray(marks, dtype=np.int64)) / 1e6)
        return out


def count_nodes(root: Tensor) -> tuple[int, int]:
    """(tensors reachable from root, those holding a backward closure)."""
    seen: dict[int, Tensor] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(node._parents)
    closures = sum(1 for node in seen.values() if node._backward is not None)
    return len(seen), closures


def count_graphs(owner, attr: str, root_of, run) -> tuple[int, int]:
    """count_nodes summed over the graphs that calls of owner.attr see while
    run() executes; root_of(args, result) picks the tensor a call's graph ends at."""
    counts = []

    def make(fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts.append(count_nodes(root_of(args, out)))
            return out

        return counted

    patches = Patches()
    patches.wrap(owner, attr, make)
    try:
        run()
    finally:
        patches.restore()
    if not counts:
        raise checks.CheckFailed(f"{attr} was never called, so there is no graph to count")
    return tuple(int(sum(c)) for c in zip(*counts))


class Workload:
    """Set-up, one round, the checks on a round's outputs, traced counts."""

    name = ""

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.cfg = default_run_config()

    def install_clock(self, patches) -> StepClock:
        raise NotImplementedError

    def setup(self) -> None:
        pass

    def run_round(self, index: int):
        """Returns (output, steps, attempted, failed)."""
        raise NotImplementedError

    def check_round(self, index: int, output) -> None:
        pass

    def check_once(self) -> None:
        pass

    def expected_calls(self) -> dict:
        """Span name -> calls the measured outputs account for."""
        return {}

    def graph_nodes(self) -> tuple[int, int]:
        """(autodiff nodes, those with a backward closure) per step, counted
        on the graph the program builds; run after the measured rounds."""
        return 0, 0

    def episode_bytes(self) -> float:
        """Mean NDJSON bytes per episode written in the measured rounds."""
        return 0.0


class TrainWorkload(Workload):
    """Behavioural cloning at the default PolicyConfig on 100 expert demos."""

    name = "train"

    def install_clock(self, patches):
        clock = StepClock(close_with_group_end=False)
        patches.wrap(ParameterSet, "adam_step", clock.stamp_after)
        patches.wrap(training, "train", clock.group)
        return clock

    def setup(self):
        cfg = self.cfg
        demos = expert.generate_demos(N_DEMOS, InitMode.SAME, self.seed, cfg.expert, cfg.sim)
        path = self.workdir / "demos.ndjson"
        dataio.write_episodes(path, demos)
        self.demos = dataio.read_episodes(path)
        self.meta_extra = {
            "sim": section_dict(cfg.sim),
            "camera": section_dict(cfg.camera),
            "marker": section_dict(cfg.marker),
            "ensemble_decay": cfg.eval.ensemble_decay,
        }
        self.iterations = 0

    def run_round(self, index):
        cfg = self.cfg
        train_cfg = training.TrainConfig(iterations=TRAIN_ROUND_ITERS,
                                         seed=round_seed(self.seed, index))
        path = self.workdir / "policy.ckpt"
        try:
            params, curve = training.train(self.demos, cfg.policy, train_cfg, cfg.camera,
                                           cfg.marker, checkpoint_path=path,
                                           meta_extra=self.meta_extra)
        except training.TrainingError:
            return None, 0, TRAIN_ROUND_ITERS, TRAIN_ROUND_ITERS
        self.iterations += len(curve)
        return (params, curve, path), len(curve), TRAIN_ROUND_ITERS, 0

    def check_round(self, index, output):
        if output is None:
            return
        params, curve, path = output
        checks.check_loss_falls([row[1] for row in curve], LOSS_WINDOW)
        loaded, meta = ParameterSet.load(path)
        checks.check_checkpoint(params, loaded)
        if meta.get("iteration") != TRAIN_ROUND_ITERS:
            raise checks.CheckFailed(f"checkpoint records iteration {meta.get('iteration')}")

    def check_once(self):
        """Central-difference gradient check through bc_loss on a tiny config."""
        cfg = policy.PolicyConfig(k=2, d_model=8, n_heads=2, n_layers_enc=1,
                                  n_layers_dec=1, n_layers_vae=1, d_ff=8, d_z=2,
                                  image_height=8, image_width=8, backbone_channels=(2, 2, 2))
        params = policy.init_params(cfg, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        batch = 2
        images = rng.uniform(0.0, 1.0, size=(batch, 1, 8, 8))
        states = rng.normal(0.0, 1.0, size=(batch, cfg.d_state))
        eps = rng.standard_normal((batch, cfg.d_z))
        scale = cfg.action_scale_vec()
        masks = np.ones((batch, cfg.k), dtype=bool)
        masks[1, -1] = False

        def forward(targets):
            tokens = policy.embed_observation(images, states, params, cfg)
            style = policy.encode_style(states, targets, params, cfg, eps)
            return policy.predict_chunk(tokens, style.z, params, cfg), style

        # Redraw until every target is 1e-3 of its bound or more away from the
        # prediction, so no finite-difference probe crosses the L1 kink.
        while True:
            targets = rng.uniform(-0.9, 0.9, size=(batch, cfg.k, cfg.d_action)) * scale
            if np.min(np.abs(forward(targets)[0].data - targets) / scale) > 1e-3:
                break

        def loss():
            pred, style = forward(targets)
            total, _, _ = training.bc_loss(T.mul(pred, Tensor(1.0 / scale)),
                                           targets / scale, masks, style, beta=10.0)
            return total

        grads = checks.analytic_grads(loss, params)
        checks.check_gradients(loss, params, grads, rng)

    def expected_calls(self):
        batch = self.cfg.train.batch_size
        return {
            "render.render": self.iterations * batch,
            "training.chunk_targets": self.iterations * batch,
            "tensor.backward": self.iterations,
            "tensor.adam_step": self.iterations,
        }

    def graph_nodes(self):
        """The graph one train() iteration calls backward() on."""
        cfg = self.cfg
        train_cfg = training.TrainConfig(iterations=1, seed=self.seed)
        return count_graphs(
            Tensor, "backward", lambda args, out: args[0],
            lambda: training.train(self.demos, cfg.policy, train_cfg, cfg.camera, cfg.marker))


def check_episodes(episodes, sim) -> None:
    arrays = checks.episode_arrays(episodes)
    checks.check_bounds(arrays, sim)
    checks.check_propagation(arrays, sim)


def zero_thrust_drift(seed: int, sim):
    """A horizon of zero-wrench `step` calls from a random start with a random
    velocity and no rotation: (r0, v0, q0, elapsed times, state vectors)."""
    rng = np.random.default_rng(seed)
    start = sample_initial(InitMode.RANDOM, rng)
    v0 = rng.uniform(-0.1, 0.1, size=3)
    state = ChaserState(r=start.r, v=v0, q=start.q, w=np.zeros(3))
    rest = Action(thrust=np.zeros(3), torque=np.zeros(3))
    times, states, elapsed = [], [], 0.0
    for _ in range(sim.horizon):
        dt = sample_dt(sim, rng)
        state = step(state, rest, dt, sim)
        elapsed += dt
        times.append(elapsed)
        states.append(state.vector())
    return start.r, v0, start.q, times, states


class ClosedLoopWorkload(Workload):
    """ACT episodes through run_episodes and terminal_report, as `actdock eval` runs them."""

    name = "closed_loop"

    def install_clock(self, patches):
        clock = StepClock(close_with_group_end=True)
        patches.wrap(evaluate.ActController, "act", clock.stamp_before)
        patches.wrap(evaluate, "rollout", clock.group)
        return clock

    def setup(self):
        cfg = self.cfg
        path = self.workdir / "policy.ckpt"
        params = policy.init_params(cfg.policy, seed=self.seed)
        params.save(path, meta={
            "iteration": 0,
            "policy_config": asdict(cfg.policy),
            "sim": section_dict(cfg.sim),
            "camera": section_dict(cfg.camera),
            "marker": section_dict(cfg.marker),
            "ensemble_decay": cfg.eval.ensemble_decay,
        })
        params, pcfg, meta = training.load_policy(path)
        self.decay = meta["ensemble_decay"]
        self.pcfg = pcfg
        self.params = params
        self.controller = evaluate.ActController(params, pcfg, decay=self.decay,
                                                 collect_trace=True)
        self.steps = 0
        self.episodes = 0

    def run_round(self, index):
        cfg = self.cfg
        episodes = evaluate.run_episodes(self.controller, CONTROL_ROUND_EPISODES,
                                         InitMode.SAME, round_seed(self.seed, index),
                                         cfg.sim, cfg.camera, cfg.marker)
        report = evaluate.terminal_report(episodes, cfg.eval.success_radii)
        steps = sum(ep.steps for ep in episodes)
        self.steps += steps
        self.episodes += len(episodes)
        failed = sum(1 for ep in episodes if ep.failed)
        return (episodes, report), steps, len(episodes), failed

    def check_round(self, index, output):
        episodes, report = output
        check_episodes(episodes, self.cfg.sim)
        checks.check_ensembling(episodes, self.pcfg.k, self.decay)
        checks.check_report(report, episodes, self.cfg.eval.success_radii)

    def check_once(self):
        checks.check_cw_drift(*zero_thrust_drift(self.seed, self.cfg.sim), self.cfg.sim.n)

    def expected_calls(self):
        return {
            "render.render": self.steps,
            "dynamics.step": self.steps,
            "policy.infer_chunk": self.steps,
            "ensemble.push": self.steps,
            "ensemble.ensemble": self.steps,
            "evaluate.rollout": self.episodes,
        }

    def graph_nodes(self):
        """The graphs predict_chunk returns, at the name infer_chunk looks it
        up by, during one ActController.act call."""
        cfg = self.cfg
        controller = evaluate.ActController(self.params, self.pcfg, decay=self.decay)
        controller.reset()
        state = sample_initial(InitMode.SAME, np.random.default_rng(self.seed))
        image = evaluate.render(state, cfg.camera, cfg.marker)
        return count_graphs(policy, "predict_chunk", lambda args, out: out,
                            lambda: controller.act(state, 0, image))


class DemosWorkload(Workload):
    """100 expert demos, written to NDJSON and read back, as `actdock demos` + `train`."""

    name = "demos"

    def install_clock(self, patches):
        clock = StepClock(close_with_group_end=True)
        patches.wrap(expert.ExpertController, "act", clock.stamp_before)
        patches.wrap(expert, "rollout", clock.group)
        return clock

    def setup(self):
        self.steps = 0
        self.episodes = 0
        self.bytes = 0

    def run_round(self, index):
        cfg = self.cfg
        demos = expert.generate_demos(N_DEMOS, InitMode.SAME, round_seed(self.seed, index),
                                      cfg.expert, cfg.sim)
        path = self.workdir / "demos.ndjson"
        dataio.write_episodes(path, demos)
        back = dataio.read_episodes(path)
        steps = sum(ep.steps for ep in demos)
        self.steps += steps
        self.episodes += len(demos)
        self.bytes += path.stat().st_size
        failed = sum(1 for ep in demos if ep.failed)
        return (demos, back), steps, len(demos), failed

    def check_round(self, index, output):
        demos, back = output
        check_episodes(demos, self.cfg.sim)
        checks.check_expert_docks(demos, EXPERT_MAX_FINAL_RANGE_M)
        checks.check_round_trip(demos, back)

    def check_once(self):
        checks.check_cw_drift(*zero_thrust_drift(self.seed, self.cfg.sim), self.cfg.sim.n)

    def expected_calls(self):
        return {
            "dynamics.step": self.steps,
            "expert.expert_action": self.steps,
            "evaluate.rollout": self.episodes,
        }

    def episode_bytes(self):
        return self.bytes / self.episodes


WORKLOADS = {w.name: w for w in (TrainWorkload, ClosedLoopWorkload, DemosWorkload)}
