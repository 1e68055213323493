#!/usr/bin/env python3
"""Each correctness check of the benchmark passes on the program's outputs and
fails on a deliberately corrupted copy of them.

    python3 perfbench/selftest.py

Run from the repository root; takes a few seconds.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from actdock import dataio, evaluate, expert, policy, training  # noqa: E402
from actdock import tensor as T  # noqa: E402
from actdock.config import default_run_config  # noqa: E402
from actdock.dynamics import Action, ChaserState, InitMode, SimConfig  # noqa: E402
from actdock.evaluate import StepRecord  # noqa: E402
from actdock.render import CameraModel  # noqa: E402
from actdock.tensor import ParameterSet  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import TrainWorkload, zero_thrust_drift  # noqa: E402

CFG = default_run_config()
TINY = policy.PolicyConfig(k=2, d_model=8, n_heads=2, n_layers_enc=1, n_layers_dec=1,
                           n_layers_vae=1, d_ff=8, d_z=2, image_height=8, image_width=8,
                           backbone_channels=(2, 2, 2))
TINY_CAM = CameraModel(f=6.0, cx=4.0, cy=4.0, width=8, height=8)


def nudge(x):
    """x moved up by one unit in the last place."""
    return np.nextafter(x, np.inf)


def replace_action(ep, t: int, vector) -> None:
    rec = ep.records[t]
    ep.records[t] = StepRecord(state=rec.state, action=Action.from_vector(vector), dt=rec.dt)


class Fixtures:
    _demos = None
    _act = None

    @classmethod
    def demos(cls):
        if cls._demos is None:
            cls._demos = expert.generate_demos(3, InitMode.SAME, 5, CFG.expert, CFG.sim)
        return cls._demos

    @classmethod
    def act(cls):
        """Short ACT episodes of a tiny untrained policy with chunk traces."""
        if cls._act is None:
            sim = SimConfig(horizon=6)
            ctrl = evaluate.ActController(policy.init_params(TINY, seed=2), TINY,
                                          decay=0.3, collect_trace=True)
            cls._act = evaluate.run_episodes(ctrl, 2, InitMode.SAME, 4, sim, TINY_CAM,
                                             CFG.marker)
        return cls._act


class DynamicsChecks(unittest.TestCase):
    def test_propagation(self):
        arrays = checks.episode_arrays(Fixtures.demos())
        checks.check_propagation(arrays, CFG.sim)
        arrays["next_states"][7, 1] += 1e-6
        with self.assertRaises(CheckFailed):
            checks.check_propagation(arrays, CFG.sim)

    def test_propagation_act(self):
        checks.check_propagation(checks.episode_arrays(Fixtures.act()), SimConfig(horizon=6))

    def test_action_bounds(self):
        arrays = checks.episode_arrays(Fixtures.demos())
        checks.check_bounds(arrays, CFG.sim)
        arrays["actions"][4, 2] = CFG.sim.t_max + 1e-6
        with self.assertRaises(CheckFailed):
            checks.check_bounds(arrays, CFG.sim)

    def test_unit_quaternion(self):
        arrays = checks.episode_arrays(Fixtures.demos())
        arrays["states"][3, 6:10] *= 1.0 + 1e-8
        with self.assertRaises(CheckFailed):
            checks.check_bounds(arrays, CFG.sim)

    def test_cw_drift(self):
        r0, v0, q0, times, states = zero_thrust_drift(3, CFG.sim)
        checks.check_cw_drift(r0, v0, q0, times, states, CFG.sim.n)
        states[20] = states[20].copy()
        states[20][2] += 1e-6
        with self.assertRaises(CheckFailed):
            checks.check_cw_drift(r0, v0, q0, times, states, CFG.sim.n)


class ControlChecks(unittest.TestCase):
    def test_ensembled_action(self):
        episodes = Fixtures.act()
        checks.check_ensembling(episodes, TINY.k, 0.3)
        ep = episodes[1]
        good = ep.records[3].action.vector()
        bad = good.copy()
        bad[4] += 1e-9
        replace_action(ep, 3, bad)
        try:
            with self.assertRaises(CheckFailed):
                checks.check_ensembling(episodes, TINY.k, 0.3)
        finally:
            replace_action(ep, 3, good)

    def test_ensemble_weights(self):
        with self.assertRaises(CheckFailed):
            checks.check_ensembling(Fixtures.act(), TINY.k, 0.31)

    def test_report(self):
        episodes = Fixtures.act()
        radii = (0.8, 2.0, 30.0)
        report = evaluate.terminal_report(episodes, radii)
        checks.check_report(report, episodes, radii)
        report.r_k_mean *= 1.0 + 1e-9
        with self.assertRaises(CheckFailed):
            checks.check_report(report, episodes, radii)

    def test_report_success_fraction(self):
        episodes = Fixtures.act()
        radii = (0.8, 2.0, 30.0)
        report = evaluate.terminal_report(episodes, radii)
        report.success_rates[30.0] = 0.5
        with self.assertRaises(CheckFailed):
            checks.check_report(report, episodes, radii)

    def test_counts(self):
        summary = {"render.render": [12, 0, 0], "dynamics.step": [12, 0, 0]}
        checks.check_counts(summary, {"render.render": 12, "dynamics.step": 12})
        with self.assertRaises(CheckFailed):
            checks.check_counts(summary, {"render.render": 12, "dynamics.step": 11})


class DemoChecks(unittest.TestCase):
    def test_expert_ends_near_port(self):
        demos = Fixtures.demos()
        checks.check_expert_docks(demos, 0.5)
        ep = demos[2]
        final = ep.final_state
        ep.final_state = ChaserState(r=final.r + np.array([0.0, -0.6, 0.0]), v=final.v,
                                     q=final.q, w=final.w)
        try:
            with self.assertRaises(CheckFailed):
                checks.check_expert_docks(demos, 0.5)
        finally:
            ep.final_state = final

    def test_round_trip(self):
        demos = Fixtures.demos()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "demos.ndjson"
            dataio.write_episodes(path, demos)
            back = dataio.read_episodes(path)
        checks.check_round_trip(demos, back)
        vec = back[1].records[9].action.vector()
        vec[0] = nudge(vec[0])
        replace_action(back[1], 9, vec)
        with self.assertRaises(CheckFailed):
            checks.check_round_trip(demos, back)


class TrainingChecks(unittest.TestCase):
    def test_loss_falls(self):
        checks.check_loss_falls(np.linspace(1.0, 0.5, 40), 10)
        with self.assertRaises(CheckFailed):
            checks.check_loss_falls(np.linspace(0.5, 1.0, 40), 10)
        with self.assertRaises(CheckFailed):
            checks.check_loss_falls(np.r_[np.linspace(1.0, 0.5, 39), np.nan], 10)

    def test_checkpoint(self):
        train_cfg = training.TrainConfig(iterations=3, batch_size=2, seed=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tiny.ckpt"
            params, _ = training.train(Fixtures.demos(), TINY, train_cfg, TINY_CAM,
                                       CFG.marker, checkpoint_path=path)
            loaded, _ = ParameterSet.load(path)
            checks.check_checkpoint(params, loaded)
            for table in ("_m", "_v"):
                reloaded, _ = ParameterSet.load(path)
                moments = getattr(reloaded, table)["head.w"]
                moments[0, 0] = nudge(moments[0, 0])
                with self.assertRaises(CheckFailed):
                    checks.check_checkpoint(params, reloaded)
            reloaded, _ = ParameterSet.load(path)
            reloaded["vae.cls"].data[3] = nudge(reloaded["vae.cls"].data[3])
            with self.assertRaises(CheckFailed):
                checks.check_checkpoint(params, reloaded)

    def test_gradients(self):
        TrainWorkload(seed=4, workdir=None).check_once()

    def test_corrupted_gradients(self):
        params = policy.init_params(TINY, seed=0)
        rng = np.random.default_rng(0)
        images = rng.uniform(size=(1, 1, 8, 8))
        state = rng.normal(size=(1, 13))

        def loss():
            out = policy.predict_chunk(policy.embed_observation(images, state, params, TINY),
                                       np.zeros((1, TINY.d_z)), params, TINY)
            return T.tsum(out)

        grads = checks.analytic_grads(loss, params)
        checks.check_gradients(loss, params, grads, np.random.default_rng(1))
        grads["head.w"] *= 1.001
        with self.assertRaises(CheckFailed):
            checks.check_gradients(loss, params, grads, np.random.default_rng(1))


if __name__ == "__main__":
    unittest.main()
