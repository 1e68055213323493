import numpy as np
import pytest

from actdock.config import default_run_config
from actdock.dynamics import Action, InitMode, SimConfig
from actdock.evaluate import (
    ActController,
    Episode,
    EvalReport,
    GridSpec,
    StepRecord,
    heatmap,
    nearest_rank,
    rollout,
    run_episodes,
    smoothness,
    terminal_report,
)
from actdock.ensemble import ChunkBuffer, ensemble, push
from actdock.expert import ExpertConfig, ExpertController
from actdock.policy import infer_chunk, init_params
from actdock.render import CameraModel, MarkerGeometry, render

from conftest import FAILED_DIAGNOSTIC, docked_and_failed, make_state, tiny_policy_config


def stub_episode(actions, positions=None, policy="expert", final=None, eid=0):
    n = len(actions)
    if positions is None:
        positions = [(0.0, -25.0 + i, 0.0) for i in range(n)]
    records = [
        StepRecord(state=make_state(r=positions[i]),
                   action=Action(thrust=np.asarray(a[:3], dtype=float),
                                 torque=np.asarray(a[3:], dtype=float)),
                   dt=0.9)
        for i, a in enumerate(actions)
    ]
    return Episode(episode_id=eid, seed=0, policy=policy, records=records,
                   final_state=final if final is not None else make_state())


class TestRollout:
    def test_deterministic_replay(self, sim):
        c1 = ExpertController(ExpertConfig(), sim)
        c2 = ExpertController(ExpertConfig(), sim)
        e1 = rollout(c1, InitMode.SAME, 5, sim, episode_index=2)
        e2 = rollout(c2, InitMode.SAME, 5, sim, episode_index=2)
        assert e1.steps == e2.steps
        np.testing.assert_array_equal(e1.final_state.r, e2.final_state.r)
        for a, b in zip(e1.records, e2.records):
            np.testing.assert_array_equal(a.action.vector(), b.action.vector())

    def test_terminates_inside_dock_radius(self, sim):
        ep = rollout(ExpertController(ExpertConfig(), sim), InitMode.SAME, 0, sim)
        if ep.steps < sim.horizon:
            assert ep.r_k < sim.dock_radius
            # the recorded states never include a docked one
            for rec in ep.records:
                assert np.linalg.norm(rec.state.r) >= sim.dock_radius

    def test_horizon_bounds_episode(self):
        sim = SimConfig(horizon=5)
        ep = rollout(ExpertController(ExpertConfig(), sim), InitMode.SAME, 0, sim)
        assert ep.steps == 5
        assert not ep.failed

    def test_run_episodes_indexes_streams(self, sim):
        eps = run_episodes(ExpertController(ExpertConfig(), sim), 3,
                           InitMode.SAME, 9, sim)
        assert [ep.episode_id for ep in eps] == [0, 1, 2]
        solo = rollout(ExpertController(ExpertConfig(), sim), InitMode.SAME, 9,
                       sim, episode_index=1)
        np.testing.assert_array_equal(eps[1].records[0].state.r,
                                      solo.records[0].state.r)
        assert eps[1].steps == solo.steps


class TestActControllerLoop:
    def test_records_trace_and_blends(self, sim):
        cfg = tiny_policy_config()
        params = init_params(cfg, seed=0)
        cam = CameraModel(f=8.0, cx=4.0, cy=4.0, width=8, height=8)
        ctrl = ActController(params, cfg, decay=0.05, collect_trace=True)
        short = SimConfig(horizon=6)
        ep = rollout(ctrl, InitMode.SAME, 0, short, cam=cam, marker=MarkerGeometry())
        assert ep.policy == "act"
        assert ep.chunk_trace is not None and len(ep.chunk_trace) == ep.steps
        # independently recompute the ensembled action at each step
        buf = ChunkBuffer(k=cfg.k, decay=0.05)
        for (t, chunk), rec in zip(ep.chunk_trace, ep.records):
            push(buf, chunk, t)
            np.testing.assert_allclose(rec.action.vector(), ensemble(buf, t),
                                       atol=1e-12)

    def test_trace_disabled_by_default(self, sim):
        cfg = tiny_policy_config()
        ctrl = ActController(init_params(cfg, seed=0), cfg)
        cam = CameraModel(f=8.0, cx=4.0, cy=4.0, width=8, height=8)
        ep = rollout(ctrl, InitMode.SAME, 0, SimConfig(horizon=3), cam=cam,
                     marker=MarkerGeometry())
        assert ep.chunk_trace is None

    def test_actions_respect_bounds(self, sim):
        cfg = tiny_policy_config()
        ctrl = ActController(init_params(cfg, seed=1), cfg)
        cam = CameraModel(f=8.0, cx=4.0, cy=4.0, width=8, height=8)
        ep = rollout(ctrl, InitMode.SAME, 1, SimConfig(horizon=4), cam=cam,
                     marker=MarkerGeometry())
        scale = cfg.action_scale_vec()
        for rec in ep.records:
            assert np.all(np.abs(rec.action.vector()) <= scale + 1e-12)


class TestActControllerStart:
    """ActController computes the decoder's start once per episode, in reset()."""

    def test_episode_chunks_equal_infer_chunk_without_start(self):
        run = default_run_config()
        cfg = run.policy
        params = init_params(cfg, seed=0)
        ctrl = ActController(params, cfg, collect_trace=True)
        ep = rollout(ctrl, InitMode.SAME, 3, run.sim, run.camera, run.marker)
        assert ep.steps == run.sim.horizon
        for (t, chunk), rec in zip(ep.chunk_trace, ep.records):
            image = render(rec.state, run.camera, run.marker)[None]
            assert np.array_equal(chunk, infer_chunk(image, rec.state.vector(), params, cfg)), t

    def test_parameters_read_at_reset(self):
        cfg = tiny_policy_config()
        params = init_params(cfg, seed=0)
        cam = CameraModel(f=8.0, cx=4.0, cy=4.0, width=8, height=8)
        state = make_state()
        image = render(state, cam, MarkerGeometry())
        ctrl = ActController(params, cfg)
        ctrl.reset()
        before = ctrl.act(state, 0, image).vector()
        for _, t in params.items():
            t.grad = np.ones_like(t.data)
        params.adam_step(lr=1e-2)
        ctrl.reset()
        after = ctrl.act(state, 0, image).vector()
        fresh = infer_chunk(image[None], state.vector(), params, cfg)[0]
        assert np.array_equal(after, fresh)
        assert not np.array_equal(after, before)


class TestSmoothness:
    def test_hand_value(self):
        # consecutive action deltas: (3,4,0,...) and (0,0,12,5,0,0)
        ep = stub_episode([
            (0, 0, 0, 0, 0, 0),
            (3, 4, 0, 0, 0, 0),
            (3, 4, 12, 5, 0, 0),
        ])
        assert smoothness(ep) == pytest.approx((5.0 + 13.0) / 2.0, rel=1e-12)

    def test_constant_actions_are_perfectly_smooth(self):
        ep = stub_episode([(1, 2, 3, 0.1, 0.2, 0.3)] * 5)
        assert smoothness(ep) == 0.0

    def test_needs_two_actions(self):
        with pytest.raises(ValueError):
            smoothness(stub_episode([(1, 0, 0, 0, 0, 0)]))


class TestNearestRank:
    def test_hand_values(self):
        data = [15.0, 20.0, 35.0, 40.0, 50.0]
        assert nearest_rank(data, 30) == 20.0  # ceil(1.5) = rank 2
        assert nearest_rank(data, 40) == 20.0  # ceil(2.0) = rank 2
        assert nearest_rank(data, 100) == 50.0
        assert nearest_rank(data, 1) == 15.0

    def test_sorts_input(self):
        assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0

    def test_domain(self):
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 101.0)
        with pytest.raises(ValueError):
            nearest_rank([], 50.0)


class TestTerminalReport:
    def test_engineered_statistics(self):
        # 100 terminal ranges with nearest-rank percentiles placed by hand
        r_k = ([1.30] * 74 + [1.557] + [1.6] * 19 + [1.738] + [1.75] * 3
               + [1.810] + [2.145])
        assert len(r_k) == 100
        eps = []
        for i, r in enumerate(r_k):
            final = make_state(r=(0.0, -r, 0.0), v=(0.0, 0.01, 0.0))
            eps.append(stub_episode([(0,) * 6, (1,) * 6], final=final, eid=i))
        rep = terminal_report(eps, success_radii=(1.0, 2.0))
        assert rep.n_episodes == 100
        assert rep.total_steps == 200
        assert rep.r_k_mean == pytest.approx(np.mean(r_k), rel=1e-12)
        assert rep.r_k_p75 == pytest.approx(1.557)
        assert rep.r_k_p95 == pytest.approx(1.738)
        assert rep.r_k_p99 == pytest.approx(1.810)
        assert rep.success_rates[1.0] == 0.0
        assert rep.success_rates[2.0] == 0.99
        assert rep.r_k_p75 <= rep.r_k_p95 <= rep.r_k_p99

    def test_smoothness_stats(self):
        eps = [stub_episode([(0,) * 6, (i + 1.0, 0, 0, 0, 0, 0)], eid=i)
               for i in range(3)]
        rep = terminal_report(eps)
        smo = [1.0, 2.0, 3.0]
        assert rep.smoothness_mean == pytest.approx(2.0)
        assert rep.smoothness_sd == pytest.approx(np.std(smo, ddof=1))

    def test_single_step_episodes_fall_back(self):
        eps = [stub_episode([(1,) * 6])]
        rep = terminal_report(eps)
        assert rep.smoothness_mean == 0.0
        assert rep.smoothness_sd == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            terminal_report([])

    def test_failed_episode_counts_as_miss(self):
        docked, failed = docked_and_failed()
        rep = terminal_report([docked, failed], success_radii=(0.8, 100.0))
        assert rep.n_failed == 1
        assert rep.success_rates == {0.8: 0.5, 100.0: 0.5}
        assert rep.r_k_mean == pytest.approx(25.025)  # last finite state still counts
        assert rep.as_dict()["n_failed"] == 1
        assert terminal_report([docked]).n_failed == 0

    def test_failed_episodes_named(self):
        docked, failed = docked_and_failed()
        rep = terminal_report([docked, failed])
        assert rep.failures == [(1, FAILED_DIAGNOSTIC)]
        assert rep.as_dict()["failures"] == [[1, FAILED_DIAGNOSTIC]]
        assert terminal_report([docked]).failures == []
        assert terminal_report([docked]).as_dict()["failures"] == []

    def test_as_dict_serializes_radii(self):
        eps = [stub_episode([(0,) * 6, (1,) * 6])]
        d = terminal_report(eps, success_radii=(0.8, 2.0)).as_dict()
        assert set(d["success_rates"]) == {"0.8", "2"}


class TestHeatmap:
    def test_counts_conserved_and_placed(self):
        grid = GridSpec(u_min=-1.0, u_max=1.0, v_min=-2.0, v_max=0.0, cell=1.0)
        eps = [stub_episode([(0,) * 6] * 3,
                            positions=[(-0.5, -1.5, 9.0), (0.5, -0.5, 9.0),
                                       (0.5, -0.5, 9.0)])]
        counts = heatmap(eps, "xy", grid)
        assert counts.shape == (2, 2)
        assert counts.sum() == 3
        assert counts[0, 0] == 1  # (-0.5, -1.5)
        assert counts[1, 1] == 2  # (0.5, -0.5)

    def test_out_of_range_clamps_to_border(self):
        grid = GridSpec(u_min=-1.0, u_max=1.0, v_min=-1.0, v_max=1.0, cell=1.0)
        eps = [stub_episode([(0,) * 6] * 2,
                            positions=[(99.0, -99.0, 0.0), (-99.0, 99.0, 0.0)])]
        counts = heatmap(eps, "xy", grid)
        assert counts.sum() == 2
        assert counts[0, 1] == 1 and counts[1, 0] == 1

    def test_zy_plane_uses_z_axis(self):
        grid = GridSpec(u_min=0.0, u_max=2.0, v_min=-1.0, v_max=1.0, cell=1.0)
        eps = [stub_episode([(0,) * 6],
                            positions=[(99.0, 0.5, 1.5)])]  # x ignored
        counts = heatmap(eps, "zy", grid)
        assert counts[1, 1] == 1

    def test_cell_count_derivation(self):
        g = GridSpec(u_min=-5.0, u_max=5.0, v_min=-30.0, v_max=5.0, cell=0.1)
        assert g.n_u == 100
        assert g.n_v == 350
        assert GridSpec(u_min=0.0, u_max=0.05, v_min=0.0, v_max=1.0, cell=0.1).n_u == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            heatmap([], "xz", GridSpec())
        with pytest.raises(ValueError):
            GridSpec(u_min=1.0, u_max=0.0).validate()
        with pytest.raises(ValueError):
            GridSpec(cell=0.0).validate()
