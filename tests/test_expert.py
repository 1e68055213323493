import numpy as np
import pytest

from actdock.dataio import write_episodes
from actdock.dynamics import Action, ChaserState, InitMode, SimConfig
from actdock.evaluate import rollout, smoothness
from actdock.expert import (
    ExpertConfig,
    ExpertController,
    chatterize,
    expert_action,
    generate_demos,
)

from conftest import make_state
from oracles import rotate_by_quaternion


class TestExpertAction:
    def test_zero_at_regulation_point(self, sim):
        a = expert_action(make_state(r=(0, 0, 0)), ExpertConfig(), sim)
        assert np.linalg.norm(a.thrust) < 1e-9
        assert np.linalg.norm(a.torque) < 1e-9

    def test_thrust_linear_in_range_below_saturation(self, sim):
        """With v=0 the command is -m*(kp + kd*v) * r per axis, where v is
        v_profile along the corridor and v_lateral across it."""
        cfg = ExpertConfig()
        r_axis = np.array([0.0, -1.0, 0.0])  # along the approach corridor
        r_side = np.array([0.0, 0.0, -1.0])  # lateral offset, boresight aligned
        gain_axis = sim.mass * (cfg.kp_pos + cfg.kd_pos * cfg.v_profile)
        gain_side = sim.mass * (cfg.kp_pos + cfg.kd_pos * cfg.v_lateral)
        assert max(gain_axis, gain_side) * 2 < sim.t_max  # inside the bound
        a_axis = expert_action(make_state(r=r_axis), cfg, sim)
        a_side = expert_action(make_state(r=r_side), cfg, sim)
        np.testing.assert_allclose(a_axis.thrust, -gain_axis * r_axis, atol=1e-12)
        np.testing.assert_allclose(a_side.thrust, -gain_side * r_side, atol=1e-12)
        a_double = expert_action(make_state(r=2 * r_side), cfg, sim)
        np.testing.assert_allclose(a_double.thrust, 2 * a_side.thrust, atol=1e-12)

    def test_equal_rates_reduce_to_straight_pursuit(self, sim):
        """v_lateral == v_profile must collapse the split law to -v * r."""
        cfg = ExpertConfig(v_profile=0.08, v_lateral=0.08)
        r = np.array([0.7, -3.0, -0.4])
        v = np.array([0.01, 0.05, -0.02])
        a = expert_action(make_state(r=r, v=v), cfg, sim)
        expected = sim.mass * (cfg.kp_pos * (-r) + cfg.kd_pos * (-cfg.v_profile * r - v))
        np.testing.assert_allclose(a.thrust, expected, atol=1e-12)

    def test_saturates_at_actuator_bounds(self, sim):
        a = expert_action(make_state(r=(0, -5000, 0)), ExpertConfig(), sim)
        assert np.all(np.abs(a.thrust) <= sim.t_max + 1e-12)
        assert np.max(np.abs(a.thrust)) == pytest.approx(sim.t_max)

    def test_damps_residual_rates(self, sim):
        cfg = ExpertConfig()
        a = expert_action(make_state(w=(0.2, 0.0, 0.0)), cfg, sim)
        assert a.torque[0] == pytest.approx(
            np.clip(-cfg.kd_att * 0.2, -sim.l_max, sim.l_max))

    def test_torque_restores_boresight(self, sim):
        # Port direction +y; rolling +45 deg about x leaves the boresight
        # 135 deg off the port, so the P term is kp*sin(135 deg) about -x.
        q = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8), 0.0, 0.0])
        cfg = ExpertConfig()
        a = expert_action(make_state(r=(0.0, -10.0, 0.0), q=q), cfg, sim)
        expected = -cfg.kp_att * np.sin(3.0 * np.pi / 4.0)
        assert a.torque[0] == pytest.approx(np.clip(expected, -sim.l_max, sim.l_max))
        assert abs(a.torque[1]) < 1e-12 and abs(a.torque[2]) < 1e-12

    def test_torque_zero_when_aligned_and_still(self, sim):
        a = expert_action(make_state(r=(0.0, 0.0, -10.0)), ExpertConfig(), sim)
        assert np.linalg.norm(a.torque) < 1e-12


def vector_expert_action(state, cfg, sim):
    """The expert law in numpy vector form: projections, np.cross, and LVLH -> body
    rotations by the conjugate quaternion through the Hamilton-sandwich oracle."""
    axis = np.array([0.0, 1.0, 0.0])
    r_par = (state.r @ axis) * axis
    v_des = -cfg.v_profile * r_par - cfg.v_lateral * (state.r - r_par)
    thrust_lvlh = sim.mass * (cfg.kp_pos * (-state.r) + cfg.kd_pos * (v_des - state.v))
    q_inv = state.q * np.array([1.0, -1.0, -1.0, -1.0])
    thrust = np.clip(rotate_by_quaternion(q_inv, thrust_lvlh), -sim.t_max, sim.t_max)
    rn = np.linalg.norm(state.r)
    att_err = (np.cross([0.0, 0.0, 1.0], rotate_by_quaternion(q_inv, -state.r / rn))
               if rn > 1e-9 else np.zeros(3))
    torque = np.clip(cfg.kp_att * att_err - cfg.kd_att * state.w, -sim.l_max, sim.l_max)
    return thrust, torque


class TestScalarLawMatchesVectorForm:
    def test_random_states(self, sim, rng):
        cfg = ExpertConfig()
        states = [make_state(r=(0.0, 0.0, 0.0), w=(0.5, -0.01, 0.02)),
                  make_state(r=(1e-10, 0.0, 0.0))]
        for _ in range(200):
            q = rng.normal(size=4)
            states.append(make_state(r=rng.uniform(-30.0, 30.0, 3), v=rng.normal(0.0, 0.5, 3),
                                     q=q / np.linalg.norm(q), w=rng.normal(0.0, 0.1, 3)))
        thrust_clipped = torque_clipped = 0
        for state in states:
            action = expert_action(state, cfg, sim)
            thrust, torque = vector_expert_action(state, cfg, sim)
            np.testing.assert_allclose(action.thrust, thrust, rtol=0.0, atol=1e-14 * sim.t_max)
            np.testing.assert_allclose(action.torque, torque, rtol=0.0, atol=1e-14 * sim.l_max)
            thrust_clipped += np.any(np.abs(thrust) == sim.t_max)
            torque_clipped += np.any(np.abs(torque) == sim.l_max)
        assert thrust_clipped > 0 and torque_clipped > 0  # both clips are exercised


class TestChatter:
    def test_amplitude_zero_is_identity(self, sim):
        cfg = ExpertConfig(chatter_amplitude=0.0)
        base = Action(thrust=np.array([1.0, -2.0, 3.0]), torque=np.array([0.1, 0.0, -0.2]))
        out = chatterize(base, 7, cfg, sim)
        np.testing.assert_array_equal(out.thrust, base.thrust)
        np.testing.assert_array_equal(out.torque, base.torque)

    def test_sign_alternates_with_step_parity(self):
        sim = SimConfig(t_max=10.0, l_max=1.0)
        cfg = ExpertConfig(chatter_amplitude=0.5)
        base = Action(thrust=np.zeros(3), torque=np.zeros(3))
        even = chatterize(base, 0, cfg, sim)
        odd = chatterize(base, 1, cfg, sim)
        np.testing.assert_allclose(even.thrust, [5.0, 5.0, 5.0], atol=1e-15)
        np.testing.assert_allclose(odd.thrust, [-5.0, -5.0, -5.0], atol=1e-15)
        np.testing.assert_allclose(even.torque, [0.5, 0.5, 0.5], atol=1e-15)

    def test_resaturates_after_offset(self):
        sim = SimConfig(t_max=10.0)
        cfg = ExpertConfig(chatter_amplitude=1.0)
        base = Action(thrust=np.array([8.0, 0.0, -8.0]), torque=np.zeros(3))
        out = chatterize(base, 0, cfg, sim)
        assert np.all(np.abs(out.thrust) <= sim.t_max + 1e-15)
        assert out.thrust[0] == pytest.approx(10.0)

    def test_controller_flag_overrides_config(self, sim):
        cfg = ExpertConfig()
        assert ExpertController(cfg, sim, chatter=True).name == "chatter"
        assert ExpertController(cfg, sim).name == "expert"


class TestConfigValidation:
    def test_defaults_pass(self):
        ExpertConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("kp_pos", -0.1), ("kd_pos", -1.0), ("v_profile", -0.01),
        ("v_lateral", -0.01), ("kp_att", -1.0), ("kd_att", -2.0),
        ("chatter_amplitude", -0.1), ("chatter_amplitude", 1.5),
    ])
    def test_rejects_bad_values(self, field, value):
        cfg = ExpertConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            cfg.validate()

    def test_demo_count_must_be_positive(self, sim):
        with pytest.raises(ValueError):
            generate_demos(0, InitMode.SAME, 0, ExpertConfig(), sim)


@pytest.fixture(scope="module")
def demos():
    return generate_demos(100, InitMode.SAME, 0, ExpertConfig(), SimConfig())


class TestClosedLoop:
    def test_every_episode_reaches_the_port(self, demos):
        assert all(not ep.failed for ep in demos)
        assert all(ep.r_k < 1.0 for ep in demos)  # success radius
        assert max(ep.r_k for ep in demos) < 0.2  # parks right at the port

    def test_most_episodes_terminate_inside_dock_radius(self, demos):
        sim = SimConfig()
        docked = sum(ep.r_k < sim.dock_radius for ep in demos)
        assert docked >= 70
        # the rest coast at the port until the horizon
        assert all(ep.steps == sim.horizon for ep in demos
                   if ep.r_k >= sim.dock_radius)

    def test_total_steps_in_published_window(self, demos):
        total = sum(ep.steps for ep in demos)
        assert 6300 <= total <= 6350, total

    def test_episodes_fit_horizon(self, demos):
        sim = SimConfig()
        assert all(1 <= ep.steps <= sim.horizon for ep in demos)

    def test_terminal_speed_low(self, demos):
        v_mean = np.mean([ep.v_k for ep in demos])
        assert v_mean < 0.05

    def test_regeneration_is_bit_identical(self, demos):
        again = generate_demos(3, InitMode.SAME, 0, ExpertConfig(), SimConfig())
        for a, b in zip(demos[:3], again):
            assert a.steps == b.steps
            for ra, rb in zip(a.records, b.records):
                np.testing.assert_array_equal(ra.action.thrust, rb.action.thrust)
                np.testing.assert_array_equal(ra.action.torque, rb.action.torque)
                np.testing.assert_array_equal(ra.state.r, rb.state.r)
                assert ra.dt == rb.dt

    def test_regenerated_ndjson_is_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.ndjson", tmp_path / "b.ndjson"]
        for path in paths:
            write_episodes(path, generate_demos(5, InitMode.RANDOM, 7, ExpertConfig(),
                                                SimConfig()))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_distinct_seeds_differ(self, demos):
        other = generate_demos(1, InitMode.SAME, 1, ExpertConfig(), SimConfig())[0]
        assert other.steps != demos[0].steps or not np.array_equal(
            other.records[0].action.thrust, demos[0].records[0].action.thrust)

    def test_random_mode_also_succeeds(self):
        eps = generate_demos(20, InitMode.RANDOM, 3, ExpertConfig(), SimConfig())
        assert all(ep.r_k < 1.0 for ep in eps)

    def test_chatter_rougher_but_equally_goal_directed(self, demos):
        sim = SimConfig()
        cfg = ExpertConfig()
        rough = [rollout(ExpertController(cfg, sim, chatter=True), InitMode.SAME, 0,
                         sim, episode_index=i) for i in range(20)]
        assert all(ep.r_k < 1.0 for ep in rough)
        smooth_s = [smoothness(ep) for ep in demos[:20]]
        rough_s = [smoothness(ep) for ep in rough]
        assert np.mean(rough_s) >= 4.0 * np.mean(smooth_s)
        for s, r in zip(smooth_s, rough_s):  # matched seeds, strict ordering
            assert r > s
