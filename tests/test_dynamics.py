import numpy as np
import pytest

from actdock.dynamics import (
    Action,
    ChaserState,
    InitMode,
    PropagationError,
    SimConfig,
    _inertia_terms,
    episode_rng,
    look_at_port,
    mean_motion,
    quat_rotate_inv,
    quat_to_matrix,
    rotation,
    sample_dt,
    sample_initial,
    step,
)

from conftest import make_state
from oracles import cw_propagate, rigid_cw_deriv, rotate_by_quaternion, spin_quaternion


def drift(state, sim, dt, n_steps):
    for _ in range(n_steps):
        state = step(state, Action(np.zeros(3), np.zeros(3)), dt, sim)
    return state


class TestMeanMotion:
    def test_iss_altitude_value(self):
        # n = sqrt(mu / a^3), a = 6378.137 + 409 km
        a = (6378.137 + 409.0) * 1e3
        expected = np.sqrt(398600.4418e9 / a**3)
        assert mean_motion(409.0) == pytest.approx(expected, rel=1e-12)

    def test_higher_orbit_is_slower(self):
        assert mean_motion(800.0) < mean_motion(400.0)


class TestFreeDriftMatchesClosedForm:
    @pytest.mark.parametrize("r0,v0", [
        ((10.0, -25.0, 4.0), (0.0, 0.0, 0.0)),
        ((100.0, -300.0, 50.0), (0.1, -0.2, 0.05)),
        ((0.0, -24.0, 0.0), (0.01, 0.03, -0.02)),
    ])
    @pytest.mark.parametrize("duration", [10.0, 60.0, 600.0])
    def test_rk4_vs_stm(self, sim, r0, v0, duration):
        n_steps = 100
        dt = duration / n_steps
        state = drift(make_state(r=r0, v=v0), sim, dt, n_steps)
        r_ref, v_ref = cw_propagate(r0, v0, sim.n, duration)
        assert np.abs(state.r - r_ref).max() < 1e-6
        assert np.abs(state.v - v_ref).max() < 1e-8

    def test_zero_state_is_fixed_point(self, sim):
        state = drift(make_state(r=(0, 0, 0)), sim, 0.89, 50)
        assert np.abs(state.r).max() < 1e-12
        assert np.abs(state.v).max() < 1e-12


class TestForcedTranslation:
    def test_matches_high_accuracy_integrator(self, sim):
        """Same tumbling-thrust scenario against an adaptive 8th-order
        integrator: error small at the flight step size AND shrinking at the
        4th-order rate when the step is refined."""
        scipy_integrate = pytest.importorskip("scipy.integrate")
        state = make_state(r=(3.0, -25.0, -2.0), v=(0.05, 0.1, -0.02),
                           q=look_at_port(np.array([3.0, -25.0, -2.0])),
                           w=(0.01, -0.02, 0.005))
        thrust = np.array([4.0, -3.0, 2.0])
        torque = np.array([0.2, 0.1, -0.3])
        duration = 17.8
        sol = scipy_integrate.solve_ivp(
            rigid_cw_deriv, (0.0, duration), state.vector(),
            args=(sim.n, sim.mass, sim.inertia, thrust, torque),
            rtol=1e-12, atol=1e-12, method="DOP853")
        ref = sol.y[:, -1]
        ref[6:10] /= np.linalg.norm(ref[6:10])

        def err(n_steps):
            out = state
            for _ in range(n_steps):
                out = step(out, Action(thrust, torque), duration / n_steps, sim)
            vec = out.vector()
            # quaternion sign is a gauge freedom; compare both orientations
            flip = vec.copy()
            flip[6:10] = -flip[6:10]
            return min(np.abs(vec - ref).max(), np.abs(flip - ref).max())

        e_coarse = err(20)   # dt = 0.89, the flight step size
        e_fine = err(80)     # dt / 4: global error should drop ~256x
        assert e_coarse < 2e-5
        assert e_fine < e_coarse / 100.0
        assert e_fine < 1e-7


class TestAttitude:
    def test_principal_axis_spin_exact(self, sim):
        w0 = np.array([0.0, 0.0, 0.08])
        state = make_state(w=w0)
        dt = 0.5
        out = drift(state, sim, dt, 200)
        q_ref = spin_quaternion(np.array([1.0, 0.0, 0.0, 0.0]), [0, 0, 1], 0.08, 100.0)
        assert np.abs(out.w - w0).max() < 1e-12
        # RK4 phase truncation ~ (w dt)^5/120 per step; 2e-8 is ~5x margin
        assert np.abs(out.q - q_ref).max() < 2e-8

    def test_torque_free_momentum_conserved(self, sim):
        state = make_state(w=(0.03, -0.05, 0.07),
                           q=(0.5, 0.5, 0.5, 0.5))
        h0 = quat_to_matrix(state.q) @ (sim.inertia @ state.w)
        out = drift(state, sim, 0.89, 500)
        h1 = quat_to_matrix(out.q) @ (sim.inertia @ out.w)
        # RK4 is not conservative; drift stays ~1e-7 of |h| over 500 steps
        assert np.abs(h1 - h0).max() < 1e-6

    def test_quaternion_norm_stays_unit(self, sim):
        state = make_state(w=(0.05, 0.02, -0.04))
        for _ in range(1000):
            state = step(state, Action(np.zeros(3), np.zeros(3)), 0.89, sim)
            assert abs(np.linalg.norm(state.q) - 1.0) < 1e-12

    def test_constant_torque_spin_up(self, sim):
        # torque about a principal axis with w crossing zero gyroscopics
        state = make_state()
        torque = np.array([0.0, 0.0, 0.6])
        dt = 0.89
        out = state
        for _ in range(30):
            out = step(out, Action(np.zeros(3), torque), dt, sim)
        w_ref = 0.6 / sim.inertia[2, 2] * 30 * dt
        assert out.w[2] == pytest.approx(w_ref, rel=1e-12)

    def test_inertia_inverse_follows_config(self):
        full = SimConfig(inertia=np.array([[40.0, 1.0, 0.0], [1.0, 35.0, 0.5],
                                           [0.0, 0.5, 30.0]]))
        diag = SimConfig()
        for cfg in (full, diag):
            inertia, inertia_inv = _inertia_terms(cfg.inertia.tobytes())
            assert inertia == tuple(cfg.inertia.ravel())
            assert inertia_inv == tuple(np.linalg.inv(cfg.inertia).ravel())
        state = make_state(w=(0.03, -0.05, 0.07))
        act = Action(np.zeros(3), np.array([0.1, 0.2, -0.3]))
        assert not np.array_equal(step(state, act, 0.89, full).w, step(state, act, 0.89, diag).w)


class TestScalarStepMatchesOracle:
    """One `step` against an RK4 built on the numpy oracle derivative, with a
    full inertia. The two round differently (BLAS mat-vecs, linalg.solve), so
    they agree to an ulp or so per component, not bit for bit."""

    SIM = SimConfig(inertia=np.array([[40.0, 1.0, -0.5], [1.0, 35.0, 0.5],
                                      [-0.5, 0.5, 30.0]]))
    R0 = np.array([1.5, -20.0, 0.8])
    TILTED = np.array([0.8, 0.2, -0.4, 0.4]) / np.linalg.norm([0.8, 0.2, -0.4, 0.4])

    def oracle_step(self, state, action, dt):
        sim = self.SIM

        def f(y):
            return rigid_cw_deriv(0.0, y, sim.n, sim.mass, sim.inertia,
                                  action.thrust, action.torque)

        y0 = state.vector()
        k1 = f(y0)
        k2 = f(y0 + 0.5 * dt * k1)
        k3 = f(y0 + 0.5 * dt * k2)
        k4 = f(y0 + dt * k3)
        y = y0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[6:10] /= np.linalg.norm(y[6:10])
        return y

    @pytest.mark.parametrize("case", ["thrust", "torque", "tumbling"])
    def test_one_step(self, case):
        r0 = self.R0
        if case == "thrust":
            state = make_state(r=r0, v=(0.02, 0.1, -0.01), q=look_at_port(r0))
            action = Action(np.array([3.0, -7.0, 12.0]), np.zeros(3))
        elif case == "torque":
            state = make_state(r=r0, q=look_at_port(r0))
            action = Action(np.zeros(3), np.array([0.3, -0.6, 0.9]))
        else:
            state = make_state(r=r0, v=(0.02, 0.1, -0.01), q=self.TILTED,
                               w=(0.3, -0.2, 0.25))
            action = Action(np.array([3.0, -7.0, 12.0]), np.array([0.3, -0.6, 0.9]))
        out = step(state, action, 0.89, self.SIM).vector()
        np.testing.assert_allclose(out, self.oracle_step(state, action, 0.89),
                                   rtol=1e-15, atol=0.0)


class TestStepValidation:
    def test_thrust_bound_enforced(self, sim):
        with pytest.raises(ValueError, match="thrust"):
            step(make_state(), Action(np.array([sim.t_max + 0.1, 0, 0]), np.zeros(3)),
                 0.89, sim)

    def test_torque_bound_enforced(self, sim):
        with pytest.raises(ValueError, match="torque"):
            step(make_state(), Action(np.zeros(3), np.array([0, 0, sim.l_max + 0.1])),
                 0.89, sim)

    def test_bound_boundary_is_allowed(self, sim):
        out = step(make_state(), Action(np.array([sim.t_max, 0, 0]), np.zeros(3)),
                   0.89, sim)
        assert np.isfinite(out.vector()).all()

    def test_nonpositive_dt_rejected(self, sim):
        with pytest.raises(ValueError, match="dt"):
            step(make_state(), Action(np.zeros(3), np.zeros(3)), 0.0, sim)

    def test_nonfinite_state_rejected(self):
        with pytest.raises(PropagationError):
            ChaserState(r=np.array([np.nan, 0, 0]), v=np.zeros(3),
                        q=np.array([1.0, 0, 0, 0]), w=np.zeros(3))

    def test_unnormalized_quaternion_rejected(self):
        with pytest.raises(ValueError, match="quaternion"):
            ChaserState(r=np.zeros(3), v=np.zeros(3),
                        q=np.array([1.0, 1.0, 0, 0]), w=np.zeros(3))

    def test_fields_cannot_be_reassigned_and_vector_is_a_copy(self):
        state = make_state(r=(1, -2, 3), w=(0.01, 0.02, 0.03))
        action = Action(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]))
        with pytest.raises(AttributeError):
            state.r = np.zeros(3)
        with pytest.raises(AttributeError):
            action.thrust = np.zeros(3)
        state.vector()[:] = 0.0
        action.vector()[:] = 0.0
        assert np.array_equal(state.r, [1.0, -2.0, 3.0]) and state.w[2] == 0.03
        assert np.array_equal(action.vector(), [1.0, 2.0, 3.0, 0.1, 0.2, 0.3])

    def test_vector_round_trip(self):
        state = make_state(r=(1, -2, 3), v=(0.1, 0.2, 0.3), w=(0.01, 0.02, 0.03))
        again = ChaserState.from_vector(state.vector())
        assert np.array_equal(again.vector(), state.vector())


def boresight(q):
    """Body +z expressed in LVLH."""
    return quat_to_matrix(q)[:, 2]


class TestQuaternionHelpers:
    def test_rotation_matches_hamilton_sandwich(self, rng):
        for _ in range(200):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            ref = np.column_stack([rotate_by_quaternion(q, e) for e in np.eye(3)])
            np.testing.assert_allclose(np.reshape(rotation(*q), (3, 3)), ref, rtol=0, atol=1e-15)
            np.testing.assert_array_equal(quat_to_matrix(q), np.reshape(rotation(*q), (3, 3)))

    def test_rotate_matches_matrix(self, rng):
        for _ in range(10):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            v = rng.normal(size=3)
            assert np.allclose(quat_to_matrix(q) @ v, rotate_by_quaternion(q, v), atol=1e-12)

    def test_rotate_inv_is_inverse(self, rng):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        v = rng.normal(size=3)
        assert np.allclose(quat_rotate_inv(q, quat_to_matrix(q) @ v), v, atol=1e-12)

    def test_ninety_degree_z(self):
        # 90 deg about +z maps +x to +y
        q = np.array([np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)])
        assert np.allclose(quat_to_matrix(q) @ [1, 0, 0], [0, 1, 0], atol=1e-12)


class TestLookAtPort:
    def test_boresight_points_at_port(self, rng):
        for _ in range(20):
            r = rng.uniform(-30, 30, size=3)
            if np.linalg.norm(r) < 1e-6:
                continue
            d = boresight(look_at_port(r))
            target = -r / np.linalg.norm(r)
            assert np.allclose(d, target, atol=1e-9)

    def test_at_origin_returns_identity(self):
        assert np.allclose(look_at_port(np.zeros(3)), [1, 0, 0, 0])

    def test_antiparallel_case(self):
        # port exactly behind the boresight: a 180 degree flip, still unit
        d = boresight(look_at_port(np.array([0.0, 0.0, 1.0])))
        assert np.allclose(d, [0, 0, -1], atol=1e-9)


class TestSampling:
    def test_same_mode_box(self):
        rng = episode_rng(7, 0)
        lo = np.array([-1.0, -26.0, -1.0])
        hi = np.array([1.0, -24.0, 1.0])
        for _ in range(200):
            st = sample_initial(InitMode.SAME, rng)
            assert (st.r >= lo).all() and (st.r <= hi).all()
            assert np.array_equal(st.v, np.zeros(3))
            assert np.array_equal(st.w, np.zeros(3))

    def test_random_mode_box_is_wider(self):
        rng = episode_rng(7, 1)
        lo = np.array([-2.5, -27.5, -2.5])
        hi = np.array([2.5, -22.5, 2.5])
        seen_outside_same = False
        for _ in range(300):
            st = sample_initial(InitMode.RANDOM, rng)
            assert (st.r >= lo).all() and (st.r <= hi).all()
            if abs(st.r[0]) > 1.0 or abs(st.r[2]) > 1.0:
                seen_outside_same = True
        assert seen_outside_same

    def test_initial_attitude_faces_port(self):
        rng = episode_rng(3, 2)
        st = sample_initial(InitMode.SAME, rng)
        d = boresight(st.q)
        assert np.allclose(d, -st.r / np.linalg.norm(st.r), atol=1e-9)

    def test_dt_statistics(self, sim):
        rng = np.random.default_rng(0)
        draws = np.array([sample_dt(sim, rng) for _ in range(20000)])
        assert draws.mean() == pytest.approx(sim.dt_mean, abs=0.01)
        assert draws.std() == pytest.approx(sim.dt_std, abs=0.01)
        assert (draws >= sim.dt_mean - 3 * sim.dt_std - 1e-12).all()
        assert (draws <= sim.dt_mean + 3 * sim.dt_std + 1e-12).all()

    def test_dt_degenerate_std_exact(self):
        sim = SimConfig(dt_std=0.0)
        rng = np.random.default_rng(0)
        assert sample_dt(sim, rng) == sim.dt_mean

    def test_episode_rng_streams_differ_and_repeat(self):
        a1 = episode_rng(11, 0).normal(size=4)
        a2 = episode_rng(11, 0).normal(size=4)
        b = episode_rng(11, 1).normal(size=4)
        c = episode_rng(12, 0).normal(size=4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)


class TestSimConfigValidation:
    def test_defaults_valid(self, sim):
        sim.validate()

    @pytest.mark.parametrize("field,value", [
        ("mass", 0.0), ("t_max", -1.0), ("l_max", 0.0), ("dt_mean", 0.0),
        ("horizon", 0), ("dock_radius", -0.1), ("n", 0.0),
    ])
    def test_bad_values_rejected(self, field, value):
        sim = SimConfig()
        setattr(sim, field, value)
        with pytest.raises(ValueError):
            sim.validate()
