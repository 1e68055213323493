"""Scripted expert: saturated PD guidance toward the docking port.

Thrust tracks a range-proportional approach-speed profile (v_des = -v_profile
* r) with a proportional pull toward the port; torque is an attitude PD that
keeps the camera boresight on the port. Both are computed in the appropriate
frame, rotated to body axes and clamped per component to the actuator bounds.
The chatter variant overlays a sign-alternating offset on every component to
produce maximally jerky but equally goal-directed commands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Action, ChaserState, InitMode, SimConfig, rotation
from .evaluate import Episode, rollout


APPROACH_AXIS = (0.0, 1.0, 0.0)  # the docking corridor runs along V-bar


@dataclass
class ExpertConfig:
    kp_pos: float = 0.004  # [1/s^2] proportional pull toward the port
    kd_pos: float = 0.70  # [1/s] velocity tracking gain
    v_profile: float = 0.092  # [1/s] closure speed per meter of along-corridor range
    v_lateral: float = 0.0506  # [1/s] closure speed per meter of lateral offset
    kp_att: float = 1.2  # [N*m/rad] boresight alignment gain
    kd_att: float = 11.0  # [N*m*s/rad] rate damping
    chatter_amplitude: float = 0.5  # fraction of each actuator bound
    chatter_enabled: bool = False

    def validate(self) -> None:
        for name in ("kp_pos", "kd_pos", "v_profile", "v_lateral", "kp_att", "kd_att"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"expert.{name} must be non-negative, got {getattr(self, name)}")
        if not 0.0 <= self.chatter_amplitude <= 1.0:
            raise ValueError(
                f"expert.chatter_amplitude must be in [0, 1], got {self.chatter_amplitude}"
            )


def expert_action(state: ChaserState, cfg: ExpertConfig, sim: SimConfig) -> Action:
    """Saturated PD command for the current state, in body axes.

    The velocity target closes along-corridor range at v_profile per meter and
    lateral offset at v_lateral per meter. With v_lateral below v_profile the
    offset decays as range**(v_lateral / v_profile), so approaches converge to
    the corridor axis gradually and the set of demonstrations sweeps a funnel
    around the port instead of collapsing onto a single ray. Setting
    v_lateral equal to v_profile recovers a straight pursuit of the port."""
    rx, ry, rz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = state.vector().tolist()
    ax, ay, az = APPROACH_AXIS
    along = rx * ax + ry * ay + rz * az
    px, py, pz = along * ax, along * ay, along * az  # r_par; r_perp = r - r_par
    vp, vl = cfg.v_profile, cfg.v_lateral
    vdx = -vp * px - vl * (rx - px)
    vdy = -vp * py - vl * (ry - py)
    vdz = -vp * pz - vl * (rz - pz)
    m, kp, kd = sim.mass, cfg.kp_pos, cfg.kd_pos
    fx = m * (kp * -rx + kd * (vdx - vx))
    fy = m * (kp * -ry + kd * (vdy - vy))
    fz = m * (kp * -rz + kd * (vdz - vz))
    # R(q)^T, the LVLH -> body rotation, unpacked row-major
    r00, r10, r20, r01, r11, r21, r02, r12, r22 = rotation(qw, qx, qy, qz)
    t_max = sim.t_max
    thrust = [min(max(t, -t_max), t_max) for t in (r00 * fx + r01 * fy + r02 * fz,
                                                   r10 * fx + r11 * fy + r12 * fz,
                                                   r20 * fx + r21 * fy + r22 * fz)]

    rn = math.sqrt(rx * rx + ry * ry + rz * rz)
    if rn > 1e-9:
        # att_err = (0, 0, 1) x d, d the body-frame direction to the port,
        # rotates the boresight onto the port
        ux, uy, uz = -rx / rn, -ry / rn, -rz / rn
        att_err = (-(r10 * ux + r11 * uy + r12 * uz), r00 * ux + r01 * uy + r02 * uz, 0.0)
    else:
        att_err = (0.0, 0.0, 0.0)
    l_max = sim.l_max
    torque = [min(max(cfg.kp_att * e - cfg.kd_att * w, -l_max), l_max)
              for e, w in zip(att_err, (wx, wy, wz))]
    return Action(thrust=thrust, torque=torque)


def chatterize(action: Action, step_index: int, cfg: ExpertConfig, sim: SimConfig) -> Action:
    """Add a sign-alternating offset of amplitude * bound per component, then
    re-saturate. Amplitude 0 leaves the action unchanged."""
    sign = 1.0 if step_index % 2 == 0 else -1.0
    thrust = action.thrust + sign * cfg.chatter_amplitude * sim.t_max
    torque = action.torque + sign * cfg.chatter_amplitude * sim.l_max
    return Action(
        thrust=np.clip(thrust, -sim.t_max, sim.t_max),
        torque=np.clip(torque, -sim.l_max, sim.l_max),
    )


class ExpertController:
    """Rollout adapter; acts from the true state, no camera needed."""

    needs_image = False

    def __init__(self, cfg: ExpertConfig, sim: SimConfig, chatter: bool | None = None):
        self.cfg = cfg
        self.sim = sim
        self.chatter = cfg.chatter_enabled if chatter is None else chatter
        self.name = "chatter" if self.chatter else "expert"
        self.trace = None

    def reset(self) -> None:
        pass

    def act(self, state: ChaserState, t: int, image=None) -> Action:
        action = expert_action(state, self.cfg, self.sim)
        if self.chatter:
            action = chatterize(action, t, self.cfg, self.sim)
        return action


def generate_demos(n: int, mode: InitMode, seed: int, cfg: ExpertConfig,
                   sim: SimConfig) -> list[Episode]:
    """n expert episodes on per-episode RNG streams derived from (seed, index)."""
    if n < 1:
        raise ValueError(f"demo count must be >= 1, got {n}")
    cfg.validate()
    sim.validate()
    controller = ExpertController(cfg, sim)
    return [rollout(controller, mode, seed, sim, episode_index=i) for i in range(n)]
