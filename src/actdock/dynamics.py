"""Relative-motion dynamics for a chaser spacecraft near a docking port.

Translation follows the Hill/Clohessy-Wiltshire linearized rendezvous
equations in a local-vertical/local-horizontal (LVLH) frame centered on the
target docking port: x radial (R-bar), y along-track (V-bar), z cross-track.
Rotation is rigid-body Euler dynamics with a scalar-first unit quaternion
mapping body axes into LVLH. Both are integrated jointly with a classical
fixed-step RK4 on the 13-dim state [r, v, q, w].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

MU_EARTH = 398600.4418  # km^3/s^2
R_EARTH = 6378.137  # km
DEFAULT_ALTITUDE_KM = 409.0


class PropagationError(RuntimeError):
    """Propagation was fed, or produced, a non-finite state."""


def mean_motion(altitude_km: float, mu: float = MU_EARTH, r_body: float = R_EARTH) -> float:
    """Circular-orbit mean motion n = sqrt(mu / a^3) in rad/s (a, mu in km units)."""
    a = r_body + altitude_km
    if a <= 0.0:
        raise ValueError(f"semi-major axis must be positive, got {a} km")
    if mu <= 0.0:
        raise ValueError(f"gravitational parameter must be positive, got {mu}")
    return math.sqrt(mu / a**3)


def _as_vec(x, n: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class ChaserState:
    """Chaser kinematic state; docking port sits at the LVLH origin."""

    r: np.ndarray  # position [m], LVLH
    v: np.ndarray  # velocity [m/s], LVLH
    q: np.ndarray  # unit quaternion (scalar first), body -> LVLH
    w: np.ndarray  # angular rate [rad/s], body frame

    def __post_init__(self):
        object.__setattr__(self, "r", _as_vec(self.r, 3, "r"))
        object.__setattr__(self, "v", _as_vec(self.v, 3, "v"))
        object.__setattr__(self, "q", _as_vec(self.q, 4, "q"))
        object.__setattr__(self, "w", _as_vec(self.w, 3, "w"))
        vec = self.vector()
        if not np.all(np.isfinite(vec)):
            raise PropagationError("state contains non-finite components")
        qn = np.linalg.norm(self.q)
        if abs(qn - 1.0) > 1e-6:
            raise ValueError(f"q must be a unit quaternion, |q| = {qn}")

    def vector(self) -> np.ndarray:
        return np.concatenate([self.r, self.v, self.q, self.w])

    @classmethod
    def from_vector(cls, y) -> "ChaserState":
        y = _as_vec(y, 13, "state vector")
        return cls(r=y[0:3], v=y[3:6], q=y[6:10], w=y[10:13])


@dataclass(frozen=True)
class Action:
    """Body-frame wrench commanded for one step (zero-order hold)."""

    thrust: np.ndarray  # [N]
    torque: np.ndarray  # [N*m]

    def __post_init__(self):
        object.__setattr__(self, "thrust", _as_vec(self.thrust, 3, "thrust"))
        object.__setattr__(self, "torque", _as_vec(self.torque, 3, "torque"))

    def vector(self) -> np.ndarray:
        return np.concatenate([self.thrust, self.torque])

    @classmethod
    def from_vector(cls, a) -> "Action":
        a = _as_vec(a, 6, "action vector")
        return cls(thrust=a[0:3], torque=a[3:6])


class InitMode(Enum):
    SAME = "same"
    RANDOM = "random"


# Initial-position dispersion boxes [m]: (xmin, xmax, ymin, ymax, zmin, zmax).
# The chaser always starts behind the port on the negative V-bar.
INIT_BOXES = {
    InitMode.SAME: (-1.0, 1.0, -26.0, -24.0, -1.0, 1.0),
    InitMode.RANDOM: (-2.5, 2.5, -27.5, -22.5, -2.5, 2.5),
}


@dataclass
class SimConfig:
    """Physical constants and episode parameters. All fields configurable."""

    n: float = mean_motion(DEFAULT_ALTITUDE_KM)  # mean motion [rad/s]
    mass: float = 100.0  # [kg]
    inertia: np.ndarray = field(default_factory=lambda: np.diag([40.0, 40.0, 30.0]))  # [kg m^2]
    t_max: float = 15.0  # per-axis thrust bound [N]
    l_max: float = 1.0  # per-axis torque bound [N*m]
    dt_mean: float = 0.89  # decision interval mean [s]
    dt_std: float = 0.13  # decision interval std [s], clamped at +-3 sigma
    horizon: int = 64  # max decisions per episode
    dock_radius: float = 0.10  # [m], episode ends inside this range

    def __post_init__(self):
        self.inertia = np.asarray(self.inertia, dtype=np.float64)

    def validate(self) -> None:
        if not (self.n > 0.0 and math.isfinite(self.n)):
            raise ValueError(f"sim.n must be positive and finite, got {self.n}")
        if self.mass <= 0.0:
            raise ValueError(f"sim.mass must be positive, got {self.mass}")
        if self.inertia.shape != (3, 3):
            raise ValueError(f"sim.inertia must be 3x3, got {self.inertia.shape}")
        if not np.allclose(self.inertia, self.inertia.T, atol=1e-12):
            raise ValueError("sim.inertia must be symmetric")
        if np.any(np.linalg.eigvalsh(self.inertia) <= 0.0):
            raise ValueError("sim.inertia must be positive definite")
        if self.t_max <= 0.0:
            raise ValueError(f"sim.t_max must be positive, got {self.t_max}")
        if self.l_max <= 0.0:
            raise ValueError(f"sim.l_max must be positive, got {self.l_max}")
        if self.dt_mean <= 0.0:
            raise ValueError(f"sim.dt_mean must be positive, got {self.dt_mean}")
        if self.dt_std < 0.0:
            raise ValueError(f"sim.dt_std must be non-negative, got {self.dt_std}")
        if self.dt_mean - 3.0 * self.dt_std <= 0.0:
            raise ValueError("sim.dt_mean - 3*dt_std must stay positive")
        if self.horizon < 1:
            raise ValueError(f"sim.horizon must be >= 1, got {self.horizon}")
        if self.dock_radius <= 0.0:
            raise ValueError(f"sim.dock_radius must be positive, got {self.dock_radius}")


# --- quaternion helpers (scalar first, Hamilton product) ---


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix applying the body->LVLH rotation of unit quaternion q."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate body-frame vector v into LVLH."""
    return quat_to_matrix(q) @ v


def quat_rotate_inv(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate LVLH vector v into the body frame."""
    return quat_to_matrix(q).T @ v


def look_at_port(r: np.ndarray) -> np.ndarray:
    """Quaternion pointing the body +z (camera boresight) from position r to the origin.

    Minimal-arc rotation; roll about the boresight is left at zero.
    """
    r = _as_vec(r, 3, "r")
    rn = np.linalg.norm(r)
    if rn < 1e-12:
        return np.array([1.0, 0.0, 0.0, 0.0])
    d = -r / rn
    axis = np.cross([0.0, 0.0, 1.0], d)
    s = np.linalg.norm(axis)
    c = d[2]
    if s < 1e-12:
        if c > 0.0:
            return np.array([1.0, 0.0, 0.0, 0.0])
        return np.array([0.0, 1.0, 0.0, 0.0])  # 180 deg about x
    half = 0.5 * math.atan2(s, c)
    u = axis / s
    return np.concatenate([[math.cos(half)], u * math.sin(half)])


def boresight(state: ChaserState) -> np.ndarray:
    """Camera boresight direction (body +z) expressed in LVLH."""
    return quat_to_matrix(state.q)[:, 2]


# --- propagation ---


def _deriv(y: np.ndarray, thrust: np.ndarray, torque: np.ndarray, cfg: SimConfig,
           inertia_inv: np.ndarray) -> np.ndarray:
    n = cfg.n
    r = y[0:3]
    v = y[3:6]
    q = y[6:10]
    w = y[10:13]
    # Rotate the body-frame thrust with a normalized copy: RK4 stage states
    # drift slightly off the unit sphere.
    qn = q / np.linalg.norm(q)
    f_lvlh = quat_rotate(qn, thrust)
    acc = np.array(
        [
            3.0 * n * n * r[0] + 2.0 * n * v[1],
            -2.0 * n * v[0],
            -n * n * r[2],
        ]
    )
    acc += f_lvlh / cfg.mass
    qdot = 0.5 * quat_mul(q, np.concatenate([[0.0], w]))
    wdot = inertia_inv @ (torque - np.cross(w, cfg.inertia @ w))
    return np.concatenate([v, acc, qdot, wdot])


@functools.lru_cache(maxsize=8)
def _inertia_inverse(inertia_bytes: bytes) -> np.ndarray:
    """inv(inertia) keyed by the matrix's float64 bytes; read-only, as it is shared."""
    inv = np.linalg.inv(np.frombuffer(inertia_bytes).reshape(3, 3))
    inv.setflags(write=False)
    return inv


def step(state: ChaserState, action: Action, dt: float, cfg: SimConfig) -> ChaserState:
    """One RK4 step under a zero-order-hold body-frame wrench.

    The quaternion is renormalized after the step, keeping |q| within 1e-9
    of unity by construction.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    tol = 1e-9
    if np.any(np.abs(action.thrust) > cfg.t_max + tol):
        raise ValueError(f"thrust {action.thrust} exceeds bound {cfg.t_max} N")
    if np.any(np.abs(action.torque) > cfg.l_max + tol):
        raise ValueError(f"torque {action.torque} exceeds bound {cfg.l_max} N*m")
    y0 = state.vector()
    if not np.all(np.isfinite(y0)):
        raise PropagationError("non-finite input state")
    inertia_inv = _inertia_inverse(cfg.inertia.tobytes())
    th, tq = action.thrust, action.torque
    k1 = _deriv(y0, th, tq, cfg, inertia_inv)
    k2 = _deriv(y0 + 0.5 * dt * k1, th, tq, cfg, inertia_inv)
    k3 = _deriv(y0 + 0.5 * dt * k2, th, tq, cfg, inertia_inv)
    k4 = _deriv(y0 + dt * k3, th, tq, cfg, inertia_inv)
    y = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(y)):
        raise PropagationError("propagation produced a non-finite state")
    y[6:10] /= np.linalg.norm(y[6:10])
    return ChaserState.from_vector(y)


def sample_initial(mode: InitMode, rng: np.random.Generator) -> ChaserState:
    """Draw a start state: position uniform in the mode's box, at rest,
    camera boresight on the port."""
    xmin, xmax, ymin, ymax, zmin, zmax = INIT_BOXES[mode]
    r = np.array(
        [
            rng.uniform(xmin, xmax),
            rng.uniform(ymin, ymax),
            rng.uniform(zmin, zmax),
        ]
    )
    return ChaserState(r=r, v=np.zeros(3), q=look_at_port(r), w=np.zeros(3))


def sample_dt(cfg: SimConfig, rng: np.random.Generator) -> float:
    """Draw a decision interval ~ N(dt_mean, dt_std) clamped to +-3 sigma."""
    if cfg.dt_std == 0.0:
        return cfg.dt_mean
    dt = rng.normal(cfg.dt_mean, cfg.dt_std)
    lo = cfg.dt_mean - 3.0 * cfg.dt_std
    hi = cfg.dt_mean + 3.0 * cfg.dt_std
    return float(min(max(dt, lo), hi))


def episode_rng(seed: int, episode_index: int) -> np.random.Generator:
    """Independent, reproducible per-episode stream derived from (seed, index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, episode_index))))
