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


class ChaserState:
    """Chaser kinematic state; docking port sits at the LVLH origin.

    Held as one 13-vector [r, v, q, w]: an episode keeps one state per step,
    and one array in place of four more than halves that memory. r, v, q and w
    are views into it and cannot be reassigned.
    """

    __slots__ = ("_y",)

    def __init__(self, r, v, q, w):
        self._set(np.concatenate([_as_vec(r, 3, "r"), _as_vec(v, 3, "v"),
                                  _as_vec(q, 4, "q"), _as_vec(w, 3, "w")]))

    def _set(self, y: np.ndarray) -> None:
        if not all(map(math.isfinite, y.tolist())):
            raise PropagationError("state contains non-finite components")
        qn = math.hypot(*y[6:10].tolist())
        if abs(qn - 1.0) > 1e-6:
            raise ValueError(f"q must be a unit quaternion, |q| = {qn}")
        self._y = y

    r = property(lambda self: self._y[0:3], doc="position [m], LVLH")
    v = property(lambda self: self._y[3:6], doc="velocity [m/s], LVLH")
    q = property(lambda self: self._y[6:10], doc="unit quaternion (scalar first), body -> LVLH")
    w = property(lambda self: self._y[10:13], doc="angular rate [rad/s], body frame")

    def __repr__(self) -> str:
        return f"ChaserState(r={self.r!r}, v={self.v!r}, q={self.q!r}, w={self.w!r})"

    def vector(self) -> np.ndarray:
        return self._y.copy()

    @classmethod
    def from_vector(cls, y) -> "ChaserState":
        state = cls.__new__(cls)
        state._set(_as_vec(y, 13, "state vector"))
        return state


class Action:
    """Body-frame wrench commanded for one step (zero-order hold), held as the
    6-vector [thrust, torque]; thrust and torque are views into it."""

    __slots__ = ("_a",)

    def __init__(self, thrust, torque):
        self._a = np.concatenate([_as_vec(thrust, 3, "thrust"), _as_vec(torque, 3, "torque")])

    thrust = property(lambda self: self._a[0:3], doc="[N]")
    torque = property(lambda self: self._a[3:6], doc="[N*m]")

    def __repr__(self) -> str:
        return f"Action(thrust={self.thrust!r}, torque={self.torque!r})"

    def vector(self) -> np.ndarray:
        return self._a.copy()

    @classmethod
    def from_vector(cls, a) -> "Action":
        action = cls.__new__(cls)
        action._a = _as_vec(a, 6, "action vector")
        return action


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


def _deriv(y, thrust, torque, n: float, mass: float, inertia, inertia_inv) -> list[float]:
    """d/dt of the 13 state numbers y under a body-frame wrench, in plain floats.

    inertia and inertia_inv are row-major 9-tuples. The thrust is rotated with
    a normalized copy of q: RK4 stage states drift slightly off the unit sphere.
    """
    x, _, z, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = y
    tx, ty, tz = thrust
    lx, ly, lz = torque
    qn = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    a, b, c, d = qw / qn, qx / qn, qy / qn, qz / qn
    # f_lvlh = R(q) @ thrust, R as in quat_to_matrix
    fx = ((1 - 2 * (c * c + d * d)) * tx + 2 * (b * c - a * d) * ty
          + 2 * (b * d + a * c) * tz)
    fy = (2 * (b * c + a * d) * tx + (1 - 2 * (b * b + d * d)) * ty
          + 2 * (c * d - a * b) * tz)
    fz = (2 * (b * d - a * c) * tx + 2 * (c * d + a * b) * ty
          + (1 - 2 * (b * b + c * c)) * tz)
    # Euler: I^-1 @ (torque - w x (I @ w))
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = inertia
    hx = i00 * wx + i01 * wy + i02 * wz
    hy = i10 * wx + i11 * wy + i12 * wz
    hz = i20 * wx + i21 * wy + i22 * wz
    mx = lx - (wy * hz - wz * hy)
    my = ly - (wz * hx - wx * hz)
    mz = lz - (wx * hy - wy * hx)
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = inertia_inv
    return [
        vx,
        vy,
        vz,
        3.0 * n * n * x + 2.0 * n * vy + fx / mass,
        -2.0 * n * vx + fy / mass,
        -n * n * z + fz / mass,
        # 0.5 * q (x) (0, w), Hamilton product
        0.5 * (-qx * wx - qy * wy - qz * wz),
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy - qx * wz + qz * wx),
        0.5 * (qw * wz + qx * wy - qy * wx),
        j00 * mx + j01 * my + j02 * mz,
        j10 * mx + j11 * my + j12 * mz,
        j20 * mx + j21 * my + j22 * mz,
    ]


@functools.lru_cache(maxsize=8)
def _inertia_inverse(inertia_bytes: bytes) -> np.ndarray:
    """inv(inertia) keyed by the matrix's float64 bytes; read-only, as it is shared."""
    inv = np.linalg.inv(np.frombuffer(inertia_bytes).reshape(3, 3))
    inv.setflags(write=False)
    return inv


@functools.lru_cache(maxsize=8)
def _inertia_terms(inertia_bytes: bytes) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(inertia, inv(inertia)) as row-major 9-tuples of floats."""
    inertia = tuple(np.frombuffer(inertia_bytes).tolist())
    return inertia, tuple(_inertia_inverse(inertia_bytes).ravel().tolist())


def step(state: ChaserState, action: Action, dt: float, cfg: SimConfig) -> ChaserState:
    """One RK4 step under a zero-order-hold body-frame wrench.

    The quaternion is renormalized after the step, keeping |q| within 1e-9
    of unity by construction.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    wrench = action._a.tolist()
    th, tq = wrench[0:3], wrench[3:6]
    tol = 1e-9
    if any(abs(t) > cfg.t_max + tol for t in th):
        raise ValueError(f"thrust {action.thrust} exceeds bound {cfg.t_max} N")
    if any(abs(t) > cfg.l_max + tol for t in tq):
        raise ValueError(f"torque {action.torque} exceeds bound {cfg.l_max} N*m")
    y0 = state._y.tolist()
    if not all(map(math.isfinite, y0)):
        raise PropagationError("non-finite input state")
    inertia, inertia_inv = _inertia_terms(cfg.inertia.tobytes())
    args = (th, tq, cfg.n, cfg.mass, inertia, inertia_inv)
    half = 0.5 * dt
    k1 = _deriv(y0, *args)
    k2 = _deriv([yi + half * ki for yi, ki in zip(y0, k1)], *args)
    k3 = _deriv([yi + half * ki for yi, ki in zip(y0, k2)], *args)
    k4 = _deriv([yi + dt * ki for yi, ki in zip(y0, k3)], *args)
    h = dt / 6.0
    y = [yi + h * (a + 2.0 * b + 2.0 * c + d) for yi, a, b, c, d in zip(y0, k1, k2, k3, k4)]
    if not all(map(math.isfinite, y)):
        raise PropagationError("propagation produced a non-finite state")
    qn = math.sqrt(sum(v * v for v in y[6:10]))
    y[6:10] = [v / qn for v in y[6:10]]
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
