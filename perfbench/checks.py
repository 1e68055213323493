"""Correctness checks computed apart from the program.

Each check raises `CheckFailed` naming what disagreed. The reference
computations here (rigid-body HCW derivative, RK4, the closed-form
Clohessy-Wiltshire solution, temporal-ensembling weights, report statistics,
central finite differences) are written from their definitions, not taken
from the program, so a fault shared by the two cannot hide.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- episodes as arrays ---


def episode_arrays(episodes) -> dict:
    """Stack every recorded step of `episodes` with the state that followed it.

    The state after step t is the next record's state, or the final state
    after the last record. A failed episode's last step has no valid successor
    and is left out of `next_states`' rows via the `has_next` mask."""
    states, actions, dts, nexts, has_next = [], [], [], [], []
    for ep in episodes:
        seq = [rec.state.vector() for rec in ep.records] + [ep.final_state.vector()]
        for t, rec in enumerate(ep.records):
            states.append(seq[t])
            actions.append(rec.action.vector())
            dts.append(rec.dt)
            nexts.append(seq[t + 1])
            has_next.append(not (ep.failed and t == ep.steps - 1))
    return {
        "states": np.array(states).reshape(-1, 13),
        "actions": np.array(actions).reshape(-1, 6),
        "dt": np.array(dts),
        "next_states": np.array(nexts).reshape(-1, 13),
        "has_next": np.array(has_next, dtype=bool),
    }


# --- dynamics reference ---


def _rotation(q: np.ndarray) -> np.ndarray:
    """(N, 3, 3) body->LVLH rotations of unit quaternions q (N, 4), scalar first:
    R = (w^2 - |u|^2) I + 2 u u^T + 2 w [u]x."""
    w = q[:, 0]
    u = q[:, 1:]
    cross = np.zeros((q.shape[0], 3, 3))
    cross[:, 0, 1], cross[:, 0, 2] = -u[:, 2], u[:, 1]
    cross[:, 1, 0], cross[:, 1, 2] = u[:, 2], -u[:, 0]
    cross[:, 2, 0], cross[:, 2, 1] = -u[:, 1], u[:, 0]
    eye = np.eye(3)[None]
    return ((w * w - (u * u).sum(1))[:, None, None] * eye
            + 2.0 * u[:, :, None] * u[:, None, :] + 2.0 * w[:, None, None] * cross)


def rigid_hcw_derivative(y, thrust, torque, n, mass, inertia) -> np.ndarray:
    """dy/dt of [r, v, q, w] rows: HCW translation under the body thrust
    rotated by the normalized attitude, q' = q * (0, w) / 2, and Euler's
    equation I w' = tau - w x (I w)."""
    r, v, q, w = y[:, 0:3], y[:, 3:6], y[:, 6:10], y[:, 10:13]
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    force = np.einsum("nij,nj->ni", _rotation(qn), thrust)
    acc = np.stack([3.0 * n * n * r[:, 0] + 2.0 * n * v[:, 1],
                    -2.0 * n * v[:, 0],
                    -n * n * r[:, 2]], axis=1) + force / mass
    w0, u = q[:, :1], q[:, 1:]
    qdot = 0.5 * np.concatenate([-(u * w).sum(1, keepdims=True),
                                 w0 * w + np.cross(u, w)], axis=1)
    iw = w @ inertia.T
    wdot = np.linalg.solve(inertia, (torque - np.cross(w, iw)).T).T
    return np.concatenate([v, acc, qdot, wdot], axis=1)


def rk4_reference(states, actions, dt, sim) -> np.ndarray:
    """One classical RK4 step per row under a held wrench, then |q| = 1."""
    h = np.asarray(dt)[:, None]
    thrust, torque = actions[:, 0:3], actions[:, 3:6]

    def f(y):
        return rigid_hcw_derivative(y, thrust, torque, sim.n, sim.mass, sim.inertia)

    k1 = f(states)
    k2 = f(states + 0.5 * h * k1)
    k3 = f(states + 0.5 * h * k2)
    k4 = f(states + h * k3)
    out = states + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out[:, 6:10] /= np.linalg.norm(out[:, 6:10], axis=1, keepdims=True)
    return out


def check_propagation(arrays: dict, sim, rtol: float = 1e-9) -> None:
    """Every recorded step re-propagates to the recorded next state."""
    mask = arrays["has_next"]
    if not mask.any():
        return
    ref = rk4_reference(arrays["states"][mask], arrays["actions"][mask],
                        arrays["dt"][mask], sim)
    got = arrays["next_states"][mask]
    err = np.abs(got - ref) / (1.0 + np.abs(ref))
    worst = int(np.argmax(err.max(axis=1)))
    _require(float(err.max()) <= rtol,
             f"step {worst} re-propagates {ref[worst].tolist()}, "
             f"program recorded {got[worst].tolist()} (max rel err {err.max():.3e})")


def check_bounds(arrays: dict, sim, qtol: float = 1e-9) -> None:
    """Actions within actuator bounds and unit quaternions in every state."""
    thrust = np.abs(arrays["actions"][:, 0:3]).max(initial=0.0)
    torque = np.abs(arrays["actions"][:, 3:6]).max(initial=0.0)
    _require(thrust <= sim.t_max, f"thrust {thrust} exceeds bound {sim.t_max} N")
    _require(torque <= sim.l_max, f"torque {torque} exceeds bound {sim.l_max} N*m")
    for key in ("states", "next_states"):
        qn = np.linalg.norm(arrays[key][:, 6:10], axis=1)
        dev = float(np.abs(qn - 1.0).max(initial=0.0))
        _require(dev <= qtol, f"{key}: |q| deviates from 1 by {dev:.3e}")


def cw_closed_form(r0, v0, n: float, t: float):
    """Clohessy-Wiltshire state at time t from (r0, v0), x radial, y along-track."""
    x0, y0, z0 = r0
    vx0, vy0, vz0 = v0
    c, s = math.cos(n * t), math.sin(n * t)
    r = np.array([
        (4.0 - 3.0 * c) * x0 + s / n * vx0 + 2.0 / n * (1.0 - c) * vy0,
        6.0 * (s - n * t) * x0 + y0 + 2.0 / n * (c - 1.0) * vx0 + (4.0 * s - 3.0 * n * t) / n * vy0,
        c * z0 + s / n * vz0,
    ])
    v = np.array([
        3.0 * n * s * x0 + c * vx0 + 2.0 * s * vy0,
        6.0 * n * (c - 1.0) * x0 - 2.0 * s * vx0 + (4.0 * c - 3.0) * vy0,
        -n * s * z0 + c * vz0,
    ])
    return r, v


def check_cw_drift(r0, v0, q0, times, states, n: float, tol_m: float = 1e-8) -> None:
    """Zero-thrust, zero-rate states at `times` follow the closed form and keep q0."""
    for t, y in zip(times, states):
        r, v = cw_closed_form(r0, v0, n, t)
        err = max(float(np.abs(y[0:3] - r).max()), float(np.abs(y[3:6] - v).max()))
        _require(err <= tol_m, f"zero-thrust drift at t={t:.3f} s is off the "
                               f"closed form by {err:.3e}")
        _require(float(np.abs(y[6:10] - q0).max()) <= 1e-12,
                 f"attitude moved at t={t:.3f} s without rate or torque")


# --- temporal ensembling ---


def check_ensembling(episodes, k: int, decay: float, atol: float = 1e-12) -> None:
    """Each executed action is the exp(-decay * i) weighted mean of the chunk
    predictions covering its step, i = 0 for the newest chunk."""
    for ep in episodes:
        _require(ep.chunk_trace is not None and len(ep.chunk_trace) == ep.steps,
                 f"episode {ep.episode_id}: chunk trace missing or of wrong length")
        emitted = [(e, np.asarray(c)) for e, c in sorted(ep.chunk_trace,
                                                         key=lambda ec: -ec[0])]
        for t, rec in enumerate(ep.records):
            preds = [c[t - e] for e, c in emitted if 0 <= t - e < k][:k]
            w = np.exp(-decay * np.arange(len(preds)))
            expect = (w[:, None] * np.array(preds)).sum(axis=0) / w.sum()
            err = float(np.abs(rec.action.vector() - expect).max())
            _require(err <= atol, f"episode {ep.episode_id} step {t}: executed action "
                                  f"is {err:.3e} from the ensembled chunks")


# --- reports ---


def check_report(report, episodes, radii, rtol: float = 1e-12) -> None:
    """r_K mean, success fractions and counts recomputed from final states."""
    r_k = np.array([math.sqrt(sum(float(x) ** 2 for x in ep.final_state.r))
                    for ep in episodes])
    _require(report.n_episodes == len(episodes),
             f"report counts {report.n_episodes} episodes, ran {len(episodes)}")
    steps = sum(ep.steps for ep in episodes)
    _require(report.total_steps == steps,
             f"report counts {report.total_steps} steps, episodes hold {steps}")
    mean = math.fsum(r_k) / len(r_k)
    _require(abs(report.r_k_mean - mean) <= rtol * max(1.0, abs(mean)),
             f"report r_K mean {report.r_k_mean!r}, recomputed {mean!r}")
    for radius in radii:
        frac = sum(1 for r in r_k if r < radius) / len(r_k)
        got = report.success_rates.get(float(radius))
        _require(got == frac, f"success fraction within {radius} m: report {got}, "
                              f"recomputed {frac}")


def check_expert_docks(episodes, max_range_m: float) -> None:
    """The scripted expert ends every episode near the port."""
    for ep in episodes:
        r = float(np.linalg.norm(ep.final_state.r))
        _require(r <= max_range_m, f"expert episode {ep.episode_id} ends {r:.3f} m "
                                   f"from the port (limit {max_range_m} m)")


def check_round_trip(written, read) -> None:
    """Episodes read back from NDJSON equal the generated ones bit for bit."""
    _require(len(written) == len(read),
             f"wrote {len(written)} episodes, read back {len(read)}")
    for a, b in zip(written, read):
        for field in ("episode_id", "seed", "policy", "failed", "diagnostic", "steps"):
            _require(getattr(a, field) == getattr(b, field),
                     f"episode {a.episode_id}: {field} {getattr(a, field)!r} read back "
                     f"as {getattr(b, field)!r}")
        ra, rb = episode_arrays([a]), episode_arrays([b])
        for key in ("states", "actions", "dt", "next_states"):
            _require(ra[key].tobytes() == rb[key].tobytes(),
                     f"episode {a.episode_id}: {key} differ after the NDJSON round trip")


# --- training ---


def check_loss_falls(l1_curve, window: int) -> None:
    """The trailing-window mean L1 is below the first window's."""
    l1 = np.asarray(l1_curve, dtype=np.float64)
    _require(l1.size >= 2 * window, f"curve of {l1.size} points is shorter than "
                                    f"two windows of {window}")
    _require(bool(np.all(np.isfinite(l1))), "loss curve holds non-finite values")
    first, last = float(l1[:window].mean()), float(l1[-window:].mean())
    _require(last < first, f"trailing-{window} L1 {last:.6f} is not below the "
                           f"first window's {first:.6f}")


def check_checkpoint(saved, loaded) -> None:
    """A reloaded ParameterSet holds bit-identical parameters, Adam moments
    and step count. Moments are read from ParameterSet's private tables,
    which is where `save` takes them from."""
    _require(saved.names() == loaded.names(), "checkpoint tensor names differ")
    _require(saved.step_count == loaded.step_count,
             f"Adam step {saved.step_count} reloads as {loaded.step_count}")
    for name in saved.names():
        pairs = ((saved[name].data, loaded[name].data, "parameter"),
                 (saved._m[name], loaded._m[name], "first moment"),
                 (saved._v[name], loaded._v[name], "second moment"))
        for a, b, what in pairs:
            _require(a.shape == b.shape and a.tobytes() == b.tobytes(),
                     f"{name}: {what} differs after reload")


def analytic_grads(loss_fn, params) -> dict:
    """Gradient of loss_fn() for every parameter, by the program's backward."""
    params.zero_grad()
    loss_fn().backward()
    out = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
           for name, t in params.items()}
    params.zero_grad()
    return out


def check_gradients(loss_fn, params, grads: dict, rng, per_tensor: int = 2,
                    h: float = 1e-5, rtol: float = 1e-4) -> int:
    """Compare `grads` with central differences of loss_fn() at `per_tensor`
    random entries of every parameter tensor. An entry passes when the two
    differ by at most rtol of the larger plus 100 eps |loss| / h, a bound on
    the rounding error of the difference quotient that keeps true zeros (such
    as attention key biases) from failing on noise. Returns the probe count."""
    noise = 100.0 * np.finfo(np.float64).eps * abs(loss_fn().item()) / h
    probes = 0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        for idx in rng.choice(flat.size, size=min(per_tensor, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_fn().item()
            flat[idx] = keep - h
            down = loss_fn().item()
            flat[idx] = keep
            fd = (up - down) / (2.0 * h)
            an = float(grads[name].reshape(-1)[idx])
            _require(abs(fd - an) <= rtol * max(abs(fd), abs(an)) + noise,
                     f"{name}[{idx}]: backward gives {an:.6e}, central difference "
                     f"{fd:.6e} (allowed gap {rtol * max(abs(fd), abs(an)) + noise:.2e})")
            probes += 1
    return probes


# --- traced call counts ---


def check_counts(summary: dict, expected: dict) -> None:
    """Traced call counts equal the work counted from the outputs."""
    for name, want in expected.items():
        got = summary.get(name, [0])[0]
        _require(got == want, f"{name} was called {got} times, outputs account for {want}")
