"""Independent reference implementations used as test oracles.

Everything here is written from the underlying math, not from the package
source, so agreement between the two is evidence of correctness rather than
self-confirmation.
"""

import numpy as np


# --- closed-form Clohessy-Wiltshire state transition ---


def cw_matrices(n, t):
    c = np.cos(n * t)
    s = np.sin(n * t)
    phi_rr = np.array([
        [4.0 - 3.0 * c, 0.0, 0.0],
        [6.0 * (s - n * t), 1.0, 0.0],
        [0.0, 0.0, c],
    ])
    phi_rv = np.array([
        [s / n, 2.0 * (1.0 - c) / n, 0.0],
        [2.0 * (c - 1.0) / n, (4.0 * s - 3.0 * n * t) / n, 0.0],
        [0.0, 0.0, s / n],
    ])
    phi_vr = np.array([
        [3.0 * n * s, 0.0, 0.0],
        [6.0 * n * (c - 1.0), 0.0, 0.0],
        [0.0, 0.0, -n * s],
    ])
    phi_vv = np.array([
        [c, 2.0 * s, 0.0],
        [-2.0 * s, 4.0 * c - 3.0, 0.0],
        [0.0, 0.0, c],
    ])
    return phi_rr, phi_rv, phi_vr, phi_vv


def cw_propagate(r0, v0, n, t):
    """Exact free-drift solution of the Hill/Clohessy-Wiltshire equations."""
    phi_rr, phi_rv, phi_vr, phi_vv = cw_matrices(n, t)
    r = phi_rr @ np.asarray(r0, float) + phi_rv @ np.asarray(v0, float)
    v = phi_vr @ np.asarray(r0, float) + phi_vv @ np.asarray(v0, float)
    return r, v


# --- full 13-state derivative, written independently for ODE cross-checks ---


def rigid_cw_deriv(t, y, n, mass, inertia, thrust_body, torque_body):
    """d/dt of (r, v, q, w) under CW translation + Euler rotation.

    Quaternion is scalar-first Hamilton, rotating body vectors into the
    local orbital frame; thrust is commanded in body axes.
    """
    r = y[0:3]
    v = y[3:6]
    q = y[6:10]
    w = y[10:13]
    qs, qx, qy, qz = q / np.linalg.norm(q)
    rot = np.array([
        [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qs * qz), 2 * (qx * qz + qs * qy)],
        [2 * (qx * qy + qs * qz), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qs * qx)],
        [2 * (qx * qz - qs * qy), 2 * (qy * qz + qs * qx), 1 - 2 * (qx * qx + qy * qy)],
    ])
    f_lvlh = rot @ np.asarray(thrust_body, float)
    acc = np.array([
        3.0 * n * n * r[0] + 2.0 * n * v[1],
        -2.0 * n * v[0],
        -n * n * r[2],
    ]) + f_lvlh / mass
    # dq = 0.5 * q (x) (0, w)
    wq = np.array([0.0, w[0], w[1], w[2]])
    dq = 0.5 * np.array([
        q[0] * wq[0] - q[1] * wq[1] - q[2] * wq[2] - q[3] * wq[3],
        q[0] * wq[1] + q[1] * wq[0] + q[2] * wq[3] - q[3] * wq[2],
        q[0] * wq[2] - q[1] * wq[3] + q[2] * wq[0] + q[3] * wq[1],
        q[0] * wq[3] + q[1] * wq[2] - q[2] * wq[1] + q[3] * wq[0],
    ])
    iw = inertia @ w
    dw = np.linalg.solve(inertia, np.asarray(torque_body, float) - np.cross(w, iw))
    return np.concatenate([v, acc, dq, dw])


def hamilton_product(a, b):
    """Scalar-first Hamilton product a (x) b."""
    return np.array([
        a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
        a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
        a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
        a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
    ])


def spin_quaternion(q0, axis, rate, t):
    """Exact attitude for a constant principal-axis spin: q0 (x) axis-angle."""
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * rate * t
    dq = np.concatenate([[np.cos(half)], np.sin(half) * axis])
    return hamilton_product(q0, dq)


def rotate_by_quaternion(q, v):
    """v rotated by unit quaternion q as the sandwich q (x) (0, v) (x) q*,
    without forming a rotation matrix."""
    conj = np.array([q[0], -q[1], -q[2], -q[3]])
    return hamilton_product(hamilton_product(q, np.concatenate([[0.0], v])), conj)[1:]


# --- brute-force layers ---


def conv2d_naive(x, w, b, stride=1, pad=0):
    """Direct-loop 2-D convolution, NCHW / OIHW."""
    x = np.asarray(x, float)
    w = np.asarray(w, float)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    oh = (h - kh) // stride + 1
    ow = (wd - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for img in range(n):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = x[img, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[img, co, i, j] = np.sum(patch * w[co]) + b[co]
    return out


def softmax_naive(x, axis=-1):
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm_naive(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


# --- finite differences ---


def central_diff(f, x0, h=1e-6):
    """Gradient of scalar f at flat vector x0 by central differences."""
    x0 = np.asarray(x0, float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def check_param_grads(value_fn, grad_fn, tensors, rng, per_tensor=6, h=1e-5,
                      rel_floor=1e-4):
    """Central-difference spot check of analytic parameter gradients.

    value_fn() rebuilds the graph and returns the scalar loss; grad_fn()
    additionally zeroes and fills every tensor's .grad.  `tensors` maps
    names to package Tensor objects; entries are perturbed in place.
    Returns (max relative error, list of (name, index, analytic, numeric)).
    Relative error uses max(|analytic|, |numeric|, rel_floor) as denominator
    so near-zero gradients are compared absolutely.
    """
    grad_fn()
    analytic = {name: t.grad.copy() for name, t in tensors.items()}
    worst = 0.0
    rows = []
    for name, t in tensors.items():
        flat = t.data.reshape(-1)
        n_pick = min(per_tensor, flat.size)
        idx = rng.choice(flat.size, size=n_pick, replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + h
            fp = value_fn()
            flat[i] = keep - h
            fm = value_fn()
            flat[i] = keep
            num = (fp - fm) / (2.0 * h)
            ana = analytic[name].reshape(-1)[i]
            err = abs(num - ana) / max(abs(num), abs(ana), rel_floor)
            worst = max(worst, err)
            rows.append((name, int(i), float(ana), float(num)))
    return worst, rows
