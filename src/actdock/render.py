"""Procedural grayscale camera: pinhole projection of the docking-port marker.

The camera is rigidly mounted on the chaser body with its optical axis along
body +z, u along body +x and v along body +y. The marker is a bullseye: a
filled disc of physical radius R with two cross-bars extending past it, a
darker core disc, and a bright center dot, drawn at a distance-attenuated
intensity on a black background. The nested scales keep some edge in view
from the far approach down to the docking radius, where the outer disc
alone would overflow the image and blind the camera.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import ChaserState, quat_rotate_inv


@dataclass
class CameraModel:
    """Pinhole intrinsics; image is height x width, intensities in [0, 1]."""

    f: float = 24.0  # focal length [px]
    cx: float = 16.0  # principal point [px]
    cy: float = 12.0
    width: int = 32
    height: int = 24

    def validate(self) -> None:
        if self.f <= 0.0:
            raise ValueError(f"camera.f must be positive, got {self.f}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"camera size must be >= 1x1, got {self.height}x{self.width}")


@dataclass
class MarkerGeometry:
    """Physical extent of the port marker [m]."""

    radius: float = 1.0  # outer disc radius
    bar_half_length: float = 2.0  # cross-bar half length along each image axis
    bar_half_width: float = 0.15
    core_radius: float = 0.35  # darker core disc
    core_level: float = 0.25  # core intensity as a fraction of the disc's
    dot_radius: float = 0.03  # bright center dot
    atten_range: float = 5.0  # full brightness at or inside this range

    def validate(self) -> None:
        if self.radius <= 0.0:
            raise ValueError(f"marker.radius must be positive, got {self.radius}")
        if self.bar_half_length <= 0.0 or self.bar_half_width <= 0.0:
            raise ValueError("marker bar dimensions must be positive")
        if not 0.0 < self.dot_radius < self.core_radius < self.radius:
            raise ValueError(
                "marker requires 0 < dot_radius < core_radius < radius, got "
                f"{self.dot_radius}, {self.core_radius}, {self.radius}"
            )
        if not 0.0 <= self.core_level < 1.0:
            raise ValueError(f"marker.core_level must be in [0, 1), got {self.core_level}")
        if self.atten_range <= 0.0:
            raise ValueError(f"marker.atten_range must be positive, got {self.atten_range}")


def project(p_cam: np.ndarray, cam: CameraModel):
    """Project a camera-frame point to pixel (u, v); None when at or behind
    the image plane (p_z <= 0)."""
    p = np.asarray(p_cam, dtype=np.float64)
    if p.shape != (3,):
        raise ValueError(f"point must have shape (3,), got {p.shape}")
    if p[2] <= 0.0:
        return None
    u = cam.cx + cam.f * p[0] / p[2]
    v = cam.cy + cam.f * p[1] / p[2]
    return (float(u), float(v))


@functools.lru_cache(maxsize=8)
def _pixel_axes(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center coordinates u (width,) and v (height, 1), broadcasting to
    the image: column j -> u=j, row i -> v=i. Cached, read-only."""
    u = np.arange(width, dtype=np.float64)
    v = np.arange(height, dtype=np.float64)[:, None]
    u.flags.writeable = v.flags.writeable = False
    return u, v


def render(state: ChaserState, cam: CameraModel, marker: MarkerGeometry) -> np.ndarray:
    """Render the marker as seen from the chaser. Pure function of its inputs.

    Returns a (height, width) float64 image in [0, 1]; all zeros when the
    port is out of view.
    """
    p_cam = quat_rotate_inv(state.q, -state.r)  # port position in camera frame
    img = np.zeros((cam.height, cam.width), dtype=np.float64)
    if p_cam[2] <= 1e-9:
        return img
    uv = project(p_cam, cam)
    u0, v0 = uv
    depth = p_cam[2]
    dist = float(np.linalg.norm(p_cam))
    rho = cam.f * marker.radius / depth
    rho_core = cam.f * marker.core_radius / depth
    # Features thinner than a pixel would vanish under center sampling.
    rho_dot = max(cam.f * marker.dot_radius / depth, 0.75)
    bar_hw = max(cam.f * marker.bar_half_width / depth, 0.5)
    bar_hl = cam.f * marker.bar_half_length / depth
    atten = min(max(marker.atten_range / dist, 0.2), 1.0)
    u, v = _pixel_axes(cam.width, cam.height)
    du = u - u0  # (W,) and (H, 1): every (H, W) term below broadcasts
    dv = v - v0
    r2 = du * du + dv * dv
    disc = r2 <= rho * rho
    bars = (np.abs(du) <= bar_hw) & (np.abs(dv) <= bar_hl)
    bars |= (np.abs(dv) <= bar_hw) & (np.abs(du) <= bar_hl)
    img[disc | bars] = atten
    img[r2 <= rho_core * rho_core] = marker.core_level * atten
    img[r2 <= rho_dot * rho_dot] = atten
    return img
