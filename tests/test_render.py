import numpy as np
import pytest

from actdock.dynamics import (InitMode, episode_rng, look_at_port, quat_rotate_inv,
                               sample_initial)
from actdock.render import CameraModel, MarkerGeometry, _pixel_axes, project, render

from conftest import make_state


@pytest.fixture
def cam():
    return CameraModel()


@pytest.fixture
def marker():
    return MarkerGeometry()


class TestProject:
    def test_on_axis_point_hits_principal_point(self, cam):
        assert project(np.array([0.0, 0.0, 10.0]), cam) == (cam.cx, cam.cy)

    def test_pinhole_formula(self, cam):
        u, v = project(np.array([1.0, -0.5, 4.0]), cam)
        assert u == pytest.approx(cam.cx + cam.f * 1.0 / 4.0)
        assert v == pytest.approx(cam.cy + cam.f * -0.5 / 4.0)

    def test_behind_camera_is_none(self, cam):
        assert project(np.array([1.0, 1.0, -2.0]), cam) is None
        assert project(np.array([1.0, 1.0, 0.0]), cam) is None

    def test_shape_checked(self, cam):
        with pytest.raises(ValueError):
            project(np.zeros(2), cam)


def port_facing_state(r):
    r = np.asarray(r, dtype=np.float64)
    return make_state(r=r, q=look_at_port(r))


class TestRender:
    def test_shape_dtype_range(self, cam, marker):
        img = render(port_facing_state([0.0, -25.0, 0.0]), cam, marker)
        assert img.shape == (cam.height, cam.width)
        assert img.dtype == np.float64
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_marker_centered_when_facing(self, cam, marker):
        img = render(port_facing_state([0.0, -25.0, 0.0]), cam, marker)
        ci, cj = int(cam.cy), int(cam.cx)
        assert img[ci, cj] > 0.0

    def test_port_behind_camera_renders_black(self, cam, marker):
        # facing exactly away: port sits at camera -z
        state = make_state(r=(0.0, -25.0, 0.0), q=look_at_port(np.array([0.0, 25.0, 0.0])))
        assert not render(state, cam, marker).any()

    def test_disc_radius_scales_inversely_with_range(self, cam, marker):
        img_far = render(port_facing_state([0.0, -25.0, 0.0]), cam, marker)
        img_near = render(port_facing_state([0.0, -10.0, 0.0]), cam, marker)
        assert img_near.sum() > img_far.sum()
        # disc pixel count ~ pi * (f R / z)^2
        for img, z in ((img_far, 25.0), (img_near, 10.0)):
            rho = cam.f * marker.radius / z
            disc_px = np.pi * rho * rho
            row = img[int(cam.cy)]
            width = (row > 0).sum()
            # central row crosses the bars too; width >= disc diameter
            assert width >= 2 * rho - 2

    def test_disc_pixel_count_close_to_area(self, cam):
        # bars shorter than the disc radius leave a clean circle to count
        marker = MarkerGeometry(bar_half_length=0.5)
        z = 3.0
        img = render(port_facing_state([0.0, -z, 0.0]), cam, marker)
        rho = cam.f * marker.radius / z
        lit = (img > 0).sum()
        assert lit == pytest.approx(np.pi * rho * rho, rel=0.1)

    def test_attenuation_clipped_far_and_near(self, cam, marker):
        far = render(port_facing_state([0.0, -26.0, 0.0]), cam, marker)
        near = render(port_facing_state([0.0, -marker.atten_range / 2, 0.0]), cam, marker)
        assert far.max() == pytest.approx(0.2)  # 5/26 < 0.2 -> clipped low
        assert near.max() == pytest.approx(1.0)  # inside full-brightness range

    def test_attenuation_midrange_value(self, cam, marker):
        z = 8.0
        img = render(port_facing_state([0.0, -z, 0.0]), cam, marker)
        assert img.max() == pytest.approx(marker.atten_range / z)

    def test_lateral_offset_moves_marker(self, cam, marker):
        # camera kept facing along -y; port offset in x appears off center
        state = make_state(r=(2.0, -20.0, 0.0), q=look_at_port(np.array([0.0, -20.0, 0.0])))
        img = render(state, cam, marker)
        lit_cols = np.nonzero(img.any(axis=0))[0]
        assert lit_cols.size > 0
        # port at x=+2 -> camera-frame x negative -> left of center
        assert lit_cols.mean() < cam.cx

    def test_pure_function_deterministic(self, cam, marker):
        st = port_facing_state([1.0, -17.0, -0.5])
        a = render(st, cam, marker)
        b = render(st, cam, marker)
        assert np.array_equal(a, b)

    def test_core_darker_than_disc(self, cam, marker):
        z = 2.0
        img = render(port_facing_state([0.0, -z, 0.0]), cam, marker)
        ci, cj = int(cam.cy), int(cam.cx)
        # between the dot and the core rim the image sits at the core level
        off = int(0.6 * cam.f * marker.core_radius / z)
        assert off > 1  # clear of the clamped center dot
        assert img[ci, cj + off] == pytest.approx(marker.core_level * img.max())
        # disc body outside the core is at full attenuated intensity
        mid = int(0.7 * cam.f * marker.radius / z)
        assert img[ci + mid, cj] == pytest.approx(img.max())

    def test_not_saturated_inside_dock_range(self, cam, marker):
        # the nested features keep contrast even when the disc fills the view
        for z in (0.12, 0.3, 0.8, 1.5):
            img = render(port_facing_state([0.0, -z, 0.0]), cam, marker)
            assert img.std() > 0.05, f"flat image at range {z}"

    def test_closeup_sensitive_to_lateral_offset(self, cam, marker):
        base = port_facing_state([0.0, -0.3, 0.0])
        img0 = render(base, cam, marker)
        shifted = make_state(r=(0.04, -0.3, 0.0), q=base.q)
        img1 = render(shifted, cam, marker)
        assert np.abs(img1 - img0).mean() > 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            CameraModel(f=0.0).validate()
        with pytest.raises(ValueError):
            CameraModel(width=0).validate()
        with pytest.raises(ValueError):
            MarkerGeometry(radius=-1.0).validate()
        with pytest.raises(ValueError):
            MarkerGeometry(atten_range=0.0).validate()
        with pytest.raises(ValueError):
            MarkerGeometry(dot_radius=0.5).validate()  # dot >= core
        with pytest.raises(ValueError):
            MarkerGeometry(core_radius=1.5).validate()  # core >= disc
        with pytest.raises(ValueError):
            MarkerGeometry(core_level=1.0).validate()


def render_meshgrid(state, cam, marker):
    """render with its pixel offsets taken from a full np.meshgrid of pixel
    centers, as it was first written: the reference for TestPixelAxes."""
    p_cam = quat_rotate_inv(state.q, -state.r)
    img = np.zeros((cam.height, cam.width), dtype=np.float64)
    if p_cam[2] <= 1e-9:
        return img
    u0, v0 = project(p_cam, cam)
    depth = p_cam[2]
    dist = float(np.linalg.norm(p_cam))
    rho = cam.f * marker.radius / depth
    rho_core = cam.f * marker.core_radius / depth
    rho_dot = max(cam.f * marker.dot_radius / depth, 0.75)
    bar_hw = max(cam.f * marker.bar_half_width / depth, 0.5)
    bar_hl = cam.f * marker.bar_half_length / depth
    atten = min(max(marker.atten_range / dist, 0.2), 1.0)
    uu, vv = np.meshgrid(np.arange(cam.width, dtype=np.float64),
                         np.arange(cam.height, dtype=np.float64))
    du = uu - u0
    dv = vv - v0
    r2 = du * du + dv * dv
    disc = r2 <= rho * rho
    bars = (np.abs(du) <= bar_hw) & (np.abs(dv) <= bar_hl)
    bars |= (np.abs(dv) <= bar_hw) & (np.abs(du) <= bar_hl)
    img[disc | bars] = atten
    img[r2 <= rho_core * rho_core] = marker.core_level * atten
    img[r2 <= rho_dot * rho_dot] = atten
    return img


def pixel_axes_states():
    """SAME and RANDOM starts, each also moved in to close range and aimed
    off the port; close-range states facing the port, centred and offset;
    and a port behind the camera."""
    states = []
    for mode in InitMode:
        for i in range(12):
            rng = episode_rng(7, i)
            start = sample_initial(mode, rng)
            for scale in (1.0, 0.2, 0.02):
                r = start.r * scale
                aim = r + rng.normal(scale=0.3 * np.linalg.norm(r), size=3)
                states.append(make_state(r=r, q=look_at_port(aim)))
    for z in (0.05, 0.12, 0.3, 0.8):
        for dx in (0.0, 0.02, -0.07):
            facing = look_at_port(np.array([0.0, -z, 0.0]))
            states.append(make_state(r=(dx, -z, 0.5 * dx), q=facing))
    states.append(make_state(r=(0.0, -25.0, 0.0), q=look_at_port(np.array([0.0, 25.0, 0.0]))))
    return states


class TestPixelAxes:
    @pytest.mark.parametrize("cam", [CameraModel(), CameraModel(f=10.0, cx=9.5, cy=4.0,
                                                                width=19, height=9)])
    def test_frames_match_meshgrid_form_bit_for_bit(self, cam, marker):
        states = pixel_axes_states()
        frames = [render(s, cam, marker) for s in states]
        assert sum(f.any() for f in frames) > len(frames) // 2  # most frames see the marker
        assert not frames[-1].any()  # the port behind the camera
        for i, (s, got) in enumerate(zip(states, frames)):
            want = render_meshgrid(s, cam, marker)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), f"state {i}"

    def test_axes_cached_read_only(self):
        u, v = _pixel_axes(4, 3)
        assert _pixel_axes(4, 3)[0] is u
        assert u.shape == (4,) and v.shape == (3, 1)
        assert not u.flags.writeable and not v.flags.writeable
