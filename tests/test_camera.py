"""Tests for the FPV camera rasterizer."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.env import camera as camera_module
from repro.env.camera import (
    CameraParams,
    FpvCamera,
    decode_image_u8,
    encode_image_u8,
    floor_offsets,
    render_lanes,
)
from repro.env.geometry import Pose2
from repro.env.worlds import make_world


@pytest.fixture
def camera():
    return FpvCamera(CameraParams(width=48, height=32, texture_noise=0.0), seed=1)


class TestCameraParams:
    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            CameraParams(width=2, height=2)

    def test_rejects_extreme_fov(self):
        with pytest.raises(ValueError):
            CameraParams(fov_degrees=200.0)

    def test_default_fov_is_90(self):
        assert CameraParams().fov_degrees == 90.0


class TestRender:
    def test_shape_and_range(self, camera, tunnel):
        image = camera.render(tunnel, Pose2(10, 0, 0))
        assert image.shape == (32, 48)
        assert image.dtype == np.float32
        assert image.min() >= 0.0
        assert image.max() <= 1.0

    def test_centered_view_symmetric(self, tunnel):
        camera = FpvCamera(CameraParams(width=48, height=32, texture_noise=0.0), seed=1)
        image = camera.render(tunnel, Pose2(10, 0, 0))
        left = image[:, :24]
        right = image[:, 24:][:, ::-1]
        assert np.abs(left - right).mean() < 0.05

    def test_offset_view_asymmetric(self, camera, tunnel):
        image = camera.render(tunnel, Pose2(10, 1.0, 0))
        left = image[:, :24].mean()
        right = image[:, 24:].mean()
        assert abs(left - right) > 0.01

    def test_yawed_view_differs_from_straight(self, camera, tunnel):
        straight = camera.render(tunnel, Pose2(10, 0, 0))
        yawed = camera.render(tunnel, Pose2(10, 0, math.radians(20)))
        assert np.abs(straight - yawed).mean() > 0.02

    def test_near_wall_fills_more_of_frame(self, camera, tunnel):
        far = camera.render(tunnel, Pose2(5, 0, 0))
        # Facing the side wall from close: large bright wall area.
        near = camera.render(tunnel, Pose2(5, 1.0, math.pi / 2))
        wall_shade_near = (near > 0.4).mean()
        wall_shade_far = (far > 0.4).mean()
        assert wall_shade_near > wall_shade_far

    def test_trail_visible_on_floor(self, camera, tunnel):
        image = camera.render(tunnel, Pose2(10, 0, 0))
        bottom_center = image[-6:, 20:28]
        bottom_sides = image[-6:, :8]
        # The centerline trail stripe (0.95 shade) dominates the center
        # bottom rows and is absent from the side columns.
        assert (bottom_center > 0.9).mean() > 0.5
        assert (bottom_sides > 0.9).mean() < 0.2

    def test_trail_shifts_with_offset(self, camera, tunnel):
        # Drone left of center: the trail appears on the right half.
        image = camera.render(tunnel, Pose2(10, 1.0, 0))
        bottom = image[-8:]
        right_trail = (bottom[:, 24:] > 0.8).sum()
        left_trail = (bottom[:, :24] > 0.8).sum()
        assert right_trail > left_trail

    def test_deterministic_given_seed(self, tunnel):
        a = FpvCamera(CameraParams(texture_noise=0.05), seed=9).render(tunnel, Pose2(10, 0, 0))
        b = FpvCamera(CameraParams(texture_noise=0.05), seed=9).render(tunnel, Pose2(10, 0, 0))
        np.testing.assert_array_equal(a, b)

    def test_noise_changes_with_reset_seed(self, tunnel):
        camera = FpvCamera(CameraParams(texture_noise=0.05), seed=9)
        a = camera.render(tunnel, Pose2(10, 0, 0))
        camera.reset(seed=10)
        b = camera.render(tunnel, Pose2(10, 0, 0))
        assert np.abs(a - b).max() > 0.0


class TestImageCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        image = rng.random((12, 16)).astype(np.float32)
        decoded = decode_image_u8(encode_image_u8(image), 12, 16)
        np.testing.assert_allclose(decoded, image, atol=1.0 / 255.0)

    def test_encode_clips(self):
        image = np.array([[-1.0, 2.0]], dtype=np.float32)
        decoded = decode_image_u8(encode_image_u8(image), 1, 2)
        assert decoded[0, 0] == 0.0
        assert decoded[0, 1] == 1.0

    def test_decode_wrong_size_raises(self):
        with pytest.raises(ValueError):
            decode_image_u8(b"\x00" * 10, 4, 4)

    def test_byte_length(self):
        image = np.zeros((8, 6), dtype=np.float32)
        assert len(encode_image_u8(image)) == 48


#: A compiled obstacle scenario: a sine course (120 centerline segments)
#: with a diamond and a box obstacle in the wall soup.
OBSTACLE_SPEC = {
    "geometry": {
        "family": "sine",
        "length": 60.0,
        "width": 5.0,
        "amplitude": 6.0,
        "resolution": 121,
    },
    "obstacles": [
        {"s": 18.0, "d": 1.0, "radius": 0.5},
        {"s": 34.0, "d": -1.0, "radius": 0.5, "shape": "box"},
    ],
}


@pytest.fixture(scope="module")
def obstacle_world():
    return make_world("scenario", spec=OBSTACLE_SPEC)


def _course_point(world, s, d):
    centerline = world.centerline
    return centerline.point_at_arclength(s) + d * centerline.normal_at_arclength(s)


def _course_pose(world, s, d, heading_deg):
    """Pose at course coordinates ``(s, d)``, yawed ``heading_deg`` off the tangent."""
    point = _course_point(world, s, d)
    tangent = world.centerline.tangent_at_arclength(s)
    yaw = math.atan2(tangent[1], tangent[0]) + math.radians(heading_deg)
    return Pose2(float(point[0]), float(point[1]), yaw)


def _fresh_offsets(world, points):
    """Signed centerline offsets with the segment geometry re-derived from
    the polyline: stacked ``(P, S, 2)`` arithmetic, first-index argmin."""
    pts = world.centerline.points
    dirs = np.diff(pts, axis=0)
    lens = np.sqrt((dirs**2).sum(axis=1))
    units = dirs / lens[:, None]
    rel = points[:, None, :] - pts[None, :-1, :]
    t = np.clip((rel * units[None, :, :]).sum(axis=2), 0.0, lens[None, :])
    closest = pts[None, :-1, :] + t[..., None] * units[None, :, :]
    diff = points[:, None, :] - closest
    idx = np.argmin((diff**2).sum(axis=2), axis=1)
    rows = np.arange(points.shape[0])
    normal = np.column_stack([-units[idx, 1], units[idx, 0]])
    return (diff[rows, idx] * normal).sum(axis=1)


def _corridor_points(world, n, seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, world.centerline.length, n)
    d = rng.uniform(-world.half_width, world.half_width, n)
    return np.array([_course_point(world, si, di) for si, di in zip(s, d)])


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts the floor shader's whole-call exact fallbacks."""
    calls = []
    exact = camera_module._floor_offsets_exact

    def spy(world, px_, py_):
        calls.append(px_.shape[0])
        return exact(world, px_, py_)

    monkeypatch.setattr(camera_module, "_floor_offsets_exact", spy)
    return calls


class TestCenterlineOffsetsCache:
    def test_offsets_match_fresh_geometry(self, tunnel, s_shape, obstacle_world, exact_calls):
        # floor_offsets must agree bit-for-bit with re-deriving the
        # segment geometry from the polyline.  The tunnel's few segments
        # take the exact path; the s-shape (160 segments) and the
        # obstacle scenario (120) take the float32 prefilter.
        for world, exact_path in ((tunnel, True), (s_shape, False), (obstacle_world, False)):
            points = _corridor_points(world, 400, seed=7)
            exact_calls.clear()
            got = floor_offsets(world, points[:, 0], points[:, 1])
            np.testing.assert_array_equal(got, _fresh_offsets(world, points), world.name)
            assert bool(exact_calls) == exact_path, world.name

    def test_off_course_points_force_exact_fallback(self, s_shape, obstacle_world, exact_calls):
        # Far off-course points widen the prefilter's error margin past
        # what it can prove, so the guard reruns the whole call exactly.
        for world in (s_shape, obstacle_world):
            far = np.array([[40.0, 1000.0], [40.0, -1000.0], [-500.0, 3.0]])
            points = np.vstack([_corridor_points(world, 400, seed=11), far])
            exact_calls.clear()
            got = floor_offsets(world, points[:, 0], points[:, 1])
            assert exact_calls == [points.shape[0]], world.name
            np.testing.assert_array_equal(got, _fresh_offsets(world, points), world.name)

    def test_render_unchanged_by_cache(self, camera, tunnel):
        # Rendering twice from the same pose is deterministic with a
        # fixed-seed camera and the cached world geometry.
        camera.reset(seed=5)
        first = camera.render(tunnel, Pose2(10, 0.3, 0.1))
        camera.reset(seed=5)
        second = camera.render(tunnel, Pose2(10, 0.3, 0.1))
        np.testing.assert_array_equal(first, second)


def _pin_poses(world):
    """17 poses: corridor centre (straight and yawed), flying along each
    wall, facing each wall from near and farther out, and facing the end
    cap."""
    hw = world.half_width
    length = world.centerline.length
    poses = []
    for frac, yawed in ((0.1, 25.0), (0.35, 25.0), (0.6, -25.0), (0.85, -25.0)):
        poses.append(_course_pose(world, frac * length, 0.0, 0.0))
        poses.append(_course_pose(world, frac * length, 0.0, yawed))
    for frac in (0.2, 0.7):
        poses.append(_course_pose(world, frac * length, hw - 0.4, 0.0))
        poses.append(_course_pose(world, frac * length, -(hw - 0.4), 0.0))
    for frac, near, far in ((0.3, 0.5, 1.0), (0.55, 1.0, 0.5)):
        poses.append(_course_pose(world, frac * length, hw - near, 90.0))
        poses.append(_course_pose(world, frac * length, -(hw - far), -90.0))
    poses.append(_course_pose(world, 0.97 * length, 0.0, 0.0))
    return poses


#: sha256 (first 16 hex digits) of ``render()``'s float32 bytes for each
#: :func:`_pin_poses` pose, noise off then noise on (default
#: ``texture_noise``, camera seed = pose index).  Recorded from the scalar
#: rasterizer that preceded the shared ``render_lanes``; behavioural
#: perception never reads pixels, so no golden trace covers them.
RENDER_PINS = {
    "tunnel": (
        "94af0fb187d87a75", "dc92313e2b24a417", "689e3a05336346a7", "576ecd259fc2b315",
        "057550b601c1cf47", "d0e80cc0550405b1", "fbd290fb07a8de5f", "d7b825d03ea5013c",
        "61121f59e032c029", "349854730f376e00", "dfd3c4da194700dc", "1e50003aa627a477",
        "bbfd2cc7f716bca5", "52dbee08be6ddd32", "8e77e447dfc05efc", "31a48a7159adc37b",
        "47e1adb2379b5e2d", "75e423c867a9d7fb", "3392abb2e8fae3dc", "f1bee038c333ddf3",
        "4db12db40065d4b2", "cdc6b34a7cd9e0df", "e6f07498dbff285a", "e652e1a9b4073853",
        "9204527f791ffeb1", "6c216d5849ca67a8", "7de247e96c3eb090", "99746c0419934dae",
        "7de247e96c3eb090", "893738dc1999cd5c", "9204527f791ffeb1", "bb00b8d4eda0c114",
        "7830a82816977d60", "564254e48ec601a5",
    ),
    "s-shape": (
        "499b74609eda4d8c", "7cd4df9889921fd2", "bcfd2f10b80453a5", "c52fa8c29d5cfab4",
        "0432badac4f2f232", "d9d678380ff436af", "dc9e881dce53b0b8", "dafb5be77253c8f2",
        "12282ae34f0ecb5b", "7721a88c97035fc2", "79eddff760dfe74d", "9760036d582b98e9",
        "a27041278fa834ce", "75743682bef2e9a2", "3dfb9e3a7abf5eef", "cd3d393c7060719e",
        "9fff5fe45c717da8", "a0de194455bf49c2", "47a5051a6893bda5", "01e31bba47923d15",
        "78fe380a43285b2c", "54b6fbcfb8634b67", "a1156d3c1af574b6", "8e8b0e7a66074a57",
        "cc9ec295999fc8af", "5f938c940be663a0", "71bf6c126b549b30", "7eea750b5f804720",
        "7d699f095513d507", "12be575c2855bb5e", "20987b225fd5ceb6", "e12d2b31de2f1150",
        "b609fe79da6241f5", "933351788b828691",
    ),
    "obstacles": (
        "21dbf418009cd268", "39f18594755ccc26", "2c235482a0420a0e", "45807240401c66bf",
        "869062bb5420e2e6", "1c6572f588c7d353", "4664e88f4d9732ce", "e1cd8ea270763161",
        "816744e6a2842615", "479d1d00e746d4ae", "0e2b0dc392044893", "7130a3f0f785c40e",
        "47ab4bcf689fb681", "9298ae9e99c0b20b", "f776d24987bdf7ca", "3ff6ef0636e91fdd",
        "a9a0179b48b84ad9", "030d1443800b455b", "c262a0c482cd7287", "38f002def3eececc",
        "7ac52d4841f63bdb", "63289473b7f72f48", "7f12626f2f3f3713", "84c9b1830b05f101",
        "9635253b3893d266", "71d8a7b148775054", "a328679258a00ae3", "5268a38b5344b5b5",
        "192ad5f32d913e5e", "f3021a3687076259", "21b3b604999ea55f", "1063b11279ba6827",
        "90f2fb194efc1c86", "9745c16a249d8dcf",
    ),
}


class TestRenderPins:
    @pytest.mark.parametrize("world_name", sorted(RENDER_PINS))
    def test_render_pixels_pinned(self, world_name, tunnel, s_shape, obstacle_world):
        world = {"tunnel": tunnel, "s-shape": s_shape, "obstacles": obstacle_world}[world_name]
        digests = []
        for i, pose in enumerate(_pin_poses(world)):
            for camera in (
                FpvCamera(CameraParams(texture_noise=0.0), seed=0),
                FpvCamera(CameraParams(), seed=i),
            ):
                image = camera.render(world, pose)
                digests.append(hashlib.sha256(image.tobytes()).hexdigest()[:16])
        assert tuple(digests) == RENDER_PINS[world_name]

    def test_batched_lanes_match_serial_frames(self, s_shape):
        # One render_lanes call over many poses equals per-pose renders.
        poses = _pin_poses(s_shape)
        camera = FpvCamera(CameraParams(texture_noise=0.0), seed=0)
        lanes = render_lanes(
            camera,
            s_shape,
            np.array([p.x for p in poses]),
            np.array([p.y for p in poses]),
            np.array([p.yaw for p in poses]),
        )
        for lane, pose in zip(lanes, poses):
            np.testing.assert_array_equal(camera.finish_frame(lane), camera.render(s_shape, pose))
