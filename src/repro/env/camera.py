"""Software-rasterized first-person (FPV) camera.

The evaluated drone "is equipped with a first-person view (FPV) camera with
a field-of-view (FOV) of 90 degrees" (Section 4.1).  Unreal Engine's
renderer is replaced by a small column-raycast rasterizer that draws the
corridor walls with perspective and distance shading, plus a floor "trail"
stripe along the course centerline.  The resulting images carry the same
task-relevant signal the paper's TrailNet-style classifiers consume: the
vanishing geometry shifts with heading error and wall asymmetry shifts with
lateral offset, so left/center/right classes are learnable from pixels (the
training example and tests train a real CNN on them).

The rasterizer (:func:`render_lanes`) draws K poses per call: a serial
:meth:`FpvCamera.render` is one lane, and the batched engine
(:mod:`repro.batch`) renders every lane of a batch in one call.  Its
geometry is the world's own: wall columns are
:meth:`~repro.env.geometry.SegmentSoup.cast` and floor pixels are
projected with :meth:`~repro.env.geometry.Polyline.nearest_segment`.
This module adds only cache blocking and the floor shader's float32
prefilter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.env.geometry import Pose2
from repro.env.worlds import World


@dataclass
class CameraParams:
    """Rendering parameters for the FPV camera."""

    width: int = 48
    height: int = 32
    fov_degrees: float = 90.0
    camera_height: float = 1.5  # m above the floor
    wall_height: float = 3.0  # m, visual wall height
    trail_half_width: float = 0.35  # m, width of the floor trail stripe
    max_depth: float = 60.0
    texture_noise: float = 0.02

    def __post_init__(self) -> None:
        if self.width < 4 or self.height < 4:
            raise ValueError("camera resolution must be at least 4x4")
        if not (10.0 <= self.fov_degrees <= 170.0):
            raise ValueError("fov_degrees must be in [10, 170]")


class FpvCamera:
    """Column-raycast corridor renderer.

    ``render`` produces a float32 grayscale image in [0, 1] with shape
    ``(height, width)``, row 0 at the top: one lane of
    :func:`render_lanes`, finished by :meth:`finish_frame`.
    """

    def __init__(self, params: CameraParams | None = None, seed: int = 2):
        self.params = params or CameraParams()
        self._rng = np.random.default_rng(seed)
        p = self.params
        half_fov = math.radians(p.fov_degrees) / 2.0
        # Pinhole model: evenly spaced image-plane columns, not angles.
        self._focal = (p.width / 2.0) / math.tan(half_fov)
        cols = np.arange(p.width) - (p.width - 1) / 2.0
        # Camera x points forward; positive column index = right of image =
        # clockwise (negative) angle.
        self._col_angles = -np.arctan2(cols, self._focal)
        # Pose-independent projection constants for :func:`render_lanes`.
        self._rows_f = np.arange(p.height)[:, None].astype(float)  # (H, 1)
        self._cos_col = np.cos(self._col_angles)
        drop = np.maximum(self._rows_f - (p.height - 1) / 2.0, 0.75)
        self._ground_dist = p.camera_height * self._focal / drop  # (H, 1)

    def reset(self, seed: int | None = None) -> None:
        if seed is not None:
            self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def render(self, world: World, pose: Pose2) -> np.ndarray:
        """Render the FPV view of ``world`` from ``pose``."""
        image = render_lanes(
            self, world, np.array([pose.x]), np.array([pose.y]), np.array([pose.yaw])
        )
        return self.finish_frame(image[0])

    def finish_frame(self, image: np.ndarray) -> np.ndarray:
        """Add this camera's texture noise to a noise-free frame and clip.

        Draws one ``(H, W)`` normal sample from the camera's own RNG per
        frame, so serial and batched renders consume the stream
        identically.
        """
        sigma = self.params.texture_noise
        if sigma > 0:
            image = image + self._rng.normal(0.0, sigma, image.shape).astype(np.float32)
        return np.clip(image, 0.0, 1.0)


def encode_image_u8(image: np.ndarray) -> bytes:
    """Quantize a [0, 1] float image to uint8 bytes for packet transport."""
    u8 = np.clip(np.asarray(image) * 255.0, 0.0, 255.0).astype(np.uint8)
    return u8.tobytes()


def zero_image_u8(params: CameraParams) -> bytes:
    """The all-zero uint8 frame of ``params``' shape.

    A camera RPC carries it to a perception that reads no pixels (camera
    blackout sends the same bytes): nothing is rendered and the camera's
    RNG is not drawn, while the payload length stays that of a real frame.
    """
    return bytes(params.height * params.width)


def decode_image_u8(data: bytes, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`encode_image_u8`."""
    flat = np.frombuffer(data, dtype=np.uint8)
    if flat.size != height * width:
        raise ValueError(
            f"image payload has {flat.size} bytes, expected {height * width}"
        )
    return (flat.reshape(height, width).astype(np.float32)) / 255.0


# ----------------------------------------------------------------------
# Rasterizer kernels (K lanes; the serial camera renders K = 1)
# ----------------------------------------------------------------------
def render_lanes(
    camera: FpvCamera,
    world: World,
    x: np.ndarray,
    y: np.ndarray,
    yaw: np.ndarray,
) -> np.ndarray:
    """Noise-free frames of ``world`` from K poses → (K, H, W) float32.

    ``camera`` supplies the pose-independent projection constants; each
    frame's texture noise comes afterwards from the rendering camera's
    :meth:`FpvCamera.finish_frame`.  Walls are drawn with perspective
    and distance shading; each floor pixel's view ray is intersected
    with the ground plane and shaded bright when it lands within
    ``trail_half_width`` of the course centerline.
    """
    p = camera.params
    angles = yaw[:, None] + camera._col_angles[None, :]  # (K, W)
    depths = cast_rays_lanes(x, y, angles, world, p.max_depth)
    depths = np.maximum(depths, 0.2)
    # Correct fisheye: perpendicular distance for projection height.
    perp = depths * camera._cos_col[None, :]
    perp = np.maximum(perp, 0.2)

    horizon = (p.height - 1) / 2.0
    wall_top = horizon - (p.wall_height - p.camera_height) * camera._focal / perp
    wall_bottom = horizon + p.camera_height * camera._focal / perp

    image = np.zeros((x.shape[0], p.height, p.width), dtype=np.float32)
    rows = camera._rows_f[None, :, :]  # (1, H, 1)
    in_wall = (rows >= wall_top[:, None, :]) & (rows < wall_bottom[:, None, :])
    shade = 0.75 / (1.0 + 0.10 * depths)
    image += in_wall * shade[:, None, :]
    image += (rows < wall_top[:, None, :]) * 0.08

    below = rows > wall_bottom[:, None, :]
    if np.any(below):
        cos_a = np.cos(angles)[:, None, :]  # (K, 1, W)
        sin_a = np.sin(angles)[:, None, :]
        gx = x[:, None, None] + camera._ground_dist[None, :, :] * cos_a
        gy = y[:, None, None] + camera._ground_dist[None, :, :] * sin_a
        offsets = floor_offsets(world, gx[below], gy[below])
        floor_shade = np.full(offsets.shape, 0.22, dtype=np.float32)
        floor_shade[np.abs(offsets) <= p.trail_half_width] = 0.95
        image[below] = floor_shade
    return image


#: Candidate segments the float32 prefilter keeps per floor point.
#: Six covers the exact minimum plus every same-endpoint near-tie even on
#: worlds with sub-meter segments.
_FLOOR_CANDIDATES = 6

#: Index offsets of the candidate window around the float32-nearest
#: segment (len == _FLOOR_CANDIDATES).
_WINDOW_OFFSETS = np.arange(_FLOOR_CANDIDATES) - _FLOOR_CANDIDATES // 2

#: Pixel rows per prefilter block; (chunk, S) float32 planes stay in L2.
_FLOOR_CHUNK = 256


def floor_offsets(world: World, px_: np.ndarray, py_: np.ndarray) -> np.ndarray:
    """Signed centerline offsets of flat ``(P,)`` floor points.

    Bit-exact with :func:`_floor_offsets_exact` — the floor shader is
    the rasterizer's dominant cost.  Large inputs take a two-stage
    path: a cheap float32 distance pass (two skinny sgemms plus a few
    elementwise planes) finds each point's approximately nearest segment,
    and a window of :data:`_FLOOR_CANDIDATES` consecutive segments around
    it — near-ties come from neighbours sharing an endpoint — is refined
    exactly by :meth:`Polyline.nearest_segment
    <repro.env.geometry.Polyline.nearest_segment>` over that window
    alone.  A conservative error bound
    proves, per point, that every excluded segment is strictly farther
    than the refined minimum — any point that cannot be proven falls the
    whole call back to :func:`_floor_offsets_exact`, so the prefilter can
    only ever cost time, never exactness.
    """
    line = world.centerline
    n_seg = line.lengths.shape[0]
    n_pts = px_.shape[0]
    if n_seg <= _FLOOR_CANDIDATES + 2 or n_pts * n_seg <= 20000:
        return _floor_offsets_exact(world, px_, py_)

    sx, sy, ux, uy, lens = line.sx, line.sy, line.ux, line.uy, line.lengths

    # -- float32 prefilter ---------------------------------------------
    # One (P, 3) point matrix against two (3, S) segment matrices; the
    # affine terms (segment self-projection, |s|^2, the -2 factor) are
    # folded into the gemm operands so no whole-plane pass re-applies
    # them.  |p|^2 is a per-row constant — it shifts neither the row
    # argmin nor which segment attains the excluded minimum, so it is
    # added back in float64 on the extracted threshold only.
    A = np.empty((n_pts, 3), dtype=np.float32)
    A[:, 0] = px_
    A[:, 1] = py_
    A[:, 2] = 1.0
    B_q = np.empty((3, n_seg), dtype=np.float32)
    B_q[0] = ux
    B_q[1] = uy
    B_q[2] = -(sx * ux + sy * uy)  # segment self-projections
    B_d = np.empty((3, n_seg), dtype=np.float32)
    B_d[0] = -2.0 * sx
    B_d[1] = -2.0 * sy
    B_d[2] = sx * sx + sy * sy
    lens32 = lens.astype(np.float32)[None, :]

    nearest = np.empty(n_pts, dtype=np.intp)
    thresh = np.empty(n_pts, dtype=np.float32)
    q = np.empty((_FLOOR_CHUNK, n_seg), dtype=np.float32)
    d2_32 = np.empty((_FLOOR_CHUNK, n_seg), dtype=np.float32)
    t32 = np.empty((_FLOOR_CHUNK, n_seg), dtype=np.float32)
    chunk_rows = np.arange(_FLOOR_CHUNK)[:, None]
    # Cache blocking over the *pixel* axis (not the lane axis): every
    # pass below touches the same ~(chunk, S) float32 block, which stays
    # resident in L2 instead of streaming multi-megabyte planes.
    for lo in range(0, n_pts, _FLOOR_CHUNK):
        hi = min(lo + _FLOOR_CHUNK, n_pts)
        m = hi - lo
        qm, d2m, tm = q[:m], d2_32[:m], t32[:m]
        np.matmul(A[lo:hi], B_q, out=qm)  # projections onto segments
        np.matmul(A[lo:hi], B_d, out=d2m)
        np.minimum(qm, lens32, out=tm)
        np.maximum(tm, 0.0, out=tm)
        # |p-(s+t u)|^2 - |p|^2 = -2 p.s + |s|^2 - t (2 q - t)
        qm += qm
        qm -= tm
        qm *= tm  # q := t (2 q - t)
        d2m -= qm
        nr = d2m.argmin(axis=1)
        nearest[lo:hi] = nr
        # Candidate window: the float32-nearest segment plus its index
        # neighbours, clipped at the course ends (duplicates are harmless
        # — argmin keeps the first, i.e. lowest-index, occurrence).
        # Minimum float32 distance over the *excluded* segments is a
        # lower bound (minus the error margin below) on their exact
        # distances; the scatter masks candidates in place.
        d2m[chunk_rows[:m], np.clip(nr[:, None] + _WINDOW_OFFSETS[None, :], 0, n_seg - 1)] = (
            np.float32(np.inf)
        )
        thresh[lo:hi] = d2m.min(axis=1)

    # Window indices ascend, so the refined argmin tie-breaks like the
    # exact global one.
    cand = np.clip(nearest[:, None] + _WINDOW_OFFSETS[None, :], 0, n_seg - 1)
    p2 = px_ * px_ + py_ * py_  # restore the dropped |p|^2, in float64
    thresh = thresh.astype(np.float64) + p2

    # -- exact arithmetic on the candidates ----------------------------
    idx, _, dx, dy = line.nearest_segment(px_[:, None], py_[:, None], segments=cand)

    # -- soundness guard -----------------------------------------------
    # Bound the float32 pass's absolute error by ~10 ulps at the squared
    # magnitude of the inputs, with a 6x safety factor.  The guard must
    # hold for every point, else the call reruns exactly.
    scale = max(
        float(np.abs(px_).max(initial=1.0)),
        float(np.abs(py_).max(initial=1.0)),
        float(np.abs(line.points[:-1]).max(initial=1.0)),
        float(lens.max(initial=1.0)),
    )
    margin = 64.0 * float(np.finfo(np.float32).eps) * (scale * scale + 1.0)
    if bool((dx * dx + dy * dy >= thresh - margin).any()):
        return _floor_offsets_exact(world, px_, py_)
    return line.lateral_offsets(idx, dx, dy)


def _floor_offsets_exact(world: World, px_: np.ndarray, py_: np.ndarray) -> np.ndarray:
    """Each point's signed offset from its nearest centerline segment,
    searched over every segment (the floor shader's whole-call fallback)."""
    line = world.centerline
    idx, _, dx, dy = line.nearest_segment(px_[:, None], py_[:, None])
    return line.lateral_offsets(idx, dx, dy)


#: Lanes per cast block.  The (lanes, W, S) intermediate planes are the
#: whole cost of the ray solve; two lanes' worth (~250 KB at W=48,
#: S=322) stays cache-resident, while the full 16-lane batch spills to
#: DRAM and measures >2x slower.
_CAST_LANE_CHUNK = 2


def cast_rays_lanes(
    origins_x: np.ndarray,
    origins_y: np.ndarray,
    angles: np.ndarray,
    world: World,
    max_range: float,
) -> np.ndarray:
    """:meth:`SegmentSoup.cast <repro.env.geometry.SegmentSoup.cast>` from
    (K,) origins at (K, W) angles.

    Lanes are cast in cache-sized blocks.  Each lane's arithmetic is
    independent, so the blocking cannot change any bit, and every
    distance equals the one-origin ``cast_rays``.
    """
    cast = world.walls.cast
    ox = origins_x[:, None, None]
    oy = origins_y[:, None, None]
    if origins_x.shape[0] <= _CAST_LANE_CHUNK:
        return cast(ox, oy, angles, max_range)
    out = np.empty_like(angles)
    for lo in range(0, origins_x.shape[0], _CAST_LANE_CHUNK):
        hi = lo + _CAST_LANE_CHUNK
        out[lo:hi] = cast(ox[lo:hi], oy[lo:hi], angles[lo:hi], max_range)
    return out
