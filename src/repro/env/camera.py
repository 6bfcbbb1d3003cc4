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
(:mod:`repro.batch`) renders every lane of a batch in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.env.geometry import _EPS, Pose2
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
    with the exact float64 arithmetic.  A conservative error bound
    proves, per point, that every excluded segment is strictly farther
    than the refined minimum — any point that cannot be proven falls the
    whole call back to :func:`_floor_offsets_exact`, so the prefilter can
    only ever cost time, never exactness.
    """
    arrays = world.centerline_arrays
    n_seg = arrays.starts.shape[0]
    n_pts = px_.shape[0]
    if n_seg <= _FLOOR_CANDIDATES + 2 or n_pts * n_seg <= 20000:
        return _floor_offsets_exact(world, px_, py_)

    sx, sy = arrays.starts[:, 0], arrays.starts[:, 1]
    ux, uy = arrays.units[:, 0], arrays.units[:, 1]
    lens = arrays.lens

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

    point_rows = np.arange(n_pts)
    # Window indices ascend, so the refined argmin tie-breaks like the
    # exact global one.
    cand = np.clip(nearest[:, None] + _WINDOW_OFFSETS[None, :], 0, n_seg - 1)
    p2 = px_ * px_ + py_ * py_  # restore the dropped |p|^2, in float64
    thresh = thresh.astype(np.float64) + p2

    # -- exact arithmetic on the candidates ----------------------------
    c_sx, c_sy = sx[cand], sy[cand]  # (P, C)
    c_ux, c_uy = ux[cand], uy[cand]
    relx = px_[:, None] - c_sx
    rely = py_[:, None] - c_sy
    t = np.clip(relx * c_ux + rely * c_uy, 0.0, lens[cand])
    # Serial forms ``closest`` then ``point - closest``; keep that order.
    diffx = px_[:, None] - (c_sx + t * c_ux)
    diffy = py_[:, None] - (c_sy + t * c_uy)
    d2 = diffx * diffx + diffy * diffy
    best = np.argmin(d2, axis=1)

    # -- soundness guard -----------------------------------------------
    # Bound the float32 pass's absolute error by ~10 ulps at the squared
    # magnitude of the inputs, with a 6x safety factor.  The guard must
    # hold for every point, else the call reruns exactly.
    scale = max(
        float(np.abs(px_).max(initial=1.0)),
        float(np.abs(py_).max(initial=1.0)),
        float(np.abs(arrays.starts).max(initial=1.0)),
        float(lens.max(initial=1.0)),
    )
    margin = 64.0 * float(np.finfo(np.float32).eps) * (scale * scale + 1.0)
    if bool((d2[point_rows, best] >= thresh - margin).any()):
        return _floor_offsets_exact(world, px_, py_)

    idx = cand[point_rows, best]
    return (
        diffx[point_rows, best] * (-uy[idx]) + diffy[point_rows, best] * ux[idx]
    )


def _floor_offsets_exact(world: World, px_: np.ndarray, py_: np.ndarray) -> np.ndarray:
    """Each point's signed offset from its nearest centerline segment.

    Every point is projected onto every segment (the arithmetic of
    :meth:`World.batch_course_frames`, first-index argmin tie-break).
    Each ``(P, S)`` intermediate is a single coordinate plane instead of
    stacked ``(P, S, 2)`` arrays, halving the memory traffic; a
    ``.sum(axis=2)`` over two elements is the plain ordered ``x + y``
    these expressions write out, so the split form is bit-identical.
    """
    arrays = world.centerline_arrays
    sx, sy = arrays.starts[:, 0], arrays.starts[:, 1]
    ux, uy = arrays.units[:, 0], arrays.units[:, 1]
    relx = px_[:, None] - sx[None, :]  # (P, S)
    rely = py_[:, None] - sy[None, :]
    t = np.clip(relx * ux[None, :] + rely * uy[None, :], 0.0, arrays.lens[None, :])
    # Serial forms ``closest`` then ``point - closest``; keep that order.
    diffx = px_[:, None] - (sx[None, :] + t * ux[None, :])
    diffy = py_[:, None] - (sy[None, :] + t * uy[None, :])
    idx = np.argmin(diffx * diffx + diffy * diffy, axis=1)
    rows = np.arange(px_.shape[0])
    return diffx[rows, idx] * (-uy[idx]) + diffy[rows, idx] * ux[idx]


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
    """Batched ``SegmentSoup.cast_rays``: (K,) origins x (K, W) angles.

    Each (lane, ray, segment) scalar pairing matches the single-origin
    solve, so every returned distance is bit-identical to it.  Lanes are processed in
    cache-sized blocks; each lane's arithmetic is independent, so the
    blocking cannot change any bit.
    """
    n_lanes = origins_x.shape[0]
    if n_lanes <= _CAST_LANE_CHUNK:
        return _cast_rays_block(origins_x, origins_y, angles, world, max_range)
    out = np.empty_like(angles)
    for lo in range(0, n_lanes, _CAST_LANE_CHUNK):
        hi = min(lo + _CAST_LANE_CHUNK, n_lanes)
        out[lo:hi] = _cast_rays_block(
            origins_x[lo:hi], origins_y[lo:hi], angles[lo:hi], world, max_range
        )
    return out


def _cast_rays_block(
    origins_x: np.ndarray,
    origins_y: np.ndarray,
    angles: np.ndarray,
    world: World,
    max_range: float,
) -> np.ndarray:
    """One cache-sized block of the batched ray solve."""
    walls = world.walls
    ax, ay = walls._ax, walls._ay
    dx, dy = walls._dx, walls._dy
    rdx = np.cos(angles)[:, :, None]  # (K, W, 1)
    rdy = np.sin(angles)[:, :, None]
    sx = ax[None, None, :] - origins_x[:, None, None]  # (K, 1, S)
    sy = ay[None, None, :] - origins_y[:, None, None]
    # The (K, W, S) planes dominate this kernel's cost, so the
    # ``SegmentSoup.cast_rays`` expressions are restated as in-place
    # updates over four reusable buffers — every elementwise pairing
    # (and result bit) is unchanged.
    denom = rdx * dy[None, None, :]
    t = rdy * dx[None, None, :]
    denom -= t
    safe = np.abs(denom) > _EPS
    denom[~safe] = 1.0  # np.where(safe, denom, 1.0)
    t_num = sx * dy[None, None, :] - sy * dx[None, None, :]  # (K, 1, S)
    np.divide(t_num, denom, out=t)
    u = sx * rdy
    scratch = sy * rdx
    u -= scratch
    u /= denom
    valid = safe
    valid &= t >= 0.0
    valid &= u >= 0.0
    valid &= u <= 1.0
    np.logical_not(valid, out=valid)
    t[valid] = max_range  # np.where(valid, t, max_range)
    return np.minimum(t.min(axis=2), max_range)
