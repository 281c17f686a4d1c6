"""Pinhole camera model and rigid-transform algebra.

Conventions: OpenCV camera frame (x right, y down, z forward), world frame
z-up. Pixel coordinates are continuous; u grows right, v grows down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-9
_EYE = np.eye(3)
# Per-entry bound on |r @ r.T - I|: np.allclose's atol plus its default
# rtol (1e-5) times |I|, so the diagonal gets the looser bound.
_GRAM_TOL = ORTHONORMAL_TOL + 1e-5 * _EYE


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def unit_rays(self, pixels: np.ndarray) -> np.ndarray:
        """K^-1 applied to homogeneous pixels, shape (n, 2) -> (n, 3), z = 1."""
        pixels = np.atleast_2d(np.asarray(pixels, dtype=float))
        out = np.empty((pixels.shape[0], 3))
        out[:, 0] = (pixels[:, 0] - self.cx) / self.fx
        out[:, 1] = (pixels[:, 1] - self.cy) / self.fy
        out[:, 2] = 1.0
        return out


def check_rotations(r: np.ndarray) -> None:
    """Raise ValueError unless every 3x3 matrix of r, shape (..., 3, 3), is a
    rotation: |r r^T - I| <= _GRAM_TOL per entry and |det r - 1| <= 1e-6."""
    if not (np.abs(r @ r.swapaxes(-1, -2) - _EYE) <= _GRAM_TOL).all():
        raise ValueError("rotation is not orthonormal")
    if (np.abs(np.linalg.det(r) - 1.0) > 1e-6).any():
        raise ValueError("rotation determinant is not +1")


def transform_rows(rotation: np.ndarray, translation: np.ndarray, points: np.ndarray):
    """rotation @ points.T + translation as (..., 3, n) rows, for points
    (n, 3): the one place the rigid transform is computed."""
    rows = rotation @ points.T
    return translate_rows(rows, translation, rows)


def translate_rows(rotated: np.ndarray, translation: np.ndarray, out: np.ndarray):
    """rotated + translation into out, for (..., 3, n) rows of rotated
    points: transform_rows's second half, so rows of points rotated once can
    be moved by many translations. It adds one contiguous row at a time: a
    trade-off against broadcasting a (..., 3, 1) column, which costs less on
    (3, 1,000) rows and (10, 3, 400) view stacks but more on (3, 4,000)."""
    for i in range(3):
        np.add(rotated[..., i, :], translation[..., i, None], out=out[..., i, :])
    return out


def transform_points(rotation: np.ndarray, translation: np.ndarray, points: np.ndarray):
    """rotation @ x + translation for each row x of points (n, 3). A stack
    of F transforms, (F, 3, 3) and (F, 3), gives (F, n, 3). The result is
    C-ordered: numpy's pairwise sums depend on the memory layout, and a
    cloud's summary is a sum over its points."""
    rows = transform_rows(rotation, translation, points)
    out = np.empty(rows.shape[:-2] + rows.shape[-1:] + (3,))
    for i in range(3):  # three column copies cost less than one transposed copy
        out[..., i] = rows[..., i, :]
    return out


def norm(v: np.ndarray) -> float:
    """np.linalg.norm of a vector without its overhead: that too is the
    square root of v.dot(v). math.hypot rounds apart from it."""
    return math.sqrt(v.dot(v))


def invert(rotation: np.ndarray, translation: np.ndarray):
    """The inverse (R^T, -R^T t) of the rigid transform (R, t), or of each
    transform of a stack."""
    rt = rotation.swapaxes(-1, -2)
    return rt, (-rt @ translation[..., None])[..., 0]


def yaw_rotation(yaw) -> np.ndarray:
    """Rotation about world z by yaw, (3, 3); an array of yaws gives a stack."""
    yaw = np.asarray(yaw, dtype=float)
    c, s = np.cos(yaw), np.sin(yaw)
    r = np.zeros(yaw.shape + (3, 3))
    r[..., 0, 0] = r[..., 1, 1] = c
    r[..., 0, 1] = -s
    r[..., 1, 0] = s
    r[..., 2, 2] = 1.0
    return r


@dataclass(frozen=True)
class Pose:
    """Rigid transform: x_out = rotation @ x_in + translation.

    With leading axes, a stack of transforms: rotation (F, 3, 3) and
    translation (F, 3). Every method works on a stack as on one transform.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        lead = r.shape[:-2] if r.ndim > 2 else ()
        r = r.reshape(lead + (3, 3))
        t = np.asarray(self.translation, dtype=float).reshape(lead + (3,))
        check_rotations(r)
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def inverse(self) -> "Pose":
        return Pose(*invert(self.rotation, self.translation))


# A point more than this many pixels past a box's edge is out of the box
# whatever the rounding of its projection (see cull_rows).
CULL_MARGIN_PX = 1.0


def cull_rows(boxes, k: CameraIntrinsics) -> np.ndarray:
    """The cull rows of boxes, an iterable of (u_lo, v_lo, u_hi, v_hi)
    floats: (5 * B, 3), five rows n per box. A camera-frame point p is
    clearly out of a box where n . p < 0 for one of its rows: behind the
    camera (z < 0), or more than CULL_MARGIN_PX past an edge (for z > 0,
    u < u_lo - margin is fx x + (cx - u_lo + margin) z < 0, and so on).
    The margin keeps rounding from carrying a clearly-out point into the
    box: for z > 0 the computed u is within a few ulps of fx x / z + cx, so
    a point that n . p puts more than a pixel short of u_lo is computed
    short of it too, or with |u| so large that its sign alone keeps it out."""
    m, fx, fy, cx, cy = CULL_MARGIN_PX, k.fx, k.fy, k.cx, k.cy
    flat = []
    for u_lo, v_lo, u_hi, v_hi in boxes:
        flat += (
            0.0, 0.0, 1.0,
            fx, 0.0, cx + m - u_lo, -fx, 0.0, u_hi + m - cx,
            0.0, fy, cy + m - v_lo, 0.0, -fy, v_hi + m - cy,
        )
    return np.array(flat).reshape(-1, 3)


def pixel_rows(pc: np.ndarray, k: CameraIntrinsics):
    """The pinhole projection of camera-frame rows pc (..., 3, n), without
    behind-camera checks: the one place it is computed. It writes u and v over
    pc's x and y rows, so pc must be the caller's own buffer, and returns pc's
    rows (u, v, depths), each (..., n). Pixels of non-positive-depth points
    are garbage and come from a division by zero, so the caller holds an
    errstate that ignores divide and invalid, and masks on depth."""
    u, v, depths = pc[..., 0, :], pc[..., 1, :], pc[..., 2, :]
    u *= k.fx
    u /= depths
    u += k.cx
    v *= k.fy
    v /= depths
    v += k.cy
    return u, v, depths


def project_points(
    points: np.ndarray, rotation: np.ndarray, translation: np.ndarray, k: CameraIntrinsics
):
    """The pixels (n, 2) and depths (n,) of points (n, 3) seen through the
    cam-from-world transform (rotation, translation); a stack of F
    transforms gives (F, n, 2) and (F, n). Callers must mask on depth."""
    pc = transform_rows(rotation, translation, np.asarray(points, dtype=float).reshape(-1, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        u, v, depths = pixel_rows(pc, k)
    uv = np.empty(depths.shape + (2,))
    uv[..., 0] = u
    uv[..., 1] = v
    return uv, np.ascontiguousarray(depths)
