"""Pinhole camera model and rigid-transform algebra.

Conventions: OpenCV camera frame (x right, y down, z forward), world frame
z-up. Pixel coordinates are continuous; u grows right, v grows down.
"""

from __future__ import annotations

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
    (n, 3): the one place the rigid transform is computed. The translation
    is added along contiguous rows, which costs less than broadcasting it
    over an inner axis of length 3."""
    rows = rotation @ points.T
    rows += translation[..., None]
    return rows


def transform_points(rotation: np.ndarray, translation: np.ndarray, points: np.ndarray):
    """rotation @ x + translation for each row x of points (n, 3). A stack
    of F transforms, (F, 3, 3) and (F, 3), gives (F, n, 3). The result is
    C-ordered: numpy's pairwise sums depend on the memory layout, and a
    cloud's summary is a sum over its points."""
    return np.ascontiguousarray(transform_rows(rotation, translation, points).swapaxes(-1, -2))


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


def project_points(
    points: np.ndarray, rotation: np.ndarray, translation: np.ndarray, k: CameraIntrinsics
):
    """Batch projection without behind-camera checks, through the
    cam-from-world transform (rotation, translation).

    Returns (pixels (n, 2), depths (n,)); a stack of F transforms gives
    (F, n, 2) and (F, n). Pixels of non-positive-depth points are garbage;
    callers must mask on depth.
    """
    pc = transform_rows(rotation, translation, np.asarray(points, dtype=float).reshape(-1, 3))
    x, y, depths = pc[..., 0, :], pc[..., 1, :], pc[..., 2, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = np.empty(depths.shape + (2,))
        uv[..., 0] = k.fx * x / depths + k.cx
        uv[..., 1] = k.fy * y / depths + k.cy
    return uv, np.ascontiguousarray(depths)
