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


class NonPositiveDepth(ValueError):
    """Point is at or behind the camera plane."""


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


@dataclass(frozen=True)
class Pose:
    """Rigid transform: x_out = rotation @ x_in + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not (np.abs(r @ r.T - _EYE) <= _GRAM_TOL).all():
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-6:
            raise ValueError("rotation determinant is not +1")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_yaw(cls, yaw: float, translation) -> "Pose":
        c, s = np.cos(yaw), np.sin(yaw)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(r, np.asarray(translation, dtype=float))

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply to one (3,) point or an (n, 3) batch."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return self.rotation @ pts + self.translation
        return pts @ self.rotation.T + self.translation


def project(point, cam_from_world: Pose, k: CameraIntrinsics):
    """Project a world point; returns ((u, v), depth).

    Raises NonPositiveDepth when the point is at or behind the camera plane.
    """
    pc = cam_from_world.transform(np.asarray(point, dtype=float))
    depth = pc[2]
    if depth <= 0.0:
        raise NonPositiveDepth(f"depth {depth} <= 0")
    u = k.fx * pc[0] / depth + k.cx
    v = k.fy * pc[1] / depth + k.cy
    return np.array([u, v]), depth


def project_points(points: np.ndarray, cam_from_world: Pose, k: CameraIntrinsics):
    """Batch projection without behind-camera checks.

    Returns (pixels (n, 2), depths (n,)). Pixels of non-positive-depth
    points are garbage; callers must mask on depth.
    """
    pc = cam_from_world.transform(np.asarray(points, dtype=float).reshape(-1, 3))
    depths = pc[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = np.empty((pc.shape[0], 2))
        uv[:, 0] = k.fx * pc[:, 0] / depths + k.cx
        uv[:, 1] = k.fy * pc[:, 1] / depths + k.cy
    return uv, depths
