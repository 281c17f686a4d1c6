"""Simulated bounding-box detector.

Replaces a detection network: projects known target geometry into the
camera and emits noisy axis-aligned boxes, with configurable false-positive
and false-negative injection. All randomness comes from the caller's
generator, so a fixed seed gives byte-identical detections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, Pose, project_points

FP_BOX_MIN_PX = 8.0


@dataclass(frozen=True)
class TargetModel:
    """Ground-truth target: a closed surface sampled into points + normals."""

    id: str
    center: np.ndarray
    surface_points: np.ndarray  # (n, 3) world frame
    surface_normals: np.ndarray  # (n, 3) outward unit normals
    semi_axes: np.ndarray | None = None  # set for ellipsoid-generated targets

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(3))
        object.__setattr__(
            self, "surface_points", np.asarray(self.surface_points, dtype=float).reshape(-1, 3)
        )
        object.__setattr__(
            self, "surface_normals", np.asarray(self.surface_normals, dtype=float).reshape(-1, 3)
        )
        if self.surface_points.shape != self.surface_normals.shape:
            raise ValueError("surface points and normals must align")


def ellipsoid_target(target_id: str, center, semi_axes, n_surface: int = 400) -> TargetModel:
    """Ellipsoid target sampled with a Fibonacci sphere (deterministic)."""
    center = np.asarray(center, dtype=float)
    axes = np.asarray(semi_axes, dtype=float)
    if np.any(axes <= 0):
        raise ValueError("semi-axes must be positive")
    if n_surface < 1:
        raise ValueError("n_surface must be >= 1")
    i = np.arange(n_surface, dtype=float)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    z = 1.0 - 2.0 * (i + 0.5) / n_surface
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = golden * i
    unit = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    points = center + unit * axes
    # ellipsoid gradient normal: (x - c) / a^2, normalized
    normals = unit / axes
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return TargetModel(
        id=target_id, center=center, surface_points=points,
        surface_normals=normals, semi_axes=axes,
    )


@dataclass(frozen=True)
class Detection:
    bbox: np.ndarray  # (u_min, v_min, u_max, v_max)
    score: float
    frame_id: int

    def __post_init__(self):
        b = np.asarray(self.bbox, dtype=float).reshape(4)
        if not (b[0] < b[2] and b[1] < b[3]):
            raise ValueError(f"degenerate bbox {b}")
        object.__setattr__(self, "bbox", b)


@dataclass(frozen=True)
class DetectorConfig:
    fp_rate: float = 0.0
    fn_rate: float = 0.0
    pixel_noise_sigma: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.fp_rate <= 1.0 and 0.0 <= self.fn_rate <= 1.0):
            raise ValueError("rates must be in [0, 1]")
        if self.pixel_noise_sigma < 0:
            raise ValueError("pixel noise sigma must be >= 0")


def visible_bbox(
    target: TargetModel, cam_from_world: Pose, k: CameraIntrinsics
) -> np.ndarray | None:
    """Tight projected bbox of the target's surface, or None.

    A target counts as visible only when its whole projected extent lies
    inside the image; partially visible targets yield None.
    """
    uv, depths = project_points(target.surface_points, cam_from_world, k)
    if np.any(depths <= 0):
        return None
    u_min, v_min = uv.min(axis=0)
    u_max, v_max = uv.max(axis=0)
    if u_min < 0 or v_min < 0 or u_max > k.width or v_max > k.height:
        return None
    return np.array([u_min, v_min, u_max, v_max])


def detect(
    cam_from_world: Pose,
    k: CameraIntrinsics,
    targets: list[TargetModel],
    cfg: DetectorConfig,
    rng: np.random.Generator,
    frame_id: int = 0,
) -> list[Detection]:
    """One simulated detector inference on the current camera view."""
    detections: list[Detection] = []
    for target in targets:
        bbox = visible_bbox(target, cam_from_world, k)
        if bbox is None:
            continue
        if cfg.fn_rate > 0 and rng.random() < cfg.fn_rate:
            continue
        if cfg.pixel_noise_sigma > 0:
            bbox = bbox + rng.normal(0.0, cfg.pixel_noise_sigma, size=4)
        u_lo, u_hi = sorted((bbox[0], bbox[2]))
        v_lo, v_hi = sorted((bbox[1], bbox[3]))
        u_lo, u_hi = np.clip([u_lo, u_hi], 0.0, k.width)
        v_lo, v_hi = np.clip([v_lo, v_hi], 0.0, k.height)
        if u_lo >= u_hi or v_lo >= v_hi:
            continue
        detections.append(Detection(np.array([u_lo, v_lo, u_hi, v_hi]), 1.0, frame_id))
    if cfg.fp_rate > 0 and rng.random() < cfg.fp_rate:
        w = rng.uniform(FP_BOX_MIN_PX, k.width / 3.0)
        h = rng.uniform(FP_BOX_MIN_PX, k.height / 3.0)
        u0 = rng.uniform(0.0, k.width - w)
        v0 = rng.uniform(0.0, k.height - h)
        score = rng.uniform(0.3, 0.9)
        detections.append(Detection(np.array([u0, v0, u0 + w, v0 + h]), score, frame_id))
    return detections
