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
        if not len(self.surface_points):
            raise ValueError("a target needs at least one surface point")


def ellipsoid_target(target_id: str, center, semi_axes, n_surface: int = 400) -> TargetModel:
    """Ellipsoid target sampled with a Fibonacci sphere (deterministic)."""
    center = np.asarray(center, dtype=float)
    axes = np.asarray(semi_axes, dtype=float)
    if np.any(axes <= 0):
        raise ValueError("semi-axes must be positive")
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


@dataclass(frozen=True)
class Surfaces:
    """Every target's surface points in one array, so that a frame projects
    all true targets with one call. Target i owns the rows from starts[i]
    up to the next start."""

    points: np.ndarray  # (sum of n_surface, 3) world frame
    starts: np.ndarray  # (n_targets,) first row of each target

    @classmethod
    def of(cls, targets) -> "Surfaces":
        sizes = np.array([len(t.surface_points) for t in targets], dtype=np.intp)
        points = np.concatenate([t.surface_points for t in targets] or [np.empty((0, 3))])
        return cls(points, np.cumsum(sizes) - sizes)


def visible_bboxes(
    surfaces: Surfaces, cam_from_world: Pose, k: CameraIntrinsics
) -> list[np.ndarray | None]:
    """Tight projected bbox of each target's surface, or None.

    A target counts as visible only when its whole projected extent lies
    inside the image; partially visible targets yield None. Min and max
    are exact, so each box equals the one projecting that target alone.
    """
    starts = surfaces.starts
    if not len(starts):
        return []
    uv, depths = project_points(surfaces.points, cam_from_world, k)
    behind = np.logical_or.reduceat(depths <= 0, starts)
    lo = np.minimum.reduceat(uv, starts, axis=0)
    hi = np.maximum.reduceat(uv, starts, axis=0)
    hidden = (
        behind
        | (lo[:, 0] < 0) | (lo[:, 1] < 0)
        | (hi[:, 0] > k.width) | (hi[:, 1] > k.height)
    )
    boxes = np.concatenate([lo, hi], axis=1)
    return [None if h else box for h, box in zip(hidden, boxes)]


def visible_bbox(
    target: TargetModel, cam_from_world: Pose, k: CameraIntrinsics
) -> np.ndarray | None:
    """visible_bboxes for one target."""
    return visible_bboxes(Surfaces.of([target]), cam_from_world, k)[0]


def detect(
    cam_from_world: Pose,
    k: CameraIntrinsics,
    surfaces: Surfaces,
    cfg: DetectorConfig,
    rng: np.random.Generator,
    frame_id: int = 0,
) -> list[Detection]:
    """One simulated detector inference on the current camera view."""
    detections: list[Detection] = []
    for bbox in visible_bboxes(surfaces, cam_from_world, k):
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
