"""Simulated bounding-box detector.

Replaces a detection network: projects known target geometry into the
camera and emits noisy axis-aligned boxes, with configurable false-positive
and false-negative injection. All randomness comes from the caller's
generator, so a fixed seed gives byte-identical detections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, Pose, cull_rows, project_points, transform_rows

FP_BOX_MIN_PX = 8.0
# The most surface points a target may hold: ~220 bytes each to build, projected in every view
MAX_SURFACE_POINTS = 100_000


@dataclass(frozen=True)
class TargetModel:
    """Ground-truth target: a closed surface sampled into points + normals."""

    id: str
    center: np.ndarray
    surface_points: np.ndarray  # (n, 3) world frame
    surface_normals: np.ndarray  # (n, 3) outward unit normals
    semi_axes: np.ndarray  # (3,) the ellipsoid's semi-axes, for the scenario header

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
    if axes.shape != (3,):
        raise ValueError(f"semi_axes needs 3 values, got {axes.size}")
    if np.any(axes <= 0):
        raise ValueError("semi-axes must be positive")
    if n_surface > MAX_SURFACE_POINTS:
        raise ValueError(f"n_surface {n_surface} exceeds the bound of {MAX_SURFACE_POINTS}")
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


# Views are projected in parts of about this many points at most (~70
# bytes each while projected), so a large batch of views needs little
# memory beyond its inputs.
_PROJECTED_POINTS_MAX = 1 << 12


def visible_boxes(
    targets, rotations: np.ndarray, translations: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Tight projected bbox of each TargetModel's surface in each of F views.

    rotations (F, 3, 3) and translations (F, 3) are cam-from-world. Returns
    boxes (F, n_targets, 4) as (u_min, v_min, u_max, v_max) and the visible
    mask (F, n_targets); boxes of hidden targets are NaN. A target counts as
    visible only when its whole projected extent lies inside the image.

    A target is hidden when any one of its points is behind the camera or
    off the image, so each target's first point is tested in every view
    first against the image's cull rows, and only the views where it is
    not clearly out project that target's whole surface.
    """
    boxes = np.empty((len(rotations), len(targets), 4))
    visible = np.zeros(boxes.shape[:2], dtype=bool)
    if not boxes.size:
        return boxes, visible
    firsts = np.array([t.surface_points[0] for t in targets])
    first_cam = transform_rows(rotations, translations, firsts)  # (F, 3, n_targets)
    image = cull_rows([(0.0, 0.0, float(k.width), float(k.height))], k)
    kept = ~(image @ first_cam < 0).any(axis=-2)
    for i, target in enumerate(targets):
        views = np.flatnonzero(kept[:, i])
        points = target.surface_points
        step = max(1, _PROJECTED_POINTS_MAX // len(points))
        for part in (views[j:j + step] for j in range(0, len(views), step)):
            uv, depths = project_points(points, rotations[part], translations[part], k)
            # a one-segment reduceat: ~13x faster than min(axis=1) on a (10, 400, 2) part
            lo = np.minimum.reduceat(uv, [0], axis=1)[:, 0]
            hi = np.maximum.reduceat(uv, [0], axis=1)[:, 0]
            visible[part, i] = ~(
                (depths <= 0).any(axis=1)
                | (lo[:, 0] < 0) | (lo[:, 1] < 0)
                | (hi[:, 0] > k.width) | (hi[:, 1] > k.height)
            )
            boxes[part, i, :2] = lo
            boxes[part, i, 2:] = hi
    boxes[~visible] = np.nan
    return boxes, visible


# only perfbench/tracer.py reaches visible_bbox: it stays while the tracer wraps it
def visible_bbox(
    target: TargetModel, cam_from_world: Pose, k: CameraIntrinsics
) -> np.ndarray | None:
    """visible_boxes for one target in one view, or None when it is hidden."""
    boxes, visible = visible_boxes(
        [target], cam_from_world.rotation[None], cam_from_world.translation[None], k
    )
    return boxes[0, 0] if visible[0, 0] else None


def detect(
    boxes: np.ndarray,
    visible: np.ndarray,
    k: CameraIntrinsics,
    cfg: DetectorConfig,
    rng: np.random.Generator,
) -> list[Detection]:
    """One simulated detector inference on a camera view, given that view's
    row of visible_boxes: every true target's box (n_targets, 4) and which
    targets are in full view (n_targets,). It only draws the faults."""
    detections: list[Detection] = []
    for i in [i for i, seen in enumerate(visible.tolist()) if seen]:
        bbox = boxes[i]
        if cfg.fn_rate > 0 and rng.random() < cfg.fn_rate:
            continue
        if cfg.pixel_noise_sigma > 0:
            bbox = bbox + rng.normal(0.0, cfg.pixel_noise_sigma, size=4)
        b0, b1, b2, b3 = bbox.tolist()
        u_lo, u_hi = sorted((b0, b2))
        v_lo, v_hi = sorted((b1, b3))
        # clipped as np.clip does: max(0.0, x) keeps 0.0 for a -0.0
        u_lo, u_hi = (min(float(k.width), max(0.0, u)) for u in (u_lo, u_hi))
        v_lo, v_hi = (min(float(k.height), max(0.0, v)) for v in (v_lo, v_hi))
        if u_lo >= u_hi or v_lo >= v_hi:
            continue
        detections.append(Detection(np.array([u_lo, v_lo, u_hi, v_hi]), 1.0))
    if cfg.fp_rate > 0 and rng.random() < cfg.fp_rate:
        w = rng.uniform(FP_BOX_MIN_PX, k.width / 3.0)
        h = rng.uniform(FP_BOX_MIN_PX, k.height / 3.0)
        u0 = rng.uniform(0.0, k.width - w)
        v0 = rng.uniform(0.0, k.height - h)
        score = rng.uniform(0.3, 0.9)
        detections.append(Detection(np.array([u0, v0, u0 + w, v0 + h]), score))
    return detections
