"""Sampling-based 3D target localization filter.

Each tracked image box seeds a cloud of m world points inside the viewing
cone back-projected from its (enlarged) corners. As the camera moves, the
cloud is re-weighted against newly tracked boxes and importance-resampled,
collapsing onto the region consistent with every view. Differential
entropy of the fitted Gaussian flags a target as converging; a sustained
run of low Kullback-Leibler divergence between consecutive updates flags
it as converged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraIntrinsics, Pose, project_points
from .tracker import TrackedBox, hungarian_assign

_DET_FLOOR = 1e-18
_K_DIM = 3


class SingularCovariance(ValueError):
    """Covariance determinant at or below the numerical floor."""


class AllZeroWeights(RuntimeError):
    """Every perturbed point weighted zero; the update cannot resample."""


class DegenerateBox(ValueError):
    """Bounding box with zero area."""


class TargetState(str, enum.Enum):
    TRACKING = "tracking"
    CONVERGING = "converging"
    CONVERGED = "converged"
    MAPPED = "mapped"


@dataclass(frozen=True)
class GaussianSummary:
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(_K_DIM)
        cov = np.asarray(self.covariance, dtype=float).reshape(_K_DIM, _K_DIM)
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", (cov + cov.T) / 2.0)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "GaussianSummary":
        pts = np.asarray(points, dtype=float).reshape(-1, _K_DIM)
        mean = pts.mean(axis=0)
        centered = pts - mean
        cov = centered.T @ centered / pts.shape[0]
        return cls(mean, cov)


def differential_entropy(s: GaussianSummary) -> float:
    """Entropy of the fitted Gaussian; -inf for a collapsed covariance."""
    det = float(np.linalg.det(s.covariance))
    if det <= _DET_FLOOR:
        return float("-inf")
    return _K_DIM / 2.0 + _K_DIM / 2.0 * np.log(2.0 * np.pi) + 0.5 * np.log(det)


def kl_divergence(n0: GaussianSummary, n1: GaussianSummary) -> float:
    """KL divergence D(n0 || n1) between two Gaussian summaries."""
    det0 = float(np.linalg.det(n0.covariance))
    det1 = float(np.linalg.det(n1.covariance))
    if det1 <= _DET_FLOOR or det0 <= _DET_FLOOR:
        raise SingularCovariance(f"determinants {det0}, {det1}")
    diff = n1.mean - n0.mean
    p1_inv_p0 = np.linalg.solve(n1.covariance, n0.covariance)
    maha = diff @ np.linalg.solve(n1.covariance, diff)
    d = 0.5 * (np.trace(p1_inv_p0) + maha - _K_DIM + np.log(det1 / det0))
    return float(max(d, 0.0))


@dataclass(frozen=True)
class FilterConfig:
    m: int = 1000  # points per target
    max_depth: float = 50.0  # depth range of newly generated points (meters)
    enlarge_frac: float = 0.15  # symmetric bbox enlargement fraction
    update_noise_var: float = 0.01  # variance of per-update point jitter (m^2)
    w_gauss: float = 0.5
    w_uniform: float = 0.5
    entropy_converging: float = 3.0  # entropy threshold for the converging state
    entropy_below: bool = True  # converging when entropy drops below threshold
    kld_threshold: float = 0.05
    kld_streak_needed: int = 40  # consecutive low-KLD converging updates to converge
    min_points_in_box: int | None = None  # association gate; defaults to m / 10
    max_missed_updates: int = 30  # grace period before deregistration (ticks)
    keyframe_min_translation: float = 0.5  # meters
    keyframe_min_rotation: float = 0.1  # radians
    edge_margin_px: float = 1.0
    already_mapped_dist: float = 2.0  # dedup distance between mapped centers

    def __post_init__(self):
        if self.w_gauss < 0 or self.w_uniform < 0:
            raise ValueError("mixture weights must be non-negative")
        if abs(self.w_gauss + self.w_uniform - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if self.m < 1 or self.max_depth <= 0:
            raise ValueError("m and max_depth must be positive")
        for name in ("update_noise_var", "kld_threshold", "keyframe_min_translation",
                     "keyframe_min_rotation", "already_mapped_dist"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.kld_streak_needed < 1 or self.max_missed_updates < 1:
            raise ValueError("streak and grace thresholds must be >= 1")
        if self.min_points_in_box is None:
            object.__setattr__(self, "min_points_in_box", self.m // 10)


@dataclass
class PointTarget:
    target_id: int
    points: np.ndarray  # (m, 3); assign through set_points
    state: TargetState
    last_keyframe: Pose
    kld_streak: int = 0
    miss_counter: int = 0
    mapped_cloud: np.ndarray | None = None
    last_kld: float | None = None
    last_entropy: float | None = None
    summary: GaussianSummary = field(init=False, repr=False)  # of points

    def __post_init__(self):
        self.set_points(self.points)

    def set_points(self, points: np.ndarray) -> None:
        self.points = points
        self.summary = GaussianSummary.from_points(points)


@dataclass(frozen=True)
class Event:
    """A filter (spawned | converging | converged | deregistered) or mission
    (mode_change | mapped | estimation_failed | duplicate_dropped) event."""

    kind: str
    target_id: int | None = None
    mode: str | None = None
    bbox: tuple | None = None  # tracked box that triggered a spawn

    def to_dict(self) -> dict:
        out = {"type": self.kind}
        if self.target_id is not None:
            out["target"] = self.target_id
        if self.mode is not None:
            out["mode"] = self.mode
        if self.bbox is not None:
            out["bbox"] = list(self.bbox)
        return out


def enlarge_bbox(bbox: np.ndarray, frac: float, k: CameraIntrinsics) -> np.ndarray:
    """Grow width/height by frac symmetrically, clipped to image bounds."""
    b = np.asarray(bbox, dtype=float)
    du = frac * (b[2] - b[0]) / 2.0
    dv = frac * (b[3] - b[1]) / 2.0
    return np.array(
        [
            max(b[0] - du, 0.0),
            max(b[1] - dv, 0.0),
            min(b[2] + du, float(k.width)),
            min(b[3] + dv, float(k.height)),
        ]
    )


def bbox_corners(bbox: np.ndarray) -> np.ndarray:
    b = np.asarray(bbox, dtype=float)
    return np.array(
        [[b[0], b[1]], [b[2], b[1]], [b[2], b[3]], [b[0], b[3]]]
    )


def on_image_edge(bbox: np.ndarray, k: CameraIntrinsics, margin: float) -> bool:
    b = np.asarray(bbox, dtype=float)
    return bool(
        b[0] <= margin
        or b[1] <= margin
        or b[2] >= k.width - margin
        or b[3] >= k.height - margin
    )


def generate_points(
    bbox: np.ndarray,
    world_from_cam: Pose,
    k: CameraIntrinsics,
    cfg: FilterConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample m points inside the viewing cone of an (enlarged) box.

    Directions are convex combinations of the four corner rays; depths are
    uniform in (0, max_depth].
    """
    b = np.asarray(bbox, dtype=float)
    if b[2] - b[0] <= 0 or b[3] - b[1] <= 0:
        raise DegenerateBox(f"box {b} has no area")
    a = rng.uniform(size=(4, cfg.m))
    a_bar = a / a.sum(axis=0)
    corner_rays = k.unit_rays(bbox_corners(b)).T  # (3, 4)
    delta = cfg.max_depth * rng.uniform(size=cfg.m)
    points_cam = (corner_rays @ a_bar) * delta
    return world_from_cam.transform(points_cam.T)


def mixture_weights(
    pixels: np.ndarray, bbox: np.ndarray, w_gauss: float, w_uniform: float
) -> np.ndarray:
    """Per-pixel importance: Gaussian centered on the box + uniform in it.

    Gaussian sigmas are the box half-extents; the uniform density is
    1/area inside the closed box and 0 outside.
    """
    b = np.asarray(bbox, dtype=float)
    su = (b[2] - b[0]) / 2.0
    sv = (b[3] - b[1]) / 2.0
    if su <= 0 or sv <= 0:
        raise DegenerateBox(f"box {b} has no area")
    uv = np.atleast_2d(np.asarray(pixels, dtype=float))
    cu, cv = (b[0] + b[2]) / 2.0, (b[1] + b[3]) / 2.0
    zu = (uv[:, 0] - cu) / su
    zv = (uv[:, 1] - cv) / sv
    gauss = np.exp(-0.5 * (zu * zu + zv * zv)) / (2.0 * np.pi * su * sv)
    inside = (
        (uv[:, 0] >= b[0]) & (uv[:, 0] <= b[2]) & (uv[:, 1] >= b[1]) & (uv[:, 1] <= b[3])
    )
    uniform = inside / (4.0 * su * sv)
    return w_gauss * gauss + w_uniform * uniform


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Low-variance resampling; returns m indices into weights."""
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise AllZeroWeights("weights sum to zero")
    positions = (np.arange(len(w)) + rng.random()) / len(w)
    cumulative = np.cumsum(w / total)
    cumulative[-1] = 1.0  # guard rounding at the top end
    return np.searchsorted(cumulative, positions)


def projection_count_costs(
    boxes: list[np.ndarray],
    targets: list[PointTarget],
    cam_from_world: Pose,
    k: CameraIntrinsics,
) -> np.ndarray:
    """cost[i, j] = number of target j's points projecting inside box i."""
    costs = np.zeros((len(boxes), len(targets)))
    for j, target in enumerate(targets):
        uv, depths = project_points(target.points, cam_from_world, k)
        valid = depths > 0
        for i, b in enumerate(boxes):
            inside = (
                valid
                & (uv[:, 0] >= b[0])
                & (uv[:, 0] <= b[2])
                & (uv[:, 1] >= b[1])
                & (uv[:, 1] <= b[3])
            )
            costs[i, j] = int(inside.sum())
    return costs


def associate(
    boxes: list[np.ndarray],
    targets: list[PointTarget],
    cam_from_world: Pose,
    k: CameraIntrinsics,
    min_points: int,
):
    """Assign boxes to targets by maximal projection counts.

    Returns (pairs, unmatched_box_indices); pairs hold (box_idx, target_idx).
    Assignments below the min_points gate are rejected and their box
    reported unmatched.
    """
    if not boxes or not targets:
        return [], list(range(len(boxes)))
    costs = projection_count_costs(boxes, targets, cam_from_world, k)
    raw_pairs, unmatched_boxes, _ = hungarian_assign(costs, maximize=True)
    pairs = []
    for box_idx, target_idx in raw_pairs:
        if costs[box_idx, target_idx] < min_points:
            unmatched_boxes.append(box_idx)
        else:
            pairs.append((box_idx, target_idx))
    return pairs, sorted(unmatched_boxes)


def pose_delta(a: Pose, b: Pose) -> tuple[float, float]:
    """(translation distance, rotation angle) between two poses."""
    dt = float(np.linalg.norm(a.translation - b.translation))
    r = a.rotation.T @ b.rotation
    cos_angle = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    return dt, float(np.arccos(cos_angle))


def update_points(
    points: np.ndarray,
    bbox: np.ndarray,
    cam_from_world: Pose,
    k: CameraIntrinsics,
    cfg: FilterConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """One importance-resampling update against a tracked box.

    Perturbs the cloud with isotropic Gaussian noise, weights the perturbed
    projections against the box, and resamples m points from the perturbed
    set. Returns (new points, KL divergence of new cloud w.r.t. old).

    Raises AllZeroWeights when no perturbed point lands with support.
    """
    noise = np.sqrt(cfg.update_noise_var) * rng.standard_normal(points.shape)
    perturbed = points + noise
    uv, depths = project_points(perturbed, cam_from_world, k)
    weights = mixture_weights(uv, bbox, cfg.w_gauss, cfg.w_uniform)
    off_image = (
        (depths <= 0)
        | (uv[:, 0] < 0)
        | (uv[:, 0] > k.width)
        | (uv[:, 1] < 0)
        | (uv[:, 1] > k.height)
    )
    weights[off_image] = 0.0
    idx = systematic_resample(weights, rng)
    resampled = perturbed[idx]
    try:
        kld = kl_divergence(
            GaussianSummary.from_points(resampled), GaussianSummary.from_points(points)
        )
    except SingularCovariance:
        kld = float("inf")
    return resampled, kld


def check_already_mapped(
    candidate_center: np.ndarray, mapped_centers, dist_threshold: float
) -> bool:
    """True when the candidate sits strictly within the dedup distance of
    any previously mapped center."""
    c = np.asarray(candidate_center, dtype=float)
    for center in mapped_centers:
        if np.linalg.norm(c - np.asarray(center, dtype=float)) < dist_threshold:
            return True
    return False


class PointsFilter:
    """Owns the point targets; call tick() once per perception cycle."""

    def __init__(self, k: CameraIntrinsics, cfg: FilterConfig | None = None):
        self.k = k
        self.cfg = cfg or FilterConfig()
        self.targets: list[PointTarget] = []
        self._next_id = 1

    def get(self, target_id: int) -> PointTarget | None:
        for t in self.targets:
            if t.target_id == target_id:
                return t
        return None

    def deregister(self, target_id: int) -> Event:
        self.targets = [t for t in self.targets if t.target_id != target_id]
        return Event("deregistered", target_id)

    def mark_mapped(self, target_id: int, cloud: np.ndarray) -> None:
        target = self.get(target_id)
        if target is None:
            raise KeyError(f"unknown target {target_id}")
        target.state = TargetState.MAPPED
        target.mapped_cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
        if target.mapped_cloud.size:
            target.set_points(target.mapped_cloud)
        target.miss_counter = 0

    def tick(
        self,
        boxes: list[TrackedBox],
        camera_pose: Pose,
        rng: np.random.Generator,
    ) -> tuple[list[Event], list[int]]:
        """Associate, update, spawn, and age targets for one cycle.

        camera_pose maps camera coordinates to world coordinates. An empty
        box list behaves as a deregistration-only timer tick. Returns
        (events, ids updated this tick).
        """
        cfg = self.cfg
        cam_from_world = camera_pose.inverse()
        events: list[Event] = []
        updated: list[int] = []

        gated = [
            b for b in boxes if not on_image_edge(b.bbox, self.k, cfg.edge_margin_px)
        ]
        gated_boxes = [np.asarray(b.bbox, dtype=float) for b in gated]
        pairs, unmatched = associate(
            gated_boxes, self.targets, cam_from_world, self.k, cfg.min_points_in_box
        )

        refreshed: set[int] = set()
        for box_idx, target_idx in pairs:
            target = self.targets[target_idx]
            if target.state is TargetState.MAPPED:
                continue  # box consumed, nothing to update
            dt, dr = pose_delta(camera_pose, target.last_keyframe)
            if dt <= cfg.keyframe_min_translation and dr <= cfg.keyframe_min_rotation:
                continue  # not a keyframe yet
            try:
                new_points, kld = update_points(
                    target.points, gated_boxes[box_idx], cam_from_world, self.k, cfg, rng
                )
            except AllZeroWeights:
                continue  # counts as a missed update
            target.set_points(new_points)
            target.last_keyframe = camera_pose
            target.last_kld = kld
            target.kld_streak = target.kld_streak + 1 if kld < cfg.kld_threshold else 0
            entropy = differential_entropy(target.summary)
            target.last_entropy = entropy
            target.miss_counter = 0
            refreshed.add(target.target_id)
            updated.append(target.target_id)
            if target.state is TargetState.TRACKING:
                crossed = entropy < cfg.entropy_converging if cfg.entropy_below \
                    else entropy > cfg.entropy_converging
                if crossed:
                    target.state = TargetState.CONVERGING
                    # the convergence streak counts only converging-state
                    # updates, so the refinement orbit must confirm it
                    target.kld_streak = 0
                    events.append(Event("converging", target.target_id))
            if (
                target.state is TargetState.CONVERGING
                and target.kld_streak >= cfg.kld_streak_needed
            ):
                target.state = TargetState.CONVERGED
                events.append(Event("converged", target.target_id))

        for box_idx in unmatched:
            bbox = gated_boxes[box_idx]
            enlarged = enlarge_bbox(bbox, cfg.enlarge_frac, self.k)
            try:
                points = generate_points(enlarged, camera_pose, self.k, cfg, rng)
            except DegenerateBox:
                continue
            target = PointTarget(
                target_id=self._next_id,
                points=points,
                state=TargetState.TRACKING,
                last_keyframe=camera_pose,
            )
            target.last_entropy = differential_entropy(target.summary)
            self._next_id += 1
            self.targets.append(target)
            refreshed.add(target.target_id)
            events.append(
                Event("spawned", target.target_id, bbox=tuple(bbox.tolist()))
            )

        survivors: list[PointTarget] = []
        for target in self.targets:
            if target.target_id in refreshed or target.state in (
                TargetState.CONVERGED,
                TargetState.MAPPED,
            ):
                survivors.append(target)
                continue
            target.miss_counter += 1
            if target.miss_counter >= cfg.max_missed_updates:
                events.append(Event("deregistered", target.target_id))
            else:
                survivors.append(target)
        self.targets = survivors
        return events, updated
