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
import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    CameraIntrinsics, cull_rows, invert, norm, pixel_rows, transform_points, transform_rows,
    translate_rows, project_points,  # noqa: F401  only perfbench/tracer.py reaches it
)
from .tracker import TrackedBox, hungarian_assign

_DET_FLOOR = 1e-18
# The most points a cloud may hold: a spawn or an update allocates ~210 bytes a point
MAX_CLOUD_POINTS = 100_000
_K_DIM = 3
# A hull vertex counts as past a cull row only this far (in metres, per
# unit of the row's 1-norm) beyond it; see projection_count_costs.
_CULL_MARGIN_M = 1e-6


class AllZeroWeights(RuntimeError):
    """Every perturbed point weighted zero; the update cannot resample."""


class DegenerateBox(ValueError):
    """Bounding box with zero area."""


class TargetState(str, enum.Enum):
    TRACKING = "tracking"
    CONVERGING = "converging"
    CONVERGED = "converged"
    MAPPED = "mapped"


# A target in these states does not count a tick that does not refresh it as a miss
_AGELESS = (TargetState.CONVERGED, TargetState.MAPPED)


@dataclass(frozen=True)
class GaussianSummary:
    mean: np.ndarray  # (3,)
    covariance: np.ndarray  # (3, 3), symmetric
    det: float = field(init=False)  # of covariance, computed once

    def __post_init__(self):
        object.__setattr__(self, "det", float(np.linalg.det(self.covariance)))

    @classmethod
    def from_points(cls, points: np.ndarray) -> "GaussianSummary":
        pts = np.asarray(points, dtype=float).reshape(-1, _K_DIM)
        # pts.mean(axis=0) bit for bit: both sum a C-ordered pts's rows in order
        mean = np.einsum("ij->j", pts) / pts.shape[0]
        centered = pts - mean
        cov = centered.T @ centered / pts.shape[0]
        return cls(mean, cov)


def differential_entropy(s: GaussianSummary) -> float:
    """Entropy of the fitted Gaussian; -inf for a collapsed covariance."""
    if s.det <= _DET_FLOOR:
        return float("-inf")
    return _K_DIM / 2.0 + _K_DIM / 2.0 * np.log(2.0 * np.pi) + 0.5 * np.log(s.det)


def kl_divergence(n0: GaussianSummary, n1: GaussianSummary) -> float:
    """KL divergence D(n0 || n1) between two Gaussian summaries; inf when
    either covariance is collapsed."""
    det0, det1 = n0.det, n1.det
    if det1 <= _DET_FLOOR or det0 <= _DET_FLOOR:
        return float("inf")
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
        if self.m > MAX_CLOUD_POINTS:
            raise ValueError(f"m {self.m} exceeds the bound of {MAX_CLOUD_POINTS} points")
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
    last_keyframe: tuple  # world-from-camera (rotation, translation) of the last update
    kld_streak: int = 0
    miss_counter: int = 0
    last_kld: float | None = None
    last_entropy: float | None = None
    # world vertices whose convex hull holds the points; None: their
    # bounding box's 8 corners
    hull: np.ndarray | None = field(default=None, repr=False)
    summary: GaussianSummary = field(init=False, repr=False)  # of points
    _rotated: tuple | None = field(init=False, repr=False)  # see camera_rows

    def __post_init__(self):
        self.set_points(self.points, self.hull)

    def set_points(self, points: np.ndarray, hull: np.ndarray | None = None) -> None:
        self.points = points
        self.summary = GaussianSummary.from_points(points)
        if hull is None:  # a one-segment reduceat is ~9x faster than min(axis=0)
            (x0, y0, z0), = np.minimum.reduceat(points, [0]).tolist()
            (x1, y1, z1), = np.maximum.reduceat(points, [0]).tolist()
            hull = np.array([(x, y, z) for x in (x0, x1) for y in (y0, y1) for z in (z0, z1)])
        self.hull = hull
        self._rotated = None

    def camera_rows(self, rotation: np.ndarray, translation: np.ndarray, key) -> np.ndarray:
        """transform_rows(rotation, translation, points) as (3, m) rows. The
        rotated points are kept under key, the rotation's bytes and strides,
        until set_points: a camera that has not turned since the last call
        adds only its translation, with the same arithmetic."""
        if self._rotated is None or self._rotated[0] != key:
            self._rotated = key, rotation @ self.points.T
        rotated = self._rotated[1]
        return translate_rows(rotated, translation, np.empty_like(rotated))


@dataclass(frozen=True)
class Event:
    """A filter (spawned | spawn_failed | update_failed | converging |
    converged | deregistered) or mission (mode_change | mapped |
    estimation_failed | duplicate_dropped) event."""

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


def on_image_edge(bbox, k: CameraIntrinsics, margin: float):
    """Whether a box, or each box of a (..., 4) stack, lies within margin of the image's border."""
    b = np.asarray(bbox, dtype=float)
    u0, v0, u1, v1 = b.tolist() if b.ndim == 1 else np.moveaxis(b, -1, 0)
    return (u0 <= margin) | (v0 <= margin) | (u1 >= k.width - margin) | (v1 >= k.height - margin)


def generate_points(
    bbox: np.ndarray,
    rotation: np.ndarray,
    translation: np.ndarray,
    k: CameraIntrinsics,
    cfg: FilterConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample m points inside the viewing cone of an (enlarged) box, seen
    by the camera whose world-from-camera transform is (rotation,
    translation).

    Directions are convex combinations of the four corner rays; depths are
    uniform in (0, max_depth]. So every point is a convex combination of
    viewing_pyramid's vertices, up to rounding.
    """
    b = np.asarray(bbox, dtype=float)
    if b[2] - b[0] <= 0 or b[3] - b[1] <= 0:
        raise DegenerateBox(f"box {b} has no area")
    a = rng.uniform(size=(4, cfg.m))
    a_bar = a / a.sum(axis=0)
    corner_rays = k.unit_rays(bbox_corners(b)).T  # (3, 4)
    delta = cfg.max_depth * rng.uniform(size=cfg.m)
    points_cam = (corner_rays @ a_bar) * delta
    return transform_points(rotation, translation, points_cam.T)


def viewing_pyramid(
    bbox: np.ndarray, rotation: np.ndarray, translation: np.ndarray, k: CameraIntrinsics,
    max_depth: float,
) -> np.ndarray:
    """The (5, 3) world vertices of the pyramid that generate_points samples
    in: the camera centre and the box's four corner rays at max_depth."""
    corners = k.unit_rays(bbox_corners(bbox)) * max_depth
    return transform_points(rotation, translation, np.vstack([np.zeros(3), corners]))


def mixture_weights(
    u: np.ndarray, v: np.ndarray, bbox: np.ndarray, w_gauss: float, w_uniform: float
) -> np.ndarray:
    """Per-pixel importance of pixels (u, v), rows (n,): Gaussian centered
    on the box + uniform in it.

    Gaussian sigmas are the box half-extents; the uniform density is
    1/area inside the closed box and 0 outside.
    """
    b = np.asarray(bbox, dtype=float)
    su = (b[2] - b[0]) / 2.0
    sv = (b[3] - b[1]) / 2.0
    if su <= 0 or sv <= 0:
        raise DegenerateBox(f"box {b} has no area")
    cu, cv = (b[0] + b[2]) / 2.0, (b[1] + b[3]) / 2.0
    zu = (u - cu) / su
    zv = (v - cv) / sv
    gauss = np.exp(-0.5 * (zu * zu + zv * zv)) / (2.0 * np.pi * su * sv)
    inside = (u >= b[0]) & (u <= b[2]) & (v >= b[1]) & (v <= b[3])
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
    rotation: np.ndarray,
    translation: np.ndarray,
    k: CameraIntrinsics,
) -> np.ndarray:
    """cost[i, j] = number of target j's points in front of the camera
    (cam-from-world rotation and translation) projecting inside the closed
    box i.

    A pair is counted only when target j's hull is not culled by box i,
    and a target culled by every box is not projected. A pair is culled
    when, for one of the box's cull_rows n, n . v < -_CULL_MARGIN_M |n|_1
    at every hull vertex v in the camera frame; then every point p of the
    hull has n . p < 0, is clearly out of the box and counts zero.
    Rounding leaves that true. Each point lies within a few ulps of its
    hull (a spawn's points are rounded convex combinations of its
    pyramid's vertices; a bounding box holds its points exactly), and the
    camera-frame coordinates and the products n . v are within a few ulps
    of their exact values: ~1e-13 m at coordinates of a kilometre, far
    inside a micrometre per unit of |n|_1. Without that margin, rounding
    alone could cull a hull with a vertex on a row's plane, such as a
    fresh cloud's apex seen from its own camera, where n . v is 0 for
    every row, while points next to the apex project anywhere. The rows'
    pixel margin then covers the rounding of each point's projection.
    """
    bounds = [box.tolist() for box in boxes]  # scalar compares beat broadcasting
    costs = np.zeros((len(boxes), len(targets)))
    if not bounds or not targets:
        return costs
    rows = cull_rows(bounds, k)  # (5 * boxes, 3)
    hulls = [t.hull for t in targets]
    starts = list(itertools.accumulate([len(h) for h in hulls[:-1]], initial=0))
    # n . (R v + t) < -margin |n|_1 is (n R) . v < -margin |n|_1 - n . t
    reach = (rows @ rotation) @ np.concatenate(hulls).T  # (5 * boxes, vertices)
    limits = -_CULL_MARGIN_M * np.abs(rows).sum(axis=1) - rows @ translation
    culled = np.maximum.reduceat(reach, starts, axis=1) < limits[:, None]
    seen = ~culled.reshape(len(bounds), 5, len(targets)).any(axis=1)
    key = rotation.tobytes(), rotation.strides
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, target_seen in enumerate(seen.T.tolist()):
            if not any(target_seen):
                continue
            u, v, depths = pixel_rows(targets[j].camera_rows(rotation, translation, key), k)
            front = depths > 0
            inside, term = np.empty_like(front), np.empty_like(front)  # filled per box
            for i, (u_lo, v_lo, u_hi, v_hi) in enumerate(bounds):
                if not target_seen[i]:
                    continue
                np.greater_equal(u, u_lo, out=inside)
                inside &= np.less_equal(u, u_hi, out=term)
                inside &= np.greater_equal(v, v_lo, out=term)
                inside &= np.less_equal(v, v_hi, out=term)
                inside &= front
                costs[i, j] = np.count_nonzero(inside)
    return costs


def associate(
    boxes: list[np.ndarray],
    targets: list[PointTarget],
    rotation: np.ndarray,
    translation: np.ndarray,
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
    costs = projection_count_costs(boxes, targets, rotation, translation, k)
    raw_pairs, unmatched_boxes, _ = hungarian_assign(costs, maximize=True)
    pairs = []
    for box_idx, target_idx in raw_pairs:
        if costs[box_idx, target_idx] < min_points:
            unmatched_boxes.append(box_idx)
        else:
            pairs.append((box_idx, target_idx))
    return pairs, sorted(unmatched_boxes)


def pose_delta(a: tuple, b: tuple) -> tuple[float, float]:
    """(translation distance, rotation angle) between two (rotation,
    translation) transforms."""
    (ra, ta), (rb, tb) = a, b
    dt = norm(ta - tb)
    r = ra.T @ rb
    cos_angle = min(1.0, max(-1.0, (np.trace(r) - 1.0) / 2.0))  # np.clip's order
    return dt, float(np.arccos(cos_angle))


def update_points(
    points: np.ndarray,
    bbox: np.ndarray,
    rotation: np.ndarray,
    translation: np.ndarray,
    k: CameraIntrinsics,
    cfg: FilterConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One importance-resampling update against a box tracked by the
    camera whose cam-from-world transform is (rotation, translation).

    Perturbs the cloud with isotropic Gaussian noise, weights the perturbed
    projections against the box, and resamples m points from the perturbed
    set. Returns the new points.

    Raises AllZeroWeights when no perturbed point lands with support.
    """
    noise = np.sqrt(cfg.update_noise_var) * rng.standard_normal(points.shape)
    perturbed = points + noise
    with np.errstate(divide="ignore", invalid="ignore"):
        u, v, depths = pixel_rows(transform_rows(rotation, translation, perturbed), k)
    weights = mixture_weights(u, v, bbox, cfg.w_gauss, cfg.w_uniform)
    weights[(depths <= 0) | (u < 0) | (u > k.width) | (v < 0) | (v > k.height)] = 0.0
    # take copies the same rows as fancy indexing at about a third of its cost
    return np.take(perturbed, systematic_resample(weights, rng), axis=0)


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
        cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
        if cloud.size:
            target.set_points(cloud)

    def tick(
        self,
        boxes: list[TrackedBox],
        rotation: np.ndarray,
        translation: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[list[Event], list[int]]:
        """Associate, update, spawn, and age targets for one cycle, seen
        from the camera whose world-from-camera transform is (rotation,
        translation); the rotation must be checked (a row of a Pose). An
        empty box list behaves as a deregistration-only timer tick. Returns
        (events, ids updated this tick).
        """
        cfg = self.cfg
        gated_boxes = [
            np.asarray(b.bbox, dtype=float)
            for b in boxes if not on_image_edge(b.bbox, self.k, cfg.edge_margin_px)
        ]
        if not gated_boxes and all(t.state in _AGELESS for t in self.targets):
            return [], []  # nothing to associate, spawn or age
        world_from_cam = rotation, translation
        cam_from_world = invert(rotation, translation)
        events: list[Event] = []
        updated: list[int] = []

        pairs, unmatched = associate(
            gated_boxes, self.targets, *cam_from_world, self.k, cfg.min_points_in_box
        )

        refreshed: set[int] = set()
        for box_idx, target_idx in pairs:
            target = self.targets[target_idx]
            if target.state is TargetState.MAPPED:
                continue  # box consumed, nothing to update
            dt, dr = pose_delta(world_from_cam, target.last_keyframe)
            if dt <= cfg.keyframe_min_translation and dr <= cfg.keyframe_min_rotation:
                continue  # not a keyframe yet
            try:
                new_points = update_points(
                    target.points, gated_boxes[box_idx], *cam_from_world, self.k, cfg, rng
                )
            except (AllZeroWeights, DegenerateBox):  # no supported point, or a zero-area box
                events.append(Event("update_failed", target.target_id))
                continue  # counts as a missed update
            old = target.summary
            target.set_points(new_points)
            target.last_keyframe = world_from_cam
            kld = target.last_kld = kl_divergence(target.summary, old)
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
                points = generate_points(enlarged, *world_from_cam, self.k, cfg, rng)
            except DegenerateBox:
                events.append(Event("spawn_failed", bbox=tuple(bbox.tolist())))
                continue
            target = PointTarget(
                target_id=self._next_id,
                points=points,
                state=TargetState.TRACKING,
                last_keyframe=world_from_cam,
                hull=viewing_pyramid(enlarged, *world_from_cam, self.k, cfg.max_depth),
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
            if target.target_id in refreshed or target.state in _AGELESS:
                survivors.append(target)
                continue
            target.miss_counter += 1
            if target.miss_counter >= cfg.max_missed_updates:
                events.append(Event("deregistered", target.target_id))
            else:
                survivors.append(target)
        self.targets = survivors
        return events, updated
