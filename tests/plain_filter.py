"""The paper's sampling filter written plainly: the reference that the tests
step beside targetsim.points_filter.PointsFilter.

Every tick projects every live cloud into every box with project_points,
refits each cloud with mean(axis=0) where a fit is used, takes each
determinant with np.linalg.det where it is used, resamples by fancy
indexing and assigns boxes with scipy's linear_sum_assignment. It keeps no
hull, no rotated points and no fit, and it never returns early. It draws
from the generator in the fast filter's order, so where the fast filter's
special cases are exact the two give the same events, fits and clouds,
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from targetsim.geometry import invert, project_points
from targetsim.points_filter import (
    AllZeroWeights,
    DegenerateBox,
    Event,
    TargetState,
    enlarge_bbox,
    on_image_edge,
    systematic_resample,
)


def fit(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cloud's Gaussian: its mean and covariance."""
    mean = points.mean(axis=0)
    centered = points - mean
    return mean, centered.T @ centered / points.shape[0]


def entropy(points: np.ndarray):
    _, cov = fit(points)
    if np.linalg.det(cov) <= 1e-18:
        return float("-inf")
    return 3 / 2.0 + 3 / 2.0 * np.log(2.0 * np.pi) + 0.5 * np.log(np.linalg.det(cov))


def kl(new: np.ndarray, old: np.ndarray) -> float:
    """D(fit(new) || fit(old)), inf for a collapsed covariance."""
    (mean0, cov0), (mean1, cov1) = fit(new), fit(old)
    if np.linalg.det(cov1) <= 1e-18 or np.linalg.det(cov0) <= 1e-18:
        return float("inf")
    diff = mean1 - mean0
    d = 0.5 * (np.trace(np.linalg.solve(cov1, cov0)) + diff @ np.linalg.solve(cov1, diff) - 3
               + np.log(np.linalg.det(cov1) / np.linalg.det(cov0)))
    return float(max(d, 0.0))


def counts(boxes, clouds, rotation, translation, k) -> np.ndarray:
    """cost[i, j]: the points of clouds[j] in front of the camera whose pixels
    lie in the closed box i, one box at a time."""
    costs = np.zeros((len(boxes), len(clouds)))
    for j, points in enumerate(clouds):
        uv, depths = project_points(points, rotation, translation, k)
        for i, b in enumerate(boxes):
            inside = (
                (depths > 0)
                & (uv[:, 0] >= b[0]) & (uv[:, 0] <= b[2])
                & (uv[:, 1] >= b[1]) & (uv[:, 1] <= b[3])
            )
            costs[i, j] = int(inside.sum())
    return costs


def update_weights(points, bbox, rotation, translation, k, cfg, rng):
    """The perturbed points of an update and their weights against bbox,
    with the projection written out as (n, 2) pixels, not as project_points
    computes it."""
    perturbed = points + np.sqrt(cfg.update_noise_var) * rng.standard_normal(points.shape)
    pc = rotation @ perturbed.T + translation[:, None]
    depths = pc[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = np.column_stack([k.fx * pc[0] / depths + k.cx, k.fy * pc[1] / depths + k.cy])
    b = np.asarray(bbox, dtype=float)
    su, sv = (b[2] - b[0]) / 2.0, (b[3] - b[1]) / 2.0
    if su <= 0 or sv <= 0:
        raise DegenerateBox(f"box {b} has no area")
    zu = (uv[:, 0] - (b[0] + b[2]) / 2.0) / su
    zv = (uv[:, 1] - (b[1] + b[3]) / 2.0) / sv
    gauss = np.exp(-0.5 * (zu * zu + zv * zv)) / (2.0 * np.pi * su * sv)
    inside = (uv[:, 0] >= b[0]) & (uv[:, 0] <= b[2]) & (uv[:, 1] >= b[1]) & (uv[:, 1] <= b[3])
    weights = cfg.w_gauss * gauss + cfg.w_uniform * (inside / (4.0 * su * sv))
    off_image = (depths <= 0) | (uv[:, 0] < 0) | (uv[:, 0] > k.width) | (uv[:, 1] < 0) \
        | (uv[:, 1] > k.height)
    weights[off_image] = 0.0
    return perturbed, weights


def generate(bbox, rotation, translation, k, cfg, rng) -> np.ndarray:
    """m points in the viewing cone of bbox, as convex combinations of its
    corner rays at uniform depths, seen by the world-from-camera
    (rotation, translation)."""
    a = rng.uniform(size=(4, cfg.m))
    u0, v0, u1, v1 = bbox
    rays = k.unit_rays(np.array([[u0, v0], [u1, v0], [u1, v1], [u0, v1]])).T
    depths = cfg.max_depth * rng.uniform(size=cfg.m)
    cam = (rays @ (a / a.sum(axis=0))) * depths
    return (rotation @ cam + translation[:, None]).T.copy()


def pose_delta(a: tuple, b: tuple) -> tuple[float, float]:
    (ra, ta), (rb, tb) = a, b
    cos_angle = np.clip((np.trace(ra.T @ rb) - 1.0) / 2.0, -1.0, 1.0)
    return np.linalg.norm(ta - tb), float(np.arccos(cos_angle))


@dataclass
class Target:
    target_id: int
    points: np.ndarray
    state: TargetState
    last_keyframe: tuple
    kld_streak: int = 0
    miss_counter: int = 0
    last_kld: float | None = None
    last_entropy: float | None = None


class PlainFilter:
    """PointsFilter's tick, mark_mapped and deregister, written plainly."""

    def __init__(self, k, cfg):
        self.k, self.cfg = k, cfg
        self.targets: list[Target] = []
        self.next_id = 1
        self.costs = []  # each tick's count matrix, when it counted

    def deregister(self, target_id: int) -> Event:
        self.targets = [t for t in self.targets if t.target_id != target_id]
        return Event("deregistered", target_id)

    def mark_mapped(self, target_id: int, cloud) -> None:
        (target,) = [t for t in self.targets if t.target_id == target_id]
        target.state = TargetState.MAPPED
        cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
        if cloud.size:
            target.points = cloud

    def tick(self, boxes, rotation, translation, rng):
        cfg, k = self.cfg, self.k
        boxes = [np.asarray(b.bbox, dtype=float) for b in boxes
                 if not on_image_edge(b.bbox, k, cfg.edge_margin_px)]
        world_from_cam = rotation, translation
        cam_from_world = invert(rotation, translation)
        events, updated, refreshed = [], [], set()

        pairs = []
        self.costs = []
        if boxes and self.targets:
            costs = counts(boxes, [t.points for t in self.targets], *cam_from_world, k)
            self.costs.append(costs)
            rows, cols = linear_sum_assignment(costs, maximize=True)
            pairs = [(i, j) for i, j in zip(rows.tolist(), cols.tolist())
                     if costs[i, j] >= cfg.min_points_in_box]
        for i, j in pairs:
            target = self.targets[j]
            if target.state is TargetState.MAPPED:
                continue
            dt, dr = pose_delta(world_from_cam, target.last_keyframe)
            if dt <= cfg.keyframe_min_translation and dr <= cfg.keyframe_min_rotation:
                continue
            try:
                perturbed, weights = update_weights(target.points, boxes[i], *cam_from_world, k,
                                                    cfg, rng)
                chosen = systematic_resample(weights, rng)
            except (AllZeroWeights, DegenerateBox):
                events.append(Event("update_failed", target.target_id))
                continue
            old, target.points = target.points, perturbed[chosen]
            target.last_keyframe = world_from_cam
            target.last_kld = kl(target.points, old)
            target.kld_streak = target.kld_streak + 1 if target.last_kld < cfg.kld_threshold \
                else 0
            target.last_entropy = entropy(target.points)
            target.miss_counter = 0
            refreshed.add(target.target_id)
            updated.append(target.target_id)
            if target.state is TargetState.TRACKING:
                if cfg.entropy_below:
                    crossed = target.last_entropy < cfg.entropy_converging
                else:
                    crossed = target.last_entropy > cfg.entropy_converging
                if crossed:
                    target.state = TargetState.CONVERGING
                    target.kld_streak = 0
                    events.append(Event("converging", target.target_id))
            streak = target.kld_streak >= cfg.kld_streak_needed
            if target.state is TargetState.CONVERGING and streak:
                target.state = TargetState.CONVERGED
                events.append(Event("converged", target.target_id))

        matched = {i for i, _ in pairs}
        for i, bbox in enumerate(boxes):
            if i in matched:
                continue
            enlarged = enlarge_bbox(bbox, cfg.enlarge_frac, k)
            if enlarged[2] - enlarged[0] <= 0 or enlarged[3] - enlarged[1] <= 0:
                events.append(Event("spawn_failed", bbox=tuple(bbox.tolist())))
                continue
            points = generate(enlarged, *world_from_cam, k, cfg, rng)
            target = Target(self.next_id, points, TargetState.TRACKING, world_from_cam)
            target.last_entropy = entropy(points)
            self.next_id += 1
            self.targets.append(target)
            refreshed.add(target.target_id)
            events.append(Event("spawned", target.target_id, bbox=tuple(bbox.tolist())))

        survivors = []
        for target in self.targets:
            ageless = target.state in (TargetState.CONVERGED, TargetState.MAPPED)
            if target.target_id not in refreshed and not ageless:
                target.miss_counter += 1
                if target.miss_counter >= cfg.max_missed_updates:
                    events.append(Event("deregistered", target.target_id))
                    continue
            survivors.append(target)
        self.targets = survivors
        return events, updated
