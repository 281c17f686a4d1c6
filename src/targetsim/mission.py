"""Motion state machine: switches path generators on perception events.

Search runs the survey lawnmower; a target assessed as converging pulls
the vehicle into an orbit to refine it; a converged target gets a
bounding-cylinder mapping pass. Completed or failed activities fall back
through a priority rule: pending converged targets are mapped before the
search resumes, while merely-converging targets wait to be re-encountered
(or, optionally, are served from the queue).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .bounding_cylinder import BoundingCylinder, fit_bounding_cylinder
from .detector import TargetModel
from .points_filter import Event, PointsFilter, TargetState, check_already_mapped
from .view_planner import (
    PlannerConfig,
    TargetAboveSearchPlane,
    Waypoint,
    estimation_circle,
    lawnmower,
    mapping_circles,
)


class UnknownTarget(KeyError):
    """Converging or converged event for a target id the filter does not hold."""


class MissionMode(str, enum.Enum):
    SEARCH = "search"
    ESTIMATION = "estimation"
    MAPPING = "mapping"


@dataclass(frozen=True)
class MissionConfig:
    serve_queued_converging: bool = False  # start orbits from the queue, not on re-detection
    voxel_size: float = 0.1  # downsample spacing of mapped clouds (m)
    mapping_range_margin: float = 2.0  # cylinder slack when gathering mapped surfaces (m)


def scan_wedge_mask(
    points: np.ndarray, waypoint: Waypoint, cam_depression: float, scan_fov: float
) -> np.ndarray:
    """Which points fall in the waypoint's vertical scan band."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    rel = waypoint.position - pts
    horizontal = np.linalg.norm(rel[:, :2], axis=1)
    angle = np.arctan2(rel[:, 2], horizontal)  # depression of the point seen from wp
    lo = cam_depression - scan_fov / 2.0
    hi = cam_depression + scan_fov / 2.0
    return (angle >= lo - 1e-9) & (angle <= hi + 1e-9)


# (dx, dy, dz) of a grid cell's 27 neighbours, itself included
_NEIGHBOUR_CELLS = tuple(itertools.product((-1, 0, 1), repeat=3))


def min_distance_downsample(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy thinning: keep a point only if no kept point is within radius."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0 or radius <= 0:
        return pts.copy()
    grid: dict[tuple, list[int]] = {}
    kept: list[int] = []
    cells = np.floor(pts / radius).astype(np.int64)
    r2 = radius * radius
    for i in range(pts.shape[0]):
        cx, cy, cz = cells[i]
        if not any(
            (d := pts[i] - pts[j]) @ d < r2
            for dx, dy, dz in _NEIGHBOUR_CELLS
            for j in grid.get((cx + dx, cy + dy, cz + dz), ())
        ):
            grid.setdefault((cx, cy, cz), []).append(i)
            kept.append(i)
    return pts[kept]


def synthesize_mapped_cloud(
    cyl: BoundingCylinder,
    waypoints: list[Waypoint],
    world: list[TargetModel],
    cam_depression: float,
    scan_fov: float,
    range_margin: float,
    voxel_size: float,
):
    """Surface points of true targets seen by the mapping pass.

    A surface sample contributes when it faces some waypoint and falls in
    that waypoint's scan band; targets outside the cylinder footprint are
    out of sensor range. Returns (dense cloud, downsampled cloud,
    contributing true-target ids).
    """
    dense_parts = []
    contributing: set[str] = set()
    for target in world:
        axis_dist = float(np.linalg.norm(target.center[:2] - cyl.center[:2]))
        if axis_dist > cyl.radius + range_margin:
            continue
        visible = np.zeros(target.surface_points.shape[0], dtype=bool)
        for wp in waypoints:
            rel = wp.position - target.surface_points
            facing = np.einsum("ij,ij->i", rel, target.surface_normals) > 0
            visible |= facing & scan_wedge_mask(
                target.surface_points, wp, cam_depression, scan_fov
            )
        if visible.any():
            dense_parts.append(target.surface_points[visible])
            contributing.add(target.id)
    if dense_parts:
        dense = np.concatenate(dense_parts, axis=0)
    else:
        dense = np.empty((0, 3))
    return dense, min_distance_downsample(dense, voxel_size), contributing


class MissionExecutive:
    """Single-threaded event-driven supervisor of the three motion modes."""

    def __init__(
        self,
        planner_cfg: PlannerConfig,
        cfg: MissionConfig,
        points_filter: PointsFilter,
        world: list[TargetModel],
        cloud_sink=None,
    ):
        self.planner_cfg = planner_cfg
        self.cfg = cfg
        self.filter = points_filter
        self.world = world
        self.cloud_sink = cloud_sink or (lambda target_id, cloud: None)

        self.mode = MissionMode.SEARCH
        self.active_target: int | None = None
        self.converged_queue: list[int] = []
        self.converging_queue: list[int] = []
        self.mapped_centers: list[np.ndarray] = []
        self.mapped_true_ids: set[str] = set()

        self.search_waypoints = lawnmower(
            planner_cfg.survey_polygon, planner_cfg.lane_spacing, planner_cfg.search_altitude
        )
        self.search_cursor = 0
        self._plan: list[Waypoint] = self.search_waypoints
        self._cursor = 0
        self._cylinder: BoundingCylinder | None = None

    # -- plan following --------------------------------------------------

    @property
    def plan(self) -> list[Waypoint]:
        """The waypoints being flown. A new plan is a new list; a plan is
        never changed in place."""
        return self._plan

    @property
    def cursor(self) -> int:
        """The index in plan of the waypoint being flown to; len(plan) when
        the plan is done and the vehicle loiters."""
        return self._cursor

    @property
    def search_done(self) -> bool:
        return self.search_cursor >= len(self.search_waypoints)

    def idle(self) -> bool:
        """True when search is exhausted and nothing is pending or alive."""
        alive_pending = any(
            t.state is not TargetState.MAPPED for t in self.filter.targets
        )
        return (
            self.mode is MissionMode.SEARCH
            and self.search_done
            and not self.converged_queue
            and not alive_pending
        )

    def on_waypoint_reached(self, uav_position: np.ndarray) -> list:
        self._cursor += 1
        if self.mode is MissionMode.SEARCH:
            self.search_cursor = self._cursor
        if self._cursor >= len(self._plan):
            return self._on_plan_complete(uav_position)
        return []

    def _on_plan_complete(self, uav_position: np.ndarray) -> list:
        if self.mode is MissionMode.SEARCH:
            return []  # survey finished; loiter
        if self.mode is MissionMode.ESTIMATION:
            # full orbit without convergence: the target failed verification
            return self._fail_verification(self.active_target, uav_position)
        return self._complete_mapping() + self._choose_next(uav_position)

    # -- perception events -------------------------------------------------

    def on_perception(
        self, events: list[Event], updated_ids: list[int], uav_position: np.ndarray
    ) -> list:
        out: list = []
        for ev in events:
            if ev.kind in ("converging", "converged") and self.filter.get(ev.target_id) is None:
                raise UnknownTarget(ev.target_id)
            if ev.kind == "converging":
                if self.mode is MissionMode.SEARCH:
                    out += self._start_estimation(ev.target_id, uav_position)
                elif ev.target_id not in self.converging_queue:
                    self.converging_queue.append(ev.target_id)
            elif ev.kind == "converged":
                self._drop_from_queues(ev.target_id, converged=False)
                if ev.target_id not in self.converged_queue:
                    self.converged_queue.append(ev.target_id)
                if self.mode is MissionMode.SEARCH or (
                    self.mode is MissionMode.ESTIMATION
                    and self.active_target == ev.target_id
                ):
                    out += self._choose_next(uav_position)
            elif ev.kind == "deregistered":
                self._drop_from_queues(ev.target_id)
                if (
                    self.mode is MissionMode.ESTIMATION
                    and self.active_target == ev.target_id
                ):
                    out += self._choose_next(uav_position)

        if self.mode is MissionMode.SEARCH and self.converging_queue:
            out += self._serve_converging_on_redetect(updated_ids, uav_position)
        return out

    def _serve_converging_on_redetect(self, updated_ids, uav_position) -> list:
        for target_id in list(self.converging_queue):
            target = self.filter.get(target_id)
            if target is None or target.state is not TargetState.CONVERGING:
                self.converging_queue.remove(target_id)
                continue
            if target_id in updated_ids:
                self.converging_queue.remove(target_id)
                return self._start_estimation(target_id, uav_position)
        return []

    # -- transitions -------------------------------------------------------

    def _drop_from_queues(self, target_id: int, converged: bool = True):
        if target_id in self.converging_queue:
            self.converging_queue.remove(target_id)
        if converged and target_id in self.converged_queue:
            self.converged_queue.remove(target_id)

    def _fail_verification(self, target_id: int, uav_position: np.ndarray) -> list:
        events = [self.filter.deregister(target_id), Event("estimation_failed", target_id)]
        self._drop_from_queues(target_id)
        return events + self._choose_next(uav_position)

    def _start_estimation(self, target_id: int, uav_position: np.ndarray) -> list:
        target = self.filter.get(target_id)
        if target is None:
            return []
        try:
            plan = estimation_circle(
                target.summary.mean,
                self.planner_cfg.search_altitude,
                self.planner_cfg.estimation_view_angle,
                uav_position,
                self.planner_cfg.waypoint_spacing,
            )
        except TargetAboveSearchPlane:
            # no orbit can look down on the cloud: treat like a failed verification
            return self._fail_verification(target_id, uav_position)
        self.mode = MissionMode.ESTIMATION
        self.active_target = target_id
        self._plan = plan
        self._cursor = 0
        return [Event("mode_change", target_id, self.mode.value)]

    def _start_mapping(self, target_id: int, uav_position: np.ndarray) -> list:
        target = self.filter.get(target_id)
        try:
            cyl = fit_bounding_cylinder(target.points)
        except ValueError:
            # collapsed cloud: treat like a failed verification
            return self._fail_verification(target_id, uav_position)
        self._cylinder = cyl
        self.mode = MissionMode.MAPPING
        self.active_target = target_id
        self._plan = mapping_circles(cyl, self.planner_cfg, uav_position)
        self._cursor = 0
        return [Event("mode_change", target_id, self.mode.value)]

    def _choose_next(self, uav_position: np.ndarray) -> list:
        """Pick the next activity: pending mappings first, then (optionally)
        queued orbits, else resume the survey."""
        events: list = []
        while self.converged_queue:
            target_id = self.converged_queue.pop(0)
            target = self.filter.get(target_id)
            if target is None or target.state is not TargetState.CONVERGED:
                continue
            if check_already_mapped(
                target.summary.mean, self.mapped_centers, self.filter.cfg.already_mapped_dist
            ):
                events.append(self.filter.deregister(target_id))
                events.append(Event("duplicate_dropped", target_id))
                continue
            return events + self._start_mapping(target_id, uav_position)
        if self.cfg.serve_queued_converging:
            while self.converging_queue:
                target_id = self.converging_queue.pop(0)
                target = self.filter.get(target_id)
                if target is None or target.state is not TargetState.CONVERGING:
                    continue
                return events + self._start_estimation(target_id, uav_position)
        self.mode = MissionMode.SEARCH
        self.active_target = None
        self._plan = self.search_waypoints
        self._cursor = self.search_cursor
        events.append(Event("mode_change", mode=self.mode.value))
        return events

    def _complete_mapping(self) -> list:
        target_id = self.active_target
        dense, down, true_ids = synthesize_mapped_cloud(
            self._cylinder,
            self._plan,
            self.world,
            self.planner_cfg.cam_depression,
            self.planner_cfg.scan_fov,
            self.cfg.mapping_range_margin,
            self.cfg.voxel_size,
        )
        self.cloud_sink(target_id, dense)
        self.filter.mark_mapped(target_id, down)
        self.mapped_centers.append(self._cylinder.center)
        self.mapped_true_ids |= true_ids
        return [Event("mapped", target_id, self.mode.value)]
