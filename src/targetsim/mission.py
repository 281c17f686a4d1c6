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
from .geometry import norm
from .points_filter import Event, EventKind, PointsFilter, PointTarget, TargetState
from .points_filter import check_already_mapped
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


_SEARCH, _MAPPED = MissionMode.SEARCH, TargetState.MAPPED  # bound once: every frame compares them


@dataclass(frozen=True)
class MissionConfig:
    serve_queued_converging: bool = False  # start orbits from the queue, not on re-detection
    voxel_size: float = 0.1  # downsample spacing of mapped clouds (m)
    mapping_range_margin: float = 2.0  # cylinder slack when gathering mapped surfaces (m)

    def __post_init__(self):
        if self.voxel_size <= 0 or self.mapping_range_margin < 0:
            raise ValueError("voxel_size must be > 0 and mapping_range_margin >= 0")


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
    """Greedy thinning: keep a point only if no kept point is within radius > 0."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
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
        axis_dist = norm(target.center[:2] - cyl.center[:2])
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

    def idle(self) -> bool:
        """True when search is exhausted and every live target is mapped; the
        converged queue is then empty, as each id in it names a live target."""
        return (
            self.mode is _SEARCH
            and self.search_cursor >= len(self.search_waypoints)
            and all(t.state is _MAPPED for t in self.filter.targets)
        )

    def on_waypoint_reached(self, uav_position: np.ndarray) -> list:
        self._cursor += 1
        if self.mode is MissionMode.SEARCH:
            self.search_cursor = self._cursor
            return []  # after the survey's last waypoint the vehicle loiters
        if self._cursor < len(self._plan):
            return []
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
            target = self.filter.get(ev.target_id)
            if ev.kind in (EventKind.CONVERGING, EventKind.CONVERGED) and target is None:
                raise UnknownTarget(ev.target_id)
            orbiting = self.mode is MissionMode.ESTIMATION and self.active_target == ev.target_id
            if ev.kind == EventKind.CONVERGING:
                if self.mode is MissionMode.SEARCH:
                    out += self._start_estimation(target, uav_position)
                elif ev.target_id not in self.converging_queue:
                    self.converging_queue.append(ev.target_id)
            elif ev.kind == EventKind.CONVERGED:
                if ev.target_id not in self.converged_queue:
                    self.converged_queue.append(ev.target_id)
                if self.mode is MissionMode.SEARCH or orbiting:
                    out += self._choose_next(uav_position)
            elif ev.kind == EventKind.DEREGISTERED and orbiting:  # the orbited target was lost
                out += self._choose_next(uav_position)

        if self.mode is _SEARCH:  # a converging target waits to be re-detected
            target = self._pop(self.converging_queue, TargetState.CONVERGING, updated_ids)
            if target is not None:
                out += self._start_estimation(target, uav_position)
        return out

    def _pop(self, queue: list[int], state: TargetState, among=None) -> PointTarget | None:
        """Remove and return the first target in queue still in state (and,
        when among is given, whose id is in among), or None. A stale id, of a
        target deregistered or moved on from state, is dropped when read."""
        for target_id in list(queue):
            target = self.filter.get(target_id)
            if target is None or target.state is not state:
                queue.remove(target_id)
            elif among is None or target_id in among:
                queue.remove(target_id)
                return target
        return None

    # -- transitions -------------------------------------------------------

    def _switch(
        self, mode: MissionMode, target_id: int | None, plan: list[Waypoint], cursor: int = 0
    ) -> list:
        """Fly plan from cursor in mode; the one mode_change event."""
        self.mode, self.active_target, self._plan, self._cursor = mode, target_id, plan, cursor
        return [Event(EventKind.MODE_CHANGE, target_id, mode.value)]

    def _fail_verification(self, target_id: int, uav_position: np.ndarray) -> list:
        events = [self.filter.deregister(target_id), Event(EventKind.ESTIMATION_FAILED, target_id)]
        return events + self._choose_next(uav_position)

    def _start_estimation(self, target: PointTarget, uav_position: np.ndarray) -> list:
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
            return self._fail_verification(target.target_id, uav_position)
        return self._switch(MissionMode.ESTIMATION, target.target_id, plan)

    def _start_mapping(self, target: PointTarget, uav_position: np.ndarray) -> list:
        try:
            self._cylinder = fit_bounding_cylinder(target.points)
        except ValueError:
            # collapsed cloud: treat like a failed verification
            return self._fail_verification(target.target_id, uav_position)
        plan = mapping_circles(self._cylinder, self.planner_cfg, uav_position)
        return self._switch(MissionMode.MAPPING, target.target_id, plan)

    def _choose_next(self, uav_position: np.ndarray) -> list:
        """Pick the next activity: pending mappings first, then (optionally)
        queued orbits, else resume the survey."""
        events: list = []
        while (target := self._pop(self.converged_queue, TargetState.CONVERGED)) is not None:
            if not check_already_mapped(
                target.summary.mean, self.mapped_centers, self.filter.cfg.already_mapped_dist
            ):
                return events + self._start_mapping(target, uav_position)
            events.append(self.filter.deregister(target.target_id))
            events.append(Event(EventKind.DUPLICATE_DROPPED, target.target_id))
        if self.cfg.serve_queued_converging:
            target = self._pop(self.converging_queue, TargetState.CONVERGING)
            if target is not None:
                return events + self._start_estimation(target, uav_position)
        return events + self._switch(
            MissionMode.SEARCH, None, self.search_waypoints, self.search_cursor
        )

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
        return [Event(EventKind.MAPPED, target_id, self.mode.value)]
