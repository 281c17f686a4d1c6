"""Waypoint generators for the three motion modes.

Search flies a boustrophedon over the survey polygon; target refinement
orbits the point-cloud center at the search altitude; close-range mapping
stacks circles around the bounding cylinder so the vertical scan band
sweeps the whole wall bottom-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounding_cylinder import BoundingCylinder
from .geometry import norm

# The most segments an orbit may have: ~60 us and ~490 bytes a waypoint to plan
MAX_ORBIT_SEGMENTS = 3_600


class EmptyPolygon(ValueError):
    """Survey polygon with fewer than three vertices."""


class TargetAboveSearchPlane(ValueError):
    """Orbit center at or above the search altitude."""


@dataclass(frozen=True)
class Waypoint:
    position: np.ndarray
    yaw: float

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float).reshape(3)
        if not np.all(np.isfinite(p)) or not np.isfinite(self.yaw):
            raise ValueError("waypoint must be finite")
        object.__setattr__(self, "position", p)


@dataclass(frozen=True)
class PlannerConfig:
    cam_depression: float = np.deg2rad(60.0)  # camera axis angle below horizontal
    estimation_view_angle: float = np.deg2rad(45.0)  # target depression on the orbit
    scan_fov: float = np.deg2rad(40.0)  # vertical scanning field of view
    standoff: float = 4.0  # distance kept from the cylinder surface (m)
    search_altitude: float = 30.0
    survey_polygon: tuple = ((0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0))
    lane_spacing: float = 30.0
    waypoint_spacing: float = np.deg2rad(15.0)  # circle discretization

    def __post_init__(self):
        if not 0.0 < self.cam_depression <= np.pi / 2.0:
            raise ValueError("cam_depression must be in (0, pi/2]")
        if not 0.0 < self.scan_fov < 2.0 * self.cam_depression:
            raise ValueError("scan_fov must be in (0, 2 * cam_depression)")
        for name in ("standoff", "lane_spacing", "waypoint_spacing"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if 2.0 * np.pi / self.waypoint_spacing > MAX_ORBIT_SEGMENTS:  # _circle_loop's n_seg
            raise ValueError(f"waypoint_spacing plans over {MAX_ORBIT_SEGMENTS} orbit segments")
        if not 0.0 < self.estimation_view_angle < np.pi / 2.0:
            raise ValueError("estimation_view_angle must be in (0, pi/2)")
        if len(self.survey_polygon) < 3:
            raise EmptyPolygon(f"survey_polygon has {len(self.survey_polygon)} vertices, needs >= 3")
        if any(np.shape(vertex) != (2,) for vertex in self.survey_polygon):
            raise ValueError("each survey_polygon vertex needs 2 coordinates (x, y)")
        xy = np.asarray(self.survey_polygon, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is what is checked
            spans = [*(xy.max(axis=0) - xy.min(axis=0)), xy[:, 1].min() + xy[:, 1].max()]
        if not np.isfinite(spans).all():  # lawnmower's lane arithmetic stays finite
            raise ValueError("survey_polygon's x or y extent or y midline overflows a float")


def _lane_span(polygon: np.ndarray, y: float) -> tuple[float, float] | None:
    """x-extent of a horizontal line's intersection with a convex polygon."""
    xs = []
    n = len(polygon)
    for i in range(n):
        (x0, y0), (x1, y1) = polygon[i], polygon[(i + 1) % n]
        if y0 == y1:
            if y0 == y:
                xs.extend([x0, x1])
            continue
        t = (y - y0) / (y1 - y0)
        if 0.0 <= t <= 1.0:
            xs.append(x0 + t * (x1 - x0))
    if not xs:
        return None
    return min(xs), max(xs)


def polygon_contains(polygon, point) -> bool:
    """Whether a 2D point lies in a convex polygon, boundary included."""
    x, y = (float(c) for c in point)
    span = _lane_span(np.asarray(polygon, dtype=float).reshape(-1, 2), y)
    return span is not None and bool(span[0] <= x <= span[1])


def lane_count(polygon, lane_spacing: float) -> int:
    """The lawnmower's lane count over polygon: one lane across the middle
    of a polygon whose y extent is below lane_spacing, else
    ceil(extent / lane_spacing) + 1 lanes from its lowest to its highest y."""
    ys = np.asarray(polygon, dtype=float).reshape(-1, 2)[:, 1]
    extent = ys.max() - ys.min()
    return 1 if extent < lane_spacing else int(np.ceil(extent / lane_spacing)) + 1


def lawnmower(polygon, lane_spacing: float, altitude: float) -> list[Waypoint]:
    """Serpentine lanes over a convex polygon at a fixed altitude.

    Lane lines run along x; yaw points along the direction of travel.
    PlannerConfig ensures >= 3 vertices, a positive lane spacing and
    finite extents and midline, so every lane lies within the polygon's
    y bounds and crosses an edge: rounded subtraction and division are
    monotone, so that edge's t stays in [0, 1].
    """
    poly = np.asarray(polygon, dtype=float).reshape(-1, 2)
    y_min, y_max = poly[:, 1].min(), poly[:, 1].max()
    n_lanes = lane_count(poly, lane_spacing)
    if n_lanes == 1:
        lane_ys = np.array([(y_min + y_max) / 2.0])
    else:
        lane_ys = np.linspace(y_min, y_max, n_lanes)

    waypoints: list[Waypoint] = []
    for i, y in enumerate(lane_ys):
        x_lo, x_hi = _lane_span(poly, float(y))
        if i % 2 == 0:
            x_start, x_end, yaw = x_lo, x_hi, 0.0
        else:
            x_start, x_end, yaw = x_hi, x_lo, np.pi
        waypoints.append(Waypoint(np.array([x_start, y, altitude]), yaw))
        if x_hi - x_lo > 1e-9:
            waypoints.append(Waypoint(np.array([x_end, y, altitude]), yaw))
    return waypoints


def _circle_loop(
    center_xy: np.ndarray,
    radius: float,
    altitude: float,
    start_angle: float,
    spacing: float,
) -> list[Waypoint]:
    """Closed circle of waypoints, yaw facing the center."""
    n_seg = max(3, int(round(2.0 * np.pi / spacing)))
    waypoints = []
    for k in range(n_seg + 1):
        angle = start_angle + 2.0 * np.pi * k / n_seg
        pos = np.array(
            [
                center_xy[0] + radius * np.cos(angle),
                center_xy[1] + radius * np.sin(angle),
                altitude,
            ]
        )
        yaw = float(np.arctan2(center_xy[1] - pos[1], center_xy[0] - pos[0]))
        waypoints.append(Waypoint(pos, yaw))
    return waypoints


def _start_angle(center, position) -> float:
    """Bearing of `position` from `center` in the xy-plane; 0 when it is on
    the center."""
    offset = np.asarray(position, dtype=float)[:2] - center[:2]
    return float(np.arctan2(offset[1], offset[0])) if norm(offset) > 1e-9 else 0.0


def estimation_circle(
    center: np.ndarray,
    search_altitude: float,
    view_angle: float,
    current_position: np.ndarray,
    waypoint_spacing: float,
) -> list[Waypoint]:
    """Orbit at the search altitude seeing the center at `view_angle` down.

    Starts at the circle point closest to the current position and closes
    the full loop.
    """
    c = np.asarray(center, dtype=float).reshape(3)
    dz = search_altitude - c[2]
    if dz <= 0:
        raise TargetAboveSearchPlane(f"center z {c[2]} >= altitude {search_altitude}")
    radius = dz / np.tan(view_angle)
    start_angle = _start_angle(c, current_position)
    return _circle_loop(c[:2], radius, search_altitude, start_angle, waypoint_spacing)


def mapping_circles(
    cyl: BoundingCylinder,
    cfg: PlannerConfig,
    current_position: np.ndarray,
) -> list[Waypoint]:
    """Circle stack around the cylinder covering the wall bottom-up.

    The lowest circle puts the lower scan ray on the wall base; circles
    step up by the scan-band height until the upper ray clears the top
    center.
    """
    gamma_l = cfg.cam_depression + cfg.scan_fov / 2.0
    gamma_u = cfg.cam_depression - cfg.scan_fov / 2.0
    r_c = cyl.radius + cfg.standoff
    z = cyl.z_bottom + cfg.standoff * np.tan(gamma_l)
    dz = cfg.standoff * (np.tan(gamma_l) - np.tan(gamma_u))
    start_angle = _start_angle(cyl.center, current_position)

    waypoints: list[Waypoint] = []
    while True:
        waypoints.extend(
            _circle_loop(cyl.center[:2], r_c, z, start_angle, cfg.waypoint_spacing)
        )
        if z - r_c * np.tan(gamma_u) >= cyl.z_top:
            break
        z += dz
    return waypoints
