"""Waypoint generators: survey lanes, refinement orbit, mapping stack."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from targetsim.bounding_cylinder import BoundingCylinder
from targetsim.view_planner import (
    EmptyPolygon,
    PlannerConfig,
    TargetAboveSearchPlane,
    estimation_circle,
    lawnmower,
    mapping_circles,
    polygon_contains,
)

SQUARE = [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)]
TRIANGLE = [(0.0, 0.0), (60.0, 0.0), (30.0, 60.0)]


def wall_points(cyl: BoundingCylinder, n_angle=36, n_height=12):
    """Lateral-surface sample of a cylinder (excludes both disks)."""
    angles = np.linspace(0.0, 2.0 * np.pi, n_angle, endpoint=False)
    heights = np.linspace(cyl.z_bottom, cyl.z_top, n_height)
    pts = []
    for z in heights:
        for a in angles:
            pts.append(
                [
                    cyl.center[0] + cyl.radius * np.cos(a),
                    cyl.center[1] + cyl.radius * np.sin(a),
                    z,
                ]
            )
    return np.asarray(pts)


def in_some_wedge(points, waypoints, gamma, beta):
    """Wedge-membership oracle: depression angle from any waypoint within
    [gamma - beta/2, gamma + beta/2]."""
    covered = np.zeros(len(points), dtype=bool)
    lo, hi = gamma - beta / 2.0, gamma + beta / 2.0
    for wp in waypoints:
        rel = wp.position - points
        ang = np.arctan2(rel[:, 2], np.linalg.norm(rel[:, :2], axis=1))
        covered |= (ang >= lo - 1e-9) & (ang <= hi + 1e-9)
    return covered


class TestLawnmower:
    def test_square_lane_count_and_serpentine(self):
        wps = lawnmower(SQUARE, 20.0, 30.0)
        ys = sorted({wp.position[1] for wp in wps})
        assert ys == [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]  # 6 lanes
        assert len(wps) == 12
        # serpentine: consecutive lanes alternate direction
        assert wps[0].position[0] == 0.0 and wps[1].position[0] == 100.0
        assert wps[2].position[0] == 100.0 and wps[3].position[0] == 0.0
        assert wps[0].yaw == 0.0 and wps[2].yaw == pytest.approx(np.pi)
        assert all(wp.position[2] == 30.0 for wp in wps)

    def test_thin_polygon_single_lane(self):
        thin = [(0.0, 0.0), (50.0, 0.0), (50.0, 5.0), (0.0, 5.0)]
        wps = lawnmower(thin, 20.0, 10.0)
        assert {wp.position[1] for wp in wps} == {2.5}
        assert len(wps) == 2

    def test_empty_polygon_raises(self):
        with pytest.raises(EmptyPolygon):
            PlannerConfig(survey_polygon=((0.0, 0.0), (1.0, 1.0)))

    def test_vertex_of_three_numbers_raises(self):
        # lawnmower's reshape(-1, 2) would read 4 such vertices as 6 others
        with pytest.raises(ValueError, match="2 coordinates"):
            PlannerConfig(survey_polygon=((0, 0, 0), (60, 0, 0), (60, 60, 0), (0, 60, 0)))

    @given(
        polygon=st.lists(
            st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-1e3, 1e3))] * 2),
            min_size=3, max_size=12,
        ),
        lane_spacing=st.floats(2.0, 1e4),
    )
    @settings(max_examples=300, deadline=None)
    # an edge of subnormal height puts a lane's t at inf, which rightly misses it
    @pytest.mark.filterwarnings("ignore:overflow encountered in scalar divide:RuntimeWarning")
    def test_every_valid_config_gets_a_waypoint(self, polygon, lane_spacing):
        # the run starts at the first search waypoint: random, collinear,
        # single-point and zero-height polygons alike get one. Coordinates
        # within 1e3 and spacings of at least 2 keep it to ~1,000 lanes
        cfg = PlannerConfig(survey_polygon=tuple(polygon), lane_spacing=lane_spacing)
        assert lawnmower(cfg.survey_polygon, cfg.lane_spacing, cfg.search_altitude)

    @given(
        polygon=st.lists(
            st.tuples(*[
                st.sampled_from([0.0, 1.0, 9e307, -9e307, 1e308, 1.7e308, -1.7e308])
                | st.floats(-1.7e308, 1.7e308)
            ] * 2),
            min_size=3, max_size=8,
        ),
        lanes=st.integers(1, 20),
    )
    # one lane at the midline (1e308 + 1.7e308) / 2, which was inf: it
    # crossed no edge and the plan was empty; an x extent; a y extent
    @example(polygon=[(0.0, 1e308), (60.0, 1e308), (60.0, 1.7e308), (0.0, 1.7e308)], lanes=1)
    @example(polygon=[(-1e308, 0.0), (1e308, 0.0), (0.0, 10.0)], lanes=1)
    @example(polygon=[(0.0, -1e308), (10.0, 0.0), (0.0, 1e308)], lanes=1)
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered in scalar divide:RuntimeWarning")
    def test_polygon_to_the_float_range_raises_or_gets_finite_waypoints(self, polygon, lanes):
        # coordinates up to +-1.7e308 and a lane spacing of about 1 / lanes
        # of the y extent: PlannerConfig raises exactly when the x or y
        # extent or the y midline overflows, and otherwise lawnmower plans a
        # waypoint or more, each finite
        xs, ys = [x for x, _ in polygon], [y for _, y in polygon]
        spans = (max(xs) - min(xs), max(ys) - min(ys), min(ys) + max(ys))  # inf on overflow
        spacing = max(spans[1] / lanes, 5e-324) if math.isfinite(spans[1]) else 1.0
        if not all(map(math.isfinite, spans)):
            with pytest.raises(ValueError, match="overflows a float"):
                PlannerConfig(survey_polygon=tuple(polygon), lane_spacing=spacing)
            return
        cfg = PlannerConfig(survey_polygon=tuple(polygon), lane_spacing=spacing)
        waypoints = lawnmower(cfg.survey_polygon, cfg.lane_spacing, cfg.search_altitude)
        assert waypoints
        assert all(np.isfinite(wp.position).all() and np.isfinite(wp.yaw) for wp in waypoints)

    def test_footprint_coverage_of_polygon(self):
        # coverage oracle: sweeping the scan annulus along the lane path
        # covers everything within altitude/tan(gamma - beta/2) of the
        # path; >= 99% of 1 m raster cells must be covered
        altitude, gamma, beta = 30.0, np.deg2rad(60.0), np.deg2rad(40.0)
        swath = altitude / np.tan(gamma - beta / 2.0)  # 35.8 m
        wps = lawnmower(SQUARE, 30.0, altitude)
        path = [wp.position[:2] for wp in wps]
        xs, ys = np.meshgrid(np.arange(0.5, 100.0, 1.0), np.arange(0.5, 100.0, 1.0))
        cells = np.column_stack([xs.ravel(), ys.ravel()])
        covered = np.zeros(len(cells), dtype=bool)
        for a, b in zip(path[:-1], path[1:]):
            ab = b - a
            denom = ab @ ab
            if denom < 1e-12:
                continue
            t = np.clip((cells - a) @ ab / denom, 0.0, 1.0)
            nearest = a + t[:, None] * ab
            covered |= np.linalg.norm(cells - nearest, axis=1) <= swath
        assert covered.mean() >= 0.99

    def test_triangle_lanes_follow_shape(self):
        wps = lawnmower(TRIANGLE, 15.0, 25.0)
        for wp in wps:
            x, y = wp.position[0], wp.position[1]
            # inside the triangle (with an epsilon for edge lanes)
            assert y >= -1e-9 and y <= 60.0 + 1e-9
            assert x >= y / 2.0 - 1e-6 and x <= 60.0 - y / 2.0 + 1e-6


@pytest.mark.parametrize(
    "polygon, point, inside",
    [
        (SQUARE, (50.0, 50.0), True),
        (SQUARE, (100.0, 40.0), True),  # on an edge
        (SQUARE, (0.0, 100.0), True),  # on a vertex
        (SQUARE, (100.5, 50.0), False),
        (SQUARE, (50.0, -0.5), False),
        (TRIANGLE, (30.0, 20.0), True),
        (TRIANGLE, (15.0, 30.0), True),  # on the slanted edge x = y / 2
        (TRIANGLE, (30.0, 60.0), True),  # on the apex
        (TRIANGLE, (5.0, 30.0), False),  # left of the slanted edge
        (TRIANGLE, (30.0, 61.0), False),  # above the apex
    ],
)
def test_polygon_contains(polygon, point, inside):
    assert polygon_contains(polygon, point) is inside


class TestEstimationCircle:
    CENTER = np.array([50.0, 40.0, 1.0])

    def test_radius_formula_45_degrees(self):
        wps = estimation_circle(self.CENTER, 31.0, np.deg2rad(45.0), [0.0, 0.0, 31.0], np.deg2rad(15.0))
        for wp in wps:
            r = np.linalg.norm(wp.position[:2] - self.CENTER[:2])
            assert r == pytest.approx(30.0, abs=1e-9)  # dz=30, tan45=1
            assert wp.position[2] == 31.0

    def test_first_waypoint_closest_to_current_pose(self):
        current = np.array([50.0, 90.0, 31.0])  # due north of center
        wps = estimation_circle(self.CENTER, 31.0, np.deg2rad(45.0), current, np.deg2rad(15.0))
        first = wps[0].position
        assert first[0] == pytest.approx(50.0, abs=1e-9)
        assert first[1] == pytest.approx(40.0 + 30.0, abs=1e-9)  # northernmost point
        dists = [np.linalg.norm(wp.position - current) for wp in wps]
        assert dists[0] == pytest.approx(min(dists), abs=1e-9)

    def test_full_closed_loop(self):
        wps = estimation_circle(self.CENTER, 31.0, np.deg2rad(45.0), [0.0, 0.0, 31.0], np.deg2rad(15.0))
        assert len(wps) == 25  # 24 segments + closing waypoint
        np.testing.assert_allclose(wps[0].position, wps[-1].position, atol=1e-9)

    def test_view_ray_passes_through_target_vertical_line(self):
        # geometric oracle: the ray at the configured depression from each
        # waypoint must pass within 1e-6 m of the vertical line under it
        gamma0 = np.deg2rad(45.0)
        wps = estimation_circle(self.CENTER, 31.0, gamma0, [10.0, 5.0, 31.0], np.deg2rad(15.0))
        axis_dir = np.array([0.0, 0.0, 1.0])
        axis_point = np.array([self.CENTER[0], self.CENTER[1], 0.0])
        for wp in wps:
            ray_dir = np.array(
                [np.cos(gamma0) * np.cos(wp.yaw), np.cos(gamma0) * np.sin(wp.yaw), -np.sin(gamma0)]
            )
            # distance between the two lines
            cross = np.cross(ray_dir, axis_dir)
            dist = abs((axis_point - wp.position) @ cross) / np.linalg.norm(cross)
            assert dist < 1e-6
            # and the ray actually descends onto the line at the center z
            t = (wp.position[2] - self.CENTER[2]) / np.sin(gamma0)
            hit = wp.position + t * ray_dir
            np.testing.assert_allclose(hit[:2], self.CENTER[:2], atol=1e-6)

    def test_target_above_search_plane_raises(self):
        with pytest.raises(TargetAboveSearchPlane):
            estimation_circle(np.array([0.0, 0.0, 31.0]), 31.0, np.deg2rad(45.0), np.zeros(3), 0.3)


class TestMappingCircles:
    CFG = PlannerConfig()

    def test_radius_is_cylinder_radius_plus_standoff(self):
        cyl = BoundingCylinder(center=[10.0, 20.0, 1.5], radius=1.0, height=3.0)
        wps = mapping_circles(cyl, self.CFG, cyl.center)
        for wp in wps:
            r = np.linalg.norm(wp.position[:2] - cyl.center[:2])
            assert r == pytest.approx(1.0 + 4.0, abs=1e-9)

    def test_first_circle_altitude_and_count(self):
        # gamma=60, beta=40: lower ray at 80 deg; z1 = z_bottom + 4*tan(80)
        # and the upper ray already covers the top => exactly one circle
        cyl = BoundingCylinder(center=[0.0, 0.0, 1.5], radius=1.0, height=3.0)
        wps = mapping_circles(cyl, self.CFG, cyl.center)
        z1 = cyl.z_bottom + 4.0 * np.tan(np.deg2rad(80.0))
        assert wps[0].position[2] == pytest.approx(z1, abs=1e-9)
        assert z1 == pytest.approx(22.69, abs=0.01)
        zs = sorted({round(wp.position[2], 9) for wp in wps})
        assert len(zs) == 1
        # stop condition held at the first circle
        assert z1 - 5.0 * np.tan(np.deg2rad(40.0)) >= cyl.z_top

    def test_tall_cylinder_needs_multiple_circles(self):
        cfg = PlannerConfig(cam_depression=np.deg2rad(45.0), scan_fov=np.deg2rad(30.0))
        cyl = BoundingCylinder(center=[0.0, 0.0, 10.0], radius=2.0, height=20.0)
        wps = mapping_circles(cyl, cfg, cyl.center)
        zs = sorted({round(wp.position[2], 9) for wp in wps})
        assert len(zs) > 1
        gamma_l = cfg.cam_depression + cfg.scan_fov / 2.0
        gamma_u = cfg.cam_depression - cfg.scan_fov / 2.0
        assert zs[0] == pytest.approx(cyl.z_bottom + cfg.standoff * np.tan(gamma_l), abs=1e-9)
        spacing = cfg.standoff * (np.tan(gamma_l) - np.tan(gamma_u))
        np.testing.assert_allclose(np.diff(zs), spacing, atol=1e-9)
        # termination: top center covered by the last circle's upper ray
        r_c = cyl.radius + cfg.standoff
        assert zs[-1] - r_c * np.tan(gamma_u) >= cyl.z_top - 1e-9

    def test_yaw_faces_axis(self):
        cyl = BoundingCylinder(center=[-5.0, 7.0, 1.0], radius=1.5, height=2.0)
        for wp in mapping_circles(cyl, self.CFG, cyl.center):
            expected = np.arctan2(
                cyl.center[1] - wp.position[1], cyl.center[0] - wp.position[0]
            )
            assert abs(wp.yaw - expected) < 1e-9

    def test_wall_coverage_on_random_cylinders(self):
        # every sampled wall point inside at least one waypoint scan wedge
        rng = np.random.default_rng(31)
        for _ in range(10):
            cyl = BoundingCylinder(
                center=rng.uniform(-20, 20, 3) + [0, 0, 25],
                radius=rng.uniform(0.5, 3.0),
                height=rng.uniform(1.0, 6.0),
            )
            wps = mapping_circles(cyl, self.CFG, cyl.center)
            covered = in_some_wedge(
                wall_points(cyl), wps, self.CFG.cam_depression, self.CFG.scan_fov
            )
            assert covered.all()

    def test_invalid_scan_geometry_blocked_by_config(self):
        with pytest.raises(ValueError):
            PlannerConfig(cam_depression=np.deg2rad(20.0), scan_fov=np.deg2rad(40.0))

    def test_nadir_camera_accepted(self):
        # cam_depression's range is closed at pi / 2: straight down
        assert PlannerConfig(cam_depression=np.pi / 2.0).cam_depression == np.pi / 2.0

    def test_level_camera_rejected_by_its_own_check(self):
        # scan_fov's bound would reject it too; the error names cam_depression
        with pytest.raises(ValueError, match="cam_depression must be in"):
            PlannerConfig(cam_depression=0.0)
