"""Motion state machine: transitions, priorities, queueing, cloud synthesis."""

import numpy as np
import pytest

from targetsim.bounding_cylinder import BoundingCylinder
from targetsim.detector import ellipsoid_target
from targetsim.geometry import CameraIntrinsics
from targetsim.mission import (
    MissionConfig,
    MissionExecutive,
    MissionMode,
    UnknownTarget,
    min_distance_downsample,
    synthesize_mapped_cloud,
)
from targetsim.points_filter import (
    Event,
    FilterConfig,
    PointsFilter,
    PointTarget,
    TargetState,
)
from targetsim.view_planner import PlannerConfig, mapping_circles

from tests.test_geometry import IDENTITY, rt

K = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
PLANNER = PlannerConfig(
    survey_polygon=((0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)),
    lane_spacing=50.0,
    search_altitude=30.0,
)
UAV_POS = np.array([10.0, 0.0, 30.0])


def make_mission(world=None, mission_cfg=None, flt=None):
    flt = flt or PointsFilter(K, FilterConfig(max_depth=50.0))
    clouds = {}
    mission = MissionExecutive(
        PLANNER,
        mission_cfg or MissionConfig(),
        flt,
        world if world is not None else [],
        cloud_sink=lambda tid, cloud: clouds.__setitem__(tid, cloud),
    )
    return mission, flt, clouds


def inject_target(flt, target_id, center, state, spread=0.2, n=100, seed=0):
    rng = np.random.default_rng(seed)
    points = np.asarray(center) + rng.normal(0.0, spread, size=(n, 3))
    target = PointTarget(
        target_id=target_id,
        points=points,
        state=state,
        last_keyframe=rt(IDENTITY),
    )
    flt.targets.append(target)
    flt._next_id = max(flt._next_id, target_id + 1)
    return target


def spawn_then(flt, mission, target_id, center, *kinds):
    """Register a target in the filter, then deliver lifecycle events."""
    inject_target(flt, target_id, center, TargetState.TRACKING, seed=target_id)
    events = [Event("spawned", target_id)]
    mission.on_perception(events, [], UAV_POS)
    out = []
    for kind in kinds:
        target = flt.get(target_id)
        if kind == "converging":
            target.state = TargetState.CONVERGING
        elif kind == "converged":
            target.state = TargetState.CONVERGED
        out += mission.on_perception([Event(kind, target_id)], [], UAV_POS)
    return out


def current_waypoint(mission):
    """The waypoint being flown to, None once the plan is done."""
    return mission.plan[mission.cursor] if mission.cursor < len(mission.plan) else None


def finish_plan(mission, max_steps=500):
    """Walk the current plan to completion, returning emitted events."""
    events = []
    start_mode = mission.mode
    start_target = mission.active_target
    for _ in range(max_steps):
        wp = current_waypoint(mission)
        if wp is None or mission.mode is not start_mode or mission.active_target != start_target:
            break
        events += mission.on_waypoint_reached(wp.position)
    return events


class TestTransitions:
    def test_starts_in_search_with_lawnmower(self):
        mission, _, _ = make_mission()
        assert mission.mode is MissionMode.SEARCH
        assert current_waypoint(mission) is not None
        assert mission.plan is mission.search_waypoints and mission.cursor == 0
        with pytest.raises(AttributeError):
            mission.plan = []  # read-only: the executive owns its plan and cursor
        with pytest.raises(AttributeError):
            mission.cursor = 1
        assert mission.search_waypoints[0].position[2] == 30.0

    def test_converging_during_search_enters_estimation(self):
        mission, flt, _ = make_mission()
        events = spawn_then(flt, mission, 1, [50.0, 40.0, 1.0], "converging")
        assert mission.mode is MissionMode.ESTIMATION
        assert mission.active_target == 1
        assert any(e.kind == "mode_change" and e.mode == "estimation" for e in events)
        # orbit at the search altitude with radius dz/tan(45) = 29
        wp = current_waypoint(mission)
        assert wp.position[2] == 30.0
        r = np.linalg.norm(wp.position[:2] - np.array([50.0, 40.0]))
        assert r == pytest.approx(29.0, abs=0.5)

    def test_estimation_timeout_deregisters_and_resumes_search(self):
        mission, flt, _ = make_mission()
        spawn_then(flt, mission, 1, [50.0, 40.0, 1.0], "converging")
        cursor_before = mission.search_cursor
        events = finish_plan(mission)
        assert mission.mode is MissionMode.SEARCH
        assert flt.get(1) is None  # failed verification
        assert any(e.kind == "deregistered" for e in events)
        assert any(e.kind == "estimation_failed" for e in events)
        assert mission.search_cursor == cursor_before  # resumes where it left

    def test_converged_during_estimation_starts_mapping(self):
        mission, flt, _ = make_mission()
        events = spawn_then(flt, mission, 1, [50.0, 40.0, 1.0], "converging", "converged")
        assert mission.mode is MissionMode.MAPPING
        assert any(e.kind == "mode_change" and e.mode == "mapping" for e in events)
        wp = current_waypoint(mission)
        r = np.linalg.norm(wp.position[:2] - flt.get(1).summary.mean[:2])
        assert r == pytest.approx(mission._cylinder.radius + PLANNER.standoff, abs=1e-6)

    def test_mapping_completion_marks_mapped_and_resumes(self):
        world = [ellipsoid_target("rock", [50.0, 40.0, 1.0], [1.0, 1.0, 1.0])]
        mission, flt, clouds = make_mission(world=world)
        spawn_then(flt, mission, 1, [50.0, 40.0, 1.0], "converging", "converged")
        events = finish_plan(mission)
        assert mission.mode is MissionMode.SEARCH
        assert flt.get(1).state is TargetState.MAPPED
        assert any(e.kind == "mapped" for e in events)
        assert mission.mapped_true_ids == {"rock"}
        assert 1 in clouds and len(clouds[1]) > 0
        np.testing.assert_array_equal(
            flt.get(1).points, min_distance_downsample(clouds[1], MissionConfig().voxel_size)
        )

    def test_deregistration_during_estimation_resumes_search(self):
        mission, flt, _ = make_mission()
        spawn_then(flt, mission, 1, [50.0, 40.0, 1.0], "converging")
        flt.deregister(1)  # the filter no longer holds the id the event names
        mission.on_perception([Event("deregistered", 1)], [], UAV_POS)
        assert mission.mode is MissionMode.SEARCH
        assert mission.active_target is None

    def test_cloud_above_search_plane_fails_verification(self):
        # the cloud's mean sits above the 30 m search altitude, where no
        # estimation orbit can look down on it
        mission, flt, _ = make_mission()
        events = spawn_then(flt, mission, 1, [50.0, 40.0, 31.0], "converging")
        assert [e.kind for e in events[:2]] == ["deregistered", "estimation_failed"]
        assert flt.get(1) is None
        assert mission.mode is MissionMode.SEARCH
        assert mission.active_target is None

    def test_unknown_target_event_raises(self):
        mission, _, _ = make_mission()
        with pytest.raises(UnknownTarget):
            mission.on_perception([Event("converging", 99)], [], UAV_POS)
        with pytest.raises(UnknownTarget):
            mission.on_perception([Event("converged", 99)], [], UAV_POS)


class TestPrioritiesAndQueue:
    def test_second_converged_queued_and_mapped_before_search(self):
        world = [
            ellipsoid_target("a", [50.0, 40.0, 1.0], [1.0, 1.0, 1.0]),
            ellipsoid_target("b", [20.0, 70.0, 1.0], [1.0, 1.0, 1.0]),
        ]
        mission, flt, _ = make_mission(world=world)
        spawn_then(flt, mission, 1, [50.0, 40.0, 1.0], "converging")
        assert mission.mode is MissionMode.ESTIMATION
        # a second target converges while the first is being estimated
        spawn_then(flt, mission, 2, [20.0, 70.0, 1.0], "converging", "converged")
        assert mission.mode is MissionMode.ESTIMATION  # current keeps priority
        assert mission.converged_queue == [2]
        # now the active target converges: both get mapped before search
        flt.get(1).state = TargetState.CONVERGED
        mission.on_perception([Event("converged", 1)], [], UAV_POS)
        assert mission.mode is MissionMode.MAPPING
        first_mapped = mission.active_target
        finish_plan(mission)
        assert mission.mode is MissionMode.MAPPING  # straight into the next one
        second_mapped = mission.active_target
        assert {first_mapped, second_mapped} == {1, 2}
        finish_plan(mission)
        assert mission.mode is MissionMode.SEARCH
        assert mission.mapped_true_ids == {"a", "b"}

    def test_converging_waits_for_redetection_during_search(self):
        mission, flt, _ = make_mission()
        spawn_then(flt, mission, 1, [50.0, 40.0, 1.0], "converging")
        spawn_then(flt, mission, 2, [20.0, 70.0, 1.0], "converging")
        assert mission.active_target == 1
        assert mission.converging_queue == [2]
        # active target deregisters; waiting target is NOT served yet
        flt.deregister(1)
        mission.on_perception([Event("deregistered", 1)], [], UAV_POS)
        assert mission.mode is MissionMode.SEARCH
        # a tick with target 2 updated (re-detected) pulls it into estimation
        mission.on_perception([], [2], UAV_POS)
        assert mission.mode is MissionMode.ESTIMATION
        assert mission.active_target == 2

    def test_serve_queued_converging_flag(self):
        mission, flt, _ = make_mission(mission_cfg=MissionConfig(serve_queued_converging=True))
        spawn_then(flt, mission, 1, [50.0, 40.0, 1.0], "converging")
        spawn_then(flt, mission, 2, [20.0, 70.0, 1.0], "converging")
        flt.deregister(1)
        mission.on_perception([Event("deregistered", 1)], [], UAV_POS)
        # with the flag, the queued converging target is served immediately
        assert mission.mode is MissionMode.ESTIMATION
        assert mission.active_target == 2

    def test_duplicate_converged_near_mapped_center_dropped(self):
        world = [ellipsoid_target("a", [50.0, 40.0, 1.0], [1.0, 1.0, 1.0])]
        mission, flt, _ = make_mission(world=world)
        spawn_then(flt, mission, 1, [50.0, 40.0, 1.0], "converging", "converged")
        finish_plan(mission)  # maps target 1
        assert mission.mode is MissionMode.SEARCH
        # a second track converges onto the same rock
        events = spawn_then(flt, mission, 2, [50.2, 40.1, 1.0], "converging", "converged")
        assert mission.mode is MissionMode.SEARCH  # no second mapping
        assert flt.get(2) is None  # duplicate deregistered
        assert any(e.kind == "duplicate_dropped" for e in events)

    def test_search_cursor_monotone(self):
        mission, flt, _ = make_mission()
        mission.on_waypoint_reached(UAV_POS)
        cursor = mission.search_cursor
        spawn_then(flt, mission, 1, [50.0, 40.0, 1.0], "converging")
        finish_plan(mission)  # estimation fails, search resumes
        assert mission.search_cursor >= cursor


class TestStaleQueueIds:
    """The queues hold ids. An id goes stale when its target is deregistered
    or its state moves on while the id waits; it is dropped when the queue
    is read."""

    CENTERS = ([50.0, 40.0, 1.0], [20.0, 70.0, 1.0], [80.0, 70.0, 1.0], [80.0, 20.0, 1.0])

    def queue_and_map(self, mission_cfg=None):
        """1 is estimated while 2, 3 and 4 wait; 2 is deregistered and 3
        converges while queued. Returns the mission after 1 failed
        verification and 3 was mapped."""
        world = [ellipsoid_target("c", self.CENTERS[2], [1.0, 1.0, 1.0])]
        mission, flt, _ = make_mission(world=world, mission_cfg=mission_cfg)
        for target_id, center in enumerate(self.CENTERS, 1):
            spawn_then(flt, mission, target_id, center, "converging")
        assert mission.active_target == 1 and mission.converging_queue == [2, 3, 4]
        flt.deregister(2)
        mission.on_perception([Event("deregistered", 2)], [], UAV_POS)
        flt.get(3).state = TargetState.CONVERGED
        mission.on_perception([Event("converged", 3)], [], UAV_POS)
        assert mission.mode is MissionMode.ESTIMATION and mission.active_target == 1
        assert mission.converged_queue == [3]
        finish_plan(mission)  # 1 fails verification; the converged 3 comes first
        assert flt.get(1) is None
        assert mission.mode is MissionMode.MAPPING and mission.active_target == 3
        finish_plan(mission)
        assert flt.get(3).state is TargetState.MAPPED
        return mission, flt

    def test_served_from_the_queue_past_stale_ids(self):
        mission, _ = self.queue_and_map(MissionConfig(serve_queued_converging=True))
        assert mission.mode is MissionMode.ESTIMATION and mission.active_target == 4
        assert mission.converging_queue == []

    def test_served_on_redetection_past_stale_ids(self):
        mission, _ = self.queue_and_map()
        assert mission.mode is MissionMode.SEARCH
        mission.on_perception([], [2, 3], UAV_POS)  # stale ids, re-detected or not
        assert mission.mode is MissionMode.SEARCH and mission.converging_queue == [4]
        mission.on_perception([], [4], UAV_POS)
        assert mission.mode is MissionMode.ESTIMATION and mission.active_target == 4
        assert mission.converging_queue == []

    def test_stale_converged_id_dropped_when_read(self):
        mission, flt, _ = make_mission()
        spawn_then(flt, mission, 1, self.CENTERS[0], "converging")
        spawn_then(flt, mission, 2, self.CENTERS[1], "converging", "converged")
        assert mission.converged_queue == [2]
        flt.deregister(2)  # forced: neither tick nor the mission does this to a queued id
        flt.get(1).state = TargetState.CONVERGED
        mission.on_perception([Event("converged", 1)], [], UAV_POS)
        assert mission.mode is MissionMode.MAPPING and mission.active_target == 1
        assert mission.converged_queue == []

    def test_converged_ids_never_go_stale(self):
        # why idle() may read only whether converged_queue is empty: tick
        # never ages out a converged target, and the mission pops an id
        # before it deregisters that target
        flt = PointsFilter(K, FilterConfig(max_depth=50.0, max_missed_updates=3))
        inject_target(flt, 1, self.CENTERS[0], TargetState.CONVERGED)
        rng = np.random.default_rng(0)
        for _ in range(10):
            events, _ = flt.tick([], *rt(IDENTITY), rng)
            assert events == []
        assert flt.get(1).state is TargetState.CONVERGED

        world = [ellipsoid_target("a", self.CENTERS[0], [1.0, 1.0, 1.0])]
        mission, flt, _ = make_mission(world=world)
        spawn_then(flt, mission, 1, self.CENTERS[0], "converging", "converged")
        finish_plan(mission)  # maps 1
        # 2 converges onto the mapped rock and 3 with a collapsed cloud,
        # each while the vehicle orbits 4: both wait, then are deregistered
        spawn_then(flt, mission, 4, self.CENTERS[3], "converging")
        spawn_then(flt, mission, 2, [50.2, 40.1, 1.0], "converging", "converged")
        inject_target(flt, 3, self.CENTERS[2], TargetState.CONVERGED, spread=0.0)
        mission.on_perception([Event("converged", 3)], [], UAV_POS)
        assert mission.converged_queue == [2, 3]
        events = finish_plan(mission)  # 4 fails verification
        assert [e.kind for e in events if e.target_id in (2, 3)] == [
            "deregistered", "duplicate_dropped", "deregistered", "estimation_failed",
        ]
        assert flt.get(2) is None and flt.get(3) is None
        assert mission.converged_queue == []
        assert mission.mode is MissionMode.SEARCH


class TestMappedCloudSynthesis:
    CYL = BoundingCylinder(center=[0.0, 0.0, 1.0], radius=1.2, height=2.0)

    def synth(self, targets, voxel=0.1):
        cfg = PlannerConfig()
        wps = mapping_circles(self.CYL, cfg)
        return synthesize_mapped_cloud(
            self.CYL, wps, targets, cfg.cam_depression, cfg.scan_fov, 2.0, voxel
        )

    def test_sphere_cloud_lies_on_surface(self):
        target = ellipsoid_target("s", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], n_surface=600)
        dense, down, ids = self.synth([target])
        assert ids == {"s"}
        assert len(dense) > 100
        radii = np.linalg.norm(dense - target.center, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-6)

    def test_bottom_cap_excluded(self):
        target = ellipsoid_target("s", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], n_surface=600)
        dense, _, _ = self.synth([target])
        normals = (dense - target.center) / 1.0
        assert normals[:, 2].min() > -0.9  # downward-facing cap never seen
        # yet a below-equator band is present; from the lowest circle the
        # terminator reaches n_z = -cos(elevation) ~ -0.23
        assert normals[:, 2].min() < -0.12

    def test_out_of_range_target_not_mapped(self):
        far = ellipsoid_target("far", [40.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        dense, down, ids = self.synth([far])
        assert ids == set() and len(dense) == 0 and len(down) == 0

    def test_downsample_min_spacing(self):
        target = ellipsoid_target("s", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], n_surface=2000)
        _, down, _ = self.synth([target], voxel=0.1)
        assert len(down) > 50
        d2 = np.sum((down[:, None, :] - down[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        assert np.sqrt(d2.min()) >= 0.1


class TestMinDistanceDownsample:
    def test_pairwise_spacing_violations_removed(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(500, 3))
        out = min_distance_downsample(pts, 0.2)
        d2 = np.sum((out[:, None, :] - out[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        assert np.sqrt(d2.min()) >= 0.2

    def test_keeps_first_point_of_each_cluster(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [1.0, 0.0, 0.0]])
        out = min_distance_downsample(pts, 0.1)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_empty_input(self):
        assert min_distance_downsample(np.empty((0, 3)), 0.1).shape == (0, 3)
