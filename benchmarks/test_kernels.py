"""Microbenchmarks of the per-frame kernels, with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/ -q

This directory is outside the tier-1 `testpaths`; the tier-1 test
`tests/test_microbenchmarks.py` runs each case once with
`--benchmark-disable`. Inputs are sized like the benchmark workloads: five
400-point true targets (survey5) and 4,000-point clouds, about seven live
at once (clutter1), seen by the survey camera at 30 m. The batched true-box
case projects survey5's five targets from 1,024 survey poses, two metric
chunks' worth. The frame line is one frame's record and trace line with
three live targets that did not change since the last frame. The flight
block is one block of survey5's lawnmower (kinematics, camera poses and
cull), from its fifth waypoint along a lane that sees one target in over
half its views.
"""

import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from targetsim import harness
from targetsim.detector import Detection, ellipsoid_target, visible_boxes
from targetsim.geometry import CameraIntrinsics, project_points
from targetsim.mission import MissionMode
from targetsim.points_filter import (
    FilterConfig,
    PointTarget,
    TargetState,
    generate_points,
    projection_count_costs,
    update_points,
)
from targetsim.tracker import TrackedBox, hungarian_assign
from targetsim.uav import UavState, camera_pose
from targetsim.view_planner import lawnmower

K = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
DEPRESSION = np.deg2rad(60.0)
WORLD_FROM_CAM = camera_pose(0.0, [0.0, 0.0, 30.0], DEPRESSION)
CAM_FROM_WORLD = WORLD_FROM_CAM.inverse()
VIEW = (CAM_FROM_WORLD.rotation, CAM_FROM_WORLD.translation)
CFG = FilterConfig(m=4000, max_depth=50.0)
BOXES = [
    np.array([280.0, 200.0, 360.0, 280.0]),
    np.array([100.0, 100.0, 160.0, 160.0]),
    np.array([480.0, 300.0, 540.0, 360.0]),
]


@pytest.fixture(scope="module")
def targets():
    # five true targets ahead of the camera, all in view
    return [
        ellipsoid_target(f"t{i}", [17.0 + 3.0 * i, -6.0 + 3.0 * i, 1.0], [1.0, 1.0, 1.0])
        for i in range(5)
    ]


@pytest.fixture(scope="module")
def survey5():
    """survey5's five true targets and 1,024 cam-from-world poses flown over
    its 200 m square at the search altitude, each along a lane (yaw 0 or pi)."""
    targets = [
        ellipsoid_target("rock_a", [45.0, 32.0, 1.0], [1.0, 1.0, 1.0]),
        ellipsoid_target("rock_b", [150.0, 55.0, 1.2], [1.2, 1.0, 1.2]),
        ellipsoid_target("rock_c", [80.0, 105.0, 0.9], [0.9, 1.1, 0.9]),
        ellipsoid_target("rock_d", [170.0, 148.0, 1.0], [1.0, 0.9, 1.0]),
        ellipsoid_target("rock_e", [60.0, 178.0, 1.1], [1.1, 1.1, 1.1]),
    ]
    rng = np.random.default_rng(2)
    n = 1024
    positions = np.column_stack([rng.uniform(0.0, 200.0, (n, 2)), np.full(n, 30.0)])
    cams = camera_pose(np.pi * rng.integers(0, 2, n), positions, DEPRESSION).inverse()
    return targets, cams


@pytest.fixture(scope="module")
def clouds():
    rng = np.random.default_rng(0)
    return [
        PointTarget(
            target_id=i + 1,
            points=generate_points(
                BOXES[i % len(BOXES)], WORLD_FROM_CAM.rotation, WORLD_FROM_CAM.translation,
                K, CFG, rng,
            ),
            state=TargetState.TRACKING,
            last_keyframe=(WORLD_FROM_CAM.rotation, WORLD_FROM_CAM.translation),
        )
        for i in range(7)
    ]


def test_project_points(benchmark, clouds):
    uv, depths = benchmark(project_points, clouds[0].points, *VIEW, K)
    assert uv.shape == (4000, 2) and depths.shape == (4000,)


def test_visible_boxes_one_view(benchmark, targets):
    rotation, translation = VIEW
    boxes, visible = benchmark(visible_boxes, targets, rotation[None], translation[None], K)
    assert boxes.shape == (1, 5, 4) and visible.all()


def test_visible_boxes_batched(benchmark, survey5):
    targets, cams = survey5
    boxes, visible = benchmark(visible_boxes, targets, cams.rotation, cams.translation, K)
    assert boxes.shape == (1024, 5, 4) and 0 < visible.sum() < visible.size


def test_update_points(benchmark, clouds):
    rng = np.random.default_rng(1)
    new_points = benchmark(update_points, clouds[0].points, BOXES[0], *VIEW, K, CFG, rng)
    assert new_points.shape == clouds[0].points.shape


def test_projection_count_costs(benchmark, clouds):
    costs = benchmark(projection_count_costs, BOXES, clouds, *VIEW, K)
    assert costs.shape == (len(BOXES), len(clouds))


def test_hungarian_assign(benchmark, clouds):
    costs = projection_count_costs(BOXES, clouds, *VIEW, K)
    benchmark(hungarian_assign, costs, maximize=True)


def frame_line(entries, targets, uav, mission):
    """The run loop's per-frame record and trace line."""
    live, texts = entries.update(targets)
    record = harness._make_record(
        0.1, 1, uav, uav.position, [Detection(BOXES[0], 1.0)], [TrackedBox(1, BOXES[0], 5, 0)],
        live, mission, [],
    )
    return harness._frame_line(record, texts)


def test_frame_line(benchmark, clouds):
    entries = harness._TargetEntries()
    uav = UavState.at_rest([10.0, 20.0, 30.0])
    args = (clouds[:3], uav, SimpleNamespace(mode=MissionMode.SEARCH))
    frame_line(entries, *args)  # the targets' entries are built before the timed frames
    line = benchmark(frame_line, entries, *args)
    assert [e["n_points"] for e in json.loads(line)["record"]["targets"]] == [4000] * 3


def test_flight_block(benchmark, monkeypatch):
    scenario = harness.load_scenario(
        Path(__file__).resolve().parents[1] / "scenarios" / "five_targets_noisy.json"
    )
    p = scenario.planner
    plan = lawnmower(p.survey_polygon, p.lane_spacing, p.search_altitude)
    start = UavState.at_rest(plan[4].position, plan[4].yaw)
    mission = SimpleNamespace(plan=plan, cursor=4)
    # a new generator's first frame flies the block
    benchmark(lambda: next(harness._true_frames(scenario, mission, start)))

    views, true_views = [], harness._true_views

    def counted(scenario, yaws, positions):
        views.append(len(yaws))
        return true_views(scenario, yaws, positions)

    monkeypatch.setattr(harness, "_true_views", counted)
    block, frames = [], harness._true_frames(scenario, mission, start)
    for row in itertools.islice(frames, harness.FLIGHT_BLOCK):
        block.append(row)
        mission.cursor += row[1]  # a reach moves the cursor on, as the mission does
    assert views == [harness.FLIGHT_BLOCK]
    assert all(boxes.shape == (5, 4) for _, _, boxes, _, _ in block)
    assert sum(visible.sum() for *_, visible, _ in block) > harness.FLIGHT_BLOCK // 2
