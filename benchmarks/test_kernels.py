"""Microbenchmarks of the per-frame kernels, with pytest-benchmark.

    PYTHONPATH=src python -m pytest benchmarks/ -q

This directory is outside the tier-1 `testpaths`; the tier-1 test
`tests/test_microbenchmarks.py` runs each case once with
`--benchmark-disable`. Inputs are sized like the benchmark workloads: five
400-point true targets (survey5) and 4,000-point clouds, about seven live
at once (clutter1), spawned by the survey camera at 30 m. The count kernel
is timed from that spawn camera, where no cloud is culled since every
cloud's hull has its apex at the camera centre, and from the camera moved
3 m along the lane with the first box and two false-positive boxes sized
as the detector draws clutter1's, where some clouds are culled in every
box and are not projected. The batched true-box
case projects survey5's five targets from 1,024 survey poses, two metric
chunks' worth. The frame line is one busy frame's record and trace line:
a detection, a track and an event, with three live targets that did not
change since the last frame. The keyframe case is tick's update of one
cloud seen again from the camera moved 3 m along the lane (update_points,
set_points, kl_divergence and differential_entropy), at survey5's 1,000
and clutter1's 4,000 points. The flight
block is one block of survey5's lawnmower (kinematics, camera poses and
cull), from its fifth waypoint along a lane that sees one target in over
half its views; the idle scoring case scores that block's 256 frames as
the run does a frame with no detection, track or event, with the block's
rows of true boxes and scored targets. The assignment case solves one matrix of each of
survey5's shapes: 1x2 to 1x5, 2x1 and 2x2. The tracker's busy frames are
a fixed 32-frame sequence with survey5's mix of (detections, tracks) per
frame: mostly (1, 1) and (0, 1), then (1, 2), (1, 0) and (0, 2). The
trace replay reads and checks every record of the nominal scenario's
trace, 1,860 frame lines, 88 % of which repeat the line before's targets
block; the record check alone checks those records, decoded beforehand.
The filter replay pair steps a new PointsFilter, and then the plain
reference filter of tests/plain_filter.py, through the recorded filter calls
of clutter1's first 300 frames (seed 7, 4,000-point clouds), each tick with
the generator state it had in the run: the pair's ratio is the combined
worth of every special case in the fast filter.
"""

import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from targetsim import harness, points_filter, trace
from targetsim.detector import FP_BOX_MIN_PX, Detection, ellipsoid_target, visible_boxes
from targetsim.geometry import CameraIntrinsics, project_points
from targetsim.mission import MissionMode
from targetsim.points_filter import (
    Event,
    FilterConfig,
    PointsFilter,
    PointTarget,
    TargetState,
    differential_entropy,
    generate_points,
    kl_divergence,
    projection_count_costs,
    update_points,
    viewing_pyramid,
)
from targetsim.scenario import scenario_from_dict
from targetsim.tracker import BoxTracker, TrackedBox, TrackerConfig, hungarian_assign
from targetsim.uav import UavState, camera_pose
from targetsim.view_planner import lawnmower

from tests import missions
from tests.plain_filter import PlainFilter

K = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
DEPRESSION = np.deg2rad(60.0)
WORLD_FROM_CAM = camera_pose(0.0, [0.0, 0.0, 30.0], DEPRESSION)
CAM_FROM_WORLD = WORLD_FROM_CAM.inverse()
VIEW = (CAM_FROM_WORLD.rotation, CAM_FROM_WORLD.translation)
MOVED = camera_pose(0.0, [3.0, 0.0, 30.0], DEPRESSION).inverse()  # 3 m along the lane
MOVED_VIEW = (MOVED.rotation, MOVED.translation)
CFG = FilterConfig(m=4000, max_depth=50.0)
BOXES = [
    (280.0, 200.0, 360.0, 280.0),
    (100.0, 100.0, 160.0, 160.0),
    (480.0, 300.0, 540.0, 360.0),
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
    targets = missions.scenario("survey5 seed 12").targets
    rng = np.random.default_rng(2)
    n = 1024
    positions = np.column_stack([rng.uniform(0.0, 200.0, (n, 2)), np.full(n, 30.0)])
    cams = camera_pose(np.pi * rng.integers(0, 2, n), positions, DEPRESSION).inverse()
    return targets, cams


@pytest.fixture(scope="module")
def clouds():
    """Seven clouds as tick spawns them, each with its viewing pyramid as its hull."""
    rng = np.random.default_rng(0)
    spawn = (WORLD_FROM_CAM.rotation, WORLD_FROM_CAM.translation)
    return [
        PointTarget(
            target_id=i + 1,
            points=generate_points(BOXES[i % len(BOXES)], *spawn, K, CFG, rng),
            state=TargetState.TRACKING,
            last_keyframe=spawn,
            hull=viewing_pyramid(BOXES[i % len(BOXES)], *spawn, K, CFG.max_depth),
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


def keyframe(target, cfg, rng):
    """tick's keyframe update of one target against the first box."""
    old = target.summary
    target.set_points(update_points(target.points, BOXES[0], *MOVED_VIEW, K, cfg, rng))
    return kl_divergence(target.summary, old), differential_entropy(target.summary)


@pytest.mark.parametrize("m", [1000, 4000])  # survey5's and clutter1's clouds
def test_keyframe_update(benchmark, m):
    cfg = FilterConfig(m=m, max_depth=50.0)
    rng = np.random.default_rng(6)
    spawn = (WORLD_FROM_CAM.rotation, WORLD_FROM_CAM.translation)
    points = generate_points(BOXES[0], *spawn, K, cfg, rng)
    target = PointTarget(1, points, TargetState.TRACKING, spawn)
    kld, entropy = benchmark(keyframe, target, cfg, rng)
    assert target.points.shape == (m, 3) and kld >= 0.0 and np.isfinite(entropy)


def test_projection_count_costs(benchmark, clouds):
    costs = benchmark(projection_count_costs, BOXES, clouds, *VIEW, K)
    assert costs.shape == (len(BOXES), len(clouds))


def test_projection_count_costs_moved(benchmark, clouds, monkeypatch):
    # the first box and two false-positive boxes drawn as the detector draws them
    rng = np.random.default_rng(5)
    boxes = [BOXES[0]]
    for _ in range(2):
        w, h = rng.uniform(FP_BOX_MIN_PX, K.width / 3.0), rng.uniform(FP_BOX_MIN_PX, K.height / 3.0)
        u0, v0 = rng.uniform(0.0, K.width - w), rng.uniform(0.0, K.height - h)
        boxes.append((u0, v0, u0 + w, v0 + h))
    projected, pixel_rows = [], points_filter.pixel_rows
    with monkeypatch.context() as spy:
        spy.setattr(points_filter, "pixel_rows", lambda *a: projected.append(1) or pixel_rows(*a))
        projection_count_costs(boxes, clouds, *MOVED_VIEW, K)
    assert 0 < len(projected) < len(clouds)  # some clouds are culled in every box
    costs = benchmark(projection_count_costs, boxes, clouds, *MOVED_VIEW, K)
    assert costs.shape == (len(boxes), len(clouds)) and costs.any()


@pytest.fixture(scope="module")
def clutter1_calls():
    """clutter1's scenario (seed 7) cut to 30 s, and the filter calls of its
    run as missions.recorded() records them."""
    scenario = scenario_from_dict({**missions.clutter1(7), "max_sim_time": 30.0})
    with missions.recorded() as recording:
        harness.run(scenario)
    return scenario, recording.calls


@pytest.mark.parametrize("form", [PointsFilter, PlainFilter], ids=["fast", "plain"])
def test_filter_replay(benchmark, clutter1_calls, form):
    # the replay checks each call's events and updated ids against the run's
    scenario, calls = clutter1_calls
    benchmark(missions.replay, form, scenario, calls)
    spawned = [e for name, *_, returned in calls if name == "tick"
               for e in returned[0] if e["type"] == "spawned"]
    assert len(calls) == 300 and len(spawned) > 20


def test_hungarian_assign(benchmark):
    # point counts, a third of them 0, in survey5's shapes
    rng = np.random.default_rng(4)
    shapes = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2)]
    costs = [rng.integers(1, 400, s) * (rng.random(s) < 0.67) for s in shapes]

    def assign_all():
        return [hungarian_assign(cost, maximize=True) for cost in costs]

    results = benchmark(assign_all)
    assert [len(pairs) for pairs, _, _ in results] == [1, 1, 1, 1, 1, 2]


def tracker_frames() -> list[list[Detection]]:
    """A true box A drifting 1 px a frame under 0.5 px noise, detected in 19
    of 32 frames, and one false box B that spawns a track which then dies."""
    rng = np.random.default_rng(3)
    a_seen = "A" + "A_AA_A_AA_A_A_A_" + "B" + "AA_AA" + "AAA" + "_____" + "A"
    frames = []
    for i, seen in enumerate(a_seen):
        noise = rng.normal(0.0, 0.5, 4).tolist()
        a = tuple(x + n for x, n in zip((300.0 + i, 220.0, 334.0 + i, 254.0), noise))
        b = (500.0, 60.0, 560.0, 100.0)
        frames.append({"A": [Detection(a, 1.0)], "B": [Detection(b, 0.7)], "_": []}[seen])
    return frames


def busy_frames(frames) -> list[tuple[int, int]]:
    """Step a new tracker with survey5's settings through frames; returns
    each frame's (detections, tracks before the step)."""
    tracker = BoxTracker(TrackerConfig(min_hits=3, max_misses=5, iou_min=0.3))
    kinds = []
    for detections in frames:
        kinds.append((len(detections), len(tracker._tracks)))
        tracker.step(detections)
    return kinds


def test_tracker_busy_frames(benchmark):
    kinds = benchmark(busy_frames, tracker_frames())
    mix = {kind: kinds.count(kind) for kind in set(kinds)}
    assert mix == {(1, 1): 13, (0, 1): 12, (1, 2): 4, (1, 0): 2, (0, 2): 1}


def frame_line(entries, flt, uav, mission):
    """The run loop's per-frame record and trace line on a frame with an
    event, on which the loop updates the entries."""
    live = entries.update(flt)
    record = trace._make_record(
        0.1, 1, uav, uav.position, [Detection(BOXES[0], 1.0)], [TrackedBox(1, BOXES[0])],
        live, mission, [Event("spawned", 4, bbox=BOXES[1])],
    )
    return trace._frame_line(record, entries.text())


def test_frame_line(benchmark, clouds):
    entries = trace._TargetEntries()
    uav = UavState.at_rest([10.0, 20.0, 30.0])
    flt = SimpleNamespace(targets=clouds[:3])  # a filter whose targets do not change
    args = (flt, uav, SimpleNamespace(mode=MissionMode.SEARCH))
    frame_line(entries, *args)  # the targets' entries are built before the timed frames
    record = json.loads(benchmark(frame_line, entries, *args))["record"]
    assert [e["n_points"] for e in record["targets"]] == [4000] * 3
    assert [len(record[key]) for key in ("detections", "tracks", "events")] == [1, 1, 1]


def survey5_block():
    """survey5, its lawnmower plan and the start of the flight block from its fifth waypoint."""
    scenario = missions.scenario("survey5 seed 12")
    p = scenario.planner
    plan = lawnmower(p.survey_polygon, p.lane_spacing, p.search_altitude)
    return scenario, plan, UavState.at_rest(plan[4].position, plan[4].yaw)


def test_flight_block(benchmark, monkeypatch):
    scenario, plan, start = survey5_block()
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
    assert all(boxes.shape == (5, 4) and len(scored) == 5 for _, _, boxes, _, scored, _ in block)
    assert sum(visible.sum() for _, _, _, visible, _, _ in block) > harness.FLIGHT_BLOCK // 2


def test_idle_block_scoring(benchmark):
    scenario, plan, start = survey5_block()
    mission = SimpleNamespace(plan=plan, cursor=4)
    rows = []
    frames = harness._true_frames(scenario, mission, start)
    for row in itertools.islice(frames, harness.FLIGHT_BLOCK):
        rows.append(row)
        mission.cursor += row[1]
    search = SimpleNamespace(mode=MissionMode.SEARCH)
    records = [
        trace._make_record(0.1 * f, f, state, state.position, [], [], [], search, [])
        for f, (state, *_) in enumerate(rows, 1)
    ]

    def score():
        scores = harness._Scores(scenario)
        for record, (_, _, boxes, _, scored, _) in zip(records, rows):
            scores.add(record, boxes, scored)
        return scores.counts["detection"]

    tp, fp, fn = benchmark(score)
    assert len(records) == harness.FLIGHT_BLOCK
    assert tp == fp == 0 and fn == sum(sum(row[4]) for row in rows) > 0


@pytest.fixture(scope="module")
def nominal_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("nominal")
    return harness.run(missions.scenario("nominal"), out_dir=out).trace_path


def test_read_trace(benchmark, nominal_trace):
    def replay():
        _, records = trace.read_trace(nominal_trace)
        return sum(1 for _ in records)

    assert benchmark(replay) == 1860


def test_check_record(benchmark, nominal_trace):
    lines = nominal_trace.read_text().splitlines()[1:-1]
    records = [json.loads(line)["record"] for line in lines]
    def check():
        states = {}  # each target's state, from the trace's first frame
        return [trace._check_record(record, states) for record in records]

    checked = benchmark(check)
    assert len(checked) == 1860 and sum(bool(r["detections"]) for r in checked) > 100
