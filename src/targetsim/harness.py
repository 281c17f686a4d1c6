"""The simulation loop and its stage metrics: a metrics-only run scores each
frame as it is made, and a traced run's forked writer process writes the trace
and scores its records with compute_metrics, the replay's own fold."""

from __future__ import annotations

import contextlib
import itertools
import logging
import os
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import detect, visible_boxes
from .detector import visible_bbox  # noqa: F401  only perfbench/tracer.py reaches it
from .geometry import norm
from .mission import MissionExecutive, MissionMode
from .points_filter import PointsFilter, on_image_edge
from .scenario import Scenario
from .trace import STAGE_OF, STAGES, _make_record, _TargetEntries, _write_trace, write_cloud
from .trace import _json_line  # noqa: F401  only perfbench/tracer.py reaches it
from .tracker import BoxTracker, hungarian_assign, iou, iou_matrix
from .uav import UavState, camera_pose, fly, step, waypoint_reached

log = logging.getLogger("targetsim")
DETECTION_IOU_MIN = 0.5
_MAPPING = MissionMode.MAPPING  # bound once: every record compares it


def _true_views(scenario: Scenario, yaws, positions):
    """The true cameras at yaws (F,) and positions (F, 3): their
    world-from-camera Pose stack, every true target's box and visibility in
    each view, as visible_boxes returns them, and the targets each view
    scores (visible, off the image edge) as rows of bools. Two checked Poses."""
    world_from_cam = camera_pose(yaws, positions, scenario.planner.cam_depression)
    views = world_from_cam.inverse()
    k = scenario.camera
    boxes, visible = visible_boxes(scenario.targets, views.rotation, views.translation, k)
    scored = visible & ~on_image_edge(boxes, k, scenario.filter.edge_margin_px)
    return world_from_cam, boxes, visible, scored.tolist()


def _true_boxes_by_id(scenario: Scenario, boxes, scored) -> dict:
    """One view's scored true boxes by target id, from its rows of _true_views."""
    return {t.id: box for t, box, seen in zip(scenario.targets, boxes, scored) if seen}


def _true_boxes_for_frames(records, scenario: Scenario):
    """The boxes and scored rows of _true_views for each record's true camera pose."""
    yaws = np.array([r["uav"]["true"]["yaw"] for r in records], dtype=float)
    positions = np.array([r["uav"]["true"]["position"] for r in records], dtype=float)
    _, boxes, _, scored = _true_views(scenario, yaws, positions.reshape(-1, 3))
    return boxes, scored


# only perfbench/tracer.py reaches this: it stays while the tracer wraps it
def _true_boxes_for_frame(record, scenario: Scenario) -> dict:
    """_true_boxes_by_id of one record's view from its true camera pose."""
    boxes, scored = _true_boxes_for_frames([record], scenario)
    return _true_boxes_by_id(scenario, boxes[0], scored[0])


def _match_event_target(record, target_id: int, scenario: Scenario) -> str | None:
    """True-target id whose center is nearest the filter target's mean."""
    means = [entry["mean"] for entry in record["targets"] if entry["id"] == target_id]
    if not means:  # the record's events end the target; read_trace checks that a live one has one
        return None
    best, best_d = None, float("inf")
    for true_target in scenario.targets:
        d = norm(np.asarray(means[0]) - true_target.center)
        if d < best_d:
            best, best_d = true_target.id, d
    return best if best_d <= scenario.match_dist else None


class _Scores:
    """Per-stage precision/recall against scenario ground truth, folded one
    record at a time. Detection is counted per frame outside the mapping
    mode; the other stages per lifecycle event over the whole run, credited
    to a true target when the estimate is within match_dist (a spawn: when
    its box overlaps the target's by IoU > 0.5)."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.counts = {stage: [0, 0, 0] for stage in STAGES}  # tp, fp, fn
        self.credited = {stage: set() for stage in STAGES[1:]}

    def add(self, record: dict, boxes, scored) -> None:
        """Score a record against its view's boxes and scored rows of _true_views."""
        s, counts = self.scenario, self.counts
        if record["mode"] != _MAPPING:
            k, margin = s.camera, s.filter.edge_margin_px
            dets = [b for d in record["detections"] if not on_image_edge(b := d["bbox"], k, margin)]
            expected, tp = sum(scored), 0
            if dets and expected:
                m = iou_matrix(dets, [box for box, seen in zip(boxes.tolist(), scored) if seen])
                pairs, _, _ = hungarian_assign(m, maximize=True)
                tp = sum(1 for di, ei in pairs if m[di, ei] > DETECTION_IOU_MIN)
            counts["detection"][0] += tp
            counts["detection"][1] += len(dets) - tp
            counts["detection"][2] += expected - tp

        for ev in record["events"]:
            if (stage := STAGE_OF.get(ev["type"])) is None:
                continue
            if stage == "generation":
                true_boxes = _true_boxes_by_id(s, boxes, scored)
                scores = {tid: iou(ev["bbox"], tb) for tid, tb in true_boxes.items()}
                match = max(scores, key=scores.get, default=None)
                if match is not None and scores[match] <= DETECTION_IOU_MIN:
                    match = None
            else:
                match = _match_event_target(record, ev["target"], s)
            if match is None:
                counts[stage][1] += 1
            else:
                counts[stage][0] += 1
                self.credited[stage].add(match)

    def table(self) -> dict:
        """{stage: {"tp", "fp", "fn", "precision", "recall"}}; a ratio of 0 / 0 is None."""
        for stage, ids in self.credited.items():
            self.counts[stage][2] = len(self.scenario.targets) - len(ids)
        return {
            stage: {
                "tp": tp, "fp": fp, "fn": fn,
                "precision": tp / (tp + fp) if tp + fp else None,
                "recall": tp / (tp + fn) if tp + fn else None,
            }
            for stage, (tp, fp, fn) in self.counts.items()
        }


# compute_metrics projects the true targets of this many records at a time
METRICS_CHUNK = 512


def compute_metrics(records, scenario: Scenario) -> dict:
    """The _Scores table of an iterable of records, each scored against its
    true boxes as projected from its true pose (replay). It takes
    METRICS_CHUNK records at a time, so a stream is held one chunk at a time."""
    scores = _Scores(scenario)
    records = iter(records)
    while chunk := list(itertools.islice(records, METRICS_CHUNK)):
        for record, view in zip(chunk, zip(*_true_boxes_for_frames(chunk, scenario))):
            scores.add(record, *view)
    return scores.table()


class _TraceWriter:
    """A forked process that writes a traced run's trace and scores it
    (trace._write_trace with compute_metrics), sent BATCH records at a time;
    it replies with its table, or with the exception that ended it."""

    BATCH = 256

    def __init__(self, path: Path, scenario: Scenario):
        trace = open(path, "w")  # an unwritable trace fails before the fork
        sys.stdout.flush(), sys.stderr.flush()
        (down, down_w), (up_r, up) = os.pipe(), os.pipe()
        self.pid, self.batch = os.fork(), []
        if self.pid == 0:  # the child, which ends after its reply
            try:
                os.close(down_w), os.close(up_r)
                try:
                    with trace, open(down, "rb") as pipe:
                        reply = _write_trace(trace, scenario, lambda: pickle.load(pipe), compute_metrics)
                except BaseException as exc:
                    reply = exc
                with open(up, "wb") as pipe:
                    pickle.dump(reply, pipe)
            finally:
                os._exit(0)
        os.close(down), os.close(up), trace.close()
        self.pipe, self.replies = open(down_w, "wb"), open(up_r, "rb")

    def send(self, summary: dict | None = None) -> None:
        """Pickle the batch and summary down the pipe; start a new batch."""
        pickle.dump((self.batch, summary), self.pipe, pickle.HIGHEST_PROTOCOL)
        self.pipe.flush()
        self.batch = []

    def close(self, summary: dict | None) -> dict | None:
        """Send the batch and summary and reap the child: its table, or None with
        no summary (a failed run). Raises the child's error, OSError if it died."""
        try:
            with contextlib.suppress(BrokenPipeError), self.pipe:  # the child's reply says why
                self.send(summary)
            reply = pickle.load(self.replies) if self.replies.peek(1) else OSError("the trace writer died")
        finally:
            self.replies.close()
            os.waitpid(self.pid, 0)
        if summary is None and isinstance(reply, EOFError):
            return None
        if isinstance(reply, BaseException):
            raise reply
        return reply


@dataclass
class RunResult:
    """A run's outcome. A run given out_dir keeps no records (None): its
    trace holds them, and read_trace(trace_path) yields them exactly."""

    completed: bool
    frames: int
    sim_time: float
    metrics: dict
    records: list | None
    mapped_true_ids: set
    trace_path: Path | None = None


# frames of the true flight flown, imaged and culled at a time
FLIGHT_BLOCK = 256


def _true_frames(scenario: Scenario, mission, state: UavState):
    """Yield each frame of the vehicle's true flight from state: (true state,
    whether it reached its waypoint, the view's rows of _true_views: the
    true targets' boxes, visibility and scored targets, and the
    world-from-camera rotation). The vehicle follows mission.plan from
    mission.cursor whatever perception does, and the true flight draws
    nothing, so the frames are flown ahead in blocks: each frame steps
    toward plan[cursor] with fly and moves the cursor on as waypoint_reached
    says, a frame with no waypoint left keeps the state (loiter), and the
    block ends after the frame that reaches the plan's last waypoint. A
    block makes one _true_views call. A new block is flown from the last
    frame's state when the mission's plan (by identity) or cursor (by value)
    is no longer the block's."""
    while True:
        plan, cursor = mission.plan, mission.cursor
        states, cursors = [], [cursor]  # cursors[j + 1]: the cursor after frame j
        for _ in range(FLIGHT_BLOCK):
            flying = cursor < len(plan)
            if flying:
                state = fly(state, plan[cursor], scenario.uav)
                if waypoint_reached(state, plan[cursor]):
                    cursor += 1
            states.append(state)
            cursors.append(cursor)
            if flying and cursor == len(plan):
                break  # the mission decides what follows its plan
        cameras, boxes, visible, scored = _true_views(
            scenario, [st.yaw for st in states], [st.position for st in states]
        )
        for j, state in enumerate(states):  # state: the last frame's, the next block's start
            yield (state, cursors[j + 1] > cursors[j], boxes[j], visible[j], scored[j],
                   cameras.rotation[j])
            if mission.plan is not plan or mission.cursor != cursors[j + 1]:
                break


def run(scenario: Scenario, out_dir=None) -> RunResult:
    """Run the full perception + motion loop for one scenario. The trace and
    the mapped clouds are written to out_dir when one is given."""
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    def write_mapped_cloud(target_id: int, dense: np.ndarray) -> None:
        write_cloud(out_path / f"cloud_{target_id}.xyz", dense)

    rng = np.random.default_rng(scenario.seed)
    k = scenario.camera
    flt = PointsFilter(k, scenario.filter)
    tracker = BoxTracker(scenario.tracker)
    mission = MissionExecutive(
        scenario.planner, scenario.mission, flt, list(scenario.targets),
        None if out_path is None else write_mapped_cloud,
    )

    if scenario.uav.start_position is not None:
        uav = UavState.at_rest(scenario.uav.start_position)
    else:  # lawnmower gives every valid planner config a waypoint
        first = mission.search_waypoints[0]
        uav = UavState.at_rest(first.position, first.yaw)
    est = uav.position

    dt = 1.0 / scenario.frame_rate
    all_true_ids = {t.id for t in scenario.targets}
    target_entries, targets = _TargetEntries(), []
    scores = _Scores(scenario)
    records = [] if out_path is None else None  # a traced run sends each record and drops it
    completed = False
    frame = 0

    log.info(
        "run %s: %d targets, seed %d, %d search waypoints",
        scenario.name, len(scenario.targets), scenario.seed, len(mission.search_waypoints),
    )

    trace_path = None if out_path is None else out_path / "trace.jsonl"
    writer = None if trace_path is None else _TraceWriter(trace_path, scenario)
    summary = None  # the result less its metrics, records and trace path, once the run ends
    try:
        frames = zip(range(1, scenario.max_frames + 1), _true_frames(scenario, mission, uav))
        for frame, (uav, reached, true_boxes, visible, scored, rotation) in frames:
            t = frame * dt
            events: list = []
            if mission.cursor < len(mission.plan):  # a loiter frame draws nothing
                est = step(uav.position, scenario.uav, rng)
            if reached:
                events += mission.on_waypoint_reached(est)
            detections = detect(true_boxes, visible, k, scenario.detector, rng)
            boxes = tracker.step(detections)
            # the estimated camera: the true camera's rotation at the estimated position
            filter_events, updated = flt.tick(boxes, rotation, est, rng)
            events += filter_events
            events += mission.on_perception(filter_events, updated, est)

            for ev in events:
                log.debug("t=%.1f %s", t, ev)

            if events or updated:  # every change to a target or to the live set is one
                targets = target_entries.update(flt)
            record = _make_record(t, frame, uav, est, detections, boxes, targets, mission, events)
            if writer is None:
                scores.add(record, true_boxes, scored)
                records.append(record)
            else:
                writer.batch.append(record)
                if len(writer.batch) == writer.BATCH:
                    writer.send()

            if (all_true_ids and mission.mapped_true_ids >= all_true_ids) or mission.idle():
                completed = mission.mapped_true_ids >= all_true_ids
                break
        sim_time = frame * dt
        if not completed:
            log.warning(
                "run %s incomplete after %.1fs: mapped %s",
                scenario.name, sim_time, sorted(mission.mapped_true_ids),
            )
        summary = {
            "completed": completed,
            "frames": frame,
            "sim_time": sim_time,
            "mapped_true_ids": sorted(mission.mapped_true_ids),
        }
    finally:  # a failed run sends no summary: its trace keeps the frames made
        metrics = scores.table() if writer is None else writer.close(summary)
    mapped = {"mapped_true_ids": set(mission.mapped_true_ids)}
    return RunResult(**{**summary, **mapped}, metrics=metrics, records=records, trace_path=trace_path)
