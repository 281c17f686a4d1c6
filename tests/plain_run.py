"""The closed loop written plainly: the reference that the tests run beside
targetsim.harness.run and compute_metrics.

plain_run flies one frame at a time: fly and waypoint_reached, then
_true_views of that one view, then step, detect, BoxTracker.step,
PointsFilter.tick and the mission's handlers. It builds every live target's
entry again on each frame, writes each line with _json_line and scores each
record with _Scores.add on the frame's own view. It has no flight blocks, no
block scoring, no kept entries and no field-by-field writer. plain_replay
reads each line with json.loads, checks each record with _check_record and
projects its true targets with one _true_views call per record. Where the
harness's special cases are exact, the two give run's trace, clouds and
table byte for byte. `python3 tests/plain_run.py ROW...` compares them with
run and compute_metrics on rows of tests/missions.PINS.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # the package and tests/ of this checkout
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from targetsim.detector import detect  # noqa: E402
from targetsim.harness import _Scores, _true_views, compute_metrics, run  # noqa: E402
from targetsim.mission import MissionExecutive  # noqa: E402
from targetsim.points_filter import PointsFilter  # noqa: E402
from targetsim.scenario import scenario_from_dict, scenario_to_dict  # noqa: E402
from targetsim.trace import (  # noqa: E402
    _check_record,
    _json_line,
    _make_record,
    read_trace,
    write_cloud,
)
from targetsim.tracker import BoxTracker  # noqa: E402
from targetsim.uav import UavState, fly, step, waypoint_reached  # noqa: E402

from tests import missions  # noqa: E402


def entries(flt: PointsFilter) -> list[dict]:
    """Every live target's trace entry, built afresh."""
    return [{
        "id": tgt.target_id,
        "state": tgt.state.value,
        "mean": tgt.summary.mean.tolist(),
        "cov": tgt.summary.covariance.tolist(),
        "entropy": tgt.last_entropy,
        "kld": tgt.last_kld,
        "n_points": len(tgt.points),
    } for tgt in flt.targets]


def plain_run(s, out_dir: Path) -> list:
    """run(s, out_dir) one frame at a time: its trace and clouds in out_dir.
    Returns each frame's view as _Scores.add gets it: (true boxes, scored row)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(s.seed)
    flt, tracker = PointsFilter(s.camera, s.filter), BoxTracker(s.tracker)
    mission = MissionExecutive(
        s.planner, s.mission, flt, list(s.targets),
        lambda target_id, dense: write_cloud(out_dir / f"cloud_{target_id}.xyz", dense),
    )
    start = mission.search_waypoints[0]
    if s.uav.start_position is not None:
        uav = UavState.at_rest(s.uav.start_position)
    else:
        uav = UavState.at_rest(start.position, start.yaw)
    est, dt, all_true_ids = uav.position, 1.0 / s.frame_rate, {t.id for t in s.targets}
    scores, views, completed = _Scores(s), [], False
    with open(out_dir / "trace.jsonl", "w") as fh:
        fh.write(_json_line({"type": "scenario", "scenario": scenario_to_dict(s)}) + "\n")
        for frame in range(1, s.max_frames + 1):
            events, reached = [], False
            if mission.cursor < len(mission.plan):  # a loiter frame keeps its state and estimate
                waypoint = mission.plan[mission.cursor]
                uav = fly(uav, waypoint, s.uav)
                reached = waypoint_reached(uav, waypoint)
                est = step(uav.position, s.uav, rng)
            if reached:
                events += mission.on_waypoint_reached(est)
            cameras, boxes, visible, scored = _true_views(s, [uav.yaw], [uav.position])
            detections = detect(boxes[0], visible[0], s.camera, s.detector, rng)
            tracks = tracker.step(detections)
            filter_events, updated = flt.tick(tracks, cameras.rotation[0], est, rng)
            events += filter_events
            events += mission.on_perception(filter_events, updated, est)
            record = _make_record(frame * dt, frame, uav, est, detections, tracks, entries(flt),
                                  mission, events)
            scores.add(record, boxes[0], scored[0])
            views.append((boxes[0], scored[0]))
            fh.write(_json_line({"type": "frame", "record": record}) + "\n")
            if (all_true_ids and mission.mapped_true_ids >= all_true_ids) or mission.idle():
                completed = mission.mapped_true_ids >= all_true_ids
                break
        fh.write(_json_line({
            "type": "summary", "completed": completed, "frames": frame, "sim_time": frame * dt,
            "mapped_true_ids": sorted(mission.mapped_true_ids), "metrics": scores.table(),
        }) + "\n")
    return views


def plain_replay(trace: Path) -> dict:
    """compute_metrics(*read_trace(trace)), one line and one view at a time."""
    with open(trace) as fh:
        s = scenario_from_dict(json.loads(fh.readline())["scenario"])
        scores, states = _Scores(s), {}  # states: each target's state in LIFECYCLE
        for line in fh:
            obj = json.loads(line)
            if obj["type"] == "frame":
                record = _check_record(obj["record"], states)
                true = record["uav"]["true"]
                _, boxes, _, scored = _true_views(s, [true["yaw"]], [true["position"]])
                scores.add(record, boxes[0], scored[0])
    return scores.table()


def outputs(out_dir: Path) -> dict:
    """The files that a run wrote to out_dir, by name."""
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


def compare(name: str) -> None:
    """Print whether run and plain_run write PINS row name's same files, and
    run, compute_metrics and plain_replay give it the same table."""
    with tempfile.TemporaryDirectory() as tmp:
        s, fast, plain = missions.scenario(name), Path(tmp) / "run", Path(tmp) / "plain"
        table, frames = run(s, fast).metrics, len(plain_run(s, plain))
        replayed, records = read_trace(fast / "trace.jsonl")
        tables = table == compute_metrics(records, replayed) == plain_replay(plain / "trace.jsonl")
        print(f"{name}: {frames} frames, files equal {outputs(fast) == outputs(plain)}, "
              f"tables equal {tables}", flush=True)


if __name__ == "__main__":
    for row in sys.argv[1:]:
        compare(row)
