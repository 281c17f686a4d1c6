"""Scenario loading, the simulation loop, metrics, and trace persistence.

A scenario JSON file fully determines a run: same file + seed gives a
byte-identical trace. The trace is JSON-lines (scenario header, one
record per frame, summary footer); mapped clouds are written one ASCII
xyz file per target.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detector import DetectorConfig, Surfaces, detect, ellipsoid_target, visible_bboxes
from .detector import visible_bbox  # noqa: F401  perfbench/tracer.py wraps harness.visible_bbox
from .geometry import CameraIntrinsics, Pose
from .mission import MissionConfig, MissionExecutive, MissionMode
from .points_filter import FilterConfig, PointsFilter, on_image_edge
from .tracker import BoxTracker, TrackerConfig, hungarian_assign, iou
from .uav import UavConfig, UavState, camera_pose, step, waypoint_reached
from .view_planner import PlannerConfig, polygon_contains

log = logging.getLogger("targetsim")

STAGES = ("detection", "generation", "converging", "converged", "mapped")
DETECTION_IOU_MIN = 0.5


class ScenarioInvalid(ValueError):
    """Scenario file failed schema or invariant checks."""


@dataclass(frozen=True)
class Scenario:
    camera: CameraIntrinsics
    detector: DetectorConfig
    tracker: TrackerConfig
    filter: FilterConfig
    planner: PlannerConfig
    uav: UavConfig
    mission: MissionConfig
    targets: tuple
    name: str = "scenario"
    seed: int = 0
    frame_rate: float = 10.0
    max_sim_time: float = 3600.0
    match_dist: float = 2.0
    # the targets' surface points stacked once, for one projection per frame
    surfaces: Surfaces = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.frame_rate <= 0 or self.max_sim_time <= 0 or self.match_dist <= 0:
            raise ValueError("frame_rate, max_sim_time, and match_dist must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "surfaces", Surfaces.of(self.targets))


# The config sections in build order: planner precedes filter, whose
# max_depth defaults from the search altitude.
_SECTIONS = {
    "camera": CameraIntrinsics,
    "planner": PlannerConfig,
    "filter": FilterConfig,
    "detector": DetectorConfig,
    "tracker": TrackerConfig,
    "uav": UavConfig,
    "mission": MissionConfig,
}
# Top-level values, each cast to the type of its default on Scenario.
_SCALARS = {
    f.name: type(f.default)
    for f in dataclasses.fields(Scenario)
    if f.default is not dataclasses.MISSING
}
_TARGET_KEYS = {"id", "center", "semi_axes", "n_surface"}


def _check_json_types(cls, kwargs: dict) -> None:
    """Raise TypeError for a value whose type its field's annotation does not
    allow. An int passes for a float; a bool is not a number. Values are not
    cast, so the header serialises them as written."""
    hints = typing.get_type_hints(cls)
    for name, value in kwargs.items():
        if name not in hints:
            continue  # the dataclass itself reports an unknown field
        expected = typing.get_args(hints[name]) or (hints[name],)  # X | None -> (X, NoneType)
        allowed = expected + (int,) if float in expected else expected
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            names = " or ".join(t.__name__ for t in expected)
            raise TypeError(f"{name} must be {names}, got {type(value).__name__}")


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from its JSON form; any bad value raises ScenarioInvalid."""
    if not isinstance(data, dict):
        raise ScenarioInvalid("scenario must be a JSON object")
    unknown = set(data) - {*_SCALARS, *_SECTIONS, "world"}
    if unknown:
        raise ScenarioInvalid(f"unknown top-level keys {sorted(unknown)}")

    where = "scenario"  # the part being converted, named in the error
    try:
        fields = {}
        for where, cast in _SCALARS.items():
            if where in data:
                fields[where] = cast(data[where])
        for where, cls in _SECTIONS.items():
            kwargs = {**data.get(where, {})}
            if where == "planner" and "survey_polygon" in kwargs:
                polygon = kwargs["survey_polygon"]
                kwargs["survey_polygon"] = tuple(tuple(float(c) for c in v) for v in polygon)
            elif where == "filter":
                kwargs.setdefault("max_depth", fields["planner"].search_altitude + 20.0)
            elif where == "uav" and kwargs.get("start_position") is not None:
                kwargs["start_position"] = tuple(float(c) for c in kwargs["start_position"])
            _check_json_types(cls, kwargs)
            fields[where] = cls(**kwargs)

        where = "world"
        world = data.get("world")
        if not isinstance(world, dict) or set(world) - {"targets"}:
            raise ValueError("expected an object with a 'targets' list")
        targets = []
        for i, entry in enumerate(world.get("targets", [])):
            where = f"world.targets[{i}]"
            if not isinstance(entry, dict) or set(entry) - _TARGET_KEYS:
                raise ValueError(f"expected an object with keys among {sorted(_TARGET_KEYS)}")
            target = ellipsoid_target(
                str(entry["id"]),
                entry["center"],
                entry["semi_axes"],
                int(entry.get("n_surface", 400)),
            )
            if not polygon_contains(fields["planner"].survey_polygon, target.center[:2]):
                raise ValueError("center outside the survey polygon")
            targets.append(target)
        where = "world.targets"
        if len({t.id for t in targets}) != len(targets):
            raise ValueError("duplicate ids")

        where = "scenario"
        return Scenario(targets=tuple(targets), **fields)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioInvalid(f"{where}: {exc}") from exc


def scenario_to_dict(s: Scenario) -> dict:
    return {
        **{name: getattr(s, name) for name in _SCALARS},
        **{name: dataclasses.asdict(getattr(s, name)) for name in _SECTIONS},
        "world": {
            "targets": [
                {
                    "id": t.id,
                    "center": t.center.tolist(),
                    "semi_axes": t.semi_axes.tolist(),
                    "n_surface": int(t.surface_points.shape[0]),
                }
                for t in s.targets
            ]
        },
    }


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _finite_int(text: str) -> int:
    _finite_float(text)  # an integer too large for a float is rejected like 1e999
    return int(text)


def load_scenario(path) -> Scenario:
    """Parse a scenario file; NaN, Infinity and numbers too large for a float are invalid."""
    try:
        data = json.loads(
            Path(path).read_text(),
            parse_float=_finite_float,
            parse_int=_finite_int,
            parse_constant=_finite_float,
        )
    except (OSError, ValueError) as exc:
        raise ScenarioInvalid(f"cannot read scenario: {exc}") from exc
    return scenario_from_dict(data)


# -- trace records -----------------------------------------------------------


def _make_record(t, frame, uav, detections, boxes, flt, mission, events) -> dict:
    targets = []
    for tgt in flt.targets:
        summary = tgt.summary
        targets.append(
            {
                "id": tgt.target_id,
                "state": tgt.state.value,
                "mean": summary.mean.tolist(),
                "cov": summary.covariance.tolist(),
                "entropy": tgt.last_entropy,
                "kld": tgt.last_kld,
                "n_points": int(tgt.points.shape[0]),
            }
        )
    return {
        "t": t,
        "frame": frame,
        "uav": {
            "true": {"position": uav.position.tolist(), "yaw": uav.yaw},
            "est": {"position": uav.est_position.tolist(), "yaw": uav.est_yaw},
        },
        "detections": [
            {"bbox": d.bbox.tolist(), "score": d.score} for d in detections
        ],
        "tracks": [{"id": b.track_id, "bbox": b.bbox.tolist()} for b in boxes],
        "targets": targets,
        "mode": mission.mode.value,
        "events": [e.to_dict() for e in events],
    }


# -- metrics -----------------------------------------------------------------


def _true_boxes_for_frame(record, scenario: Scenario):
    """Non-edge projected boxes of every visible true target."""
    pos = np.asarray(record["uav"]["true"]["position"])
    yaw = record["uav"]["true"]["yaw"]
    cam = camera_pose(Pose.from_yaw(yaw, pos), scenario.planner.cam_depression)
    cam_from_world = cam.inverse()
    margin = scenario.filter.edge_margin_px
    bboxes = visible_bboxes(scenario.surfaces, cam_from_world, scenario.camera)
    return {
        target.id: bbox
        for target, bbox in zip(scenario.targets, bboxes)
        if bbox is not None and not on_image_edge(bbox, scenario.camera, margin)
    }


def _match_event_target(record, target_id: int, scenario: Scenario) -> str | None:
    """True-target id whose center is nearest the filter target's mean."""
    for entry in record["targets"]:
        if entry["id"] == target_id:
            mean = np.asarray(entry["mean"])
            best, best_d = None, float("inf")
            for true_target in scenario.targets:
                d = float(np.linalg.norm(mean - true_target.center))
                if d < best_d:
                    best, best_d = true_target.id, d
            return best if best_d <= scenario.match_dist else None
    return None


def compute_metrics(records: list[dict], scenario: Scenario) -> dict:
    """Per-stage precision/recall against scenario ground truth.

    Returns {stage: {"tp", "fp", "fn", "precision", "recall"}} over STAGES;
    precision or recall is None when its denominator is 0. Detection is
    counted per frame outside the mapping mode; the other stages are
    counted per lifecycle event over the whole run, credited to a true
    target when the estimate is within match_dist (a spawn: its box
    overlaps the target's by IoU > 0.5).
    """
    margin = scenario.filter.edge_margin_px
    counts = {stage: [0, 0, 0] for stage in STAGES}  # tp, fp, fn
    credited = {stage: set() for stage in STAGES[1:]}

    for record in records:
        true_boxes = None
        if record["mode"] != MissionMode.MAPPING.value:
            true_boxes = _true_boxes_for_frame(record, scenario)
            dets = [
                np.asarray(d["bbox"])
                for d in record["detections"]
                if not on_image_edge(np.asarray(d["bbox"]), scenario.camera, margin)
            ]
            expected = list(true_boxes.values())
            m = np.array([[iou(d, e) for e in expected] for d in dets])
            m = m.reshape(len(dets), len(expected))
            pairs, _, _ = hungarian_assign(m, maximize=True)
            tp = sum(1 for di, ei in pairs if m[di, ei] > DETECTION_IOU_MIN)
            counts["detection"][0] += tp
            counts["detection"][1] += len(dets) - tp
            counts["detection"][2] += len(expected) - tp

        for ev in record["events"]:
            stage = "generation" if ev["type"] == "spawned" else ev["type"]
            if stage not in credited:
                continue
            if stage == "generation":
                if true_boxes is None:
                    true_boxes = _true_boxes_for_frame(record, scenario)
                bbox = np.asarray(ev["bbox"])
                scores = {tid: iou(bbox, tb) for tid, tb in true_boxes.items()}
                match = max(scores, key=scores.get, default=None)
                if match is not None and scores[match] <= DETECTION_IOU_MIN:
                    match = None
            else:
                match = _match_event_target(record, ev["target"], scenario)
            if match is None:
                counts[stage][1] += 1
            else:
                counts[stage][0] += 1
                credited[stage].add(match)

    for stage, ids in credited.items():
        counts[stage][2] = len(scenario.targets) - len(ids)
    return {
        stage: {
            "tp": tp, "fp": fp, "fn": fn,
            "precision": tp / (tp + fp) if tp + fp else None,
            "recall": tp / (tp + fn) if tp + fn else None,
        }
        for stage, (tp, fp, fn) in counts.items()
    }


# -- simulation loop ---------------------------------------------------------


@dataclass
class RunResult:
    completed: bool
    frames: int
    sim_time: float
    metrics: dict
    records: list
    mapped_true_ids: set
    trace_path: Path | None = None


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_cloud(path: Path, points: np.ndarray) -> None:
    with open(path, "w") as fh:
        for x, y, z in np.asarray(points, dtype=float).reshape(-1, 3):
            fh.write(f"{x:.6f} {y:.6f} {z:.6f}\n")


def run(scenario: Scenario, out_dir=None, write_trace: bool = True) -> RunResult:
    """Run the full perception + motion loop for one scenario."""
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(scenario.seed)
    k = scenario.camera
    flt = PointsFilter(k, scenario.filter)
    tracker = BoxTracker(scenario.tracker)

    clouds: dict[int, np.ndarray] = {}

    def cloud_sink(target_id: int, dense: np.ndarray) -> None:
        clouds[target_id] = dense
        if out_path is not None and write_trace:
            write_cloud(out_path / f"cloud_{target_id}.xyz", dense)

    mission = MissionExecutive(
        scenario.planner, scenario.mission, flt, list(scenario.targets), cloud_sink
    )

    if scenario.uav.start_position is not None:
        start = np.asarray(scenario.uav.start_position, dtype=float)
        start_yaw = 0.0
    elif mission.search_waypoints:
        start = mission.search_waypoints[0].position.copy()
        start_yaw = mission.search_waypoints[0].yaw
    else:
        start = np.array([0.0, 0.0, scenario.planner.search_altitude])
        start_yaw = 0.0
    uav = UavState.at_rest(start, start_yaw)

    dt = 1.0 / scenario.frame_rate
    max_frames = int(np.ceil(scenario.max_sim_time / dt))
    all_true_ids = {t.id for t in scenario.targets}
    records: list[dict] = []
    completed = False
    frame = 0

    trace_fh = None
    trace_path = None
    if out_path is not None and write_trace:
        trace_path = out_path / "trace.jsonl"
        trace_fh = open(trace_path, "w")
        trace_fh.write(_json_line({"type": "scenario", "scenario": scenario_to_dict(scenario)}) + "\n")

    log.info(
        "run %s: %d targets, seed %d, %d search waypoints",
        scenario.name, len(scenario.targets), scenario.seed, len(mission.search_waypoints),
    )

    try:
        for frame in range(1, max_frames + 1):
            t = frame * dt
            events: list = []
            wp = mission.current_waypoint()
            if wp is not None:
                uav = step(uav, wp, scenario.uav, rng)
                if waypoint_reached(uav, wp):
                    events += mission.on_waypoint_reached(uav.est_position)

            true_cam = camera_pose(uav.body_pose(), scenario.planner.cam_depression)
            est_cam = camera_pose(uav.est_body_pose(), scenario.planner.cam_depression)

            detections = detect(
                true_cam.inverse(), k, scenario.surfaces, scenario.detector, rng, frame
            )
            boxes = tracker.step(detections)
            filter_events, updated = flt.tick(boxes, est_cam, rng)
            events += filter_events
            events += mission.on_perception(filter_events, updated, uav.est_position)

            for ev in events:
                log.debug("t=%.1f %s", t, ev)

            record = _make_record(t, frame, uav, detections, boxes, flt, mission, events)
            records.append(record)
            if trace_fh is not None:
                trace_fh.write(_json_line({"type": "frame", "record": record}) + "\n")

            if (all_true_ids and mission.mapped_true_ids >= all_true_ids) or mission.idle():
                completed = mission.mapped_true_ids >= all_true_ids
                break
        sim_time = frame * dt
        if not completed:
            log.warning(
                "run %s incomplete after %.1fs: mapped %s",
                scenario.name, sim_time, sorted(mission.mapped_true_ids),
            )
        metrics = compute_metrics(records, scenario)
        result = RunResult(
            completed=completed,
            frames=frame,
            sim_time=sim_time,
            metrics=metrics,
            records=records,
            mapped_true_ids=set(mission.mapped_true_ids),
            trace_path=trace_path,
        )
        if trace_fh is not None:
            trace_fh.write(
                _json_line(
                    {
                        "type": "summary",
                        "completed": completed,
                        "frames": frame,
                        "sim_time": sim_time,
                        "mapped_true_ids": sorted(result.mapped_true_ids),
                        "metrics": metrics,
                    }
                )
                + "\n"
            )
        return result
    finally:
        if trace_fh is not None:
            trace_fh.close()


def read_trace(path):
    """Parse a trace file back into (scenario, records, summary)."""
    scenario = None
    records = []
    summary = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("type") == "scenario":
                scenario = scenario_from_dict(obj["scenario"])
            elif obj.get("type") == "frame":
                records.append(obj["record"])
            elif obj.get("type") == "summary":
                summary = obj
    if scenario is None:
        raise ScenarioInvalid("trace has no scenario header")
    return scenario, records, summary
