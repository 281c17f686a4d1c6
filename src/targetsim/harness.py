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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import DetectorConfig, detect, ellipsoid_target, visible_bbox
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


def _build_config(cls, data: dict, section: str):
    if not isinstance(data, dict):
        raise ScenarioInvalid(f"{section}: expected an object")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ScenarioInvalid(f"{section}: unknown keys {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ScenarioInvalid(f"{section}: {exc}") from exc


_TARGET_KEYS = {"id", "center", "semi_axes", "n_surface"}


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioInvalid("scenario must be a JSON object")
    top_allowed = {
        "name", "seed", "frame_rate", "max_sim_time", "match_dist", "world",
        "camera", "detector", "tracker", "filter", "planner", "uav", "mission",
    }
    unknown = set(data) - top_allowed
    if unknown:
        raise ScenarioInvalid(f"unknown top-level keys {sorted(unknown)}")
    if "camera" not in data or "world" not in data:
        raise ScenarioInvalid("scenario needs 'camera' and 'world' sections")

    camera = _build_config(CameraIntrinsics, data["camera"], "camera")
    planner_data = dict(data.get("planner", {}))
    if "survey_polygon" in planner_data:
        planner_data["survey_polygon"] = tuple(
            tuple(float(c) for c in v) for v in planner_data["survey_polygon"]
        )
    planner = _build_config(PlannerConfig, planner_data, "planner")
    filter_data = dict(data.get("filter", {}))
    if "max_depth" not in filter_data:
        filter_data["max_depth"] = planner.search_altitude + 20.0
    filter_cfg = _build_config(FilterConfig, filter_data, "filter")
    detector = _build_config(DetectorConfig, data.get("detector", {}), "detector")
    tracker = _build_config(TrackerConfig, data.get("tracker", {}), "tracker")
    uav_data = dict(data.get("uav", {}))
    if uav_data.get("start_position") is not None:
        uav_data["start_position"] = tuple(float(c) for c in uav_data["start_position"])
    uav = _build_config(UavConfig, uav_data, "uav")
    mission = _build_config(MissionConfig, data.get("mission", {}), "mission")

    world = data["world"]
    if not isinstance(world, dict) or set(world) - {"targets"}:
        raise ScenarioInvalid("world: expected an object with a 'targets' list")
    targets = []
    for i, entry in enumerate(world.get("targets", [])):
        if not isinstance(entry, dict) or set(entry) - _TARGET_KEYS:
            raise ScenarioInvalid(f"world.targets[{i}]: unknown keys")
        try:
            target = ellipsoid_target(
                str(entry["id"]),
                entry["center"],
                entry["semi_axes"],
                int(entry.get("n_surface", 400)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioInvalid(f"world.targets[{i}]: {exc}") from exc
        if not polygon_contains(planner.survey_polygon, target.center[:2]):
            raise ScenarioInvalid(
                f"world.targets[{i}]: center outside the survey polygon"
            )
        targets.append(target)
    ids = [t.id for t in targets]
    if len(set(ids)) != len(ids):
        raise ScenarioInvalid("world.targets: duplicate ids")

    try:
        scenario = Scenario(
            camera=camera,
            detector=detector,
            tracker=tracker,
            filter=filter_cfg,
            planner=planner,
            uav=uav,
            mission=mission,
            targets=tuple(targets),
            name=str(data.get("name", "scenario")),
            seed=int(data.get("seed", 0)),
            frame_rate=float(data.get("frame_rate", 10.0)),
            max_sim_time=float(data.get("max_sim_time", 3600.0)),
            match_dist=float(data.get("match_dist", 2.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioInvalid(str(exc)) from exc
    if scenario.frame_rate <= 0 or scenario.max_sim_time <= 0 or scenario.match_dist <= 0:
        raise ScenarioInvalid("frame_rate, max_sim_time, and match_dist must be positive")
    return scenario


def scenario_to_dict(s: Scenario) -> dict:
    planner = dataclasses.asdict(s.planner)
    planner["survey_polygon"] = [list(v) for v in s.planner.survey_polygon]
    uav = dataclasses.asdict(s.uav)
    if uav.get("start_position") is not None:
        uav["start_position"] = list(uav["start_position"])
    return {
        "name": s.name,
        "seed": s.seed,
        "frame_rate": s.frame_rate,
        "max_sim_time": s.max_sim_time,
        "match_dist": s.match_dist,
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
        "camera": dataclasses.asdict(s.camera),
        "detector": dataclasses.asdict(s.detector),
        "tracker": dataclasses.asdict(s.tracker),
        "filter": dataclasses.asdict(s.filter),
        "planner": planner,
        "uav": uav,
        "mission": dataclasses.asdict(s.mission),
    }


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def load_scenario(path) -> Scenario:
    """Parse a scenario file; NaN, Infinity and overflowing numbers are invalid."""
    try:
        data = json.loads(
            Path(path).read_text(), parse_float=_finite_float, parse_constant=_finite_float
        )
    except (OSError, ValueError) as exc:
        raise ScenarioInvalid(f"cannot read scenario: {exc}") from exc
    return scenario_from_dict(data)


# -- trace records -----------------------------------------------------------


def _make_record(t, frame, uav, detections, boxes, flt, mission, events) -> dict:
    targets = []
    for tgt in flt.targets:
        summary = tgt.summary()
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


@dataclass(frozen=True)
class StageScore:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float | None:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else None

    @property
    def recall(self) -> float | None:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else None

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "precision": self.precision, "recall": self.recall,
        }


@dataclass(frozen=True)
class StageMetrics:
    detection: StageScore
    generation: StageScore
    converging: StageScore
    converged: StageScore
    mapped: StageScore

    def to_dict(self) -> dict:
        return {stage: getattr(self, stage).to_dict() for stage in STAGES}


def _true_boxes_for_frame(record, scenario: Scenario):
    """Non-edge projected boxes of every visible true target."""
    pos = np.asarray(record["uav"]["true"]["position"])
    yaw = record["uav"]["true"]["yaw"]
    cam = camera_pose(Pose.from_yaw(yaw, pos), scenario.planner.cam_depression)
    cam_from_world = cam.inverse()
    margin = scenario.filter.edge_margin_px
    boxes = {}
    for target in scenario.targets:
        bbox = visible_bbox(target, cam_from_world, scenario.camera)
        if bbox is None or on_image_edge(bbox, scenario.camera, margin):
            continue
        boxes[target.id] = bbox
    return boxes


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


def compute_metrics(records: list[dict], scenario: Scenario) -> StageMetrics:
    """Per-stage precision/recall against scenario ground truth.

    Detection is counted per frame outside the mapping mode; the other
    stages are counted per lifecycle event over the whole run, credited to
    a true target when the estimate is within match_dist.
    """
    margin = scenario.filter.edge_margin_px
    counts = {stage: [0, 0, 0] for stage in STAGES}  # tp, fp, fn
    credited = {stage: set() for stage in ("generation", "converging", "converged", "mapped")}

    for record in records:
        if record["mode"] != MissionMode.MAPPING.value:
            true_boxes = _true_boxes_for_frame(record, scenario)
            dets = [
                np.asarray(d["bbox"])
                for d in record["detections"]
                if not on_image_edge(np.asarray(d["bbox"]), scenario.camera, margin)
            ]
            expected = list(true_boxes.values())
            if dets and expected:
                m = np.array([[iou(d, e) for e in expected] for d in dets])
                pairs, unmatched_d, unmatched_e = hungarian_assign(m, maximize=True)
                for di, ei in pairs:
                    if m[di, ei] > DETECTION_IOU_MIN:
                        counts["detection"][0] += 1
                    else:
                        unmatched_d.append(di)
                        unmatched_e.append(ei)
                counts["detection"][1] += len(unmatched_d)
                counts["detection"][2] += len(unmatched_e)
            else:
                counts["detection"][1] += len(dets)
                counts["detection"][2] += len(expected)

        for ev in record["events"]:
            kind = ev["type"]
            if kind == "spawned":
                true_boxes = _true_boxes_for_frame(record, scenario)
                bbox = np.asarray(ev["bbox"])
                scores = {
                    tid: iou(bbox, tb) for tid, tb in true_boxes.items()
                }
                best = max(scores, key=scores.get, default=None)
                if best is not None and scores[best] > DETECTION_IOU_MIN:
                    counts["generation"][0] += 1
                    credited["generation"].add(best)
                else:
                    counts["generation"][1] += 1
            elif kind in ("converging", "converged", "mapped"):
                match = _match_event_target(record, ev["target"], scenario)
                if match is not None:
                    counts[kind][0] += 1
                    credited[kind].add(match)
                else:
                    counts[kind][1] += 1

    n_true = len(scenario.targets)
    for stage in ("generation", "converging", "converged", "mapped"):
        counts[stage][2] = n_true - len(credited[stage])

    return StageMetrics(
        **{
            stage: StageScore(tp=c[0], fp=c[1], fn=c[2])
            for stage, c in counts.items()
        }
    )


# -- simulation loop ---------------------------------------------------------


@dataclass
class RunResult:
    completed: bool
    frames: int
    sim_time: float
    metrics: StageMetrics
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
                true_cam.inverse(), k, list(scenario.targets), scenario.detector, rng, frame
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

            if all_true_ids and mission.mapped_true_ids >= all_true_ids:
                completed = True
                break
            if mission.idle():
                completed = not all_true_ids or mission.mapped_true_ids >= all_true_ids
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
                        "metrics": metrics.to_dict(),
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
