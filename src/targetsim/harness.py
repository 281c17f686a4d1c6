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
import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import DetectorConfig, detect, ellipsoid_target, visible_boxes
from .detector import visible_bbox  # noqa: F401  perfbench/tracer.py wraps harness.visible_bbox
from .geometry import CameraIntrinsics
from .mission import MissionConfig, MissionExecutive, MissionMode
from .points_filter import FilterConfig, PointsFilter, on_image_edge
from .tracker import BoxTracker, TrackerConfig, hungarian_assign, iou
from .uav import UavConfig, UavState, camera_pose, fly, step, waypoint_reached
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

    def __post_init__(self):
        if self.frame_rate <= 0 or self.max_sim_time <= 0 or self.match_dist <= 0:
            raise ValueError("frame_rate, max_sim_time, and match_dist must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not math.isclose(self.uav.dt, 1.0 / self.frame_rate, rel_tol=1e-9):
            # one clock: the vehicle moves uav.dt per frame
            raise ValueError(
                f"uav.dt {self.uav.dt} must be 1 / frame_rate ({1.0 / self.frame_rate})"
            )


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
# The top-level values: the fields of Scenario that have a default.
_SCALARS = tuple(
    f.name for f in dataclasses.fields(Scenario) if f.default is not dataclasses.MISSING
)
_TARGET_KEYS = {"id", "center", "semi_axes", "n_surface"}


def _check_json_types(cls, kwargs: dict) -> None:
    """Raise TypeError for a value whose type its field's (or, for a function,
    its parameter's) annotation does not allow. An int passes for a float; a
    bool is not a number. Values are not cast, so the header serialises them
    as written."""
    hints = typing.get_type_hints(cls)
    for name, value in kwargs.items():
        if name not in hints:
            continue  # the dataclass itself reports an unknown field
        expected = typing.get_args(hints[name]) or (hints[name],)  # X | None -> (X, NoneType)
        allowed = expected + (int,) if float in expected else expected
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            names = " or ".join(t.__name__ for t in expected)
            raise TypeError(f"{name} must be {names}, got {type(value).__name__}")


def _coordinates(values, name: str) -> tuple:
    """A list of numbers as a tuple of floats; a string or a bool is not a number."""
    values = tuple(values)
    for c in values:
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise TypeError(f"{name} must hold numbers, got {type(c).__name__}")
    return tuple(float(c) for c in values)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from its JSON form; any bad value raises ScenarioInvalid."""
    if not isinstance(data, dict):
        raise ScenarioInvalid("scenario must be a JSON object")
    unknown = set(data) - {*_SCALARS, *_SECTIONS, "world"}
    if unknown:
        raise ScenarioInvalid(f"unknown top-level keys {sorted(unknown)}")

    where = "scenario"  # the part being converted, named in the error
    try:
        fields = {name: data[name] for name in _SCALARS if name in data}
        _check_json_types(Scenario, fields)
        for where, cls in _SECTIONS.items():
            kwargs = {**data.get(where, {})}
            if where == "planner" and "survey_polygon" in kwargs:
                polygon = kwargs["survey_polygon"]
                kwargs["survey_polygon"] = tuple(_coordinates(v, "survey_polygon") for v in polygon)
            elif where == "filter":
                kwargs.setdefault("max_depth", fields["planner"].search_altitude + 20.0)
            elif where == "uav" and kwargs.get("start_position") is not None:
                kwargs["start_position"] = _coordinates(kwargs["start_position"], "start_position")
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
            target_id, n_surface = entry["id"], entry.get("n_surface", 400)
            _check_json_types(ellipsoid_target, {"target_id": target_id, "n_surface": n_surface})
            target = ellipsoid_target(
                target_id,
                _coordinates(entry["center"], "center"),
                _coordinates(entry["semi_axes"], "semi_axes"),
                n_surface,
            )
            if not polygon_contains(fields["planner"].survey_polygon, target.center[:2]):
                raise ValueError("center outside the survey polygon")
            top = target.center[2] + target.semi_axes[2]
            if top >= fields["planner"].search_altitude:
                raise ValueError(
                    f"top at z {top} reaches the search altitude "
                    f"{fields['planner'].search_altitude}"
                )
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
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ScenarioInvalid(f"cannot read scenario: {exc}") from exc
    return scenario_from_dict(data)


# -- trace records -----------------------------------------------------------


class _TargetEntries:
    """Each live filter target's trace entry and that entry's JSON text,
    built once per change: records share an entry until its target changes,
    so callers must not mutate it."""

    def __init__(self):
        self._by_id: dict[int, tuple] = {}  # id -> (summary, entry, text)

    def update(self, targets) -> tuple[list[dict], list[str]]:
        """The entries and texts of `targets`, in order; a target is rebuilt
        when set_points refit its summary or its state changed. Its entropy,
        KL and point count change only together with a new summary. Targets
        no longer live are dropped."""
        by_id = {}
        for tgt in targets:
            summary, entry, text = self._by_id.get(tgt.target_id, (None, None, None))
            if summary is not tgt.summary or entry["state"] != tgt.state.value:
                summary = tgt.summary
                entry = {
                    "id": tgt.target_id,
                    "state": tgt.state.value,
                    "mean": summary.mean.tolist(),
                    "cov": summary.covariance.tolist(),
                    "entropy": tgt.last_entropy,
                    "kld": tgt.last_kld,
                    "n_points": len(tgt.points),
                }
                text = _json_line(entry)
            by_id[tgt.target_id] = summary, entry, text
        self._by_id = by_id
        return [e for _, e, _ in by_id.values()], [t for _, _, t in by_id.values()]


def _make_record(t, frame, uav, est, detections, boxes, targets, mission, events) -> dict:
    """One frame's trace record for the true state uav and the position
    estimate est; `targets` are the frame's shared entries."""
    return {
        "t": t,
        "frame": frame,
        "uav": {
            "true": {"position": uav.position.tolist(), "yaw": uav.yaw},
            "est": {"position": est.tolist(), "yaw": uav.yaw},
        },
        "detections": [
            {"bbox": d.bbox.tolist(), "score": d.score} for d in detections
        ],
        "tracks": [{"id": b.track_id, "bbox": b.bbox.tolist()} for b in boxes],
        "targets": targets,
        "mode": mission.mode.value,
        "events": [e.to_dict() for e in events],
    }


def _frame_line(record: dict, target_texts: list[str]) -> str:
    """_json_line({"type": "frame", "record": record}), with the record's
    targets taken from their encoded texts: the line is encoded with null
    targets, and the first '"targets":null' is the record's, as with sorted
    keys only its detections, events, frame, mode and t come before it, and
    none of them holds a "targets" key."""
    line = _json_line({"record": {**record, "targets": None}, "type": "frame"})
    return line.replace('"targets":null', '"targets":[' + ",".join(target_texts) + "]", 1)


# -- metrics -----------------------------------------------------------------


def _true_views(scenario: Scenario, yaws, positions):
    """The true cameras at yaws (F,) and positions (F, 3): their
    world-from-camera Pose stack, and every true target's box and visibility
    in each view, as visible_boxes returns them. Two checked Poses."""
    world_from_cam = camera_pose(yaws, positions, scenario.planner.cam_depression)
    views = world_from_cam.inverse()
    return world_from_cam, *visible_boxes(
        scenario.targets, views.rotation, views.translation, scenario.camera
    )


def _true_boxes_for_frames(records, scenario: Scenario) -> list[dict]:
    """Non-edge projected boxes of every visible true target, one dict per
    record, each seen from the record's true camera pose."""
    yaws = np.array([r["uav"]["true"]["yaw"] for r in records], dtype=float)
    positions = np.array([r["uav"]["true"]["position"] for r in records], dtype=float)
    _, boxes, visible = _true_views(scenario, yaws, positions.reshape(-1, 3))
    k, margin = scenario.camera, scenario.filter.edge_margin_px
    out = [{} for _ in records]
    for frame, i in zip(*np.nonzero(visible)):
        if not on_image_edge(boxes[frame, i], k, margin):
            out[frame][scenario.targets[i].id] = boxes[frame, i]
    return out


def _true_boxes_for_frame(record, scenario: Scenario) -> dict:
    """_true_boxes_for_frames for one record."""
    return _true_boxes_for_frames([record], scenario)[0]


# compute_metrics projects the true targets of this many records at a time
METRICS_CHUNK = 512


def _with_true_boxes(records, scenario: Scenario):
    """Yield each record with its true boxes, or None when scoring does not
    need them: a record outside the mapping mode scores detections, one
    with a spawn scores generation."""
    for first in range(0, len(records), METRICS_CHUNK):
        chunk = records[first:first + METRICS_CHUNK]
        needed = [
            r["mode"] != MissionMode.MAPPING.value
            or any(ev["type"] == "spawned" for ev in r["events"])
            for r in chunk
        ]
        boxes = iter(_true_boxes_for_frames([r for r, n in zip(chunk, needed) if n], scenario))
        for record, need in zip(chunk, needed):
            yield record, next(boxes) if need else None


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

    for record, true_boxes in _with_true_boxes(records, scenario):
        if record["mode"] != MissionMode.MAPPING.value:
            dets = [
                np.asarray(d["bbox"])
                for d in record["detections"]
                if not on_image_edge(np.asarray(d["bbox"]), scenario.camera, margin)
            ]
            expected = list(true_boxes.values())
            tp = 0
            if dets and expected:
                m = np.array([[iou(d, e) for e in expected] for d in dets])
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


# frames of the true flight flown, imaged and culled at a time
FLIGHT_BLOCK = 256


def _true_frames(scenario: Scenario, mission, state: UavState):
    """Yield each frame of the vehicle's true flight from state: (true state,
    whether it reached its waypoint, the true targets' boxes and visibility,
    the world-from-camera rotation). The vehicle follows mission.plan from
    mission.cursor whatever perception does, and the true flight draws
    nothing, so the frames are flown ahead in blocks of up to FLIGHT_BLOCK:
    each frame steps toward plan[cursor] with fly and moves the cursor on as
    waypoint_reached says, a frame with no waypoint left keeps the state
    (loiter), and the block ends after the frame that reaches the plan's
    last waypoint. A block makes one _true_views call. A new block is flown
    from the last frame's state when the mission's plan (by identity) or
    cursor (by value) is no longer the block's."""
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
        cameras, boxes, visible = _true_views(
            scenario, [st.yaw for st in states], [st.position for st in states]
        )
        for j, state in enumerate(states):  # state: the last frame's, the next block's start
            yield state, cursors[j + 1] > cursors[j], boxes[j], visible[j], cameras.rotation[j]
            if mission.plan is not plan or mission.cursor != cursors[j + 1]:
                break


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_cloud(path: Path, points: np.ndarray) -> None:
    with open(path, "w") as fh:
        for x, y, z in np.asarray(points, dtype=float).reshape(-1, 3):
            fh.write(f"{x:.6f} {y:.6f} {z:.6f}\n")


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
    max_frames = int(np.ceil(scenario.max_sim_time / dt))
    all_true_ids = {t.id for t in scenario.targets}
    target_entries = _TargetEntries()
    records: list[dict] = []
    completed = False
    frame = 0

    trace_fh = None
    trace_path = None
    if out_path is not None:
        trace_path = out_path / "trace.jsonl"
        trace_fh = open(trace_path, "w")
        trace_fh.write(_json_line({"type": "scenario", "scenario": scenario_to_dict(scenario)}) + "\n")

    log.info(
        "run %s: %d targets, seed %d, %d search waypoints",
        scenario.name, len(scenario.targets), scenario.seed, len(mission.search_waypoints),
    )

    try:
        frames = zip(range(1, max_frames + 1), _true_frames(scenario, mission, uav))
        for frame, (uav, reached, true_boxes, visible, rotation) in frames:
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

            targets, texts = target_entries.update(flt.targets)
            record = _make_record(t, frame, uav, est, detections, boxes, targets, mission, events)
            records.append(record)
            if trace_fh is not None:
                trace_fh.write(_frame_line(record, texts) + "\n")

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
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except RecursionError as exc:  # nested too deep to decode
                raise ValueError(f"line {n}: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"line {n} is not a JSON object")
            kind = obj.get("type")
            if kind == "frame":
                records.append(obj["record"])
            elif kind == "scenario" and scenario is None:
                scenario = scenario_from_dict(obj["scenario"])
            elif kind == "summary":
                summary = obj
            else:  # a line of unknown type, or a second scenario header
                raise ValueError(f"line {n}: unexpected line of type {kind!r}")
    if scenario is None:
        raise ScenarioInvalid("trace has no scenario header")
    return scenario, records, summary
