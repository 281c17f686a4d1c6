"""Scenario loading, the simulation loop, metrics, and trace persistence.

A scenario JSON file fully determines a run: same file + seed gives a
byte-identical trace. The trace is JSON-lines (scenario header, one
record per frame, summary footer); mapped clouds are written one ASCII
xyz file per target.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import math
import sys
import typing
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .detector import DetectorConfig, detect, ellipsoid_target, visible_boxes
from .detector import visible_bbox  # noqa: F401  only perfbench/tracer.py reaches it
from .geometry import CameraIntrinsics
from .mission import MissionConfig, MissionExecutive, MissionMode
from .points_filter import FilterConfig, PointsFilter, on_image_edge
from .tracker import BoxTracker, TrackerConfig, hungarian_assign, iou, iou_matrix
from .uav import UavConfig, UavState, camera_pose, fly, step, waypoint_reached
from .view_planner import PlannerConfig, lane_count, polygon_contains

log = logging.getLogger("targetsim")

STAGES = ("detection", "generation", "converging", "converged", "mapped")
DETECTION_IOU_MIN = 0.5
# The most survey lanes a scenario may plan, on any machine: lawnmower builds two
# waypoints a lane before the first frame, ~7 MB and ~1.5 s at this bound.
MAX_SURVEY_LANES = 10_000
_FLOAT_MAX = sys.float_info.max
_MODES = frozenset(mode.value for mode in MissionMode)


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
        if not 0 <= self.seed <= _FLOAT_MAX:  # run --seed reaches it through dataclasses.replace
            raise ValueError("seed must be >= 0 and fit a float")
        if not math.isclose(self.uav.dt, 1.0 / self.frame_rate, rel_tol=1e-9):
            # one clock: the vehicle moves uav.dt per frame
            raise ValueError(
                f"uav.dt {self.uav.dt} must be 1 / frame_rate ({1.0 / self.frame_rate})"
            )
        lanes = lane_count(self.planner.survey_polygon, self.planner.lane_spacing)
        if lanes > self.max_frames:  # a survey lane takes a frame at least
            raise ValueError(f"{lanes:.3g} survey lanes exceed max_sim_time's frames")
        if lanes > MAX_SURVEY_LANES:
            raise ValueError(f"{lanes:.3g} survey lanes exceed the bound of {MAX_SURVEY_LANES}")

    @property
    def max_frames(self) -> int:
        """The frames that max_sim_time allows."""
        return int(np.ceil(self.max_sim_time / (1.0 / self.frame_rate)))


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
    its parameter's) annotation does not allow, and ValueError for a number
    that is NaN, infinite or an integer too large for a float. An int passes
    for a float; a bool is not a number. Values are not cast, so the header
    serialises them as written."""
    hints = typing.get_type_hints(cls)
    for name, value in kwargs.items():
        if name not in hints:
            continue  # the dataclass itself reports an unknown field
        expected = typing.get_args(hints[name]) or (hints[name],)  # X | None -> (X, NoneType)
        allowed = expected + (int,) if float in expected else expected
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            names = " or ".join(t.__name__ for t in expected)
            raise TypeError(f"{name} must be {names}, got {type(value).__name__}")
        if isinstance(value, (int, float)) and not abs(value) <= _FLOAT_MAX:  # false for NaN
            raise ValueError(f"{name} must be finite and fit a float")


def _coordinates(values, name: str, n: int | None = None) -> tuple:
    """A list of finite numbers (n of them, if given) as floats; a string or
    a bool is not a number, and NaN, an infinity or an integer too large
    for a float is not finite."""
    values = tuple(values)
    if (n is None or len(values) == n) and all(
        type(c) is float and -_FLOAT_MAX <= c <= _FLOAT_MAX for c in values
    ):
        return values  # finite floats already: one pass
    if n is not None and len(values) != n:
        raise ValueError(f"{name} must hold {n} numbers, got {len(values)}")
    for c in values:
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise TypeError(f"{name} must hold numbers, got {type(c).__name__}")
        if not abs(c) <= _FLOAT_MAX:  # false for NaN; an int compares exactly
            raise ValueError(f"{name} must hold finite numbers")
    return tuple(map(float, values))


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


def load_scenario(path) -> Scenario:
    """Parse a scenario file; scenario_from_dict checks every value."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ScenarioInvalid(f"cannot read scenario: {exc}") from exc
    return scenario_from_dict(data)


# -- trace records -----------------------------------------------------------


class _TargetEntries:
    """A filter's live targets' trace entries, in a list that records share
    until the next update, and that list's JSON text, encoded when a trace
    line first needs it. An entry is kept until its target changes, so
    callers must not mutate entries or the list."""

    def __init__(self):
        self._by_id: dict[int, list] = {}  # id -> [summary, state, entry, text or None]
        self._text = None  # the last update's joined text, once encoded

    def update(self, flt: PointsFilter) -> list[dict]:
        """The entries of flt.targets, in order, in a new list: a new entry
        for a target whose summary (refit with its entropy, KL and point
        count by set_points) or state changed, the kept one otherwise."""
        by_id = {}
        for tgt in flt.targets:
            kept = self._by_id.get(tgt.target_id)
            if kept is None or kept[0] is not tgt.summary or kept[1] is not tgt.state:
                summary = tgt.summary
                kept = [summary, tgt.state, {
                    "id": tgt.target_id,
                    "state": tgt.state.value,
                    "mean": summary.mean.tolist(),
                    "cov": summary.covariance.tolist(),
                    "entropy": tgt.last_entropy,
                    "kld": tgt.last_kld,
                    "n_points": len(tgt.points),
                }, None]
            by_id[tgt.target_id] = kept
        self._by_id, self._text = by_id, None
        return [kept[2] for kept in by_id.values()]

    def text(self) -> str:
        """The JSON text of the last update's entries, comma-separated."""
        if self._text is None:
            for kept in self._by_id.values():
                kept[3] = kept[3] or _json_line(kept[2])
            self._text = ",".join(kept[3] for kept in self._by_id.values())
        return self._text


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


def _floats(*values) -> str:
    """Floats, comma-separated, as json.dumps writes them (repr, or NaN and Infinity)."""
    text = ",".join(map(float.__repr__, values))
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _frame_line(record: dict, targets_text: str) -> str:
    """_json_line({"type": "frame", "record": record}) of a record as
    _make_record builds it, with its targets given as their encoded text:
    each field is written as json.dumps writes it, in sorted key order.
    Events, on about one frame in a thousand, are left to _json_line."""
    est, true, events = record["uav"]["est"], record["uav"]["true"], record["events"]
    detections = ",".join(
        f'{{"bbox":[{_floats(*d["bbox"])}],"score":{_floats(d["score"])}}}'
        for d in record["detections"]
    )
    tracks = ",".join(
        f'{{"bbox":[{_floats(*b["bbox"])}],"id":{int.__repr__(b["id"])}}}' for b in record["tracks"]
    )
    return (
        f'{{"record":{{"detections":[{detections}],"events":{_json_line(events) if events else "[]"},'
        f'"frame":{int.__repr__(record["frame"])},"mode":{encode_basestring_ascii(record["mode"])},'
        f'"t":{_floats(record["t"])},"targets":[{targets_text}],"tracks":[{tracks}],'
        f'"uav":{{"est":{{"position":[{_floats(*est["position"])}],"yaw":{_floats(est["yaw"])}}},'
        f'"true":{{"position":[{_floats(*true["position"])}],"yaw":{_floats(true["yaw"])}}}}}'
        '},"type":"frame"}'
    )


# -- metrics -----------------------------------------------------------------


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
        if record["mode"] != MissionMode.MAPPING:
            k, margin = s.camera, s.filter.edge_margin_px
            dets = [b for d in record["detections"] if not on_image_edge(b := d["bbox"], k, margin)]
            expected, tp = sum(scored), 0
            if dets and expected:
                m = iou_matrix(dets, [box for box, seen in zip(boxes, scored) if seen])
                pairs, _, _ = hungarian_assign(m, maximize=True)
                tp = sum(1 for di, ei in pairs if m[di, ei] > DETECTION_IOU_MIN)
            counts["detection"][0] += tp
            counts["detection"][1] += len(dets) - tp
            counts["detection"][2] += expected - tp

        for ev in record["events"]:
            stage = "generation" if ev["type"] == "spawned" else ev["type"]
            if stage not in self.credited:
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


# -- simulation loop ---------------------------------------------------------


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


# frames of the true flight flown, imaged and culled at a time: a block
# after a replan cut the last one short flies FIRST_BLOCK_AFTER_CUT, and
# each next one twice the last, up to FLIGHT_BLOCK
FLIGHT_BLOCK = 256
FIRST_BLOCK_AFTER_CUT = 16


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
    is no longer the block's. Replans come in bursts, so the block after a
    cut is short, and the blocks after it double back up to FLIGHT_BLOCK."""
    length = FLIGHT_BLOCK
    while True:
        plan, cursor = mission.plan, mission.cursor
        states, cursors = [], [cursor]  # cursors[j + 1]: the cursor after frame j
        for _ in range(length):
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
        length = min(2 * length, FLIGHT_BLOCK)
        for j, state in enumerate(states):  # state: the last frame's, the next block's start
            yield (state, cursors[j + 1] > cursors[j], boxes[j], visible[j], scored[j],
                   cameras.rotation[j])
            if mission.plan is not plan or mission.cursor != cursors[j + 1]:
                if j + 1 < len(states):
                    length = FIRST_BLOCK_AFTER_CUT
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
    all_true_ids = {t.id for t in scenario.targets}
    target_entries, targets = _TargetEntries(), []
    scores = _Scores(scenario)
    records = [] if out_path is None else None  # a traced run writes each record and drops it
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
            scores.add(record, true_boxes, scored)
            if trace_fh is None:
                records.append(record)
            else:
                trace_fh.write(_frame_line(record, target_entries.text()) + "\n")

            if (all_true_ids and mission.mapped_true_ids >= all_true_ids) or mission.idle():
                completed = mission.mapped_true_ids >= all_true_ids
                break
        sim_time = frame * dt
        if not completed:
            log.warning(
                "run %s incomplete after %.1fs: mapped %s",
                scenario.name, sim_time, sorted(mission.mapped_true_ids),
            )
        summary = {  # the result less its records and trace path
            "completed": completed,
            "frames": frame,
            "sim_time": sim_time,
            "mapped_true_ids": sorted(mission.mapped_true_ids),
            "metrics": scores.table(),
        }
        if trace_fh is not None:
            trace_fh.write(_json_line({"type": "summary", **summary}) + "\n")
        mapped = {"mapped_true_ids": set(mission.mapped_true_ids)}
        return RunResult(**{**summary, **mapped}, records=records, trace_path=trace_path)
    finally:
        if trace_fh is not None:
            trace_fh.close()


def _check_record(record: dict) -> dict:
    """record, once the fields that scoring reads are as run writes them: the
    true yaw and position, each detection's and spawn's box and the mean of
    each target entry that a converging, converged or mapped event names
    hold only finite numbers, as many as run writes, and the mode is a
    mission mode."""
    true = record["uav"]["true"]
    _coordinates([true["yaw"], *true["position"]], "the true yaw and position", 4)
    for detection in record["detections"]:
        _coordinates(detection["bbox"], "bbox", 4)
    for ev in record["events"]:
        if ev["type"] == "spawned":
            _coordinates(ev["bbox"], "bbox", 4)
        elif ev["type"] in STAGES[2:]:  # scored by the named target's mean
            for entry in record["targets"]:
                if entry["id"] == ev["target"]:
                    _coordinates(entry["mean"], "mean", 3)
    if type(record["mode"]) is not str or record["mode"] not in _MODES:
        MissionMode(record["mode"])  # raises for a mode that is not a mission mode
    return record


# A frame line as run writes it, _json_line's sorted keys and no spaces:
# the text before each record value, and the text after the last one.
_RECORD_KEYS = ("detections", "events", "frame", "mode", "t", "targets", "tracks", "uav")
_RECORD_HEADS = tuple(
    ('{"record":{' if i == 0 else ",") + f'"{key}":' for i, key in enumerate(_RECORD_KEYS)
)
_FRAME_TAIL = '},"type":"frame"}'
_scan = json.decoder.JSONDecoder().scan_once  # json.loads's own value scanner


def _frame_record(line: str, block: list):
    """The record of a frame line in run's own layout, or None for any other
    text (json.loads then decodes the line). Values are read with json.loads's
    scanner, except a targets value whose text starts with block[0], the last
    targets text read: a value read from that text ends with it, and the text
    after it is checked as after any value, so the value is block[1], which
    the records before share. block is set to each targets value read."""
    record, pos = {}, 0
    for key, head in zip(_RECORD_KEYS, _RECORD_HEADS):
        if not line.startswith(head, pos):
            return None
        pos += len(head)
        if key == "targets" and block[0] is not None and line.startswith(block[0], pos):
            record[key], pos = block[1], pos + len(block[0])
            continue
        try:
            record[key], end = _scan(line, pos)
        except (StopIteration, ValueError, RecursionError):  # no value, or a malformed one
            return None
        if key == "targets":
            block[:] = line[pos:end], record[key]
        pos = end
    return record if line[pos:] == _FRAME_TAIL else None


def _trace_lines(path):
    """Yield a trace's scenario, from its first line, then each frame's
    checked record as its line is read; the summary footer is skipped. A
    line in run's layout is read by _frame_record, any other by json.loads."""
    scenario = None
    block = [None, None]  # the last targets value's text and value
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if scenario is not None and (record := _frame_record(line, block)) is not None:
                yield _check_record(record)
                continue
            try:
                obj = json.loads(line)
            except RecursionError as exc:  # nested too deep to decode
                raise ValueError(f"line {n}: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"line {n} is not a JSON object")
            kind = obj.get("type")
            if scenario is None:
                if kind != "scenario":
                    raise ScenarioInvalid(f"line {n}: a trace starts with its scenario header")
                scenario = scenario_from_dict(obj["scenario"])
                yield scenario
            elif kind == "frame":
                yield _check_record(obj["record"])
            elif kind != "summary":  # a line of unknown type, or a second scenario header
                raise ValueError(f"line {n}: unexpected line of type {kind!r}")
    if scenario is None:
        raise ScenarioInvalid("trace has no scenario header")


def read_trace(path):
    """(scenario, records) of a trace file: the header is parsed now, and
    records is an iterator that reads, checks and yields one frame's record
    at a time, raising on the first malformed line when it reaches it.
    Records share each decoded targets block until it changes, so callers
    must not mutate them."""
    lines = _trace_lines(path)
    return next(lines), lines
