"""The trace format: JSON lines (the scenario header, one record per frame,
the summary footer), written and read, and one ASCII xyz file per mapped cloud."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .mission import MissionMode
from .points_filter import GONE, LIFECYCLE, NO_TARGET, EventKind, PointsFilter, TargetState
from .scenario import Scenario, ScenarioInvalid, _coordinates, scenario_from_dict, scenario_to_dict

STAGE_OF = {kind: "generation" if state is None else new.value for state, moves in LIFECYCLE.items()
            for kind, new in moves.items() if isinstance(new, TargetState) and new != state}
STAGES = ("detection", *STAGE_OF.values())
_MODES = frozenset(mode.value for mode in MissionMode)
_SCENARIO, _FRAME, _SUMMARY = "scenario", "frame", "summary"  # each trace line's "type"
# A frame line as run writes it, _json_line's sorted keys and no spaces:
# the record's keys in that order, the text before each value, the text
# after the last one, and the line with a %-placeholder for each value.
_RECORD_KEYS = ("detections", "events", "frame", "mode", "t", "targets", "tracks", "uav")
_RECORD_HEADS = ('{"record":{' + f'"{_RECORD_KEYS[0]}":', *(f',"{k}":' for k in _RECORD_KEYS[1:]))
_FRAME_TAIL = f'}},"type":"{_FRAME}"}}'
_FRAME_LAYOUT = "".join(f"{h}%({k})s" for k, h in zip(_RECORD_KEYS, _RECORD_HEADS)) + _FRAME_TAIL
_scan = json.decoder.JSONDecoder().scan_once  # json.loads's own value scanner


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _TargetEntries:
    """A filter's live targets' trace entries, in a list that records share
    until the next update; a traced run's writer process encodes each list
    once for the records that share it. An entry is kept until its target
    changes, so callers must not mutate entries or the list."""

    def __init__(self):
        self._by_id: dict[int, list] = {}  # id -> [summary, state, entry]

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
                }]
            by_id[tgt.target_id] = kept
        self._by_id = by_id
        return [kept[2] for kept in by_id.values()]


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
        "detections": [{"bbox": list(d.bbox), "score": d.score} for d in detections],
        "tracks": [{"id": b.track_id, "bbox": list(b.bbox)} for b in boxes],
        "targets": targets,
        "mode": mission.mode.value,
        "events": [e.to_dict() for e in events],
    }


def _floats(*values) -> str:
    """Floats, comma-separated, as json.dumps writes them (repr, or NaN and Infinity)."""
    text = ",".join(map(float.__repr__, values))
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _frame_line(record: dict, targets_text: str) -> str:
    """The frame line of a record as _make_record builds it, with its targets
    given as their encoded text: _json_line of {"record": record, "type":
    _FRAME}, each field written as json.dumps writes it. Events, on about
    one frame in a thousand, are left to _json_line."""
    est, true, events = record["uav"]["est"], record["uav"]["true"], record["events"]
    detections = ",".join(
        f'{{"bbox":[{_floats(*d["bbox"])}],"score":{_floats(d["score"])}}}'
        for d in record["detections"]
    )
    tracks = ",".join(
        f'{{"bbox":[{_floats(*b["bbox"])}],"id":{int.__repr__(b["id"])}}}' for b in record["tracks"]
    )
    return _FRAME_LAYOUT % {
        "detections": f"[{detections}]",
        "events": _json_line(events) if events else "[]",
        "frame": int.__repr__(record["frame"]),
        "mode": encode_basestring_ascii(record["mode"]),
        "t": _floats(record["t"]),
        "targets": f"[{targets_text}]",
        "tracks": f"[{tracks}]",
        "uav": f'{{"est":{{"position":[{_floats(*est["position"])}],"yaw":{_floats(est["yaw"])}}},'
               f'"true":{{"position":[{_floats(*true["position"])}],"yaw":{_floats(true["yaw"])}}}}}',
    }


def _write_trace(fh, scenario: Scenario, receive, score) -> dict:
    """Write a run's trace to fh as its records arrive: the scenario header,
    the frame line of each record of the (records, summary) pairs that
    receive() returns, as score(records, scenario) pulls them to score, then
    the first summary given, with score's table, which it returns."""
    fh.write(_json_line({"type": _SCENARIO, _SCENARIO: scenario_to_dict(scenario)}) + "\n")
    summary = {}

    def records():
        targets = text = None  # a targets list is encoded once for the records sharing it
        while not summary:
            batch, end = receive()
            for record in batch:
                if record["targets"] is not targets:
                    targets, text = record["targets"], ",".join(map(_json_line, record["targets"]))
                fh.write(_frame_line(record, text) + "\n")
                yield record
            summary.update(end or {})

    summary["metrics"] = score(records(), scenario)
    fh.write(_json_line({"type": _SUMMARY, **summary}) + "\n")
    return summary["metrics"]


def write_cloud(path: Path, points: np.ndarray) -> None:
    with open(path, "w") as fh:
        for x, y, z in np.asarray(points, dtype=float).reshape(-1, 3):
            fh.write(f"{x:.6f} {y:.6f} {z:.6f}\n")


def _check_record(record: dict, states: dict) -> dict:
    """record, once the fields that scoring reads are as run writes them: the
    true yaw and position, each detection's and spawn's box and the mean of
    each target entry that a converging, converged or mapped event names
    hold only finite numbers, as many as run writes, and the mode is a
    mission mode; each event is one that LIFECYCLE allows from its target's
    state in states, which it moves on. Boxes become float lists, scored in float arithmetic."""
    true = record["uav"]["true"]
    _coordinates([true["yaw"], *true["position"]], "the true yaw and position", 4)
    for detection in record["detections"]:
        detection["bbox"] = list(_coordinates(detection["bbox"], "bbox", 4))
    for ev in record["events"]:
        kind, target = EventKind(ev["type"]), ev.get("target")  # raises for an unknown kind
        state = NO_TARGET if target is None else states.get(target)
        if kind not in LIFECYCLE[state]:
            raise ValueError(f"target {target!r} in state {state} cannot have a {kind.value} event")
        states[target] = LIFECYCLE[state][kind]
        if kind is EventKind.SPAWNED:
            ev["bbox"] = list(_coordinates(ev["bbox"], "bbox", 4))
        elif kind in STAGE_OF:  # scored by its target's entry, which it lacks only if it ends here
            means = [entry["mean"] for entry in record["targets"] if entry["id"] == target]
            if not means and {"target": target, "type": GONE} not in record["events"]:
                raise ValueError(f"target {target!r} of a {kind.value} event has no entry")
            for mean in means:
                _coordinates(mean, "mean", 3)
    if type(record["mode"]) is not str or record["mode"] not in _MODES:
        MissionMode(record["mode"])  # raises for a mode that is not a mission mode
    return record


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
    scenario, states = None, {}  # states: each target's state in LIFECYCLE
    block = [None, None]  # the last targets value's text and value
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if scenario is not None and (record := _frame_record(line, block)) is not None:
                yield _check_record(record, states)
                continue
            try:
                obj = json.loads(line)
            except RecursionError as exc:  # nested too deep to decode
                raise ValueError(f"line {n}: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"line {n} is not a JSON object")
            kind = obj.get("type")
            if scenario is None:
                if kind != _SCENARIO:
                    raise ScenarioInvalid(f"line {n}: a trace starts with its scenario header")
                scenario = scenario_from_dict(obj[_SCENARIO])
                yield scenario
            elif kind == _FRAME:
                yield _check_record(obj["record"], states)
            elif kind != _SUMMARY:  # a line of unknown type, or a second scenario header
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
