"""Span tracer that wraps targetsim's layer entry points from outside.

A span is recorded around every call of a wrapped function: its name,
start, end and the span that was open when it started (its parent). Spans
are kept in flat in-memory arrays and written out once, at the end of the
traced phase. Nothing under ``src/`` is changed: each function is replaced
in the namespace where its caller looks it up (for example
``harness.detect`` or ``points_filter.project_points``), and put back by
``Tracer.uninstall``.

A layer's self time is its span's duration minus the time its direct
child spans cover. Calls are single-threaded, so children never overlap.
The per-layer metrics are named and given units in BENCHMARK.json;
``layer_metrics`` computes each from the spans of one or more files.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None, under=None):
        """Return fn wrapped in a span.

        count(counts, args, result) runs after the span closes, so its cost
        lands in the caller. under maps a parent span name to the name this
        span takes when it opens directly inside that parent.
        """
        nid = self._name_id(name)
        renamed = {self._name_id(p): self._name_id(n) for p, n in (under or {}).items()}
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            top = stack[-1] if stack else -1
            name_id.append(renamed.get(name_id[top], nid) if renamed and top >= 0 else nid)
            parent.append(top)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            end[idx] = clock()
            stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None, under=None) -> None:
        """Wrap owner.attr; an entry point the program no longer has is
        listed in self.missing and its metrics read 0."""
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, under))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            counts=np.array(json.dumps(dict(self.counts), sort_keys=True)),
        )


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds the tracer's bookkeeping adds to one call: a one-argument
    function called inside an open span, wrapped against plain, median of
    a few repeats. Cache effects of the recorded spans are not included."""

    def one(x):
        return x

    tracer = Tracer()
    outer, wrapped = tracer.wrap("outer", lambda f: f()), tracer.wrap("one", one)
    clock = time.perf_counter
    costs = []

    def timed(fn) -> float:
        start = clock()
        for i in range(calls):
            fn(i)
        return clock() - start

    for _ in range(repeats):
        costs.append(outer(lambda: timed(wrapped) - timed(one)) / calls)
    return sorted(costs)[repeats // 2]


class Spans:
    """The spans of one or more files written by Tracer.write, as arrays."""

    def __init__(self, paths):
        self.names: list[str] = []
        ids, durs, selfs = [], [], []
        self.counts: Counter = Counter()
        for path in paths:
            with np.load(path) as f:
                names = [str(n) for n in f["names"]]
                for name in names:
                    if name not in self.names:
                        self.names.append(name)
                remap = np.array([self.names.index(n) for n in names], dtype=np.int64)
                parent = f["parent"]
                dur = f["end"] - f["start"]
                has_parent = parent >= 0
                covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                                      minlength=len(dur))
                ids.append(remap[f["name_id"]])
                durs.append(dur)
                selfs.append(dur - covered)
                self.counts.update(json.loads(str(f["counts"])))
        self.ids = np.concatenate(ids)
        self.dur = np.concatenate(durs)
        self.self_time = np.concatenate(selfs)

    def table(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, inclusive seconds and per-call
        inclusive microseconds (p50, p99)."""
        table = {}
        for nid, name in enumerate(self.names):
            mask = self.ids == nid
            calls = int(mask.sum())
            d = self.dur[mask]
            table[name] = {
                "calls": calls,
                "self_s": float(self.self_time[mask].sum()),
                "total_s": float(d.sum()),
                "us_p50": float(np.percentile(d, 50)) * 1e6 if calls else 0.0,
                "us_p99": float(np.percentile(d, 99)) * 1e6 if calls else 0.0,
            }
        return table


# -- the layers --------------------------------------------------------------


def _count_points(counts, args, result):
    counts["geometry.project_points.points"] += len(args[0])


def _count_detections(counts, args, result):
    counts["detector.detections"] += len(result)


def _count_visible(counts, args, result):
    counts["detector.visible_bbox.boxes"] += result is not None


def _count_boxes(counts, args, result):
    counts["tracker.boxes_out"] += len(result)


def _count_tick(counts, args, result):
    events, _ = result
    spawned = sum(ev.kind == "spawned" for ev in events)
    expired = sum(ev.kind == "deregistered" for ev in events)
    counts["points_filter.spawned"] += spawned
    counts["points_filter.deregistered"] += expired
    # clouds alive when the tick started: survivors, minus this tick's
    # spawns, plus this tick's grace-period expiries
    counts["points_filter.live_targets.sum"] += len(args[0].targets) - spawned + expired


def _count_deregister(counts, args, result):
    counts["points_filter.deregistered"] += 1


def _count_projected(counts, args, result):
    counts["points_filter.projection_count_costs.points"] += sum(
        len(t.points) for t in args[1]
    )


def _count_entries(counts, args, result):
    counts["harness.make_record.target_entries"] += len(result["targets"])


def _count_bytes(counts, args, result):
    counts["harness.trace.bytes"] += len(result) + 1  # one line per call


def install_layers(tracer: Tracer) -> list[str]:
    """Wrap every layer entry point where its caller looks it up; returns
    the entry points not found."""
    from targetsim import cli, detector, geometry, harness, mission, points_filter, tracker

    tracer.patch(geometry.Pose, "__init__", "geometry.pose")
    tracer.patch(detector, "project_points", "geometry.project_points", _count_points)
    tracer.patch(points_filter, "project_points", "geometry.project_points", _count_points)

    # The run loop and compute_metrics's true-box re-projection both look
    # up camera_pose and visible_bbox in harness; the re-projection's calls
    # get names of their own, so the uav and detector layers count only
    # the perception loop.
    tracer.patch(harness, "step", "uav.step")
    tracer.patch(harness, "camera_pose", "uav.camera_pose",
                 under={"harness.true_boxes": "harness.true_boxes.camera_pose"})

    tracer.patch(harness, "detect", "detector.detect", _count_detections)
    tracer.patch(detector, "visible_bbox", "detector.visible_bbox", _count_visible)
    tracer.patch(harness, "visible_bbox", "harness.true_boxes.visible_bbox")

    tracer.patch(tracker.BoxTracker, "step", "tracker.step", _count_boxes)
    for owner in (tracker, points_filter, harness):
        tracer.patch(owner, "hungarian_assign", "tracker.hungarian_assign")

    tracer.patch(points_filter.PointsFilter, "tick", "points_filter.tick", _count_tick)
    tracer.patch(points_filter.PointsFilter, "deregister", "points_filter.deregister",
                 _count_deregister)
    tracer.patch(points_filter, "projection_count_costs",
                 "points_filter.projection_count_costs", _count_projected)
    tracer.patch(points_filter, "update_points", "points_filter.update_points")
    tracer.patch(points_filter, "generate_points", "points_filter.generate_points")

    tracer.patch(mission, "fit_bounding_cylinder", "bounding_cylinder.fit")

    tracer.patch(mission, "lawnmower", "view_planner.lawnmower")
    tracer.patch(mission, "estimation_circle", "view_planner.estimation_circle")
    tracer.patch(mission, "mapping_circles", "view_planner.mapping_circles")

    tracer.patch(mission.MissionExecutive, "on_perception", "mission.on_perception")
    tracer.patch(mission.MissionExecutive, "on_waypoint_reached", "mission.on_waypoint_reached")
    tracer.patch(mission, "synthesize_mapped_cloud", "mission.synthesize_mapped_cloud")

    tracer.patch(cli, "run", "harness.run")
    tracer.patch(harness, "_make_record", "harness.make_record", _count_entries)
    tracer.patch(harness, "_json_line", "harness.json_line", _count_bytes)
    tracer.patch(harness, "compute_metrics", "harness.compute_metrics")
    tracer.patch(cli, "compute_metrics", "harness.compute_metrics")
    tracer.patch(harness, "_true_boxes_for_frame", "harness.true_boxes")
    tracer.patch(cli, "read_trace", "harness.read_trace")
    return tracer.missing


# -- per-layer metrics ---------------------------------------------------------

# A metric named `<span>.<field>` reads a field of the span's row in
# Spans.table(): `.calls` the number of calls (the sample count of the
# percentiles), `.s` and `.self_s` self seconds summed over calls,
# `.total_s` inclusive seconds, `.us_p50`/`.us_p99` the inclusive time of
# one call. The metrics below are derived instead.
SPAN_FIELDS = {"calls": "calls", "s": "self_s", "self_s": "self_s", "total_s": "total_s",
               "us_p50": "us_p50", "us_p99": "us_p99"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, names, overhead_s: float) -> dict[str, float]:
    """The value of each metric in names; layers a workload never calls read 0."""
    table = spans.table()
    counts = spans.counts
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "us_p50": 0.0, "us_p99": 0.0}

    def span(name):
        return table.get(name, empty)

    derived = {
        "geometry.project_points.points": counts["geometry.project_points.points"],
        "geometry.project_points.ns_per_point": 1e9 * _ratio(
            span("geometry.project_points")["self_s"], counts["geometry.project_points.points"]
        ),
        "detector.visible_ratio": _ratio(
            counts["detector.visible_bbox.boxes"], span("detector.visible_bbox")["calls"]
        ),
        "detector.detections": counts["detector.detections"],
        "tracker.boxes_out": counts["tracker.boxes_out"],
        "points_filter.live_targets.mean": _ratio(
            counts["points_filter.live_targets.sum"], span("points_filter.tick")["calls"]
        ),
        "points_filter.projection_count_costs.points": counts[
            "points_filter.projection_count_costs.points"
        ],
        "points_filter.update_points.failed": counts[
            "points_filter.update_points.raised.AllZeroWeights"
        ],
        "points_filter.spawn_waste": _ratio(
            counts["points_filter.deregistered"], counts["points_filter.spawned"]
        ),
        "view_planner.s": sum(
            row["self_s"] for name, row in table.items() if name.startswith("view_planner.")
        ),
        "harness.make_record.target_entries": counts["harness.make_record.target_entries"],
        "harness.trace.bytes": counts["harness.trace.bytes"],
        "tracing.spans": len(spans.ids),
        "tracing.overhead_s": overhead_s,
    }
    out = {}
    for metric in names:
        base, _, field = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif base in spans.names and field in SPAN_FIELDS:
            out[metric] = span(base)[SPAN_FIELDS[field]]
        else:
            raise KeyError(f"no span or derived value gives the metric {metric}")
    return out
