"""Scenario schema, simulation loop, metrics, trace replay, CLI."""

import ast
import collections
import contextlib
import copy
import importlib.util
import io
import json
import os
import subprocess
import sys
from functools import cache, partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import targetsim
from targetsim import geometry, harness, points_filter
from targetsim.cli import _print_metrics
from targetsim.cli import main as cli_main
from targetsim.detector import MAX_SURFACE_POINTS, Detection, ellipsoid_target, visible_boxes
from targetsim.harness import compute_metrics, run
from targetsim.mission import MissionExecutive, MissionMode
from targetsim.points_filter import (
    LIFECYCLE,
    MAX_CLOUD_POINTS,
    NO_TARGET,
    Event,
    EventKind,
    FilterConfig,
    PointsFilter,
    TargetState,
    on_image_edge,
)
from targetsim.scenario import (
    MAX_SURVEY_LANES,
    Scenario,
    ScenarioInvalid,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from targetsim.trace import (
    _RECORD_KEYS,
    _check_record,
    _frame_line,
    _frame_record,
    _json_line,
    _TargetEntries,
    read_trace,
    write_cloud,
)
from targetsim.tracker import BoxTracker, TrackedBox
from targetsim.uav import UavState, camera_pose, fly, step, waypoint_reached
from targetsim.view_planner import MAX_ORBIT_SEGMENTS, Waypoint, lane_count, lawnmower

from tests import missions
from tests.plain_run import outputs, plain_replay, plain_run
from tests.test_detector import box_alone

BASE = {
    "name": "unit",
    "seed": 3,
    "frame_rate": 10.0,
    "max_sim_time": 600.0,
    "world": {
        "targets": [
            {"id": "rock", "center": [40.0, 28.0, 1.0], "semi_axes": [1.0, 1.0, 1.0], "n_surface": 300}
        ]
    },
    "camera": {"fx": 600.0, "fy": 600.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480},
    "detector": {},
    "tracker": {},
    "filter": {"max_depth": 50.0},
    "planner": {
        "survey_polygon": [[0.0, 0.0], [60.0, 0.0], [60.0, 60.0], [0.0, 60.0]],
        "lane_spacing": 20.0,
        "search_altitude": 30.0,
    },
    "uav": {},
    "mission": {},
}


def scenario(**overrides) -> Scenario:
    data = copy.deepcopy(BASE)
    data.update(overrides)
    return scenario_from_dict(data)


def two_vertex_polygon() -> dict:
    data = copy.deepcopy(BASE)
    data["world"]["targets"] = []
    data["planner"]["survey_polygon"] = [[0.0, 0.0], [60.0, 60.0]]
    return data


def three_coordinate_polygon() -> dict:
    data = copy.deepcopy(BASE)
    data["world"]["targets"] = []  # none to fall outside the misread polygon
    data["planner"]["survey_polygon"] = [[0, 0, 0], [60, 0, 0], [60, 60, 0], [0, 60, 0]]
    return data


def one_lane_polygon_past_float() -> dict:
    """A polygon from y 1e308 to 1.7e308, lower than its lane spacing: its
    one lane's midline overflows a float."""
    data = copy.deepcopy(BASE)
    data["world"]["targets"] = []
    data["planner"]["survey_polygon"] = [
        [0.0, 1e308], [60.0, 1e308], [60.0, 1.7e308], [0.0, 1.7e308]
    ]
    data["planner"]["lane_spacing"] = 1e308
    return data


def with_leaf(path, value, data=BASE) -> dict:
    """A copy of data with the value at key path `path` replaced."""
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def bad_scenario_texts() -> dict[str, str]:
    """Scenario files that `validate` once accepted or crashed on, and `run` crashed on."""
    overflow = json.dumps(BASE).replace('"frame_rate": 10.0', '"frame_rate": 1e999')
    huge_rate = json.dumps(BASE).replace('"frame_rate": 10.0', '"frame_rate": 1' + "0" * 400)
    huge_fx = json.dumps(BASE).replace('"fx": 600.0', '"fx": 6' + "0" * 400)
    assert "1e999" in overflow and "0" * 400 in huge_rate and "0" * 400 in huge_fx
    return {
        "nan_frame_rate": json.dumps(with_leaf(("frame_rate",), float("nan"))),  # writes NaN
        "nan_fx": json.dumps(with_leaf(("camera", "fx"), float("nan"))),
        "overflow_frame_rate": overflow,
        "huge_int_frame_rate": huge_rate,
        "huge_int_fx": huge_fx,
        "two_vertex_polygon": json.dumps(two_vertex_polygon()),
        "polygon_of_scalars": json.dumps(with_leaf(("planner", "survey_polygon"), [1, 2, 3])),
        "scalar_start_position": json.dumps(with_leaf(("uav", "start_position"), 5)),
        "zero_n_surface": json.dumps(with_leaf(("world", "targets", 0, "n_surface"), 0)),
        "negative_seed": json.dumps(with_leaf(("seed",), -1)),
        "two_coordinate_start_position": json.dumps(
            with_leaf(("uav", "start_position"), [1.0, 2.0])
        ),
        "string_lane_spacing": json.dumps(with_leaf(("planner", "lane_spacing"), "20")),
        "zero_lane_spacing": json.dumps(with_leaf(("planner", "lane_spacing"), 0)),
        "negative_lane_spacing": json.dumps(with_leaf(("planner", "lane_spacing"), -5)),
        "zero_waypoint_spacing": json.dumps(with_leaf(("planner", "waypoint_spacing"), 0)),
        # each ran into an error in run: 6e301 or 5e298 lanes for
        # numpy.linspace, a squared a_max * dt in fly and max_sim_time / dt
        # as a frame count
        "tiny_lane_spacing": json.dumps(with_leaf(("planner", "lane_spacing"), 1e-300)),
        "huge_polygon_y": json.dumps(with_leaf(("planner", "survey_polygon", 2, 1), 1e300)),
        "huge_a_max": json.dumps(with_leaf(("uav", "a_max"), 1e300)),
        "huge_max_sim_time": json.dumps(with_leaf(("max_sim_time",), 1e308)),
        # 1e292 lanes, within max_sim_time's frames but too many for numpy.linspace
        "lanes_past_array_size": json.dumps(
            {**with_leaf(("planner", "lane_spacing"), 1e-290), "max_sim_time": 1e300}
        ),
        # 6e16 lanes, within max_sim_time's frames and numpy's array size, for
        # which lawnmower's linspace asked for 426 PiB
        "lanes_past_plan_bound": json.dumps(
            {**with_leaf(("planner", "lane_spacing"), 1e-15), "max_sim_time": 1e17}
        ),
        # validate crashed on the surface points, and run on all three: 30
        # GiB of spawn weights, 7.5 GiB of surface points, and an
        # OverflowError counting the 2 pi / 1e-320 segments of the first orbit
        "cloud_points_past_bound": json.dumps(with_leaf(("filter", "m"), 10**9)),
        "surface_points_past_bound": json.dumps(
            with_leaf(("world", "targets", 0, "n_surface"), 10**9)
        ),
        "orbit_segments_past_bound": json.dumps(
            with_leaf(("planner", "waypoint_spacing"), 1e-320)
        ),
        # each scale multiplies a variance: at 0 a track's variance reached 0
        # and the filter divided by it; below 0 the filter ran on nonsense
        "zero_tracker_noise_scales": json.dumps(
            {**BASE, "tracker": {"process_noise_scale": 0.0, "measurement_noise_scale": 0.0}}
        ),
        "negative_measurement_noise_scale": json.dumps(
            with_leaf(("tracker", "measurement_noise_scale"), -1.0)
        ),
        # the vehicle would move 5 frames' time per frame
        "uav_dt_apart_from_frame_rate": json.dumps(with_leaf(("uav", "dt"), 0.5)),
        # nesting too deep for the decoder raised RecursionError
        "deep_nesting": "[" * 100_000,
        # one value broadcast over three axes, then the top check indexed [2]
        "one_semi_axis": json.dumps(with_leaf(("world", "targets", 0, "semi_axes"), [1.0])),
        # ellipsoid_target's positive semi-axes check, which no other row reached
        "zero_semi_axis": json.dumps(with_leaf(("world", "targets", 0, "semi_axes"), [1.0, 0.0, 1.0])),
        # read by lawnmower as a different polygon of six (x, y) vertices
        "three_coordinate_polygon_vertices": json.dumps(three_coordinate_polygon()),
        # lawnmower skipped its one lane, and run indexed the empty plan
        "one_lane_polygon_past_float": json.dumps(one_lane_polygon_past_float()),
        "target_top_above_altitude": json.dumps(
            with_leaf(("world", "targets", 0, "center"), [40.0, 28.0, 29.5])
        ),
        # each of these once loaded by a cast: 7.9 ran as seed 7, true as seed 1
        "float_seed": json.dumps(with_leaf(("seed",), 7.9)),
        "bool_seed": json.dumps(with_leaf(("seed",), True)),
        "string_frame_rate": json.dumps(with_leaf(("frame_rate",), "10")),
        "int_name": json.dumps(with_leaf(("name",), 5)),
        "float_n_surface": json.dumps(with_leaf(("world", "targets", 0, "n_surface"), 3.7)),
        "int_target_id": json.dumps(with_leaf(("world", "targets", 0, "id"), 5)),
        "string_center": json.dumps(
            with_leaf(("world", "targets", 0, "center"), ["40", 28.0, 1.0])
        ),
        "bool_center": json.dumps(
            with_leaf(("world", "targets", 0, "center"), [40.0, 28.0, True])
        ),
        "string_semi_axes": json.dumps(
            with_leaf(("world", "targets", 0, "semi_axes"), [1.0, "1", 1.0])
        ),
        "bool_semi_axes": json.dumps(
            with_leaf(("world", "targets", 0, "semi_axes"), [True, 1.0, 1.0])
        ),
        "string_polygon_coordinate": json.dumps(
            with_leaf(("planner", "survey_polygon", 1, 0), "60")
        ),
        "bool_polygon_coordinate": json.dumps(
            with_leaf(("planner", "survey_polygon", 0, 0), False)
        ),
        "string_start_position": json.dumps(
            with_leaf(("uav", "start_position"), ["10", 10.0, 30.0])
        ),
        "bool_start_position": json.dumps(
            with_leaf(("uav", "start_position"), [True, 10.0, 30.0])
        ),
        # a negative margin gathered no surface: run wrote an empty cloud and
        # scored the mapped stage 100 %; a negative voxel size mapped unthinned
        "negative_mapping_range_margin": json.dumps(
            with_leaf(("mission", "mapping_range_margin"), -100)
        ),
        "negative_voxel_size": json.dumps(with_leaf(("mission", "voxel_size"), -1)),
        # one row for each config check that no other row reached
        "zero_max_depth": json.dumps(with_leaf(("filter", "max_depth"), 0)),
        "zero_kld_threshold": json.dumps(with_leaf(("filter", "kld_threshold"), 0)),
        "zero_min_hits": json.dumps(with_leaf(("tracker", "min_hits"), 0)),
    }


BAD_SCENARIO_TEXTS = bad_scenario_texts()


class TestScenarioSchema:
    def test_valid_scenario_loads(self):
        s = scenario()
        assert s.name == "unit" and len(s.targets) == 1
        assert s.filter.max_depth == 50.0

    def test_unknown_top_level_key_rejected(self):
        data = copy.deepcopy(BASE)
        data["frame_rte"] = 10.0
        with pytest.raises(ScenarioInvalid, match="frame_rte"):
            scenario_from_dict(data)

    def test_unknown_section_key_rejected(self):
        data = copy.deepcopy(BASE)
        data["detector"]["fp_rat"] = 0.1
        with pytest.raises(ScenarioInvalid, match="fp_rat"):
            scenario_from_dict(data)

    def test_invalid_value_rejected(self):
        data = copy.deepcopy(BASE)
        data["camera"]["fx"] = -1.0
        with pytest.raises(ScenarioInvalid):
            scenario_from_dict(data)
        with pytest.raises(ScenarioInvalid, match="survey_polygon has 2 vertices"):
            scenario_from_dict(two_vertex_polygon())

    def test_target_outside_polygon_rejected(self):
        data = copy.deepcopy(BASE)
        data["world"]["targets"][0]["center"] = [500.0, 500.0, 1.0]
        with pytest.raises(ScenarioInvalid, match="survey polygon"):
            scenario_from_dict(data)

    def test_duplicate_target_ids_rejected(self):
        data = copy.deepcopy(BASE)
        data["world"]["targets"].append(dict(data["world"]["targets"][0]))
        with pytest.raises(ScenarioInvalid, match="duplicate"):
            scenario_from_dict(data)

    def test_non_positive_timing_rejected(self):
        data = copy.deepcopy(BASE)
        data["frame_rate"] = 0.0
        with pytest.raises(ScenarioInvalid):
            scenario_from_dict(data)
        data = copy.deepcopy(BASE)
        data["max_sim_time"] = -1.0
        with pytest.raises(ScenarioInvalid):
            scenario_from_dict(data)

    def test_frame_rate_and_uav_dt_default_to_one_clock(self):
        # and an omitted survey polygon is the 100 m square
        data = copy.deepcopy(BASE)
        del data["frame_rate"], data["planner"]["survey_polygon"]
        s = scenario_from_dict(data)
        assert (s.frame_rate, s.uav.dt) == (10.0, 0.1)
        assert s.planner.survey_polygon == ((0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0))

    def test_uav_dt_is_one_frame(self):
        # one clock: the vehicle moves uav.dt per frame, so it must equal
        # 1 / frame_rate, up to rounding; the header keeps it as written
        with pytest.raises(ScenarioInvalid, match="uav.dt 0.5 must be 1 / frame_rate"):
            scenario_from_dict(with_leaf(("uav", "dt"), 0.5))
        data = with_leaf(("frame_rate",), 30.0)
        data["uav"]["dt"] = 0.0333333333333
        assert scenario_to_dict(scenario_from_dict(data))["uav"]["dt"] == 0.0333333333333
        data["uav"]["dt"] = 0.0333
        with pytest.raises(ScenarioInvalid):
            scenario_from_dict(data)

    def test_section_field_types_checked_not_cast(self):
        # an int passes for a float and is serialised as written
        s = scenario_from_dict(with_leaf(("planner", "lane_spacing"), 20))
        assert type(scenario_to_dict(s)["planner"]["lane_spacing"]) is int
        s = scenario_from_dict(with_leaf(("max_sim_time",), 600))
        assert type(scenario_to_dict(s)["max_sim_time"]) is int
        scenario_from_dict(with_leaf(("filter", "min_points_in_box"), None))  # int | None
        for path, value in (
            (("mission", "voxel_size"), True),  # a bool is not a number
            (("filter", "m"), 1000.0),
            (("filter", "entropy_below"), 1),
            (("filter", "min_points_in_box"), "5"),
            (("camera", "width"), "640"),
        ):
            with pytest.raises(ScenarioInvalid, match=path[-1]):
                scenario_from_dict(with_leaf(path, value))

    def test_max_depth_defaults_from_altitude(self):
        data = copy.deepcopy(BASE)
        data["filter"] = {}
        s = scenario_from_dict(data)
        assert s.filter.max_depth == 50.0  # altitude 30 + 20

    def test_survey_lanes_bounded(self):
        # a polygon 9,999 m tall at 1 m spacing plans 10,000 lanes, one more m 10,001
        for height, loads in ((9999.0, True), (10000.0, False)):
            polygon = [[0.0, 0.0], [60.0, 0.0], [60.0, height], [0.0, height]]
            data = with_leaf(("planner", "survey_polygon"), polygon)
            data["planner"]["lane_spacing"], data["max_sim_time"] = 1.0, 3600.0
            assert lane_count(polygon, 1.0) == MAX_SURVEY_LANES + (not loads)
            if loads:
                assert scenario_from_dict(data).planner.lane_spacing == 1.0
            else:
                with pytest.raises(ScenarioInvalid, match="exceed the bound of 10000"):
                    scenario_from_dict(data)

    def test_sizes_bounded(self):
        # each size loads at its bound and not one past it; loading builds
        # no cloud and no orbit
        spacing = 2.0 * np.pi / MAX_ORBIT_SEGMENTS
        for leaf, at_bound, past, match in (
            (("filter", "m"), MAX_CLOUD_POINTS, MAX_CLOUD_POINTS + 1, "100000 points"),
            (("planner", "waypoint_spacing"), spacing, np.nextafter(spacing, 0.0), "3600 orbit"),
        ):
            scenario_from_dict(with_leaf(leaf, at_bound))
            with pytest.raises(ScenarioInvalid, match=match):
                scenario_from_dict(with_leaf(leaf, past))
        with pytest.raises(ValueError, match="bound of 100000"):
            ellipsoid_target("t", [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], MAX_SURFACE_POINTS + 1)

    def test_round_trip_through_dict(self):
        s = scenario()
        again = scenario_from_dict(scenario_to_dict(s))
        assert scenario_to_dict(again) == scenario_to_dict(s)

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(BASE))
        assert load_scenario(path).name == "unit"
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioInvalid):
            load_scenario(bad)
        for text in BAD_SCENARIO_TEXTS.values():
            bad.write_text(text)
            with pytest.raises(ScenarioInvalid):
                load_scenario(bad)


def leaf_paths(node, path=()) -> list[tuple]:
    """Key paths of a JSON value's scalars and empty containers."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in leaf_paths(child, path + (key,))]
    return [path]


# Small integers and short strings: an n_surface of at most 10^4 points
# keeps every drawn scenario cheap to build.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10_000, 10_000) | st.floats(-1e4, 1e4)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def test_every_number_past_a_float_is_invalid_and_named(tmp_path):
    # the one number rule, in a file and in a dict built by code alike: a
    # NaN, an infinity or an integer too large for a float at any leaf is
    # rejected, and the error names the leaf's field
    file = tmp_path / "s.json"
    for path in leaf_paths(BASE):
        field = [key for key in path if isinstance(key, str)][-1]
        for value in (float("nan"), float("inf"), -float("inf"), 10**400):
            data = with_leaf(path, value)
            file.write_text(json.dumps(data))
            for load in (lambda: scenario_from_dict(data), lambda: load_scenario(file)):
                with pytest.raises(ScenarioInvalid, match=field):
                    load()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(path=st.sampled_from(leaf_paths(BASE)), value=JSON_VALUES)
def test_any_leaf_value_loads_or_raises_scenario_invalid(path, value):
    try:
        loaded = scenario_from_dict(with_leaf(path, value))
    except ScenarioInvalid:
        return
    assert isinstance(loaded, Scenario)


class TestRun:
    def test_zero_targets_completes_with_na_metrics(self):
        result = run(scenario(world={"targets": []}, max_sim_time=400.0))
        assert result.completed
        m = result.metrics
        for stage in ("generation", "converging", "converged", "mapped"):
            assert m[stage]["precision"] is None
            assert m[stage]["recall"] is None

    def test_nominal_run_maps_target(self, shared_run):
        result = shared_run(scenario())
        assert result.completed
        assert result.mapped_true_ids == {"rock"}
        m = result.metrics
        for stage in ("detection", "generation", "converging", "converged", "mapped"):
            assert m[stage]["precision"] == 1.0
            assert m[stage]["recall"] == 1.0

    def test_timeout_reports_incomplete(self):
        result = run(scenario(max_sim_time=5.0))  # far too short to find anything
        assert not result.completed

    def test_trace_written_and_replayable(self, shared_run):
        result = shared_run(scenario(), traced=True)
        assert result.trace_path is not None and result.trace_path.exists()
        assert result.records is None  # the trace holds them
        replay_scenario, replay_records = read_trace(result.trace_path)
        summary = json.loads(result.trace_path.read_text().splitlines()[-1])
        assert summary["type"] == "summary" and summary["completed"] is True
        replay_records = list(replay_records)
        assert len(replay_records) == result.frames
        # metrics recomputed from the persisted trace equal the online ones
        replay_metrics = compute_metrics(replay_records, replay_scenario)
        assert replay_metrics == result.metrics == summary["metrics"]
        clouds = list(result.trace_path.parent.glob("cloud_*.xyz"))
        assert len(clouds) == 1

    def test_mode_transitions_are_legal(self, shared_run):
        result = shared_run(scenario())
        legal = {
            ("search", "estimation"), ("search", "mapping"),
            ("estimation", "mapping"), ("estimation", "search"),
            ("mapping", "search"), ("mapping", "mapping"),
        }
        modes = [r["mode"] for r in result.records]
        for prev, cur in zip(modes[:-1], modes[1:]):
            if prev != cur:
                assert (prev, cur) in legal

    def test_lifecycle_order_per_target(self, shared_run):
        result = shared_run(scenario())
        seen: dict[int, list[str]] = {}
        for rec in result.records:
            for ev in rec["events"]:
                if ev["type"] in ("spawned", "converging", "converged", "mapped"):
                    seen.setdefault(ev["target"], []).append(ev["type"])
        for kinds in seen.values():
            if "mapped" in kinds:
                assert kinds == ["spawned", "converging", "converged", "mapped"]


@pytest.mark.parametrize(
    "event, expected",
    [
        (Event("spawned", 3, bbox=(1.0, 2.0, 3.0, 4.0)),
         {"type": "spawned", "target": 3, "bbox": [1.0, 2.0, 3.0, 4.0]}),
        (Event("converging", 3), {"type": "converging", "target": 3}),
        (Event("converged", 3), {"type": "converged", "target": 3}),
        (Event("deregistered", 3), {"type": "deregistered", "target": 3}),
        (Event("mode_change", 3, "estimation"),
         {"type": "mode_change", "target": 3, "mode": "estimation"}),
        (Event("mode_change", mode="search"), {"type": "mode_change", "mode": "search"}),
        (Event("mapped", 3, "mapping"), {"type": "mapped", "target": 3, "mode": "mapping"}),
        (Event("estimation_failed", 3), {"type": "estimation_failed", "target": 3}),
        (Event("duplicate_dropped", 3), {"type": "duplicate_dropped", "target": 3}),
    ],
)
def test_event_to_dict_trace_format(event, expected):
    assert event.to_dict() == expected


class TestMetricsCounting:
    def make_record(self, s, cam_x, detections, t=1.0):
        return {
            "t": t,
            "frame": int(t * 10),
            "uav": {
                "true": {"position": [cam_x, 28.0, 30.0], "yaw": 0.0},
                "est": {"position": [cam_x, 28.0, 30.0], "yaw": 0.0},
            },
            "detections": [{"bbox": list(b), "score": 1.0} for b in detections],
            "tracks": [],
            "targets": [],
            "mode": "search",
            "events": [],
        }

    def true_box(self, s, cam_x):
        boxes = per_record_true_boxes(self.make_record(s, cam_x, []), s)
        assert "rock" in boxes
        return boxes["rock"]

    def test_detection_counts_match_table_analog(self):
        # 47 hits, 13 misses (6 of them with a spurious box instead):
        # precision 47/53 = 88.7%, recall 47/60 = 78.3% within rounding
        s = scenario()
        cam_x = 15.0
        tb = self.true_box(s, cam_x)
        spurious = [100.0, 100.0, 150.0, 150.0]
        records = []
        for i in range(47):
            records.append(self.make_record(s, cam_x, [tb], t=0.1 * (i + 1)))
        for i in range(7):
            records.append(self.make_record(s, cam_x, [], t=0.1 * (i + 48)))
        for i in range(6):
            records.append(self.make_record(s, cam_x, [spurious], t=0.1 * (i + 55)))
        m = compute_metrics(records, s)["detection"]
        assert m["tp"] == 47 and m["fp"] == 6 and m["fn"] == 13
        assert m["precision"] == pytest.approx(0.887, abs=5e-4)
        assert m["recall"] == pytest.approx(0.783, abs=5e-4)

    def test_as_many_false_as_true_detections_give_half_precision(self):
        s = scenario()
        tb = self.true_box(s, 15.0)
        spurious = [100.0, 100.0, 150.0, 150.0]
        records = [self.make_record(s, 15.0, [box], t=0.1 * (i + 1))
                   for i, box in enumerate([tb, tb, spurious, spurious])]
        m = compute_metrics(records, s)["detection"]
        assert (m["tp"], m["fp"], m["fn"]) == (2, 2, 2)
        assert m["precision"] == m["recall"] == 0.5

    def test_one_spurious_generation_among_eleven(self):
        s = scenario()
        cam_x = 15.0
        tb = self.true_box(s, cam_x)
        records = []
        for i in range(11):
            rec = self.make_record(s, cam_x, [tb], t=0.1 * (i + 1))
            rec["events"] = [{"type": "spawned", "target": i + 1, "bbox": list(tb)}]
            records.append(rec)
        rec = self.make_record(s, cam_x, [], t=1.2)
        rec["events"] = [{"type": "spawned", "target": 99, "bbox": [10.0, 10.0, 40.0, 40.0]}]
        records.append(rec)
        m = compute_metrics(records, s)["generation"]
        assert m["tp"] == 11 and m["fp"] == 1
        assert m["precision"] == pytest.approx(11.0 / 12.0)

    def test_spawn_in_mapping_mode_scored_for_generation_only(self):
        s = scenario()
        tb = self.true_box(s, 15.0)
        rec = self.make_record(s, 15.0, [tb, [100.0, 100.0, 150.0, 150.0]])
        rec["mode"] = "mapping"
        rec["events"] = [{"type": "spawned", "target": 1, "bbox": list(tb)}]
        m = compute_metrics([rec], s)
        assert (m["generation"]["tp"], m["generation"]["fp"]) == (1, 0)
        assert (m["detection"]["tp"], m["detection"]["fp"], m["detection"]["fn"]) == (0, 0, 0)

    def test_edge_boxes_excluded_from_detection_counts(self):
        s = scenario()
        records = [self.make_record(s, 15.0, [[0.0, 100.0, 60.0, 160.0]])]
        # camera far from the target: no true boxes; the only detection
        # touches the edge and must be ignored
        records[0]["uav"]["true"]["position"] = [0.0, 50.0, 30.0]
        m = compute_metrics(records, s)["detection"]
        assert m["tp"] == 0 and m["fp"] == 0


def per_record_true_boxes(record, s) -> dict:
    """Each true target projected alone (box_alone) from the record's true
    pose, one record at a time, as compute_metrics once did; a box on the
    image edge is not scored."""
    true = record["uav"]["true"]
    cam_from_world = camera_pose(true["yaw"], true["position"], s.planner.cam_depression).inverse()
    boxes = {t.id: box_alone(t, cam_from_world, s.camera) for t in s.targets}
    return {tid: box for tid, box in boxes.items()
            if box is not None and not on_image_edge(box, s.camera, s.filter.edge_margin_px)}


def image_edge(box, k, margin) -> bool:
    """on_image_edge of one box as a scalar or-chain: the block mask's oracle."""
    u0, v0, u1, v1 = (float(c) for c in box)
    return u0 <= margin or v0 <= margin or u1 >= k.width - margin or v1 >= k.height - margin


@cache
def edge_margin_scenario(margin):
    return scenario(filter={"max_depth": 50.0, "edge_margin_px": margin})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_block_scored_mask_equals_per_box_check(data):
    # _true_views scores a whole block's boxes at once: a view scores a
    # target that is visible and whose box is off the image edge. Boxes
    # lie exactly on each bound, at -0.0 and at huge values, and a hidden
    # target's box is NaN, as visible_boxes gives it
    margin = data.draw(st.sampled_from([0.0, 1.0, 2.5, 40.0]))
    s = edge_margin_scenario(margin)
    k = s.camera
    bounds = [margin, k.width - margin, k.height - margin, float(k.width), float(k.height)]
    coordinate = st.sampled_from(bounds + [0.0, -0.0, 1e308, -1e308]) | st.floats(
        -1e3, 1e3, allow_subnormal=True
    )
    frames, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    visible = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n), min_size=frames, max_size=frames
    )))
    boxes = np.full((frames, n, 4), np.nan)
    for f, i in zip(*np.nonzero(visible)):
        boxes[f, i] = data.draw(st.lists(coordinate, min_size=4, max_size=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "visible_boxes", lambda *args: (boxes, visible))
        positions = np.tile([0.0, 0.0, 30.0], (frames, 1))
        _, _, _, scored = harness._true_views(s, np.zeros(frames), positions)
    want = [
        [bool(seen) and not image_edge(box, k, margin) for box, seen in zip(*row)]
        for row in zip(boxes, visible)
    ]
    assert scored == want
    # one box of four floats at a time, the same four comparisons give a bool
    assert all(on_image_edge(box, k, margin) is image_edge(box, k, margin)
               for box in map(tuple, boxes.reshape(-1, 4).tolist()))


def test_compute_metrics_holds_one_chunk_of_a_stream(monkeypatch, shared_run):
    # the replay fold pulls at most METRICS_CHUNK records ahead of those it
    # has scored, so a streamed trace is held one chunk at a time
    s = scenario()
    records = shared_run(s).records
    chunk = harness.METRICS_CHUNK
    assert len(records) > 2 * chunk
    table = compute_metrics(records, s)
    scored, ahead = 0, []
    add = harness._Scores.add

    def counted_add(self, record, *view):
        nonlocal scored
        scored += 1
        add(self, record, *view)

    def stream():
        for pulled, record in enumerate(records, 1):
            ahead.append(pulled - scored)
            yield record

    monkeypatch.setattr(harness._Scores, "add", counted_add)
    assert compute_metrics(stream(), s) == table
    assert scored == len(ahead) == len(records)
    assert max(ahead) <= chunk


class TestWriteCloud:
    def test_fixed_decimal_format(self, tmp_path):
        path = tmp_path / "c.xyz"
        write_cloud(path, np.array([[1.0, 2.5, -3.25], [0.1234567, 0.0, 9.0]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "1.000000 2.500000 -3.250000"
        assert lines[1] == "0.123457 0.000000 9.000000"


def on_line(index, edit):
    """A trace edit (of the list of lines) that applies edit to line index's
    JSON and writes it back with dumps."""
    def edit_lines(lines: list[str], dumps) -> list[str]:
        lines[index] = dumps(edit(json.loads(lines[index])))
        return lines
    return edit_lines


def set_in_header(*keys, value):
    """A trace-line edit that sets the header's scenario[keys[0]][keys[1]]... to value."""
    return lambda header: {**header, "scenario": with_leaf(keys, value, header["scenario"])}


def set_in_record(*keys, value):
    """A trace-line edit that sets record[keys[0]][keys[1]]... to value."""
    def edit(frame: dict) -> dict:
        field = frame["record"]
        for key in keys[:-1]:
            field = field[key]
        field[keys[-1]] = value
        return frame
    return edit


def targets_block(line: str) -> SimpleNamespace:
    """The text of a run-layout frame line's targets value and where it starts and ends."""
    start = line.index('"targets":') + len('"targets":')
    end = line.index(',"tracks":', start)
    return SimpleNamespace(text=line[start:end], start=start, end=end)


def replay_exits_2(trace: Path, lines: list[str], capsys) -> None:
    """Write lines to trace and require replay-metrics to reject it: exit 2,
    no table, and one line of error."""
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_main(["replay-metrics", str(trace)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid trace: ") and err.count("\n") == 1


def story(*kinds) -> list[dict]:
    """A record's events that spawn target 1 and then name it with kinds."""
    spawn = {"type": "spawned", "target": 1, "bbox": [300.0, 220.0, 340.0, 260.0]}
    return [spawn, *({"type": kind, "target": 1} for kind in kinds)]


# Trace edits that replay must reject with exit 2, each a function of the
# trace's list of lines and the json.dumps that writes an edited line back.
MALFORMED_EDITS = [
    *(on_line(1, edit) for edit in [  # edits of the first frame line
        lambda frame: {"type": "frame", "record": {}},  # KeyError in read_trace
        set_in_record("uav", "true", "yaw", value="north"),  # TypeError in read_trace
        lambda frame: [frame],  # not an object, in read_trace
        lambda frame: {**frame, "type": "frames"},  # an unknown type in read_trace
        # a second scenario header in read_trace
        lambda frame: {"type": "scenario", "scenario": scenario_to_dict(scenario(seed=4))},
        # values that scoring would read as numbers or as a mode other
        # than mapping, in read_trace
        set_in_record("uav", "true", "yaw", value="0.5"),
        set_in_record("uav", "true", "yaw", value=True),
        set_in_record("uav", "true", "position", value=["1", "2", "3"]),
        set_in_record(
            "detections",
            value=[{"bbox": [300.0, 220.0, 340.0, 260.0, 1.0], "score": 1.0}],
        ),
        set_in_record("events", value=[{"type": "spawned", "target": 1, "bbox": [0.0] * 5}]),
        set_in_record("mode", value="bogus"),
        # the mean of the target entry that a converged event names
        lambda frame: set_in_record("events", value=story("converging", "converged"))(
            set_in_record("targets", value=[{"id": 1, "mean": [True, True, True]}])(frame)
        ),
        # non-finite numbers where scoring reads them, in read_trace: a
        # NaN box was once scored on a frame with no true box
        set_in_record(
            "detections",
            value=[{"bbox": [float("nan"), 220.0, 340.0, 260.0], "score": 1.0}],
        ),
        set_in_record("uav", "true", "position", value=[10.0, float("-inf"), 30.0]),
        set_in_record(
            "events",
            value=[{"type": "spawned", "target": 1, "bbox": [0.0, 0.0, float("nan"), 1.0]}],
        ),
        lambda frame: set_in_record("events", value=story("converging", "converged", "mapped"))(
            set_in_record("targets", value=[{"id": 1, "mean": [float("nan"), 28.0, 1.0]}])(
                frame
            )
        ),
        # an integer too large for a float
        set_in_record("uav", "true", "yaw", value=10**400),
        # stories that LIFECYCLE forbids: an unknown kind, a target mapped
        # before it converges, a scored event that names no target, and a
        # live target that a scored event names with no entry
        set_in_record("events", value=[{"type": "convergd", "target": 1}]),
        set_in_record("events", value=story("mapped")),
        set_in_record("events", value=[{"type": "converging"}]),
        set_in_record("events", value=story("converging")),
    ]),
    # numbers in the header that a scenario file may not hold: once
    # replayed as a table (of 0 % from the NaN) or, for fx, a traceback
    *(on_line(0, set_in_header(*path, value=value)) for path, value in [
        (("filter", "max_depth"), float("inf")),
        (("match_dist",), float("nan")),
        (("seed",), 10**400),
        (("camera", "fx"), 10**400),
    ]),
    lambda lines, dumps: [lines[1], lines[0], *lines[2:]],  # a frame line before the header
    lambda lines, dumps: [],  # no line at all
    # the last frame line, before the summary footer: no table is
    # printed until the fold has read every record
    on_line(-2, set_in_record("mode", value="bogus")),
]
MALFORMED_IDS = [
    "empty_record", "string_yaw", "array_line", "unknown_type", "second_header",
    "numeric_string_yaw", "bool_yaw", "string_position", "five_number_bbox",
    "five_number_spawn_bbox", "unknown_mode", "bool_mean", "nan_bbox",
    "infinite_position", "nan_spawn_bbox", "nan_mean", "huge_int_yaw",
    "unknown_event_type", "mapped_while_tracking", "converging_of_no_target",
    "converging_without_its_entry",
    "infinite_header_max_depth", "nan_header_match_dist", "huge_int_header_seed",
    "huge_int_header_fx",
    "frame_before_header", "empty_trace", "malformed_last_frame",
]


@pytest.fixture(scope="module")
def short_trace(shared_run) -> Path:
    """The trace of a 5 s run, too short to find anything."""
    return shared_run(scenario(max_sim_time=5.0), traced=True).trace_path


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(BASE))
        assert cli_main(["validate", str(path)]) == 0
        assert "scenario OK" in capsys.readouterr().out

    def test_validate_invalid_exit_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        bad = copy.deepcopy(BASE)
        bad["camera"]["fx"] = -5.0
        path.write_text(json.dumps(bad))
        assert cli_main(["validate", str(path)]) == 2

    def test_run_and_replay(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(BASE))
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "completed" in printed and "mapped" in printed
        assert cli_main(["replay-metrics", str(out / "trace.jsonl")]) == 0
        assert "detection" in capsys.readouterr().out

    def test_run_timeout_exit_3(self, tmp_path):
        data = copy.deepcopy(BASE)
        data["max_sim_time"] = 5.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert cli_main(["run", str(path), "--metrics-only", "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()  # --metrics-only writes nothing

    @pytest.mark.parametrize("name", sorted(BAD_SCENARIO_TEXTS))
    def test_bad_numbers_and_short_polygon_exit_2(self, tmp_path, capsys, name):
        path = tmp_path / "s.json"
        path.write_text(BAD_SCENARIO_TEXTS[name])
        assert cli_main(["validate", str(path)]) == 2
        assert cli_main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("invalid scenario") == 2

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(BASE))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_seed_past_a_float_exit_2(self, tmp_path, capsys):
        # run --seed passes the check that a file's seed does: it once ran
        # and wrote a header that validate rejects
        path = tmp_path / "s.json"
        path.write_text(json.dumps(BASE))
        out = tmp_path / "o"
        assert cli_main(["run", str(path), "--out", str(out), "--seed", str(10**400)]) == 2
        assert not out.exists()
        path.write_text(json.dumps(with_leaf(("seed",), 10**400)))
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("seed must be" in line for line in err)

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        # --out naming an existing file cannot become the output directory
        path = tmp_path / "s.json"
        path.write_text(json.dumps(BASE))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli_main(["run", str(path), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["basic_format", "_styles", "info"])
    def test_log_level_from_the_environment(self, tmp_path, value):
        # TARGETSIM_LOG names a level; a value that is not one, even a name
        # the logging module defines, logs at WARNING, as an unset one does
        data = copy.deepcopy(BASE)
        data["max_sim_time"] = 1.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "TARGETSIM_LOG": value,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "targetsim.cli", "run", str(path), "--metrics-only"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 3 and "Traceback" not in done.stderr, done.stderr
        assert "WARNING:targetsim:run unit incomplete" in done.stderr
        assert ("INFO:targetsim:run unit: 1 targets" in done.stderr) == (value == "info")

    def test_replay_missing_file_exit_2(self, tmp_path):
        assert cli_main(["replay-metrics", str(tmp_path / "nope.jsonl")]) == 2

    @pytest.mark.parametrize("edit", MALFORMED_EDITS, ids=MALFORMED_IDS)
    def test_replay_malformed_trace_exit_2(self, tmp_path, capsys, short_trace, edit):
        lines = edit(short_trace.read_text().splitlines(), json.dumps)
        replay_exits_2(tmp_path / "trace.jsonl", lines, capsys)

    @pytest.mark.parametrize("edit", MALFORMED_EDITS, ids=MALFORMED_IDS)
    def test_replay_malformed_run_layout_exit_2(self, tmp_path, capsys, short_trace, edit):
        # the same edits written as run writes a line, which replay decodes
        # on its own path (_frame_record)
        lines = edit(short_trace.read_text().splitlines(), _json_line)
        replay_exits_2(tmp_path / "trace.jsonl", lines, capsys)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line, block: line[: block.start + len(block.text) // 2],
            lambda line, block: line[: block.end],
            lambda line, block: line[: line.index('"tracks":') + len('"tracks":')],
            lambda line, block: line.replace(
                '"detections":[', '"detections":[{"bbox":[1,2,3,4],"score":1.0},,', 1
            ),
            lambda line, block: line.replace('"detections":[', '"detections":' + "[" * 100_000, 1),
            lambda line, block: line + '{"type":"frame"}',
            lambda line, block: line[: block.end] + "[]" + line[block.end :],
            lambda line, block: line[: block.end - 1] + line[block.end :],
        ],
        ids=[
            "truncated_in_repeated_block", "truncated_after_repeated_block",
            "truncated_at_a_value", "double_comma_in_detections", "deep_nesting_in_detections",
            "text_after_frame",
            "repeated_block_with_text_appended", "repeated_block_without_its_bracket",
        ],
    )
    def test_replay_malformed_text_exit_2(self, tmp_path, capsys, nominal_traced, edit):
        # raw edits of a frame line in run's layout whose targets block
        # repeats the line before's, so that replay has that block decoded
        lines = nominal_traced.trace_path.read_text().splitlines()
        n = next(
            n for n in range(2, len(lines) - 1)
            if targets_block(lines[n]).text == targets_block(lines[n - 1]).text != "[]"
        )
        lines[n] = edit(lines[n], targets_block(lines[n]))
        replay_exits_2(tmp_path / "trace.jsonl", lines, capsys)

    @pytest.mark.parametrize("old, new", [
        ('{"target":1,"type":"converging"}', '{"target":1,"type":"mapped"}'),
        ('{"target":1,"type":"converged"}', '{"target":1,"type":"convergd"}'),
        ('{"target":1,"type":"converged"}', '{"target":999,"type":"converged"}'),
        ('"type":"converged"}', None),
    ], ids=["converging_as_mapped", "converged_misspelt", "converged_of_unspawned_target",
            "converged_without_its_entry"])
    def test_replay_impossible_story_exit_2(self, tmp_path, capsys, nominal_traced, old, new):
        # edits of the nominal trace's first line with old: each was once
        # replayed with exit 0 and a table of 0 % converging or converged
        # recall or precision; None deletes that line's target entries
        lines = nominal_traced.trace_path.read_text().splitlines()
        n = next(n for n, line in enumerate(lines) if old in line)
        if new is None:
            lines[n] = _json_line(set_in_record("targets", value=[])(json.loads(lines[n])))
        else:
            lines[n] = lines[n].replace(old, new, 1)
        replay_exits_2(tmp_path / "trace.jsonl", lines, capsys)

    def test_replay_deep_nesting_exit_2(self, tmp_path, capsys, short_trace):
        # a line nested too deep for the JSON decoder
        lines = short_trace.read_text().splitlines()
        lines[1] = "[" * 100_000
        replay_exits_2(tmp_path / "trace.jsonl", lines, capsys)

    def test_replay_scores_integer_boxes_as_floats(self, tmp_path, capsys, nominal_lines):
        # a spawn's box of integers is scored as the floats it rounds to, as
        # every box that run writes: squared in float arithmetic, 10**300 is inf
        header, frame = nominal_lines.lines[0], nominal_lines.lines[nominal_lines.first["spawned"]]
        frame = json.loads(frame)
        (spawn,) = (ev for ev in frame["record"]["events"] if ev["type"] == "spawned")
        tables = []
        for big in (10**300, 1e300):
            spawn["bbox"] = [0, 0, big, big]
            trace = tmp_path / "trace.jsonl"
            trace.write_text(f"{header}\n{json.dumps(frame)}\n")
            capsys.readouterr()
            assert cli_main(["replay-metrics", str(trace)]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]

    def test_seed_override_changes_run(self, tmp_path):
        data = copy.deepcopy(BASE)
        data["detector"] = {"fp_rate": 0.3, "pixel_noise_sigma": 1.0}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
        assert cli_main(["run", str(path), "--out", str(tmp_path / "b"), "--seed", "99"]) == 0
        a = (tmp_path / "a" / "trace.jsonl").read_text().splitlines()
        b = (tmp_path / "b" / "trace.jsonl").read_text().splitlines()
        assert a[1] != b[1]  # different seeds diverge from the first frame


def no_child_left():
    """True when this process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def disk_full(record, text):
    raise OSError(28, "No space left on device")


def writer_dies(record, text):
    os._exit(1)


class TestTraceWriter:
    # a traced run's trace is written and scored in a forked writer process

    @pytest.mark.parametrize("fault, message", [
        (disk_full, "[Errno 28] No space left on device"), (writer_dies, "the trace writer died"),
    ], ids=["write_error", "writer_died"])
    def test_writer_failure_exits_2(self, tmp_path, capsys, monkeypatch, fault, message):
        # the writer inherits the fault, patched before the run, and meets
        # it at its first frame line: the CLI prints the writer's own error
        monkeypatch.setattr("targetsim.trace._frame_line", fault)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(BASE))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"cannot write output: {message}\n"
        assert no_child_left()

    def test_run_sends_its_records_a_batch_at_a_time(self, tmp_path, monkeypatch):
        # the run holds at most BATCH records: it sends each batch once it
        # is full, and the rest with the summary
        sent, send = [], harness._TraceWriter.send

        def counted(self, summary=None):
            sent.append((len(self.batch), summary is not None))
            send(self, summary)

        monkeypatch.setattr(harness._TraceWriter, "send", counted)
        result = run(missions.scenario("nominal"), out_dir=tmp_path)
        full, rest = divmod(result.frames, harness._TraceWriter.BATCH)
        assert sent == [(harness._TraceWriter.BATCH, False)] * full + [(rest, True)]
        assert no_child_left()

    @pytest.mark.parametrize("n", [1, 300])
    def test_mission_error_keeps_the_frames_before_it(self, tmp_path, monkeypatch, nominal_traced, n):
        # an exception in the mission at frame n reaches the caller, and the
        # trace holds the header and the n - 1 frame lines of the whole run
        # made before it (300: past the first batch sent)
        on_perception, calls = MissionExecutive.on_perception, []

        def failing(self, *args):
            calls.append(1)
            if len(calls) == n:
                raise RuntimeError("injected")
            return on_perception(self, *args)

        monkeypatch.setattr(MissionExecutive, "on_perception", failing)
        with pytest.raises(RuntimeError, match="injected"):
            run(missions.scenario("nominal"), out_dir=tmp_path)
        lines = nominal_traced.trace_path.read_text().splitlines()
        assert (tmp_path / "trace.jsonl").read_text().splitlines() == lines[:n]
        assert no_child_left()


def test_cli_starts_without_scipy():
    # assignment is solved in Python, so no CLI process pays scipy's import
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, targetsim.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_modules_import_down_one_chain():
    # scenario <- trace <- harness <- cli: no module imports one after it in
    # the chain, inside a function or out, and each imports the one before
    package = Path(__file__).resolve().parents[1] / "src" / "targetsim"
    chain = ("scenario", "trace", "harness", "cli")
    for i, module in enumerate(chain[:-1]):
        names = set()
        for node in ast.walk(ast.parse((package / f"{module}.py").read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                base = "targetsim" + (f".{node.module}" if node.module else "") if node.level else node.module
                names |= {base, *(f"{base}.{alias.name}" for alias in node.names)}
        imported = {name.split(".")[1] for name in names if name.startswith("targetsim.")}
        assert not imported & set(chain[i + 1:]), module
        assert i == 0 or chain[i - 1] in imported  # the walk reads relative imports


def test_two_checked_poses_per_flight_block(monkeypatch):
    # the run builds one world-from-camera stack and its inverse per flight
    # block, in one _true_views call, and scores each frame with its block's
    # row, so no _true_views call comes after the last frame's record; every
    # Pose runs check_rotations
    data = missions.nominal()
    data["max_sim_time"] = 100.0  # 1,000 frames: the first spawn and its keyframe updates
    s = scenario_from_dict(data)
    counts = {"poses": 0, "checks": 0, "records": 0, "metrics": 0}
    records_before_views = []  # per _true_views call, the records made before it

    def counted(original, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    true_views = harness._true_views

    def views(*args):
        records_before_views.append(counts["records"])
        return true_views(*args)

    monkeypatch.setattr(geometry.Pose, "__init__", counted(geometry.Pose.__init__, "poses"))
    monkeypatch.setattr(geometry, "check_rotations", counted(geometry.check_rotations, "checks"))
    monkeypatch.setattr(harness, "_true_views", views)
    monkeypatch.setattr(harness, "_make_record", counted(harness._make_record, "records"))
    monkeypatch.setattr(
        harness, "_true_boxes_for_frames", counted(harness._true_boxes_for_frames, "metrics")
    )
    result = run(s)
    events = [ev["type"] for r in result.records for ev in r["events"]]
    assert result.frames == counts["records"] == 1000
    assert "spawned" in events and "converging" in events
    blocks = len(records_before_views)
    assert counts["metrics"] == 0 and max(records_before_views) < result.frames
    assert counts["poses"] == 2 * blocks and counts["checks"] == counts["poses"]
    assert -(-result.frames // harness.FLIGHT_BLOCK) <= blocks <= result.frames // 20


def test_one_box_form_from_the_detector_to_the_filter(monkeypatch):
    # a single box is a tuple of four Python floats wherever it travels:
    # every detection (noisy and false positive), published track and
    # spawned event of 30 s of smoke clutter
    data = missions.clutter1(7, smoke=True)
    data["max_sim_time"] = 30.0
    boxes = {"detections": [], "tracks": [], "spawned": []}

    def spy(owner, name, stage, boxes_of):
        original = getattr(owner, name)

        def wrapper(*args):
            out = original(*args)
            boxes[stage] += boxes_of(out)
            return out
        monkeypatch.setattr(owner, name, wrapper)

    spy(harness, "detect", "detections", lambda out: [d.bbox for d in out])
    spy(BoxTracker, "step", "tracks", lambda out: [b.bbox for b in out])
    spy(PointsFilter, "tick", "spawned", lambda out: [e.bbox for e in out[0] if e.kind == "spawned"])
    run(scenario_from_dict(data))
    for stage, found in boxes.items():
        assert found, stage
        assert all(
            type(b) is tuple and len(b) == 4 and all(type(x) is float for x in b) for b in found
        ), stage
    for bad in [(1.0, 2.0, 3.0), (30.0, 2.0, 10.0, 40.0), (1.0, 40.0, 30.0, 2.0), (1.0, 2.0, 1.0, 40.0),
                (1.0, 2.0, 30.0, 2.0)]:
        with pytest.raises(ValueError):
            Detection(bad, 1.0)


def fly_frames(s, plans, frames, blocks):
    """Fly `frames` frames from rest at the first waypoint of plans[0] =
    (plan, cursor). plans[f] replaces the plan and cursor after frame f, as
    the mission replans, and a reach moves the cursor on, as
    on_waypoint_reached does. With blocks the frames come from
    harness._true_frames, driven by a stub mission, with each estimate
    drawn as the run draws it; without, frame by frame as the run flew
    before blocks: fly and step, waypoint_reached, a 2-row (true, estimated)
    camera_pose and its inverse, and a one-view visible_boxes in the true
    view. Returns per frame (state, estimate, reached, the true camera's and
    the estimated camera's world-from-camera and cam-from-world rows, the
    true boxes), and the generator."""
    rng = np.random.default_rng(5)
    mission = SimpleNamespace(plan=plans[0][0], cursor=plans[0][1])
    uav = UavState.at_rest(mission.plan[0].position, mission.plan[0].yaw)
    est = uav.position
    flight = harness._true_frames(s, mission, uav)
    out = []
    for f in range(1, frames + 1):
        plan, cursor = mission.plan, mission.cursor
        if blocks:
            uav, reached, true_boxes, visible, scored, rotation = next(flight)
            margin = s.filter.edge_margin_px  # the block's scored row, against one box at a time
            assert scored == [v and not on_image_edge(b, s.camera, margin)
                              for b, v in zip(true_boxes, visible.tolist())]
            if cursor < len(plan):  # a loiter frame draws nothing
                est = step(uav.position, s.uav, rng)
            # the true camera sits at the true position; the estimated
            # camera as tick gets it and inverts it
            true = (rotation, uav.position, *geometry.invert(rotation, uav.position))
            est_camera = (rotation, est, *geometry.invert(rotation, est))
            boxes = [b if seen else None for b, seen in zip(true_boxes, visible)]
        else:
            reached = False
            if cursor < len(plan):
                uav = fly(uav, plan[cursor], s.uav)
                est = step(uav.position, s.uav, rng)
                reached = waypoint_reached(uav, plan[cursor])
            w = camera_pose([uav.yaw, uav.yaw], [uav.position, est], s.planner.cam_depression)
            v = w.inverse()
            true = (w.rotation[0], w.translation[0], v.rotation[0], v.translation[0])
            est_camera = (w.rotation[1], w.translation[1], v.rotation[1], v.translation[1])
            seen, visible = visible_boxes(s.targets, v.rotation[:1], v.translation[:1], s.camera)
            boxes = [b if vis else None for b, vis in zip(seen[0], visible[0])]
        out.append((uav, est, reached, true, est_camera, boxes))
        mission.plan, mission.cursor = plans.get(f, (plan, cursor + reached))
    return out, rng


def test_flight_blocks_equal_the_per_frame_path(monkeypatch):
    s = scenario(uav={"pose_noise_sigma": 0.1})
    search = lawnmower(s.planner.survey_polygon, s.planner.lane_spacing, 30.0)
    detour = [search[0], Waypoint([12.0, 16.0, 30.0], 1.0), Waypoint([16.0, 24.0, 30.0], 0.3)]
    # frame 100 cuts the first block short with a new plan at the same
    # cursor; the detour's block ends at its last waypoint and loiter
    # frames follow; the survey resumes at frame 600, and at frame 900 the
    # same plan moves on by a cursor alone
    plans = {0: (search, 0), 100: (detour, 1), 600: (search, 3), 900: (search, 6)}
    missions, block_reaches, built = [], [], []
    true_frames, true_views = harness._true_frames, harness._true_views

    def spied_frames(scenario, mission, state):
        missions.append(mission)
        return true_frames(scenario, mission, state)

    def spied_reached(state, waypoint):
        block_reaches.append(waypoint_reached(state, waypoint))
        return block_reaches[-1]

    def spied_views(scenario, yaws, positions):
        # a block is flown before its views are built, and until its first
        # frame is taken the mission still holds its plan and first cursor
        plan, cursor = missions[0].plan, missions[0].cursor
        built.append((plan, cursor, cursor + sum(block_reaches), len(yaws)))
        block_reaches.clear()
        return true_views(scenario, yaws, positions)

    monkeypatch.setattr(harness, "_true_frames", spied_frames)
    monkeypatch.setattr(harness, "waypoint_reached", spied_reached)
    monkeypatch.setattr(harness, "_true_views", spied_views)
    blocked, rng = fly_frames(s, plans, 1200, blocks=True)
    reference, reference_rng = fly_frames(s, plans, 1200, blocks=False)

    for (uav, est, reached, true, est_camera, boxes), want in zip(blocked, reference):
        assert reached == want[2]
        assert np.array_equal(uav.position, want[0].position) and uav.yaw == want[0].yaw
        assert np.array_equal(est, want[1])
        assert all(np.array_equal(a, b) for a, b in zip(true + est_camera, want[3] + want[4]))
        assert [b is None for b in boxes] == [b is None for b in want[5]]
        assert all(b is None or np.array_equal(b, c) for b, c in zip(boxes, want[5]))
    assert rng.random() == reference_rng.random()  # loiter frames draw nothing
    assert any(b is not None for row in reference for b in row[5])

    # the script covers each case: (plan, first cursor, last cursor, rows) per block
    first, detoured, loiter, *resumed = built
    assert first[0] is search and first[3] == harness.FLIGHT_BLOCK  # cut at frame 100
    # through a reach inside the block to the detour's last waypoint, where it ends
    assert detoured[0] is detour and detoured[1:3] == (1, len(detour))
    assert detoured[3] < harness.FLIGHT_BLOCK
    assert 100 + detoured[3] in [f for f, row in enumerate(reference, 1) if row[2]]
    assert loiter[0] is detour and loiter[1] == loiter[2] == len(detour)
    # at frame 600, and cut by a cursor alone at frame 900
    assert [b[1] for b in resumed] == [3, 4, 6, 6]
    assert all(b[0] is search for b in resumed)
    assert {b[3] for b in [loiter, *resumed]} == {harness.FLIGHT_BLOCK}


def test_run_loiter_frames_keep_the_estimate(monkeypatch):
    # with no true target, clutter clouds alive after the survey keep the
    # mission from idling, so the vehicle loiters at the last waypoint: a
    # frame whose true pose did not move draws no estimate and keeps the
    # last one, and every other frame draws one
    s = scenario(
        uav={"pose_noise_sigma": 0.1}, detector={"fp_rate": 0.05},
        tracker={"min_hits": 1}, world={"targets": []},
    )
    draws = []
    monkeypatch.setattr(harness, "step", lambda *args: draws.append(1) or step(*args))
    records = run(s).records
    uav = [r["uav"] for r in records]
    loiter = [b["true"] == a["true"] for a, b in zip(uav, uav[1:])]
    assert sum(loiter) > 10 and len(draws) == len(records) - sum(loiter)
    assert all((b["est"] == a["est"]) == still for a, b, still in zip(uav, uav[1:], loiter))


def test_one_fit_per_cloud_change(monkeypatch, nominal_run):
    # a target's cached summary is the only Gaussian fit of its cloud: one
    # per spawn, keyframe update and mapping. The fits are counted in a
    # replay of the whole nominal run's filter calls (1,860 frames), so that
    # its one mapping is counted too; only the filter fits a cloud.
    counts = {"fits": 0}
    fit = points_filter.GaussianSummary.from_points.__func__

    def counted_fit(cls, points):
        counts["fits"] += 1
        return fit(cls, points)

    calls = nominal_run.recording.calls
    monkeypatch.setattr(points_filter.GaussianSummary, "from_points", classmethod(counted_fit))
    missions.replay(PointsFilter, missions.scenario("nominal"), calls)
    updates = sum(len(returned[1]) for name, *_, returned in calls if name == "tick")
    events = [ev["type"] for r in nominal_run.records for ev in r["events"]]
    assert nominal_run.completed and updates > 0
    assert counts["fits"] == events.count("spawned") + updates + events.count("mapped")


def failing_orbit() -> Scenario:
    """The nominal scenario flown three times as fast with 400-point clouds,
    a second target 6 m from the first and a convergence streak longer than
    any orbit: the second target converges while the first is orbited and
    waits in the queue, the first's estimation orbit fails (at frame 1,095)
    and the mission deregisters it; views score both targets."""
    data = missions.nominal()
    data["filter"].update(m=400, kld_streak_needed=10_000)
    data["uav"].update(v_max=3.0, a_max=3.0, yaw_rate_max=2.0)
    data["max_sim_time"] = 120.0
    data["world"]["targets"].append(
        {"id": "rock_b", "center": [46.0, 28.0, 1.0], "semi_axes": [1.0, 1.0, 1.0]}
    )
    return scenario_from_dict(data)


# Each mission, the changes to a filter target or to the live set that it
# must reach (a keyframe update leaves a KL divergence in the target's
# entry), and the most true targets that one of its views scores. Together
# they reach every change: spawns, keyframe updates, converging, converged,
# mapping, the tick's deregistrations and the mission's after a failed
# orbit. python3 tests/plain_run.py checks the other missions of
# tests/missions.PINS outside tier-1.
MAPPED = {"spawned", "keyframe", "converging", "converged", "mapped"}
ORACLE_MISSIONS = {
    "nominal": (partial(missions.scenario, "nominal"), MAPPED, 1),
    "smoke_clutter": (partial(missions.scenario, "smoke clutter"), MAPPED | {"deregistered"}, 1),
    "failing_orbit": (failing_orbit, {"spawned", "keyframe", "converging", "deregistered",
                                      "estimation_failed"}, 2),
}


@pytest.mark.parametrize("name", ORACLE_MISSIONS)
def test_run_and_replay_equal_the_plain_loop(shared_run, tmp_path, name):
    # run's and compute_metrics' special cases against tests/plain_run.py:
    # the same trace and clouds byte for byte, the same table from the run,
    # both replays and the metrics-only run, and each frame scored on the
    # same view as the plain loop projects alone
    mission, changes, most_scored = ORACLE_MISSIONS[name]
    s = mission()
    traced, recorded = shared_run(s, traced=True), shared_run(s)
    views = plain_run(s, tmp_path)
    assert outputs(tmp_path) == outputs(traced.trace_path.parent)
    run_views = recorded.recording.views
    assert [row for _, row in views] == [row for _, row in run_views]
    assert max(sum(row) for _, row in views) == most_scored
    boxes = [np.array([b for b, _ in v]).tobytes() for v in (views, run_views)]
    assert boxes[0] == boxes[1]
    replayed_scenario, records = read_trace(traced.trace_path)
    table = compute_metrics(records, replayed_scenario)
    assert plain_replay(tmp_path / "trace.jsonl") == table == traced.metrics == recorded.metrics
    reached = {ev["type"] for r in recorded.records for ev in r["events"]}
    reached |= {"keyframe" for r in recorded.records for e in r["targets"] if e["kld"] is not None}
    assert changes <= reached


def test_metrics_only_run_encodes_nothing(shared_run):
    # entry texts are encoded only when a trace line needs them
    result = shared_run(missions.scenario("smoke clutter"))
    assert any(r["targets"] for r in result.records) and result.recording.encodes == 0


def test_association_culls_clouds(monkeypatch, shared_run):
    # the count kernel skips clouds whose hull no box can see: a hull that
    # stopped culling would project every cloud again; the clouds handed to
    # it and those it projected are counted in a replay of smoke clutter's
    # filter calls
    s = missions.scenario("smoke clutter")
    calls = shared_run(s).recording.calls
    counts = {"clouds": 0, "projected": 0}
    costs, pixel_rows = points_filter.projection_count_costs, points_filter.pixel_rows

    def count_costs(boxes, targets, *args):
        counts["clouds"] += len(targets)
        return costs(boxes, targets, *args)

    def project(pc, k):
        counts["projected"] += 1
        return pixel_rows(pc, k)

    monkeypatch.setattr(points_filter, "projection_count_costs", count_costs)
    monkeypatch.setattr(points_filter, "pixel_rows", project)
    missions.replay(PointsFilter, s, calls)
    assert 0 < counts["projected"] < 0.8 * counts["clouds"]


@pytest.fixture(scope="module")
def nominal_run(shared_run):
    """The nominal scenario's metrics-only run, which keeps its records."""
    return shared_run(missions.scenario("nominal"))


@pytest.fixture(scope="module")
def nominal_traced(shared_run):
    """The nominal scenario's run with its trace, which keeps no records."""
    return shared_run(missions.scenario("nominal"), traced=True)


# every float json spells its own way, and the ends of the float range
JSON_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324,
                     1e308, -1.7976931348623157e308, 1e16, 1e-7, 0.1]),
)
JSON_INTS = st.one_of(st.integers(-(2**70), 2**70), st.integers(0, 10))


def floats_of(n):
    return st.lists(JSON_FLOATS, min_size=n, max_size=n)


FRAME_RECORDS = st.fixed_dictionaries({
    "t": JSON_FLOATS,
    "frame": JSON_INTS,
    "uav": st.fixed_dictionaries({
        side: st.fixed_dictionaries({"position": floats_of(3), "yaw": JSON_FLOATS})
        for side in ("true", "est")
    }),
    "detections": st.lists(
        st.fixed_dictionaries({"bbox": floats_of(4), "score": JSON_FLOATS}), max_size=3
    ),
    "tracks": st.lists(st.fixed_dictionaries({"id": JSON_INTS, "bbox": floats_of(4)}), max_size=3),
    "mode": st.sampled_from([m.value for m in MissionMode]) | st.text(max_size=8),
    # the writer writes any text as a kind, so events are built as dicts
    "events": st.lists(
        st.fixed_dictionaries({"type": st.sampled_from(EventKind) | st.text(max_size=8)}, optional={
            "target": JSON_INTS,
            "mode": st.sampled_from([m.value for m in MissionMode]) | st.text(max_size=8),
            "bbox": floats_of(4),
        }),
        max_size=4,
    ),
})


class TestTargetEntries:
    @given(
        record=FRAME_RECORDS,
        targets=st.lists(
            st.fixed_dictionaries({"id": JSON_INTS, "mean": floats_of(3), "kld": JSON_FLOATS}),
            max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_frame_line_equals_json_dumps_of_the_record(self, record, targets):
        # field by field, the line json.dumps writes of the whole record,
        # on every kind of float json spells, large ints, empty lists,
        # non-ASCII text and every event kind with and without its keys
        texts = [_json_line(t) for t in targets]
        whole = {**record, "targets": [json.loads(text) for text in texts]}
        line = _frame_line(record, ",".join(texts))
        assert line == _json_line({"type": "frame", "record": whole})

    def test_entry_rebuilt_on_each_change(self):
        # one target through a spawn, a keyframe update, a tick that is no
        # keyframe, a mapping with an empty cloud, leaving the live set and
        # coming back
        rng = np.random.default_rng(18)
        k = scenario().camera
        flt = PointsFilter(k, FilterConfig(max_depth=50.0))
        box = [TrackedBox(1, np.array([280.0, 200.0, 360.0, 280.0]))]
        entries = _TargetEntries()

        def tick(x):
            camera = camera_pose(0.0, [x, 0.0, 30.0], np.deg2rad(60.0))
            return flt.tick(box, camera.rotation, camera.translation, rng)

        def entry():
            (one,) = entries.update(flt)
            (again,) = entries.update(flt)  # nothing changed: the entry is kept
            assert again is one
            return one

        tick(0.0)
        spawned = entry()
        assert entry() is spawned
        assert tick(1.0)[1] == [spawned["id"]]  # a keyframe update
        updated = entry()
        assert updated is not spawned and updated["kld"] is not None
        assert tick(1.0) == ([], [])  # the same pose again: no keyframe, no update
        assert entry() is updated
        target = flt.targets[0]
        summary = target.summary
        flt.mark_mapped(target.target_id, np.empty((0, 3)))
        assert target.summary is summary  # only the state changed
        mapped = entry()
        assert mapped is not updated and mapped["state"] == TargetState.MAPPED.value
        assert {**mapped, "state": updated["state"]} == updated
        # a target that is no longer live is dropped: back again, it is rebuilt
        flt.deregister(target.target_id)
        assert entries.update(flt) == []
        flt.targets = [target]
        flt.mark_mapped(target.target_id, np.empty((0, 3)))
        again = entry()
        assert again == mapped and again is not mapped

    def test_records_share_one_entry_per_change(self, nominal_run):
        records = nominal_run.records
        changes, previous = 0, {}
        for record in records:
            current = {e["id"]: e for e in record["targets"]}
            changes += sum(previous.get(i) != e for i, e in current.items())
            previous = current
        entries = [e for r in records for e in r["targets"]]
        assert len({id(e) for e in entries}) == changes < len(entries)


def test_replay_walks_the_record_keys_of_run(nominal_run, nominal_traced):
    # _frame_record reads a frame line's values in this order, so it reads
    # each frame line of the nominal trace in turn, not json.loads
    assert all(tuple(sorted(r)) == _RECORD_KEYS for r in nominal_run.records)
    block = [None, None]
    for line in nominal_traced.trace_path.read_text().splitlines()[1:-1]:
        assert _frame_record(line, block) == json.loads(line)["record"]


# One-leaf values for trace records: JSON_VALUES and the numbers that
# scoring rejects.
RECORD_VALUES = JSON_VALUES | st.sampled_from([float("nan"), float("-inf"), 10**400])


@pytest.fixture(scope="module")
def nominal_lines(nominal_traced) -> SimpleNamespace:
    """The nominal trace's lines, the index of the first frame line with each
    event type and the indices of the frame lines with events."""
    lines = nominal_traced.trace_path.read_text().splitlines()
    first, events = {}, []
    for n, line in enumerate(lines[1:-1], 1):
        kinds = [ev["type"] for ev in json.loads(line)["record"]["events"]]
        for kind in kinds:
            first.setdefault(kind, n)
        if kinds:
            events.append(n)
    return SimpleNamespace(lines=lines, first=first, events=events)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_read_trace_equals_json_loads_on_one_leaf_edits(nominal_lines, tmp_path_factory, data):
    # replay decodes run's own layout on a path of its own (_frame_record),
    # which reuses the last targets block: it must yield what json.loads
    # and the record check give, or raise their error. The check carries
    # each target's state in LIFECYCLE from record to record, so the lines
    # tell a legal story: the nominal target's spawned, converging,
    # converged and mapped frames, each but the last after the frame that
    # follows it, which has no event and the same targets block. One of the
    # four gets a one-leaf edit in run's layout, read after a block that
    # equals its own and before one that does not.
    lines, first = nominal_lines.lines, nominal_lines.first
    story = [first[kind] for kind in ("spawned", "converging", "converged", "mapped")]
    frames = []
    for n in story[:-1]:
        assert targets_block(lines[n + 1]).text == targets_block(lines[n]).text
        assert json.loads(lines[n + 1])["record"]["events"] == []
        frames += [lines[n + 1], lines[n]]
    frames.append(lines[story[-1]])
    assert len({targets_block(lines[n]).text for n in story}) == len(story)
    at = data.draw(st.sampled_from([1, 3, 5, 6]))  # a line of the story
    record = json.loads(frames[at])["record"]
    path = data.draw(st.sampled_from(leaf_paths(record)))
    frames[at] = _json_line({"record": with_leaf(path, data.draw(RECORD_VALUES), record),
                             "type": "frame"})
    trace = tmp_path_factory.getbasetemp() / "one_leaf_edit.jsonl"
    trace.write_text("\n".join([lines[0], *frames]) + "\n")

    want, want_error, states = [], None, {}
    try:
        for line in frames:
            want.append(_check_record(json.loads(line)["record"], states))
    except (LookupError, TypeError, ValueError) as exc:  # exit 2 in replay-metrics
        want_error = exc
    got, got_error = [], None
    try:
        got.extend(read_trace(trace)[1])
    except (LookupError, TypeError, ValueError) as exc:
        got_error = exc
    assert repr(got_error) == repr(want_error)
    assert [json.dumps(r) for r in got] == [json.dumps(r) for r in want]


def lifecycle_allows(story) -> bool:
    """Whether LIFECYCLE allows each event of story, in order, from its
    target's state: None before the target's first event, NO_TARGET for an
    event that names none."""
    states = {}
    for ev in story:
        target = ev.get("target")
        moves = LIFECYCLE[NO_TARGET if target is None else states.get(target)]
        if ev["type"] not in moves:
            return False
        states[target] = moves[ev["type"]]
    return True


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_replay_exits_2_exactly_on_a_story_lifecycle_forbids(
    nominal_lines, tmp_path_factory, data
):
    # one event of the nominal trace moved to another frame, or given
    # another type or target: replay-metrics exits 2 exactly when LIFECYCLE
    # forbids the trace's story, and otherwise prints the table of
    # tests/plain_run.py's replay
    lines = list(nominal_lines.lines)
    records = {n: json.loads(lines[n])["record"] for n in nominal_lines.events}
    n = data.draw(st.sampled_from(nominal_lines.events))
    events = records[n]["events"]
    i = data.draw(st.integers(0, len(events) - 1))
    change = data.draw(st.sampled_from(["move", "type", "target"]))
    if change == "move":
        to = data.draw(st.integers(1, len(lines) - 2).filter(lambda m: m != n))
        records.setdefault(to, json.loads(lines[to])["record"])
        moved_to = records[to]["events"]
        moved_to.insert(data.draw(st.integers(0, len(moved_to))), events.pop(i))
    elif change == "type":  # another kind, or one misspelt
        kinds = [kind.value for kind in EventKind if kind != events[i]["type"]] + ["convergd"]
        events[i]["type"] = data.draw(st.sampled_from(kinds))
    else:  # another target, or none
        targets = [t for t in (None, 1, 2, 999) if t != events[i].get("target")]
        events[i]["target"] = data.draw(st.sampled_from(targets))
        if events[i]["target"] is None:
            del events[i]["target"]
    for m, record in records.items():
        lines[m] = _json_line({"record": record, "type": "frame"})
    trace = tmp_path_factory.getbasetemp() / "one_event_edit.jsonl"
    trace.write_text("\n".join(lines) + "\n")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["replay-metrics", str(trace)])
    if not lifecycle_allows(ev for m in sorted(records) for ev in records[m]["events"]):
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("invalid trace: ") and err.getvalue().count("\n") == 1
        return
    assert (code, err.getvalue()) == (0, "")
    want = io.StringIO()
    with contextlib.redirect_stdout(want):
        _print_metrics(plain_replay(trace))
    assert out.getvalue() == want.getvalue()


def test_scored_event_may_name_a_target_that_its_record_ends(short_trace):
    # a duplicate converges and is dropped in one frame, so its record holds
    # no entry for it; a live target must have one
    record = json.loads(short_trace.read_text().splitlines()[1])["record"]
    assert record["targets"] == []
    record["events"] = story("converging", "converged")
    with pytest.raises(ValueError, match="has no entry"):
        _check_record(copy.deepcopy(record), {})
    record["events"] += [{"type": "deregistered", "target": 1},
                         {"type": "duplicate_dropped", "target": 1}]
    states = {}
    assert _check_record(copy.deepcopy(record), states)["events"] == record["events"]
    assert states == {1: EventKind.DEREGISTERED}


def test_each_event_kind_is_spelled_once_in_src():
    # every event kind is named through EventKind, so a misspelt kind in
    # src/ fails at import or here, not silently in a comparison
    kinds = {kind.value for kind in EventKind}
    spelled = collections.Counter(
        node.value
        for path in Path(targetsim.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value in kinds
    )
    assert spelled == dict.fromkeys(kinds, 1)


def test_tracer_finds_every_entry_point():
    # perfbench/tracer.py wraps layer entry points by name; a traced
    # benchmark run exits when one of them is gone
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        assert tracer.install_layers(t) == []
    finally:
        t.uninstall()
