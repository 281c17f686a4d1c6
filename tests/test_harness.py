"""Scenario schema, simulation loop, metrics, trace replay, CLI."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetsim.cli import main as cli_main
from targetsim.harness import (
    Scenario,
    ScenarioInvalid,
    compute_metrics,
    load_scenario,
    read_trace,
    run,
    scenario_from_dict,
    scenario_to_dict,
    write_cloud,
)
from targetsim.points_filter import Event

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


def with_leaf(path, value) -> dict:
    """A copy of BASE with the value at key path `path` replaced."""
    data = copy.deepcopy(BASE)
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

    def test_section_field_types_checked_not_cast(self):
        # an int passes for a float and is serialised as written
        s = scenario_from_dict(with_leaf(("planner", "lane_spacing"), 20))
        assert type(scenario_to_dict(s)["planner"]["lane_spacing"]) is int
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
        data = copy.deepcopy(BASE)
        data["world"]["targets"] = []
        data["max_sim_time"] = 400.0
        s = scenario_from_dict(data)
        result = run(s, out_dir=None, write_trace=False)
        assert result.completed
        m = result.metrics
        for stage in ("generation", "converging", "converged", "mapped"):
            assert m[stage]["precision"] is None
            assert m[stage]["recall"] is None

    def test_nominal_run_maps_target(self):
        result = run(scenario(), out_dir=None, write_trace=False)
        assert result.completed
        assert result.mapped_true_ids == {"rock"}
        m = result.metrics
        for stage in ("detection", "generation", "converging", "converged", "mapped"):
            assert m[stage]["precision"] == 1.0
            assert m[stage]["recall"] == 1.0

    def test_timeout_reports_incomplete(self):
        data = copy.deepcopy(BASE)
        data["max_sim_time"] = 5.0  # far too short to find anything
        result = run(scenario_from_dict(data), out_dir=None, write_trace=False)
        assert not result.completed

    def test_trace_written_and_replayable(self, tmp_path):
        s = scenario()
        result = run(s, out_dir=tmp_path)
        assert result.trace_path is not None and result.trace_path.exists()
        replay_scenario, replay_records, summary = read_trace(result.trace_path)
        assert summary["completed"] is True
        assert len(replay_records) == len(result.records)
        # metrics recomputed from the persisted trace equal the online ones
        replay_metrics = compute_metrics(replay_records, replay_scenario)
        assert replay_metrics == result.metrics
        clouds = list(tmp_path.glob("cloud_*.xyz"))
        assert len(clouds) == 1

    def test_mode_transitions_are_legal(self):
        result = run(scenario(), out_dir=None, write_trace=False)
        legal = {
            ("search", "estimation"), ("search", "mapping"),
            ("estimation", "mapping"), ("estimation", "search"),
            ("mapping", "search"), ("mapping", "mapping"),
        }
        modes = [r["mode"] for r in result.records]
        for prev, cur in zip(modes[:-1], modes[1:]):
            if prev != cur:
                assert (prev, cur) in legal

    def test_lifecycle_order_per_target(self):
        result = run(scenario(), out_dir=None, write_trace=False)
        seen: dict[int, list[str]] = {}
        for rec in result.records:
            for ev in rec["events"]:
                if ev["type"] in ("spawned", "converging", "converged", "mapped"):
                    seen.setdefault(ev["target"], []).append(ev["type"])
        for kinds in seen.values():
            if "mapped" in kinds:
                assert kinds == ["spawned", "converging", "converged", "mapped"]

    def test_determinism_byte_identical_traces(self, tmp_path):
        s = scenario()
        run(s, out_dir=tmp_path / "a")
        run(s, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "trace.jsonl").read_bytes() == (
            tmp_path / "b" / "trace.jsonl"
        ).read_bytes()
        assert (tmp_path / "a" / "cloud_1.xyz").read_bytes() == (
            tmp_path / "b" / "cloud_1.xyz"
        ).read_bytes()


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
        from targetsim.harness import _true_boxes_for_frame

        rec = self.make_record(s, cam_x, [])
        boxes = _true_boxes_for_frame(rec, s)
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


class TestWriteCloud:
    def test_fixed_decimal_format(self, tmp_path):
        path = tmp_path / "c.xyz"
        write_cloud(path, np.array([[1.0, 2.5, -3.25], [0.1234567, 0.0, 9.0]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "1.000000 2.500000 -3.250000"
        assert lines[1] == "0.123457 0.000000 9.000000"


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

    def test_replay_missing_file_exit_2(self, tmp_path):
        assert cli_main(["replay-metrics", str(tmp_path / "nope.jsonl")]) == 2

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
