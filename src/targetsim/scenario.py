"""The scenario schema. A scenario JSON file fully determines a run: same
file + seed gives a byte-identical trace."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import DetectorConfig, ellipsoid_target
from .geometry import CameraIntrinsics
from .mission import MissionConfig
from .points_filter import FilterConfig
from .tracker import TrackerConfig
from .uav import UavConfig
from .view_planner import PlannerConfig, lane_count, polygon_contains

# The most survey lanes a scenario may plan, on any machine: lawnmower builds two
# waypoints a lane before the first frame, ~7 MB and ~1.5 s at this bound.
MAX_SURVEY_LANES = 10_000
_FLOAT_MAX = sys.float_info.max


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
