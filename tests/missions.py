"""The one source of the checks' missions and pins, for tests/ and benchmarks/.

It builds every mission that the checks run: the nominal file, survey5 and
clutter1 by seed as the benchmark builds them (perfbench/worker.py's
make_scenario, smoke sizes included) and the queue runs. PINS holds every
pinned digest, and the frame counts that tier-1 pins. A digest is the
first 16 hex characters of a SHA-256: of a run's trace.jsonl, of its
cloud_*.xyz files concatenated in name order, or of its records written as
the trace's frame lines (hashed). The pins hold on one numeric platform
only (benchmarks/digests.py). row_outputs runs a row and computes what it
pins. recorded() records a run's component calls, and replay steps a
filter through them: the component oracles check the filter on a run's
recorded calls, not in a run of their own.
"""

from __future__ import annotations

import collections
import hashlib
import importlib.util
import json
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np

from targetsim import harness
from targetsim.harness import Scenario, read_trace, scenario_from_dict
from targetsim.points_filter import PointsFilter

ROOT = Path(__file__).resolve().parents[1]


def _load_worker():
    """perfbench/worker.py as it is; it imports hostspeed from its own directory."""
    path = ROOT / "perfbench" / "worker.py"
    if str(path.parent) not in sys.path:
        sys.path.append(str(path.parent))
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


WORKER = _load_worker()


def nominal() -> dict:
    return json.loads((ROOT / "scenarios" / "nominal_single_target.json").read_text())


def survey5(seed: int = 12, smoke: bool = False) -> dict:
    return WORKER.make_scenario("survey5", seed, smoke)


def clutter1(seed: int = 7, smoke: bool = False) -> dict:
    return WORKER.make_scenario("clutter1", seed, smoke)


def queue(serve: bool) -> dict:
    """The nominal file at seed 0 with three targets 8-14 m apart under
    clutter, which converge while the vehicle orbits another and wait in
    the mission's queues (the benchmark workloads never queue a target);
    serve: a queued converging target is served from the queue, not on
    re-detection."""
    data = nominal()
    data["seed"] = 0
    data["world"]["targets"] = [
        {"id": target_id, "center": center, "semi_axes": [1.0, 1.0, 1.0], "n_surface": 400}
        for target_id, center in (
            ("a", [20.0, 28.0, 1.0]), ("b", [28.0, 28.0, 1.0]), ("c", [40.0, 36.0, 1.0])
        )
    ]
    data["detector"].update(fp_rate=0.2, fn_rate=0.1, pixel_noise_sigma=0.5)
    data["filter"]["m"] = 400
    data["mission"]["serve_queued_converging"] = serve
    return data


class Row(NamedTuple):
    scenario: Callable[[], dict]
    pins: dict


# A row pinned by "trace" is a traced run: "trace" and "clouds" digest its
# output files, and "records" its replayed trace, a pin taken from a
# metrics-only run of the same scenario. Any other row is a metrics-only
# run, and "records" digests its own records.
PINS = {
    "survey5 seed 12": Row(partial(survey5, 12), {"trace": "f8192b854177f057",
                           "clouds": "18816b25abd2654d", "records": "9b4ac6fbffffe403"}),
    "survey5 seed 0": Row(partial(survey5, 0), {"trace": "99a8601617a7b216",
                          "records": "f3d77547a90c2119"}),
    "survey5 seed 5": Row(partial(survey5, 5), {"trace": "ab0bae59c8811ca7",
                          "records": "07ff7512dd6c8a0b"}),
    "survey5 seed 13": Row(partial(survey5, 13), {"trace": "5ceb37f3323183b2",
                           "clouds": "24e9e541d3d8d016", "records": "422b0b9068366ba5"}),
    "survey5 seed 39": Row(partial(survey5, 39), {"trace": "d632a0c545798252",
                           "records": "d579c251837b7b7f"}),
    "nominal": Row(nominal, {"trace": "3384f4105341b8dd", "records": "e839ecceb3ff8d65"}),
    "clutter1 seed 7": Row(partial(clutter1, 7), {"records": "b97d8f2aa210cd1e"}),
    "clutter1 seed 1007": Row(partial(clutter1, 1007), {"records": "2ec3c974480d24ef"}),
    "clutter1 seed 2007": Row(partial(clutter1, 2007), {"records": "6e270219417065d5"}),
    # the filter's spawn, update and deregistration paths every few frames
    "smoke clutter": Row(partial(clutter1, 7, smoke=True),
                         {"records": "2b959012fcc80bbf", "frames": 1997}),
    "queue, served on re-detection": Row(partial(queue, False),
                                         {"records": "9bf598d004941d45", "frames": 4500}),
    "queue, served from the queue": Row(partial(queue, True),
                                        {"records": "1cfbbe69ac617dcc", "frames": 4588}),
}


def scenario(name: str) -> Scenario:
    """The scenario of PINS row name."""
    return scenario_from_dict(PINS[name].scenario())


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def hashed(records, sha):
    """Yield each record once its frame line has been added to sha."""
    for r in records:
        line = json.dumps({"type": "frame", "record": r}, sort_keys=True, separators=(",", ":"))
        sha.update((line + "\n").encode())
        yield r


def records_digest(records) -> str:
    sha = hashlib.sha256()
    collections.deque(hashed(records, sha), 0)
    return sha.hexdigest()[:16]


def row_outputs(name: str, run_row, read=lambda records, scenario: collections.deque(records, 0)):
    """Run PINS row name with run_row(scenario, traced), traced when the row
    pins "trace", and return its result, its outputs (frame count and
    digests) and read(records, scenario) of its records as they are hashed.
    A traced run's records and scenario are replayed from its trace, so its
    "records" digest shows that the trace holds the run's records."""
    s = scenario(name)
    result = run_row(s, "trace" in PINS[name].pins)
    got, records = {"frames": result.frames}, result.records
    if result.trace_path is not None:
        clouds = sorted(result.trace_path.parent.glob("cloud_*.xyz"))
        got["clouds"] = sha16(b"".join(p.read_bytes() for p in clouds))
        got["trace"] = sha16(result.trace_path.read_bytes())
        s, records = read_trace(result.trace_path)
    sha = hashlib.sha256()
    value = read(hashed(records, sha), s)
    return result, {**got, "records": sha.hexdigest()[:16]}, value


@contextmanager
def recorded():
    """The component calls of the runs made in the block, as they were
    made: calls holds the filter's, each with what it returned (events as
    their dicts): ("tick", boxes, rotation, translation, the generator's
    state before the call, (events, updated ids)), ("mark_mapped", id,
    cloud, None) and ("deregister", id, event); views holds each
    _Scores.add's (boxes, scored row), and encodes counts _json_line calls."""
    rec = SimpleNamespace(calls=[], views=[], encodes=0)
    add, json_line = harness._Scores.add, harness._json_line

    class Recorded(PointsFilter):
        def tick(self, boxes, rotation, translation, rng):
            state = rng.bit_generator.state
            events, updated = super().tick(boxes, rotation, translation, rng)
            returned = ([e.to_dict() for e in events], list(updated))
            rec.calls.append(("tick", boxes, rotation, translation, state, returned))
            return events, updated

        def mark_mapped(self, target_id, cloud):
            returned = super().mark_mapped(target_id, cloud)
            rec.calls.append(("mark_mapped", target_id, cloud, returned))
            return returned

        def deregister(self, target_id):
            event = super().deregister(target_id)
            rec.calls.append(("deregister", target_id, event.to_dict()))
            return event

    def scored(self, record, boxes, scored_row):
        rec.views.append((boxes, scored_row))
        return add(self, record, boxes, scored_row)

    def encode(obj):
        rec.encodes += 1
        return json_line(obj)

    with mock.patch.object(harness, "PointsFilter", Recorded), \
            mock.patch.object(harness._Scores, "add", scored), \
            mock.patch.object(harness, "_json_line", encode):
        yield rec


def replay(filter_class, scenario: Scenario, calls):
    """A new filter_class stepped through recorded calls, each tick with its
    recorded generator state; each call must return what the run's did.
    Returns the filter."""
    flt, rng = filter_class(scenario.camera, scenario.filter), np.random.default_rng()
    for name, *args, returned in calls:
        if name == "tick":
            *args, rng.bit_generator.state = args  # the last argument is the state
            events, updated = flt.tick(*args, rng)
            got = ([e.to_dict() for e in events], updated)
        elif name == "deregister":
            got = flt.deregister(*args).to_dict()
        else:
            got = flt.mark_mapped(*args)
        assert got == returned, (name, got, returned)
    return flt
