"""Missions that several tests only read, run once per session."""

import contextlib
import json
import time

import pytest
from hypothesis import Phase, settings

from targetsim.harness import run
from targetsim.scenario import scenario_to_dict

from tests import missions

# benchmarks/mutants.py runs each suite under this profile: a failing example
# fails its test as it is found, without the time that shrinking it takes.
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])


@pytest.fixture(scope="session")
def shared_run(tmp_path_factory):
    """shared_run(scenario, traced=False): run(scenario), traced into a
    directory of its own or metrics-only, once per session, with its wall
    seconds as `wall_time`; a metrics-only run keeps its missions.recorded()
    calls as `recording`. Readers share its records, files and recording and
    must not change them; a test that instruments a run makes its own."""
    results = {}

    def shared(scenario, traced=False):
        key = (json.dumps(scenario_to_dict(scenario), sort_keys=True), traced)
        if key not in results:
            out = tmp_path_factory.mktemp(scenario.name) if traced else None
            with contextlib.nullcontext() if traced else missions.recorded() as recording:
                start = time.perf_counter()
                result = run(scenario, out_dir=out)
                result.wall_time = time.perf_counter() - start
            result.recording = recording
            results[key] = result
        return results[key]

    return shared
