"""Missions that several tests only read, run once per session."""

import json
import time

import pytest

from targetsim.harness import run, scenario_to_dict


@pytest.fixture(scope="session")
def shared_run(tmp_path_factory):
    """shared_run(scenario, traced=False): run(scenario), traced into a
    directory of its own or metrics-only, once per session, with its wall
    seconds as `wall_time`. Readers share its records and files and must
    not change them; a test that instruments a run makes its own."""
    results = {}

    def shared(scenario, traced=False):
        key = (json.dumps(scenario_to_dict(scenario), sort_keys=True), traced)
        if key not in results:
            out = tmp_path_factory.mktemp(scenario.name) if traced else None
            start = time.perf_counter()
            result = run(scenario, out_dir=out)
            result.wall_time = time.perf_counter() - start
            results[key] = result
        return results[key]

    return shared
