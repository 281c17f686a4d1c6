"""Recompute every pinned output digest and check it.

    python3 benchmarks/digests.py

A digest is the first 16 hex characters of a SHA-256: of a run's
trace.jsonl, of its cloud_*.xyz files concatenated in name order, or of its
records serialised as the trace's frame lines. The runs are survey5 and
clutter1 as the benchmark builds them (perfbench/worker.py's
make_scenario, smoke-size clutter included), the nominal scenario file,
and the queue scenario that tests/test_acceptance.py pins. Each run's
metrics are also recomputed by compute_metrics, the replay-metrics path:
from the replayed trace, where they must equal its summary footer, or from
the records of a metrics-only run, where they must equal the run's own.
A traced run keeps no records, so its records digest is taken from the
replayed trace; its pin was taken from the records of a metrics-only run
of the same scenario, so a match shows that the trace holds the run's
records byte for byte. A traced run's header line is also written as a
scenario file, and load_scenario of it must give the run's scenario
("header"), so a header is a valid scenario file by test as well as by
construction. Prints one line per run and exits 1 on any
mismatch. A run outputs the same bytes on every machine with the same
numeric platform, the OpenBLAS kernel and numpy SIMD level that it runs
on, so the pins hold only there: they were taken with OpenBLAS's SkylakeX
kernels and numpy's AVX-512 loops, and with the AVX2 kernels
(OPENBLAS_CORETYPE=Haswell) or without numpy's AVX-512 loops every trace
digest differs (ROADMAP item 4). The whole check takes about a minute on a
2-core host.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from worker import make_scenario  # noqa: E402

from targetsim.harness import (  # noqa: E402
    compute_metrics,
    load_scenario,
    read_trace,
    run,
    scenario_from_dict,
    scenario_to_dict,
)


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def hashed(records, sha):
    """Yield each record once its frame line has been added to sha."""
    for r in records:
        line = json.dumps({"type": "frame", "record": r}, sort_keys=True, separators=(",", ":"))
        sha.update((line + "\n").encode())
        yield r


def nominal_scenario() -> dict:
    return json.loads((ROOT / "scenarios" / "nominal_single_target.json").read_text())


def queue_scenario(serve: bool) -> dict:
    """Three targets 8-14 m apart under clutter, which converge while the
    vehicle orbits another and wait in the mission's queues."""
    data = nominal_scenario()
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


def pinned_runs() -> list[tuple[str, dict, dict]]:
    """(name, scenario, pinned digests): a run pinned by "trace" writes its
    trace and clouds, and its "records" are those of its replayed trace;
    any other run is metrics-only."""
    return [
        ("survey5 seed 12", make_scenario("survey5", 12, False),
         {"trace": "f8192b854177f057", "clouds": "18816b25abd2654d",
          "records": "9b4ac6fbffffe403"}),
        ("survey5 seed 0", make_scenario("survey5", 0, False),
         {"trace": "99a8601617a7b216", "records": "f3d77547a90c2119"}),
        ("survey5 seed 5", make_scenario("survey5", 5, False),
         {"trace": "ab0bae59c8811ca7", "records": "07ff7512dd6c8a0b"}),
        ("survey5 seed 13", make_scenario("survey5", 13, False),
         {"trace": "5ceb37f3323183b2", "clouds": "24e9e541d3d8d016",
          "records": "422b0b9068366ba5"}),
        ("survey5 seed 39", make_scenario("survey5", 39, False),
         {"trace": "d632a0c545798252", "records": "d579c251837b7b7f"}),
        ("nominal", nominal_scenario(),
         {"trace": "3384f4105341b8dd", "records": "e839ecceb3ff8d65"}),
        ("clutter1 seed 7", make_scenario("clutter1", 7, False), {"records": "b97d8f2aa210cd1e"}),
        ("clutter1 seed 1007", make_scenario("clutter1", 1007, False),
         {"records": "2ec3c974480d24ef"}),
        ("clutter1 seed 2007", make_scenario("clutter1", 2007, False),
         {"records": "6e270219417065d5"}),
        ("smoke clutter", make_scenario("clutter1", 7, True), {"records": "2b959012fcc80bbf"}),
        ("queue, served on re-detection", queue_scenario(False), {"records": "9bf598d004941d45"}),
        ("queue, served from the queue", queue_scenario(True), {"records": "1cfbbe69ac617dcc"}),
    ]


def check(scenario: dict, pinned: dict) -> dict:
    """The run's digests, and "replay": whether compute_metrics of its
    replayed trace equals the summary footer, or of its records (a
    metrics-only run) the run's metrics. The records are hashed as
    compute_metrics reads them. A traced run adds "header": whether its
    header, written as a scenario file, loads as the run's scenario."""
    sha = hashlib.sha256()
    if "trace" not in pinned:
        scenario = scenario_from_dict(scenario)
        result = run(scenario)
        replay = compute_metrics(hashed(result.records, sha), scenario) == result.metrics
        return {"records": sha.hexdigest()[:16], "replay": replay}
    with tempfile.TemporaryDirectory() as out:
        scenario = scenario_from_dict(scenario)
        run(scenario, out_dir=out)
        trace = Path(out) / "trace.jsonl"
        clouds = sorted(Path(out).glob("cloud_*.xyz"))
        data = trace.read_bytes()
        header = Path(out) / "header.json"
        header.write_text(json.dumps(json.loads(data.splitlines()[0])["scenario"]))
        loaded = scenario_to_dict(load_scenario(header)) == scenario_to_dict(scenario)
        replayed, records = read_trace(trace)
        summary = json.loads(data.splitlines()[-1])
        replay = compute_metrics(hashed(records, sha), replayed) == summary["metrics"]
        return {
            "trace": sha16(data),
            "clouds": sha16(b"".join(p.read_bytes() for p in clouds)),
            "records": sha.hexdigest()[:16],
            "replay": replay,
            "header": loaded,
        }


def main() -> int:
    failed = 0
    for name, scenario, pinned in pinned_runs():
        got = check(scenario, pinned)
        expected = {**pinned, "replay": True, **({"header": True} if "trace" in pinned else {})}
        wrong = {k: got[k] for k in expected if got[k] != expected[k]}
        failed += bool(wrong)
        shown = " ".join(f"{k} {got[k]}" for k in expected)
        print(f"{name}: {shown} {f'MISMATCH, pinned {expected}' if wrong else 'ok'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
