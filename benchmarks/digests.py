"""Recompute every pinned output digest and check it.

    python3 benchmarks/digests.py

Runs each of the 12 rows of tests/missions.py's PINS, the one table of
pins: survey5 seeds 12, 0, 5, 13 and 39, the nominal file and clutter1
seeds 7, 1007 and 2007 (as perfbench/worker.py builds them), smoke
clutter, and both queue runs. Tier-1 (tests/test_acceptance.py) checks the
rows it can afford: nominal, survey5 seed 12, smoke clutter and both queue
runs, plus the nominal records of a metrics-only run.

A row pinned by "trace" runs traced: its trace and clouds are hashed, and
its records digest is taken from the replayed trace, so a match shows
that the trace holds the run's records byte for byte. Any other row runs
metrics-only. compute_metrics, the replay-metrics path, must give the
trace's summary footer or the run's own metrics ("replay"), and a traced
run's header, written as a scenario file, must load as the run's scenario
("header"). Prints one line per row and exits 1 on any mismatch; about a
minute on a 2-core host.

The pins hold only on the numeric platform they were taken on, the
OpenBLAS kernel and numpy SIMD level: OpenBLAS's SkylakeX kernels and
numpy's AVX-512 loops. With the AVX2 kernels (OPENBLAS_CORETYPE=Haswell)
or without numpy's AVX-512 loops every trace digest differs (ROADMAP item
4).

To re-baseline after a change that moves digests on purpose: copy the
digests this script prints into their rows of PINS; copy survey5 seed
12's and clutter1 seed 7's into perfbench/worker.py's PINNED, which
tier-1 checks against PINS; say in CHANGES.md what moved and why.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from targetsim.harness import compute_metrics, load_scenario, run, scenario_to_dict  # noqa: E402

from tests.missions import PINS, row_outputs, scenario  # noqa: E402


def check(name: str) -> dict:
    """The outputs of PINS row name's run (row_outputs), and its "replay"
    and, if traced, "header" checks; compute_metrics reads the records as
    they are hashed."""
    with tempfile.TemporaryDirectory() as out:
        result, got, metrics = row_outputs(
            name, lambda s, traced: run(s, out_dir=out if traced else None), compute_metrics
        )
        if result.trace_path is None:
            return {**got, "replay": metrics == result.metrics}
        lines = result.trace_path.read_bytes().splitlines()
        header = Path(out) / "header.json"
        header.write_text(json.dumps(json.loads(lines[0])["scenario"]))
        return {
            **got,
            "replay": metrics == json.loads(lines[-1])["metrics"],
            "header": scenario_to_dict(load_scenario(header)) == scenario_to_dict(scenario(name)),
        }


def main() -> int:
    failed = 0
    for name, row in PINS.items():
        got = check(name)
        expected = {**row.pins, "replay": True, **({"header": True} if "trace" in row.pins else {})}
        wrong = {k: got[k] for k in expected if got[k] != expected[k]}
        failed += bool(wrong)
        shown = " ".join(f"{k} {got[k]}" for k in expected)
        print(f"{name}: {shown} {f'MISMATCH, pinned {expected}' if wrong else 'ok'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
