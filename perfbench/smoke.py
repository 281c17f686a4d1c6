"""Smoke test of the benchmark itself; not part of the repository's test suite.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json on a shortened scenario, untraced
and traced, and checks that each run exits 0, is correct, and reports
exactly the metrics BENCHMARK.json lists, each with its unit. Then checks
that the benchmark exits non-zero without a result in a directory that
holds only BENCHMARK.json and the benchmark's own files. Takes about a
minute on a 2-core host.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, command: list[str], *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *command[1:], *extra], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"]
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = run(ROOT, command, "--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--smoke")
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: not correct: {proc.stdout[-800:]}")
            reported = {name: m["unit"] for name, m in result["metrics"].items()}
            if reported != expected[trace]:
                missing = sorted(set(expected[trace]) - set(reported))
                extra = sorted(set(reported) - set(expected[trace]))
                wrong = sorted(n for n in reported if expected[trace].get(n, reported[n]) != reported[n])
                failures.append(f"{label}: missing {missing}, extra {extra}, wrong units {wrong}")
            print(f"{label}: {len(reported)} metrics", flush=True)

    # without the program's sources the benchmark must fail without a result
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, command, "--workload", bench["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for failure in failures:
        print("FAIL", failure)
    print("smoke test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
