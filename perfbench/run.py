"""targetsim benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload survey5 --seed 12 --seconds 10 --trace 0

Run from the root of a checkout. Workloads (the reasons are in
BENCHMARK.json and perfbench/layers.json):

  survey5   `targetsim run` of scenarios/five_targets_noisy.json with its
            trace and cloud files written, then `targetsim
            replay-metrics` of that trace in a process of its own
  clutter1  `targetsim run --metrics-only` of the nominal single-target
            scenario under heavy false-positive clutter, on three seeds

Each mission, replay and extra set-up runs in a worker process of its
own (perfbench/worker.py), started one at a time from this one, with
numpy's thread pools held to one thread. The workload's missions run in
whole passes until --seconds have been measured (at least one pass).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run of the first mission.

The host is shared and its speed drifts by half or more over minutes, so
the timed end-to-end metrics (setup_s, wall_s, frames_per_s) are in
scaled seconds: each worker samples a fixed reference kernel while it
times a phase (perfbench/hostspeed.py) and scales the phase's seconds to
a fixed host speed. The raw host seconds are printed in the readable
report. The metric names and units are
those of BENCHMARK.json. Earlier stdout lines are a readable report; the
last line is the JSON result. Outputs go under .perfbench_out/ in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = {"survey5": 12, "clutter1": 7}
REPLAYED = ("survey5",)  # workloads whose run is followed by replay-metrics of its trace
# Set-up-only worker processes, half before the missions and half after,
# so that one slow spell of the host does not set their median. Each
# mission's worker adds one more set-up time.
SETUP_REPEATS = 2
# clutter1's mission length depends on how many false clouds pass the
# converging gate and divert the vehicle (1,800-3,272 frames over seeds
# 0-19), so a clutter1 pass runs three missions and reports medians.
CLUTTER_SEED_OFFSETS = (0, 1000, 2000)
DEADLINE_S = 178.0


def metric_units(kind: str) -> dict[str, str]:
    """{name: unit} of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


class WorkerFailed(RuntimeError):
    pass


def worker(deadline: float, *argv) -> dict:
    """Run one worker process to completion and return its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *map(str, argv)],
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {argv[:2]} ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {argv[:2]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def median(values) -> float:
    return float(statistics.median(values))


def scenario_seeds(workload: str, seed: int) -> list[int]:
    """The scenario seeds of one pass of the workload's missions."""
    if workload == "clutter1":
        return [seed + offset for offset in CLUTTER_SEED_OFFSETS]
    return [seed]


def end_to_end(missions: list[dict], setups: list[float]) -> dict:
    """Medians over the missions; setups holds every worker's scaled
    set-up time."""
    walls = [m["scaled_wall"] for m in missions]
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "frames_per_s": median(m["frames"] / w for m, w in zip(missions, walls)),
        "peak_rss_mb": median(m["peak_rss_mb"] for m in missions),
        "trace_mb": median(m["trace_bytes"] for m in missions) / 1e6,
        "mission_sim_s": median(m["sim_time"] for m in missions),
        "mapped_recall": median(m["mapped_recall"] for m in missions),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEED))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="shortened scenarios (perfbench/smoke.py)"
    )
    args = parser.parse_args(argv)
    seed = DEFAULT_SEED[args.workload] if args.seed is None else args.seed
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "targetsim" / "cli.py").is_file():
        print(f"perfbench: no targetsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    smoke = ["--smoke"] if args.smoke else []
    spans = [OUT / f"spans-{args.workload}-{phase}.npz" for phase in ("run", "replay")]
    for path in spans:
        path.unlink(missing_ok=True)
    run_trace = ["--trace", args.trace] + (["--spans", spans[0]] if args.trace else [])
    replay_trace = ["--trace", args.trace] + (["--spans", spans[1]] if args.trace else [])
    # a traced invocation runs the first mission of a pass only
    seeds = scenario_seeds(args.workload, seed)[: 1 if args.trace else None]
    missions, setups = [], []

    def setup_only(repeats: int) -> None:
        # a traced invocation reports no set-up time, so it skips these
        for _ in range(0 if args.trace else repeats):
            report = worker(deadline, "setup", args.workload, seed, run_dir / "setup", *smoke)
            setups.append(report["setup_s"] * report["setup_scale"])

    try:
        setup_only(SETUP_REPEATS // 2)
        while not missions or not args.trace and sum(m["wall"] for m in missions) < args.seconds:
            for s in seeds:
                report = worker(deadline, "run", args.workload, s, run_dir, *run_trace, *smoke)
                mission = {**report["outcome"], "wall": report["wall"],
                           "scaled_wall": report["wall"] * report["scale"],
                           "peak_rss_mb": report["peak_rss_mb"],
                           "overhead_s": report.get("overhead_s", 0.0)}
                if args.workload in REPLAYED:
                    replay = worker(deadline, "replay", args.workload, s, run_dir, *replay_trace)
                    mission["wall"] += replay["wall"]
                    mission["scaled_wall"] += replay["wall"] * replay["scale"]
                    mission["problems"] += replay["problems"]
                    mission["overhead_s"] += replay.get("overhead_s", 0.0)
                    mission["replay"] = replay
                setups.append(report["setup_s"] * report["setup_scale"])
                missions.append(mission)
        setup_only(SETUP_REPEATS - SETUP_REPEATS // 2)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = len(missions)
    failed = sum(bool(m["problems"]) for m in missions)

    print(f"workload {args.workload}, seed {seed}, trace {args.trace}")
    for m in missions:
        state = "; ".join(m["problems"]) or "ok"
        # a traced phase is not sampled, so it has host seconds only
        scaled = "" if args.trace else f", {m['scaled_wall']:.2f} scaled s"
        print(f"  mission seed {m['seed']}: {m.get('frames')} frames in {m['wall']:.2f} host s"
              f"{scaled}, digests {m.get('digests')}: {state}")
        if "replay" in m:
            print(f"    of which replay {m['replay']['wall']:.2f} host s; "
                  f"replay process peak RSS {m['replay']['peak_rss_mb']:.1f} MB")
    print(f"  failed_runs {failed / attempted:.3f} ratio ({failed} of {attempted})")
    if args.trace:
        from tracer import Spans, layer_metrics

        units = metric_units("per_layer")
        spans = [path for path in spans if path.exists()]
        loaded = Spans(spans)
        metrics = layer_metrics(loaded, units, overhead_s=missions[0]["overhead_s"])
        print(f"  {'span':<40}{'calls':>9}{'self s':>9}{'total s':>9}")
        for name, row in sorted(loaded.table().items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<40}{row['calls']:>9}{row['self_s']:>9.3f}{row['total_s']:>9.3f}")
        print(f"  spans written to {', '.join(str(p.relative_to(ROOT)) for p in spans)}")
    elif not all("trace_bytes" in m for m in missions):
        print("perfbench: a run left no outputs to measure", file=sys.stderr)
        return 1
    else:
        units = metric_units("end_to_end")
        values = end_to_end(missions, setups)
        metrics = {name: values[name] for name in units}
    for name, value in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {units[name]}")
    shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
