"""One process of the targetsim benchmark: a set-up, a mission or a replay.

    python3 perfbench/worker.py setup WORKLOAD SEED OUT_DIR [--smoke]
    python3 perfbench/worker.py run WORKLOAD SEED OUT_DIR [--trace 0|1 --spans PATH] [--smoke]
    python3 perfbench/worker.py replay WORKLOAD SEED OUT_DIR [--trace 0|1 --spans PATH]

SEED is the scenario seed of one mission. `setup` imports targetsim,
writes the mission's scenario file to OUT_DIR and validates it with
`targetsim validate`. `run` does the same set-up and then measures, in
this process, `targetsim run` of that scenario, checking the outputs
after the timed call. `replay` measures `targetsim replay-metrics` of the
trace that run left in OUT_DIR, in a process of its own as a user runs
it, and checks the replayed table against the trace's summary footer.

Untraced, each timed phase (the set-up, counted from this process's
start, the mission and the replay) runs under perfbench/hostspeed.py's
sampler, and the report gives the phase's seconds with the sampling
taken out and the host-speed scale measured over it.

With --trace 1, `run` and `replay` run under the span tracer instead,
unsampled, write their spans to PATH, from which perfbench/run.py
computes the per-layer metrics, and report the tracing overhead. The
last stdout line is one JSON object, read by perfbench/run.py.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, targetsim's import included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

BASE_SCENARIO = {
    "survey5": "five_targets_noisy.json",
    "clutter1": "nominal_single_target.json",
}

# Output digests (first 16 hex of sha256) of each workload's default seed.
PINNED = {
    ("survey5", 12): {"trace": "f8192b854177f057", "clouds": "18816b25abd2654d"},
    ("clutter1", 7): {"records": "b97d8f2aa210cd1e"},
}


def make_scenario(workload: str, seed: int, smoke: bool) -> dict:
    """The scenario the program receives; a function of workload and seed only."""
    scenario = json.loads((ROOT / "scenarios" / BASE_SCENARIO[workload]).read_text())
    scenario["seed"] = seed
    if workload == "clutter1":
        scenario["detector"].update(fp_rate=0.3, fn_rate=0.0, pixel_noise_sigma=0.5)
        scenario["tracker"]["min_hits"] = 1
        scenario["filter"]["m"] = 400 if smoke else 4000
    elif smoke:
        # one target on a 100 x 60 m survey instead of five on 200 x 200 m
        scenario["world"]["targets"] = scenario["world"]["targets"][:1]
        scenario["planner"]["survey_polygon"] = [[0, 0], [100, 0], [100, 60], [0, 60]]
    return scenario


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cli_main(argv: list[str]) -> tuple[int | str, str]:
    """Run the targetsim CLI in this process; (exit code or error, stdout)."""
    from targetsim import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # a raise is a failed run, not a benchmark crash
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


class RunCapture:
    """Holds the RunResult of the last `targetsim run` until it is checked."""

    def __init__(self):
        from targetsim import cli

        self.result = None
        run = cli.run

        def capture(*args, **kwargs):
            self.result = run(*args, **kwargs)
            return self.result

        cli.run = capture

    def take(self):
        result, self.result = self.result, None
        return result


NOT_SAMPLED = SimpleNamespace(spent=0.0, scale=1.0)


def sampler(args):
    """The host-speed sampler of a timed phase; a traced phase is not
    sampled, so that its spans hold the program's time only."""
    return contextlib.nullcontext(NOT_SAMPLED) if args.trace else HostSpeed()


def setup(args) -> tuple[Path, dict]:
    """Write and validate the mission's scenario; (path, scenario)."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = make_scenario(args.workload, args.seed, args.smoke)
    path = out_dir / f"scenario-{args.seed}.json"
    path.write_text(json.dumps(scenario, indent=1))
    code, text = cli_main(["validate", str(path)])
    if code != 0:
        sys.exit(f"perfbench: scenario does not validate ({code}): {text.strip()}")
    return path, scenario


def timed_setup(args) -> tuple[Path, dict, dict]:
    """setup() under the sampler; (path, scenario, report). The report's
    setup_s counts from this process's start (imports included), minus
    the sampling."""
    with sampler(args) as speed:
        path, scenario = setup(args)
    setup_s = time.perf_counter() - T0 - speed.spent
    return path, scenario, {"setup_s": setup_s, "setup_scale": speed.scale}


# -- measured calls and their output checks -------------------------------------


def trace_path(args) -> Path:
    return Path(args.out_dir) / f"run-{args.seed}" / "trace.jsonl"


def mission(args, scenario_path: Path, scenario: dict, capture: RunCapture):
    """`targetsim run`: survey5 writes the trace and cloud files, clutter1 is
    metrics-only. Returns (wall seconds, host-speed scale, outcome); the
    outputs are checked after the timed command."""
    run_dir = trace_path(args).parent
    shutil.rmtree(run_dir, ignore_errors=True)
    argv = ["run", str(scenario_path), "--out", str(run_dir)]
    if args.workload == "clutter1":
        argv.append("--metrics-only")
    start = time.perf_counter()
    with sampler(args) as speed:
        code, _ = cli_main(argv)
    wall = time.perf_counter() - start - speed.spent

    result = capture.take()
    problems = [] if code == 0 else [f"run exit code {code}"]
    if result is None:
        return wall, speed.scale, {"seed": args.seed, "problems": problems + ["no run result"]}
    true_ids = {t["id"] for t in scenario["world"]["targets"]}
    outcome = {
        "seed": args.seed,
        "frames": result.frames,
        "sim_time": result.sim_time,
        "mapped_recall": len(result.mapped_true_ids & true_ids) / len(true_ids),
    }
    if not result.completed:
        problems.append("mission incomplete")
    if args.workload == "clutter1":
        # metrics-only: the frame lines a trace would hold, serialised the
        # way the trace serialises them (sorted keys, compact separators)
        lines = "".join(
            json.dumps({"type": "frame", "record": r}, sort_keys=True, separators=(",", ":"))
            + "\n"
            for r in result.records
        ).encode()
        outcome["trace_bytes"] = len(lines)
        digests = {"records": sha16(lines)}
    else:
        trace = trace_path(args)
        clouds = sorted(run_dir.glob("cloud_*.xyz"))
        if not trace.exists():
            return wall, speed.scale, {**outcome, "problems": problems + ["no trace written"]}
        # an incomplete mission (exit code 3, a failed run) still leaves its
        # trace and the clouds of the targets it mapped, which are measured
        if result.completed and len(clouds) != len(true_ids):
            problems.append(f"expected {len(true_ids)} cloud files, found {len(clouds)}")
        data = trace.read_bytes()
        cloud_data = b"".join(p.read_bytes() for p in clouds)
        outcome["trace_bytes"] = len(data) + len(cloud_data)
        digests = {"trace": sha16(data), "clouds": sha16(cloud_data)}
    outcome["digests"] = digests
    pinned = None if args.smoke else PINNED.get((args.workload, args.seed))
    if pinned is not None and pinned != digests:
        problems.append(f"digests {digests} differ from the pinned {pinned}")
    outcome["problems"] = problems
    return wall, speed.scale, outcome


def _percent(value) -> str:
    """A precision or recall as `targetsim` prints it."""
    return "N/A" if value is None else f"{100.0 * value:.1f}%"


TABLE_ROW = re.compile(r"^(\w+)\s+(\S+)\s+(\S+)$")


def replay_problems(code, table: str, trace: Path) -> list[str]:
    """The replayed metrics table must equal the trace's summary footer."""
    if code != 0:
        return [f"replay-metrics exit code {code}"]
    footer = json.loads(trace.read_bytes().rsplit(b"\n", 2)[-2])
    expected = {
        stage: [_percent(score["precision"]), _percent(score["recall"])]
        for stage, score in footer["metrics"].items()
    }
    replayed = {}
    for line in table.splitlines()[1:]:
        m = TABLE_ROW.match(line.strip())
        if m:
            replayed[m.group(1)] = [m.group(2), m.group(3)]
    if replayed != expected:
        return [f"replayed table {replayed} differs from the summary footer {expected}"]
    return []


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in 10^6 bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def traced(args, measure):
    """Run measure() under the span tracer and write the spans to --spans.

    Returns what measure() returned and the seconds the tracer added: the
    spans recorded times the cost of one. An untraced reference run of the
    same mission would cost a survey5 invocation a third of its time
    limit, and on a shared host two identical missions differ by more
    than the tracer adds.
    """
    from tracer import Tracer, install_layers, span_cost

    tracer = Tracer()
    missing = install_layers(tracer)
    if missing:
        sys.exit(f"perfbench: layer entry points not found: {missing}")
    try:
        result = measure()
    finally:
        tracer.uninstall()
    tracer.write(Path(args.spans))
    return result, len(tracer.start) * span_cost()


def run(args) -> dict:
    scenario_path, scenario, report = timed_setup(args)
    capture = RunCapture()
    if args.trace:
        (wall, scale, outcome), report["overhead_s"] = traced(
            args, lambda: mission(args, scenario_path, scenario, capture)
        )
    else:
        wall, scale, outcome = mission(args, scenario_path, scenario, capture)
    report.update(wall=wall, scale=scale, outcome=outcome, peak_rss_mb=peak_rss_mb())
    return report


def replay(args) -> dict:
    trace = trace_path(args)

    def measure():
        start = time.perf_counter()
        with sampler(args) as speed:
            code, table = cli_main(["replay-metrics", str(trace)])
        return time.perf_counter() - start - speed.spent, speed.scale, code, table

    report = {}
    if args.trace:
        (wall, scale, code, table), report["overhead_s"] = traced(args, measure)
    else:
        wall, scale, code, table = measure()
    report.update(wall=wall, scale=scale, problems=replay_problems(code, table, trace),
                  peak_rss_mb=peak_rss_mb())
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "replay"))
    parser.add_argument("workload", choices=sorted(BASE_SCENARIO))
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file a traced run writes its spans to")
    parser.add_argument("--smoke", action="store_true", help="shortened scenarios")
    args = parser.parse_args()
    if args.trace and not args.spans:
        parser.error("--trace 1 needs --spans")
    if args.mode == "setup":
        report = timed_setup(args)[2]
    elif args.mode == "run":
        report = run(args)
    else:
        report = replay(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
