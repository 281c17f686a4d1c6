"""Command-line entry point.

Exit codes: 0 success, 2 invalid scenario or trace or an output that
cannot be written, 3 run ended with unmapped targets.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .harness import compute_metrics, run
from .scenario import ScenarioInvalid, load_scenario
from .trace import read_trace

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCOMPLETE = 3
LOG_LEVELS = ("CRITICAL", "FATAL", "ERROR", "WARNING", "WARN", "INFO", "DEBUG", "NOTSET")


def _print_metrics(metrics: dict) -> None:
    def fmt(value) -> str:
        return "N/A" if value is None else f"{100.0 * value:.1f}%"

    print(f"{'stage':<12}{'precision':>12}{'recall':>10}")
    for stage, score in metrics.items():
        print(f"{stage:<12}{fmt(score['precision']):>12}{fmt(score['recall']):>10}")


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
    except ValueError as exc:  # ScenarioInvalid, or a --seed that Scenario rejects
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        result = run(scenario, out_dir=None if args.metrics_only else args.out)
    except OSError as exc:  # the output directory, trace or a cloud file
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(
        f"{scenario.name}: {'completed' if result.completed else 'INCOMPLETE'} "
        f"after {result.sim_time:.1f}s simulated ({result.frames} frames), "
        f"mapped {sorted(result.mapped_true_ids)}"
    )
    _print_metrics(result.metrics)
    if result.trace_path is not None:
        print(f"trace: {result.trace_path}")
    return EXIT_OK if result.completed else EXIT_INCOMPLETE


def _cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioInvalid as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(
        f"scenario OK: {scenario.name} "
        f"({len(scenario.targets)} targets, seed {scenario.seed})"
    )
    return EXIT_OK


def _cmd_replay_metrics(args) -> int:
    try:  # read_trace checks the header, the fold each record; ScenarioInvalid is a ValueError
        scenario, records = read_trace(args.trace)
        metrics = compute_metrics(records, scenario)
    except (OSError, LookupError, TypeError, ValueError) as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _print_metrics(metrics)
    return EXIT_OK


def main(argv=None) -> int:
    level = os.environ.get("TARGETSIM_LOG", "WARNING").upper()  # a level name, or WARNING
    logging.basicConfig(level=getattr(logging, level) if level in LOG_LEVELS else logging.WARNING)

    parser = argparse.ArgumentParser(
        prog="targetsim",
        description="Deterministic UAV target search/localization/mapping simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument(
        "--metrics-only", action="store_true", help="skip trace and cloud files"
    )
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", help="scenario JSON file")
    p_val.set_defaults(func=_cmd_validate)

    p_replay = sub.add_parser("replay-metrics", help="recompute metrics from a trace")
    p_replay.add_argument("trace", help="trace .jsonl file")
    p_replay.set_defaults(func=_cmd_replay_metrics)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
