"""Command-line interface for running UnifyFL experiments.

A downstream user can reproduce an experiment or explore configurations
without writing Python::

    python -m repro.cli run --workload cifar10 --mode async --rounds 6 \
        --clusters 3 --clients 3 --partitioning dirichlet --alpha 0.5 \
        --policy top_k --policy-k 2 --json-out result.json

    python -m repro.cli run --mode semi --semi-quorum-k 2 --max-staleness 60 \
        --workload cifar10 --rounds 6                            # semi-sync (quorum/staleness)

    python -m repro.cli run --mode async --event-streams \
        --link-bandwidth 10 --block-period 2                     # contended I/O + chain delays

    python -m repro.cli run --mode hierarchical --event-streams \
        --storage-replicas 2 --local-rounds-per-global 2         # per-site local rounds + leaders

    python -m repro.cli run --mode gossip --gossip-fanout 2      # barrier-free peer exchanges

    python -m repro.cli run --population 100000 --clients-per-round 128 \
        --mode sync --rounds 5                                   # sampled cross-device cohorts

    python -m repro.cli compare --workload cifar10 --rounds 6   # sync vs async vs semi vs baselines
    python -m repro.cli policies                                 # list available policies and modes

``run`` and ``compare`` take one option per run knob, derived from its
declaration in :class:`~repro.core.config.ExperimentConfig`
(:func:`~repro.core.config.knob`), so declaring a field with ``knob`` gives
it its flag.  Every ``choices=`` comes from its registry — ``--mode`` from
:mod:`repro.sched.registry`, ``--policy`` / ``--scoring-policy`` from
:mod:`repro.core.selection`, ``--scoring`` from ``SCORERS`` — so a newly
registered policy or scorer is runnable from here with no CLI changes.

The same entry point is installed as the ``repro`` console script
(``pip install -e .`` then ``repro run --mode semi ...``).
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from typing import Dict, List, Optional, Sequence, get_args, get_type_hints

from repro.core.config import (
    EDGE_CLIENT_PROFILES,
    ClusterConfig,
    ExperimentConfig,
    bounds_text,
    cifar10_workload,
    edge_cluster_configs,
    gpu_cluster_configs,
    knob_choices,
    knob_fields,
    tiny_imagenet_workload,
)
from repro.analysis.cli import add_lint_parser, command_lint
from repro.core.selection import available_aggregation_policies, available_scoring_policies
from repro.core.reporting import save_result_json, save_results_csv
from repro.core.results import (
    format_comm_table,
    format_comparison,
    format_policy_table,
    format_resource_table,
    format_run_table,
)
from repro.core.runner import ExperimentRunner
from repro.sched.registry import get_policy, registered_modes


def _build_workload(args: argparse.Namespace):
    # ``--num-classes`` reaches the workload only when given: each workload
    # has its own default, and cifar10's check rejects any count but 10.
    classes = {} if args.num_classes is None else {"num_classes": args.num_classes}
    common = dict(
        rounds=args.rounds,
        samples_per_class=args.samples_per_class,
        image_size=args.image_size,
        learning_rate=args.learning_rate,
    )
    if args.workload == "cifar10":
        return dataclasses.replace(cifar10_workload(**common), **classes)
    return tiny_imagenet_workload(**common, **classes)


def _build_clusters(args: argparse.Namespace) -> List[ClusterConfig]:
    if args.testbed == "edge":
        clusters = edge_cluster_configs(
            num_clients=args.clients,
            policy=args.policy,
            policy_k=args.policy_k,
            scoring_policy=args.scoring_policy,
        )
        return clusters[: args.clusters]
    return gpu_cluster_configs(
        num_clusters=args.clusters,
        num_clients=args.clients,
        policies=[(args.policy, args.policy_k)] * args.clusters,
        scoring_policies=[args.scoring_policy] * args.clusters,
    )


def _build_config(args: argparse.Namespace, name: str, **overrides) -> ExperimentConfig:
    knobs = {f.name: getattr(args, f.name) for f in knob_fields() if f.name not in overrides}
    return ExperimentConfig(
        name, _build_workload(args), _build_clusters(args), **knobs, **overrides
    )


def _knob_flag(knob: dataclasses.Field) -> str:
    """The knob's declared ``flag``, else ``--`` plus its name with a trailing
    ``_mbytes_per_s`` or ``_s`` unit suffix dropped and ``_`` as ``-``."""
    if "flag" in knob.metadata:
        return knob.metadata["flag"]
    return "--" + re.sub(r"(_mbytes_per_s|_s)$", "", knob.name).replace("_", "-")


def _add_common_arguments(parser: argparse.ArgumentParser, skip: Sequence[str] = ()) -> None:
    """The options every running command shares: the cluster layout and
    workload, then one option per ``ExperimentConfig`` knob not in ``skip``."""
    parser.add_argument("--workload", choices=["cifar10", "tiny_imagenet"], default="cifar10")
    parser.add_argument("--testbed", choices=["edge", "gpu"], default="edge")
    parser.add_argument(
        "--clusters", type=int, default=3,
        help=f"number of organisations (at most {len(EDGE_CLIENT_PROFILES)} on the edge testbed)",
    )
    parser.add_argument("--clients", type=int, default=3, help="clients per organisation")
    parser.add_argument(
        "--policy", choices=available_aggregation_policies(), default="top_k",
        help="aggregation policy for every organisation",
    )
    parser.add_argument("--policy-k", type=int, default=2, dest="policy_k")
    parser.add_argument(
        "--scoring-policy", choices=available_scoring_policies(), default="mean",
        dest="scoring_policy",
    )
    parser.add_argument("--samples-per-class", type=int, default=24, dest="samples_per_class")
    parser.add_argument("--image-size", type=int, default=8, dest="image_size")
    parser.add_argument(
        "--num-classes", type=int, default=None, dest="num_classes",
        help=f"classes to train (default: {cifar10_workload().num_classes} for cifar10, "
        f"{tiny_imagenet_workload().num_classes} for tiny_imagenet)",
    )
    parser.add_argument("--learning-rate", type=float, default=0.05, dest="learning_rate")
    hints = get_type_hints(ExperimentConfig)
    for knob in knob_fields():
        if knob.name in skip:
            continue
        hint = hints[knob.name]
        # ``Optional[X]`` takes an ``X``; unset is the default.
        kind = next(t for t in get_args(hint) or [hint] if t is not type(None))
        bounds = bounds_text(knob)
        help_text = knob.metadata["help"] + (f" (range: {bounds})" if bounds else "")
        options = dict(dest=knob.name, default=knob.default, help=help_text)
        if kind is bool:
            options["action"] = argparse.BooleanOptionalAction
        else:
            options.update(type=kind, choices=knob_choices(knob))
        parser.add_argument(_knob_flag(knob), **options)
    # A short run by default; ``repro run`` also defaults to async mode.
    parser.set_defaults(rounds=6)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description="UnifyFL reproduction command-line interface")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one UnifyFL experiment")
    _add_common_arguments(run_parser)
    run_parser.set_defaults(mode="async")
    run_parser.add_argument("--json-out", default=None, help="write the full result document to this JSON file")
    run_parser.add_argument("--csv-out", default=None, help="append per-aggregator rows to this CSV file")
    run_parser.add_argument("--show-resources", action="store_true", help="print the Table-7-style resource report")
    run_parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top functions by cumulative time",
    )
    run_parser.add_argument(
        "--profile-top", type=int, default=25, dest="profile_top",
        help="number of functions the --profile report shows (default 25)",
    )

    compare_parser = subparsers.add_parser(
        "compare", help="run Sync, Async, Semi-sync and the baselines on the same data and compare"
    )
    # The command runs each of its modes in turn.
    _add_common_arguments(compare_parser, skip=("mode",))

    subparsers.add_parser("policies", help="list the available aggregation and scoring policies")

    add_lint_parser(subparsers)
    return parser


def _print_sanitizer_reports(runners: Dict[str, ExperimentRunner]) -> None:
    """One ``Sanitizer:`` line per sanitized runner, prefixed by its label: how
    many checks of each kind its runs passed.  A blank line follows any."""
    sanitizers = {label: r.sanitizer for label, r in runners.items() if r.sanitizer is not None}
    for label, sanitizer in sanitizers.items():
        checks = sanitizer.report()
        detail = ", ".join(f"{name}={checks[name]}" for name in sorted(checks))
        print(f"Sanitizer: {label}{sanitizer.total_checks} checks passed ({detail})")
    if sanitizers:
        print()


def _command_run(args: argparse.Namespace) -> int:
    config = _build_config(args, name=f"cli-{args.workload}-{args.mode}")
    runner = ExperimentRunner(config)
    if args.profile:
        result, report = runner.run_profiled(top=args.profile_top)
        print(report)
    else:
        result = runner.run()
    _print_sanitizer_reports({"": runner})
    print(format_run_table(result))
    print()
    print(f"Mean global accuracy : {result.mean_global_accuracy * 100:.2f} %")
    print(f"Federation makespan  : {result.max_total_time:.0f} simulated seconds")
    print()
    print(format_comm_table(result))
    policy_table = format_policy_table(result)
    if policy_table:
        print()
        print(policy_table)
    if args.show_resources and result.resource_reports:
        print()
        print(format_resource_table(result.resource_reports))
    if args.json_out:
        path = save_result_json(result, args.json_out)
        print(f"Result written to {path}")
    if args.csv_out:
        path = save_results_csv([result], args.csv_out)
        print(f"CSV written to {path}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    runners, results = {}, []
    for mode in ("sync", "async", "semi"):
        runner = ExperimentRunner(_build_config(args, f"cli-{mode}", mode=mode))
        runners[f"{mode}: "] = runner
        results.append(runner.run())
    runners["baselines: "] = baseline_runner = ExperimentRunner(
        _build_config(args, "cli-baseline", mode="sync")
    )
    centralized = baseline_runner.run_centralized_baseline(rounds=args.rounds)
    no_collab = baseline_runner.run_no_collab_baseline(rounds=args.rounds)

    _print_sanitizer_reports(runners)
    print(
        format_comparison(
            results,
            labels=["Sync UnifyFL", "Async UnifyFL", "Semi-sync UnifyFL"],
        )
    )
    print()
    print(f"{'Centralized multilevel (oracle)':<34}{centralized.global_accuracy * 100:>16.2f}{centralized.total_time:>14.0f}")
    isolated = max(c.accuracy for c in no_collab.clusters)
    print(f"{'Best isolated cluster (no collab)':<34}{isolated * 100:>16.2f}{no_collab.total_time:>14.0f}")
    return 0


def _command_policies(_: argparse.Namespace) -> int:
    print("Aggregation policies:", ", ".join(available_aggregation_policies()))
    print("Scoring policies    :", ", ".join(available_scoring_policies()))
    print("Orchestration modes :")
    for mode in registered_modes():
        print(f"  {mode:<14}{get_policy(mode).description}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "compare") and args.testbed == "edge":
        nodes = len(EDGE_CLIENT_PROFILES)
        if args.clusters > nodes:
            parser.error(
                f"--clusters {args.clusters} exceeds the edge testbed's {nodes} nodes "
                "(use --testbed gpu for more organisations)"
            )
    if args.command == "run":
        return _command_run(args)
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "policies":
        return _command_policies(args)
    if args.command == "lint":
        return command_lint(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
