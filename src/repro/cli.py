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

Every registry-backed ``choices=`` comes straight from its registry —
``--mode`` from the round-policy registry (:mod:`repro.sched.registry`),
``--policy`` / ``--scoring-policy`` from :mod:`repro.core.selection`,
``--scoring`` from ``SCORERS`` — so registering a new policy or scorer
makes it runnable from here with no CLI changes.

The same entry point is installed as the ``repro`` console script
(``pip install -e .`` then ``repro run --mode semi ...``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core.config import (
    EDGE_CLIENT_PROFILES,
    ClusterConfig,
    ExperimentConfig,
    cifar10_workload,
    edge_cluster_configs,
    gpu_cluster_configs,
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
from repro.core.scorer import SCORERS
from repro.sched.actors import REPLICA_SELECTIONS
from repro.sched.registry import get_policy, registered_modes
from repro.simnet.replication import REPLICATION_MODES


def _build_workload(args: argparse.Namespace):
    if args.workload == "cifar10":
        return cifar10_workload(
            rounds=args.rounds,
            samples_per_class=args.samples_per_class,
            image_size=args.image_size,
            learning_rate=args.learning_rate,
        )
    return tiny_imagenet_workload(
        rounds=args.rounds,
        samples_per_class=args.samples_per_class,
        num_classes=args.num_classes,
        image_size=args.image_size,
        learning_rate=args.learning_rate,
    )


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


def _build_config(args: argparse.Namespace, name: str, mode: Optional[str] = None) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        workload=_build_workload(args),
        clusters=_build_clusters(args),
        mode=mode or args.mode,
        partitioning=args.partitioning,
        dirichlet_alpha=args.alpha,
        scoring_algorithm=args.scoring,
        rounds=args.rounds,
        seed=args.seed,
        phase_duration=args.phase_duration,
        semi_quorum_k=args.semi_quorum_k,
        max_staleness=args.max_staleness,
        local_rounds_per_global=args.local_rounds_per_global,
        round_budget=args.round_budget,
        gossip_fanout=args.gossip_fanout,
        block_period=args.block_period,
        event_streams=args.event_streams,
        link_bandwidth_mbytes_per_s=args.link_bandwidth_mbytes_per_s,
        link_latency_s=args.link_latency_s,
        storage_replicas=args.storage_replicas,
        replica_capacity=args.replica_capacity,
        replica_selection=args.replica_selection,
        replication_mode=args.replication_mode,
        wan_latency_s=args.wan_latency_s,
        wan_bandwidth_mbytes_per_s=args.wan_bandwidth_mbytes_per_s,
        churn_rate=args.churn_rate,
        replica_outages=args.replica_outages,
        outage_duration_s=args.outage_duration_s,
        wan_partitions=args.wan_partitions,
        partition_duration_s=args.partition_duration_s,
        fault_seed=args.fault_seed,
        retry_max=args.retry_max,
        backoff_base_s=args.backoff_base_s,
        backoff_jitter=args.backoff_jitter,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown_s,
        sanitize=args.sanitize,
        population=args.population,
        clients_per_round=args.clients_per_round,
        sampling_seed=args.sampling_seed,
    )


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=["cifar10", "tiny_imagenet"], default="cifar10")
    parser.add_argument("--testbed", choices=["edge", "gpu"], default="edge")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument(
        "--clusters", type=int, default=3,
        help=f"number of organisations (at most {len(EDGE_CLIENT_PROFILES)} on the edge testbed)",
    )
    parser.add_argument("--clients", type=int, default=3, help="clients per organisation")
    parser.add_argument("--partitioning", choices=["iid", "dirichlet", "shard"], default="dirichlet")
    parser.add_argument("--alpha", type=float, default=0.5, help="Dirichlet concentration for NIID splits")
    parser.add_argument(
        "--policy", choices=available_aggregation_policies(), default="top_k",
        help="aggregation policy for every organisation",
    )
    parser.add_argument("--policy-k", type=int, default=2, dest="policy_k")
    parser.add_argument(
        "--scoring-policy", choices=available_scoring_policies(), default="mean",
        dest="scoring_policy",
    )
    parser.add_argument("--scoring", choices=list(SCORERS), default="accuracy")
    parser.add_argument("--samples-per-class", type=int, default=24, dest="samples_per_class")
    parser.add_argument("--image-size", type=int, default=8, dest="image_size")
    parser.add_argument("--num-classes", type=int, default=10, dest="num_classes")
    parser.add_argument("--learning-rate", type=float, default=0.05, dest="learning_rate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--phase-duration", type=float, default=None, dest="phase_duration",
        help="sync mode: fixed per-phase duration in simulated seconds "
        "(default: adaptive — the orchestrator waits for the slowest aggregator)",
    )
    parser.add_argument(
        "--block-period", type=float, default=2.0, dest="block_period",
        help="simulated seconds between chain blocks (the chain actor's block grid; "
        "with --no-event-streams the whole chain-interaction constant)",
    )
    parser.add_argument(
        "--semi-quorum-k", type=int, default=None, dest="semi_quorum_k",
        help="semi mode: clusters that must submit before a round closes (default: majority)",
    )
    parser.add_argument(
        "--max-staleness", type=float, default=None, dest="max_staleness",
        help="semi mode: simulated seconds before an open round closes without quorum",
    )
    parser.add_argument(
        "--local-rounds-per-global", type=int, default=2, dest="local_rounds_per_global",
        help="hierarchical mode: cheap LAN-priced local aggregation rounds each site "
        "group runs per global round",
    )
    parser.add_argument(
        "--round-budget", type=int, default=None, dest="round_budget",
        help="hierarchical mode: cap on the total local training rounds each cluster "
        "contributes across the run (default: unbounded)",
    )
    parser.add_argument(
        "--gossip-fanout", type=int, default=2, dest="gossip_fanout",
        help="gossip mode: peers each cluster exchanges models with per round "
        "(0 = fully isolated training)",
    )
    parser.add_argument(
        "--event-streams", action=argparse.BooleanOptionalAction, dest="event_streams",
        default=True,
        help="model network transfers and contract calls as contended event streams "
        "(link queueing + block-interval/consensus chain delays); on by default. "
        "--no-event-streams runs the same fabric at constant cost: nothing queues, "
        "a chain interaction costs n*TX + block period, phase control is free",
    )
    parser.add_argument(
        "--link-bandwidth", type=float, default=None, dest="link_bandwidth_mbytes_per_s",
        help="cap each cluster's storage link at this many megabytes "
        "(not megabits) per simulated second (default: the hardware profile's bandwidth)",
    )
    parser.add_argument(
        "--link-latency", type=float, default=None, dest="link_latency_s",
        help="override the one-way storage-link latency in seconds",
    )
    parser.add_argument(
        "--storage-replicas", type=int, default=1, dest="storage_replicas",
        help="number of storage replica sites (default 1: the single "
        "shared endpoint); clusters are assigned to sites round-robin",
    )
    parser.add_argument(
        "--replica-capacity", type=int, default=1, dest="replica_capacity",
        help="event streams only: parallel transfers each storage replica serves at once",
    )
    parser.add_argument(
        "--replica-selection", choices=list(REPLICA_SELECTIONS), default="affinity",
        dest="replica_selection",
        help="replica picked per transfer — the cluster's own site "
        "(affinity) or the deterministically least-loaded one",
    )
    parser.add_argument(
        "--replication-mode", choices=list(REPLICATION_MODES), default="eager",
        dest="replication_mode",
        help="how uploads reach the other storage replicas — pushed "
        "to every peer right after the upload (eager), fetched on demand when a "
        "download misses (lazy), or never (none: downloads are pinned to the "
        "origin replica)",
    )
    parser.add_argument(
        "--wan-latency", type=float, default=0.05, dest="wan_latency_s",
        help="one-way latency of the WAN link between replica sites, "
        "in seconds",
    )
    parser.add_argument(
        "--wan-bandwidth", type=float, default=50.0, dest="wan_bandwidth_mbytes_per_s",
        help="bandwidth of the WAN link between replica sites, in "
        "megabytes (not megabits) per simulated second",
    )
    parser.add_argument(
        "--churn-rate", type=float, default=0.0, dest="churn_rate",
        help="fault injection: probability a given cluster drops out of a given "
        "round (seeded, deterministic; default 0 = no churn)",
    )
    parser.add_argument(
        "--replica-outages", type=int, default=0, dest="replica_outages",
        help="fault injection (event streams only): storage-replica outage episodes, "
        "dealt round-robin over the replicas at seeded start times",
    )
    parser.add_argument(
        "--outage-duration", type=float, default=60.0, dest="outage_duration_s",
        help="fault injection: simulated seconds one replica outage lasts before "
        "its scheduled recovery",
    )
    parser.add_argument(
        "--wan-partitions", type=int, default=0, dest="wan_partitions",
        help="fault injection (event streams only): pairwise WAN partition episodes "
        "between replica sites (needs --storage-replicas >= 2)",
    )
    parser.add_argument(
        "--partition-duration", type=float, default=60.0, dest="partition_duration_s",
        help="fault injection: simulated seconds one WAN partition lasts before healing",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None, dest="fault_seed",
        help="seed of the fault plan's random streams (default: the experiment seed)",
    )
    parser.add_argument(
        "--retry-max", type=int, default=3, dest="retry_max",
        help="resilience: failed transfer attempts retried with backoff before "
        "failing over to another replica (0 disables retries AND failover — "
        "transfers wait out faults on the link schedule)",
    )
    parser.add_argument(
        "--backoff-base", type=float, default=0.5, dest="backoff_base_s",
        help="resilience: first backoff wait in simulated seconds (attempt n "
        "waits backoff-base * 2**n, plus jitter)",
    )
    parser.add_argument(
        "--backoff-jitter", type=float, default=0.1, dest="backoff_jitter",
        help="resilience: uniform jitter fraction applied to each backoff wait "
        "(deterministic, seeded)",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=3, dest="breaker_threshold",
        help="resilience: consecutive failures that trip a replica's circuit "
        "breaker open",
    )
    parser.add_argument(
        "--breaker-cooldown", type=float, default=60.0, dest="breaker_cooldown_s",
        help="resilience: simulated seconds an open breaker fails fast before "
        "admitting one half-open trial",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="attach the simulation sanitizer: read-only invariant checks on "
        "the kernel, link scheduler and fabric (a sanitized run stays "
        "bit-identical; violations abort with a SanitizerViolation)",
    )
    parser.add_argument(
        "--population", type=int, default=None,
        help="cross-device scale: total virtual clusters in the federation; "
        "--clusters become round-robin templates and only each round's "
        "sampled cohort materialises (peak memory is O(cohort))",
    )
    parser.add_argument(
        "--clients-per-round", type=int, default=None, dest="clients_per_round",
        help="sampled mode: cohort size drawn each round (required with --population)",
    )
    parser.add_argument(
        "--sampling-seed", type=int, default=None, dest="sampling_seed",
        help="seed of the per-round cohort draw (default: the experiment "
        "seed; kept separate from --fault-seed so sampling never shifts the "
        "churn stream)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description="UnifyFL reproduction command-line interface")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one UnifyFL experiment")
    _add_common_arguments(run_parser)
    # The mode choices are derived from the round-policy registry, so a
    # newly registered policy shows up here without CLI edits.
    run_parser.add_argument("--mode", choices=registered_modes(), default="async")
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
    _add_common_arguments(compare_parser)

    subparsers.add_parser("policies", help="list the available aggregation and scoring policies")

    add_lint_parser(subparsers)
    return parser


def _command_run(args: argparse.Namespace) -> int:
    config = _build_config(args, name=f"cli-{args.workload}-{args.mode}")
    runner = ExperimentRunner(config)
    if args.profile:
        result, report = runner.run_profiled(top=args.profile_top)
        print(report)
    else:
        result = runner.run()
    if runner.sanitizer is not None:
        checks = runner.sanitizer.report()
        detail = ", ".join(f"{name}={checks[name]}" for name in sorted(checks))
        print(f"Sanitizer: {runner.sanitizer.total_checks} checks passed ({detail})")
        print()
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
    sync_result = ExperimentRunner(_build_config(args, "cli-sync", mode="sync")).run()
    async_result = ExperimentRunner(_build_config(args, "cli-async", mode="async")).run()
    semi_result = ExperimentRunner(_build_config(args, "cli-semi", mode="semi")).run()
    baseline_runner = ExperimentRunner(_build_config(args, "cli-baseline", mode="sync"))
    centralized = baseline_runner.run_centralized_baseline(rounds=args.rounds)
    no_collab = baseline_runner.run_no_collab_baseline(rounds=args.rounds)

    print(
        format_comparison(
            [sync_result, async_result, semi_result],
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
