"""Figure-style benchmark — storage topology sweep (replicas × capacity).

ROADMAP item "richer topologies": with event streams on, every model moves
through the storage fabric, and a single serial endpoint is a structural
bottleneck — queueing grows with the number of clusters pushing at once.
This sweep quantifies the fix: it scans the number of storage replica sites
and the parallel capacity of each replica over an otherwise identical
contended workload (homogeneous GPU clusters on a throttled link, so
submissions collide), and reports the federation makespan, the total queued
seconds and the per-replica load split.

The full grid is also written to ``benchmarks/out/topology_sweep.json`` so
the numbers can be plotted without re-running the sweep.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.conftest import run_once
from repro.core.config import ExperimentConfig, cifar10_workload, gpu_cluster_configs
from repro.core.runner import ExperimentRunner
from repro.sched.metrics import flat_row, members

#: where the sweep's machine-readable results land.
OUTPUT_PATH = Path(__file__).parent / "out" / "topology_sweep.json"

REPLICA_COUNTS = (1, 2, 3)
CAPACITIES = (1, 2)
ROUNDS = 2
CLUSTERS = 6
#: megabytes per simulated second — throttled far below the GPU profile's
#: 125 MB/s so simultaneous submissions genuinely contend.
LINK_BANDWIDTH = 0.05


def topology_experiment(replicas: int, capacity: int) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"topo-r{replicas}-c{capacity}",
        workload=cifar10_workload(rounds=ROUNDS, samples_per_class=10, image_size=8, learning_rate=0.05),
        clusters=gpu_cluster_configs(num_clusters=CLUSTERS, num_clients=2),
        mode="async",
        rounds=ROUNDS,
        seed=4,
        event_streams=True,
        link_bandwidth_mbytes_per_s=LINK_BANDWIDTH,
        storage_replicas=replicas,
        replica_capacity=capacity,
    )


def run_topology(replicas: int, capacity: int):
    """The run's result and the names of its storage replicas."""
    runner = ExperimentRunner(topology_experiment(replicas, capacity))
    return runner.run(), runner.comm.network.replicas


def test_topology_replica_capacity_sweep(benchmark, report):
    def run():
        return {
            (replicas, capacity): run_topology(replicas, capacity)
            for replicas in REPLICA_COUNTS
            for capacity in CAPACITIES
        }

    grid = run_once(benchmark, run)

    rows = []
    for (replicas, capacity), (result, replica_names) in grid.items():
        metrics = result.comm_metrics
        replica_counts = {
            replica: metrics[f"replica_{replica}_count"]
            for replica in members(metrics, "replica")
        }
        # One entry per storage replica of the run, nothing parsed from a
        # neighbouring family's keys.
        assert sorted(replica_counts) == sorted(replica_names), replica_counts
        rows.append(
            {
                "storage_replicas": replicas,
                "replica_capacity": capacity,
                "makespan_s": result.max_total_time,
                **flat_row(
                    metrics,
                    ["network_queued", "upload_queued", "download_queued", "network_time"],
                ),
                "replica_transfer_counts": replica_counts,
            }
        )

    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(rows, indent=2), encoding="utf-8")

    lines = ["Topology sweep — makespan/queueing vs storage replicas × capacity"]
    lines.append(
        f"{'replicas':>9}{'capacity':>9}{'makespan':>10}{'queued':>9}{'wire':>8}  per-replica transfers"
    )
    lines.append("-" * 72)
    for row in rows:
        split = ", ".join(
            f"{name}:{count:.0f}" for name, count in sorted(row["replica_transfer_counts"].items())
        )
        lines.append(
            f"{row['storage_replicas']:>9}{row['replica_capacity']:>9}"
            f"{row['makespan_s']:>10.0f}{row['network_queued_s']:>9.1f}"
            f"{row['network_time_s']:>8.1f}  {split}"
        )
    lines.append(f"(written to {OUTPUT_PATH})")
    report("\n".join(lines))

    by_key = {(r["storage_replicas"], r["replica_capacity"]): r for r in rows}
    baseline = by_key[(1, 1)]
    # The contended single-endpoint run actually queues — otherwise the sweep
    # proves nothing.
    assert baseline["network_queued_s"] > 0
    for capacity in CAPACITIES:
        # More replica sites strictly relieve the bottleneck on a contended
        # workload, and never hurt the makespan.
        assert (
            by_key[(2, capacity)]["network_queued_s"]
            < by_key[(1, capacity)]["network_queued_s"]
        )
        assert (
            by_key[(3, capacity)]["network_queued_s"]
            <= by_key[(2, capacity)]["network_queued_s"]
        )
        assert by_key[(2, capacity)]["makespan_s"] <= by_key[(1, capacity)]["makespan_s"]
    for replicas in REPLICA_COUNTS:
        # Doubling each replica's parallel capacity can only shorten queues.
        assert (
            by_key[(replicas, 2)]["network_queued_s"]
            <= by_key[(replicas, 1)]["network_queued_s"]
        )
    # Uncontended wire time is capacity-invariant: parallelism removes
    # queueing, it never makes an individual transfer faster.
    for row in rows:
        assert row["network_time_s"] == pytest.approx(baseline["network_time_s"], rel=0.2)
