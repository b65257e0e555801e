"""The four benchmark workloads, as plain data.

Nothing here imports ``repro``: the parent process (``bench/run.py``) reads
the names and sizes, and only the fresh child (``bench/child.py``) turns a
leg into an ``ExperimentConfig``.  Every workload runs
``cifar10_workload(image_size=8, learning_rate=0.05)`` on
``gpu_cluster_configs`` with ``seed = --seed``; what varies is the shape of
the federation, because the shape decides which layer owns the host time
(see README.md for the measured layer mix of each).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

ALL_MODES = ("sync", "async", "semi", "hierarchical", "gossip")


@dataclass(frozen=True)
class Workload:
    """One batch job: the same federation run once per leg, back to back."""

    why: str
    clusters: int
    clients: int
    samples_per_class: int
    #: rounds per leg at full size / under ``--check``.  Cluster and cohort
    #: counts are never cut: they set the layer mix.
    rounds: int
    check_rounds: int
    #: ``ExperimentConfig`` keywords shared by every leg.
    config: Dict[str, Any]
    #: per-leg ``ExperimentConfig`` keywords (each names at least ``mode``).
    legs: Tuple[Dict[str, Any], ...] = field(
        default_factory=lambda: tuple({"mode": mode} for mode in ALL_MODES)
    )


WORKLOADS: Dict[str, Workload] = {
    "silo_modes": Workload(
        why=(
            "paper-shaped cross-silo run (4 clusters x 3 clients, all five modes): "
            "~80% Client.fit + Model.evaluate, so ML-kernel work shows here and "
            "scheduler/scorer work must not move it"
        ),
        clusters=4,
        clients=3,
        samples_per_class=24,
        rounds=8,
        check_rounds=2,
        config=dict(
            partitioning="dirichlet",
            dirichlet_alpha=0.5,
            scoring_algorithm="accuracy",
            storage_replicas=2,
            replica_capacity=2,
            replication_mode="eager",
        ),
    ),
    "wide_sync": Workload(
        why=(
            "40 single-client clusters, sync Multi-KRUM, least-loaded over 4 replicas: "
            "middleware-dominated (score_round, LinkScheduler backlog probes, "
            "weight decoding), ML under 10%"
        ),
        clusters=40,
        clients=1,
        samples_per_class=16,
        rounds=3,
        check_rounds=1,
        config=dict(
            partitioning="iid",
            scoring_algorithm="multikrum",
            storage_replicas=4,
            replica_capacity=2,
            replica_selection="least-loaded",
        ),
        legs=({"mode": "sync"},),
    ),
    "faulted_modes": Workload(
        why=(
            "16 clusters x 2 clients under churn, replica outages and WAN partitions "
            "with lazy replication: the retry/failover/breaker paths and blocked "
            "scheduler windows, in all five modes"
        ),
        clusters=16,
        clients=2,
        samples_per_class=24,
        rounds=4,
        check_rounds=2,
        config=dict(
            partitioning="iid",
            storage_replicas=3,
            replica_capacity=1,
            replication_mode="lazy",
            link_bandwidth_mbytes_per_s=10,
            churn_rate=0.15,
            replica_outages=4,
            outage_duration_s=20,
            wan_partitions=3,
            partition_duration_s=20,
            fault_seed=0,
        ),
    ),
    "sampled_cohort": Workload(
        why=(
            "population 100000, cohorts of 64 (sync) and 32 (async lanes): the only "
            "run of lazy cluster materialisation, Model.clone and ClientSampler, and "
            "the one whose peak RSS is per materialised cluster"
        ),
        clusters=3,
        clients=2,
        samples_per_class=8,
        rounds=2,
        check_rounds=1,
        config=dict(population=100_000, storage_replicas=2),
        legs=(
            {"mode": "sync", "clients_per_round": 64},
            {"mode": "async", "clients_per_round": 32},
        ),
    ),
}
