"""Experiment configuration dataclasses.

These mirror the configuration dimensions of the paper's evaluation:
workload (Table 4), data partitioning (IID / Dirichlet NIID with α),
orchestration mode (Sync / Async), per-aggregator aggregation strategy
(FedAvg / FedYogi), per-aggregator aggregation policy, scoring algorithm
(accuracy / MultiKRUM) and the testbed (GPU cluster / edge cluster).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.attacks import available_attacks
from repro.sched.actors import REPLICA_SELECTIONS
from repro.sched.registry import validate_mode_config
from repro.simnet.replication import REPLICATION_MODES
from repro.simnet.hardware import (
    DOCKER_CONTAINER,
    EDGE_CPU_NODE,
    GPU_NODE,
    JETSON_NANO,
    RASPBERRY_PI_400,
    HardwareProfile,
)


@dataclass
class WorkloadConfig:
    """One row of the paper's Table 4 (scaled to the simulation substrate)."""

    name: str
    model: str
    dataset: str
    num_classes: int
    image_size: int = 16
    learning_rate: float = 0.01
    rounds: int = 100
    local_epochs: int = 2
    batch_size: int = 5
    samples_per_class: int = 100
    test_samples_per_class: int = 20
    #: reference parameter count used for timing (the paper's model size).
    reference_parameters: int = 62_000
    #: nominal number of training samples each client of the *paper's* testbed
    #: holds; drives the timing model, not the actual (scaled) training data.
    nominal_samples_per_client: int = 2_000
    #: nominal number of evaluation samples a scorer runs per candidate model.
    nominal_test_samples: int = 1_000

    def __post_init__(self) -> None:
        if self.rounds <= 0 or self.local_epochs <= 0 or self.batch_size <= 0:
            raise ValueError("rounds, local_epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.nominal_samples_per_client <= 0 or self.nominal_test_samples <= 0:
            raise ValueError("nominal sample counts must be positive")


def cifar10_workload(
    rounds: int = 20,
    samples_per_class: int = 60,
    image_size: int = 16,
    learning_rate: float = 0.01,
) -> WorkloadConfig:
    """The CIFAR-10 / CNN edge workload of Table 4 (scaled).

    ``learning_rate`` defaults to the paper's 0.01; the scaled-down synthetic
    substrate converges in far fewer rounds with 0.05, which the benchmarks use
    to reproduce the paper's accuracy *shape* within their round budget.
    """
    return WorkloadConfig(
        name="cifar10-cnn",
        model="simple_cnn",
        dataset="cifar10",
        num_classes=10,
        image_size=image_size,
        learning_rate=learning_rate,
        rounds=rounds,
        local_epochs=2,
        batch_size=5,
        samples_per_class=samples_per_class,
        test_samples_per_class=max(10, samples_per_class // 4),
        reference_parameters=62_000,
        nominal_samples_per_client=2_000,
        nominal_test_samples=1_000,
    )


def tiny_imagenet_workload(
    rounds: int = 10,
    samples_per_class: int = 30,
    num_classes: int = 20,
    image_size: int = 16,
    learning_rate: float = 0.01,
) -> WorkloadConfig:
    """The Tiny-ImageNet / VGG16 GPU workload of Table 4 (scaled).

    ``learning_rate`` defaults to the paper's 0.01; benchmarks may raise it so
    the scaled substrate converges within a small round budget.
    """
    return WorkloadConfig(
        name="tiny-imagenet-vgg",
        model="mini_vgg",
        dataset="tiny_imagenet",
        num_classes=num_classes,
        image_size=image_size,
        learning_rate=learning_rate,
        rounds=rounds,
        local_epochs=2,
        batch_size=8,
        samples_per_class=samples_per_class,
        test_samples_per_class=max(5, samples_per_class // 4),
        reference_parameters=138_000_000,
        nominal_samples_per_client=8_000,
        nominal_test_samples=2_000,
    )


def majority_quorum(num_clusters: int) -> int:
    """The default semi-sync quorum: a strict majority of the clusters."""
    return num_clusters // 2 + 1


def validate_semi_params(
    quorum_k: Optional[int], max_staleness: Optional[float], num_clusters: int
) -> None:
    """Shared bounds check for the semi-sync knobs (single source of truth).

    ``None`` values are skipped — config-level validation passes through
    unresolved optionals, while the semi policy validates resolved values.
    """
    if quorum_k is not None and not 1 <= quorum_k <= num_clusters:
        raise ValueError("semi_quorum_k must be between 1 and the number of clusters")
    if max_staleness is not None and max_staleness <= 0:
        raise ValueError("max_staleness must be positive")


@dataclass
class ClusterConfig:
    """Configuration of one participating FL cluster (aggregator + its clients)."""

    name: str
    num_clients: int = 3
    strategy: str = "fedavg"
    aggregation_policy: str = "all"
    policy_k: int = 2
    scoring_policy: str = "mean"
    aggregator_profile: HardwareProfile = EDGE_CPU_NODE
    client_profile: HardwareProfile = DOCKER_CONTAINER
    #: name of the model-poisoning attack this organisation mounts
    #: (:func:`repro.core.attacks.available_attacks`); ``None`` is honest.
    attack: Optional[str] = None
    #: when set, this organisation's clients privatise their updates with the
    #: Gaussian DP mechanism (clip to this L2 norm, add calibrated noise).
    dp_clip_norm: Optional[float] = None
    dp_noise_multiplier: float = 0.0
    #: probability that the organisation is up for a given round (fault
    #: injection); 1.0 means it never drops out.
    availability: float = 1.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every field; the error names this cluster and the field.

        A cluster is mutable, so :class:`ExperimentConfig` validates its
        clusters again: a field edited after construction is checked too.
        """
        where = f"cluster {self.name!r}:"
        if self.num_clients <= 0:
            raise ValueError(f"{where} num_clients must be positive")
        if self.policy_k <= 0:
            raise ValueError(f"{where} policy_k must be positive")
        if self.dp_clip_norm is not None and self.dp_clip_norm <= 0:
            raise ValueError(f"{where} dp_clip_norm must be positive when set")
        if self.dp_noise_multiplier < 0:
            raise ValueError(f"{where} dp_noise_multiplier must be non-negative")
        if self.dp_noise_multiplier > 0 and self.dp_clip_norm is None:
            raise ValueError(f"{where} dp_noise_multiplier > 0 needs dp_clip_norm to be set")
        if not 0.0 < self.availability <= 1.0:
            raise ValueError(f"{where} availability must be in (0, 1]")
        if self.attack is not None and self.attack not in available_attacks():
            raise ValueError(f"{where} attack must be one of {available_attacks()}")


@dataclass
class ExperimentConfig:
    """Everything needed to run one UnifyFL experiment end to end."""

    name: str
    workload: WorkloadConfig
    clusters: List[ClusterConfig]
    #: orchestration mode, validated against the round-policy registry
    #: (:func:`repro.sched.registry.registered_modes`) — "sync", "async",
    #: "semi", "hierarchical" and "gossip" are built in.
    mode: str = "sync"
    partitioning: str = "dirichlet"  # "iid", "dirichlet" or "shard"
    dirichlet_alpha: float = 0.5
    #: "accuracy" / "loss" work in every mode; "multikrum" / "cosine" are
    #: similarity-based and therefore Sync-only (they need the whole round).
    scoring_algorithm: str = "accuracy"
    rounds: int = 10
    seed: int = 0
    #: fixed per-phase duration in simulated seconds for Sync mode; ``None``
    #: means the orchestrator waits for the slowest aggregator (adaptive barrier).
    phase_duration: Optional[float] = None
    #: semi mode: how many clusters must submit before the round closes;
    #: ``None`` means a majority (N // 2 + 1).
    semi_quorum_k: Optional[int] = None
    #: semi mode: simulated seconds after which an open round closes even
    #: without a quorum; ``None`` provisions one expected sync training window.
    max_staleness: Optional[float] = None
    #: hierarchical mode: cheap LAN-priced local aggregation rounds each
    #: site group runs per global round.
    local_rounds_per_global: int = 2
    #: hierarchical mode: cap on the total local training rounds each
    #: cluster contributes across the run (``None`` = unbounded).  An
    #: exhausted cluster keeps receiving group models but trains no further.
    round_budget: Optional[int] = None
    #: gossip mode: peers each cluster exchanges models with per round
    #: (0 = fully isolated training).
    gossip_fanout: int = 2
    #: simulated seconds between chain blocks: the Clique period, the
    #: timing model's seal time and the chain actor's block grid.
    block_period: float = 2.0
    #: attach the simulation sanitizer (:mod:`repro.analysis.sanitizer`):
    #: read-only invariant checks on the kernel, the link scheduler and the
    #: communication fabric.  Never perturbs the timeline — a sanitized run
    #: is bit-identical to an unsanitized one (CLI ``--sanitize``).
    sanitize: bool = False
    #: model network transfers and contract calls as contended event streams
    #: (link contention + block-interval/consensus chain delays).  ``False``
    #: (CLI ``--no-event-streams``) runs the same fabric at constant cost —
    #: exactly three differences: endpoint capacity is unbounded (no
    #: contention), a chain interaction costs ``n·TX + block_period`` (no
    #: quantisation, no consensus delay), driver phase control is free.  The
    #: topology knobs below apply on both settings; ``replica_capacity`` and
    #: the link-level faults need ``True``.
    event_streams: bool = True
    #: bandwidth cap of each cluster↔storage link, in mega**bytes** per
    #: simulated second (1 MB = 1e6 bytes); ``None`` uses the cluster's
    #: hardware profile bandwidth unchanged.
    link_bandwidth_mbytes_per_s: Optional[float] = None
    #: one-way latency override of every cluster↔storage link, in simulated
    #: seconds; ``None`` uses the profile latency.
    link_latency_s: Optional[float] = None
    #: number of storage replicas models are distributed to.  1 keeps the
    #: single shared endpoint; with more, clusters are assigned to replica
    #: sites round-robin and reach remote sites over WAN links.
    storage_replicas: int = 1
    #: ``event_streams=True`` only: parallel transfers each storage replica
    #: can serve at once (the LinkScheduler endpoint capacity).
    replica_capacity: int = 1
    #: how the network actor picks a replica per transfer — "affinity" (the
    #: cluster's own site) or "least-loaded" (deterministic smallest
    #: estimated completion time: backlog per capacity slot plus path wire
    #: time).
    replica_selection: str = "affinity"
    #: how uploaded artifacts reach the other storage replicas — "eager"
    #: (origin pushes to every peer right after the upload commits), "lazy"
    #: (a download miss triggers an on-demand origin→replica fetch the
    #: downloader waits behind) or "none" (downloads are pinned to the
    #: origin replica).  Irrelevant with a single replica.
    replication_mode: str = "eager"
    #: one-way latency of the WAN link between two replica sites, in
    #: simulated seconds.
    wan_latency_s: float = 0.05
    #: bandwidth of the WAN link between two replica sites, in megabytes per
    #: simulated second.
    wan_bandwidth_mbytes_per_s: float = 50.0
    #: fault injection: probability that a given cluster drops out of a
    #: given round entirely (seeded, deterministic per ``(cluster, round)``;
    #: on top of any per-cluster ``availability`` draw).  0 disables churn.
    churn_rate: float = 0.0
    #: fault injection, ``event_streams=True`` only: number of storage-replica
    #: outage episodes (dealt round-robin over the replicas, each starting at a
    #: seeded point in the run and recovering after ``outage_duration_s``).
    replica_outages: int = 0
    #: simulated seconds one replica outage lasts before scheduled recovery.
    outage_duration_s: float = 60.0
    #: fault injection, ``event_streams=True`` only: number of pairwise WAN
    #: partition episodes between replica sites (needs ``storage_replicas >= 2``).
    wan_partitions: int = 0
    #: simulated seconds one WAN partition lasts before healing.
    partition_duration_s: float = 60.0
    #: seed of the fault plan's random streams (churn draws, outage and
    #: partition start times); ``None`` reuses the experiment ``seed``.
    fault_seed: Optional[int] = None
    #: resilience: failed transfer attempts retried (with exponential
    #: backoff) before failing over to another replica.  0 switches the
    #: resilience layer off entirely — transfers wait out faults on the
    #: link schedule instead of retrying or failing over.
    retry_max: int = 3
    #: resilience: first backoff wait in simulated seconds (attempt *n*
    #: waits ``backoff_base_s * 2**n``, plus jitter).
    backoff_base_s: float = 0.5
    #: resilience: uniform jitter fraction applied to each backoff wait
    #: (deterministic, seeded).
    backoff_jitter: float = 0.1
    #: resilience: consecutive failures that trip a replica's circuit
    #: breaker from closed to open.
    breaker_threshold: int = 3
    #: resilience: simulated seconds an open breaker fails fast before
    #: admitting one half-open trial.
    breaker_cooldown_s: float = 60.0
    #: cross-device scale: total number of *virtual* clusters in the
    #: federation.  ``None`` (the default) runs the classic cross-silo shape
    #: where every entry of ``clusters`` materialises up front.  When set,
    #: ``clusters`` become round-robin templates for the virtual population
    #: and only the per-round sampled cohort materialises actors, models and
    #: datasets — peak memory is O(cohort), not O(population).
    population: Optional[int] = None
    #: sampled mode: cohort size drawn each round; required with
    #: ``population``.
    clients_per_round: Optional[int] = None
    #: seed of the per-round cohort draw (keyed ``[seed, round]`` so draws
    #: are independent of policy call order); ``None`` reuses the experiment
    #: ``seed``.  Kept separate from ``fault_seed`` so sampling never shifts
    #: the churn Bernoulli stream.
    sampling_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.partitioning not in ("iid", "dirichlet", "shard"):
            raise ValueError("partitioning must be 'iid', 'dirichlet' or 'shard'")
        if self.scoring_algorithm not in ("accuracy", "loss", "multikrum", "cosine"):
            raise ValueError(
                "scoring_algorithm must be 'accuracy', 'loss', 'multikrum' or 'cosine'"
            )
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if not self.clusters:
            raise ValueError("clusters must hold at least one cluster")
        if len({c.name for c in self.clusters}) != len(self.clusters):
            raise ValueError("clusters must have unique names")
        for cluster in self.clusters:
            cluster.validate()
        if self.population is None:
            if self.clients_per_round is not None:
                raise ValueError("clients_per_round needs population to be set")
            if self.sampling_seed is not None:
                raise ValueError("sampling_seed needs population to be set")
        else:
            if self.population < 1:
                raise ValueError("population must be at least 1")
            if self.clients_per_round is None:
                raise ValueError("sampled mode needs clients_per_round")
            if not 1 <= self.clients_per_round <= self.population:
                raise ValueError("clients_per_round must be in [1, population]")
        # Semi-sync quorum bounds check against the per-round federation size:
        # the cohort in sampled mode, the static cluster list otherwise.
        validate_semi_params(
            self.semi_quorum_k, self.max_staleness, self.clients_per_round or len(self.clusters)
        )
        if self.local_rounds_per_global < 1:
            raise ValueError("local_rounds_per_global must be at least 1")
        if self.round_budget is not None and self.round_budget < 1:
            raise ValueError("round_budget must be at least 1 when set")
        if self.gossip_fanout < 0:
            raise ValueError("gossip_fanout must be non-negative")
        if self.block_period <= 0:
            raise ValueError("block_period must be positive")
        if self.link_bandwidth_mbytes_per_s is not None and self.link_bandwidth_mbytes_per_s <= 0:
            raise ValueError("link_bandwidth_mbytes_per_s must be positive when set")
        if self.link_latency_s is not None and self.link_latency_s < 0:
            raise ValueError("link_latency_s must be non-negative when set")
        if self.storage_replicas < 1:
            raise ValueError("storage_replicas must be at least 1")
        if self.replica_capacity < 1:
            raise ValueError("replica_capacity must be at least 1")
        if self.replica_selection not in REPLICA_SELECTIONS:
            raise ValueError(f"replica_selection must be one of {REPLICA_SELECTIONS}")
        if self.replication_mode not in REPLICATION_MODES:
            raise ValueError(f"replication_mode must be one of {REPLICATION_MODES}")
        if self.wan_latency_s < 0:
            raise ValueError("wan_latency_s must be non-negative")
        if self.wan_bandwidth_mbytes_per_s <= 0:
            raise ValueError("wan_bandwidth_mbytes_per_s must be positive")
        if not 0.0 <= self.churn_rate < 1.0:
            raise ValueError("churn_rate must be in [0, 1)")
        if self.replica_outages < 0:
            raise ValueError("replica_outages must be non-negative")
        if self.outage_duration_s <= 0:
            raise ValueError("outage_duration_s must be positive")
        if self.wan_partitions < 0:
            raise ValueError("wan_partitions must be non-negative")
        if self.partition_duration_s <= 0:
            raise ValueError("partition_duration_s must be positive")
        if not self.event_streams:
            # The constant-cost fabric has no queue for a capacity to bound
            # and no link-level faults.
            if self.replica_capacity != 1:
                raise ValueError("replica_capacity needs event_streams=True (unbounded otherwise)")
            if self.replica_outages > 0:
                raise ValueError("replica_outages need event_streams=True (link-level faults)")
            if self.wan_partitions > 0:
                raise ValueError("wan_partitions need event_streams=True (link-level faults)")
        if self.wan_partitions > 0 and self.storage_replicas < 2:
            raise ValueError("wan_partitions need storage_replicas of at least 2")
        if self.retry_max < 0:
            raise ValueError("retry_max must be non-negative")
        if self.backoff_base_s <= 0:
            raise ValueError("backoff_base_s must be positive")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be non-negative")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker_cooldown_s must be positive")
        # Mode validation is registry-driven: an unknown mode fails here,
        # at construction, with the list of registered names — and each
        # mode's own validate hook rejects configurations it cannot run
        # (e.g. similarity scoring outside sync).
        validate_mode_config(self)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def has_faults(self) -> bool:
        """True when this configuration injects any faults at all."""
        return self.churn_rate > 0 or self.replica_outages > 0 or self.wan_partitions > 0

    @property
    def has_sampling(self) -> bool:
        """True when the run samples a per-round cohort from a virtual population."""
        return self.population is not None


def gpu_cluster_configs(
    num_clusters: int = 4,
    num_clients: int = 3,
    strategies: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[Tuple[str, int]]] = None,
    scoring_policies: Optional[Sequence[str]] = None,
) -> List[ClusterConfig]:
    """Cluster configs matching the paper's homogeneous 4-node GPU testbed."""
    clusters: List[ClusterConfig] = []
    for i in range(num_clusters):
        strategy = strategies[i] if strategies else "fedavg"
        policy, k = policies[i] if policies else ("all", 2)
        scoring_policy = scoring_policies[i] if scoring_policies else "mean"
        clusters.append(
            ClusterConfig(
                name=f"agg{i + 1}",
                num_clients=num_clients,
                strategy=strategy,
                aggregation_policy=policy,
                policy_k=k,
                scoring_policy=scoring_policy,
                aggregator_profile=GPU_NODE,
                client_profile=GPU_NODE,
            )
        )
    return clusters


#: the client hardware of the edge testbed's nodes, one cluster per node.
EDGE_CLIENT_PROFILES = (RASPBERRY_PI_400, JETSON_NANO, DOCKER_CONTAINER)


def edge_cluster_configs(
    num_clients: int = 3, policy: str = "top_k", policy_k: int = 2, scoring_policy: str = "mean"
) -> List[ClusterConfig]:
    """Cluster configs matching the paper's heterogeneous 3-node edge testbed.

    Each aggregator runs on a CPU node; its clients are homogeneous within a
    cluster but differ across clusters (Raspberry Pi 400, Jetson Nano, Docker),
    as described in Section 4.1.
    """
    clusters: List[ClusterConfig] = []
    for i, profile in enumerate(EDGE_CLIENT_PROFILES):
        clusters.append(
            ClusterConfig(
                name=f"agg{i + 1}",
                num_clients=num_clients,
                strategy="fedavg",
                aggregation_policy=policy,
                policy_k=policy_k,
                scoring_policy=scoring_policy,
                aggregator_profile=EDGE_CPU_NODE,
                client_profile=profile,
            )
        )
    return clusters
