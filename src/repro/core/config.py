"""Experiment configuration dataclasses.

These mirror the configuration dimensions of the paper's evaluation:
workload (Table 4), data partitioning (IID / Dirichlet NIID with α),
orchestration mode (Sync / Async), per-aggregator aggregation strategy
(FedAvg / FedYogi), per-aggregator aggregation policy, scoring algorithm
(accuracy / MultiKRUM) and the testbed (GPU cluster / edge cluster).
"""

from __future__ import annotations

import operator
from dataclasses import MISSING, Field, dataclass, field, fields
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.attacks import available_attacks
from repro.core.scorer import SCORERS
from repro.datasets.synthetic import DATASETS
from repro.ml.models import IMAGE_MODELS
from repro.sched.actors import REPLICA_SELECTIONS
from repro.sched.registry import get_policy, registered_modes, validate_mode_config
from repro.simnet.replication import REPLICATION_MODES
from repro.simnet.hardware import (
    DOCKER_CONTAINER,
    EDGE_CPU_NODE,
    GPU_NODE,
    JETSON_NANO,
    RASPBERRY_PI_400,
    HardwareProfile,
)


#: the bound keywords a field may declare (each names its :mod:`operator`), and their signs.
BOUNDS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}


def bounded(default: Any = MISSING, **bounds: Any) -> Any:
    """A config field declared with its range: ``gt`` / ``ge`` / ``lt`` / ``le``
    keywords, or its closed set of values, ``choices``; :func:`check_bounds`
    enforces both."""
    return field(default=default, metadata=bounds)


def bounds_text(config_field: Field) -> str:
    """The field's declared range, such as ``>= 0.0, < 1.0`` (empty when it has none)."""
    declared = config_field.metadata
    return ", ".join(f"{sign} {declared[key]}" for key, sign in BOUNDS.items() if key in declared)


def knob_choices(config_field: Field) -> Optional[Tuple[str, ...]]:
    """The values a field accepts, or ``None`` when its set is open."""
    choices = config_field.metadata.get("choices")
    if callable(choices):
        choices = choices()
    return None if choices is None else tuple(choices)


def check_bounds(config: Any, where: str = "") -> None:
    """Reject the first field of ``config`` outside its declared range or set.

    The one declared-value check of the config dataclasses; an unset
    ``Optional`` (``None``) is never range-checked.  The error names the field
    and the bound, or the values it accepts.
    """
    for config_field in fields(config):
        name, value = config_field.name, getattr(config, config_field.name)
        choices = knob_choices(config_field)
        if choices is not None and value not in choices:
            raise ValueError(f"{where}{name} must be one of {choices}, got {value!r}")
        for key, sign in BOUNDS.items():
            bound = config_field.metadata.get(key)
            if value is not None and bound is not None and not getattr(operator, key)(value, bound):
                raise ValueError(f"{where}{name} must be {sign} {bound}, got {value!r}")


@dataclass
class WorkloadConfig:
    """One row of the paper's Table 4 (scaled to the simulation substrate)."""

    name: str
    model: str = bounded(choices=IMAGE_MODELS)
    dataset: str = bounded(choices=DATASETS)
    num_classes: int = bounded(ge=2)
    image_size: int = bounded(16, ge=4)
    learning_rate: float = bounded(0.01, gt=0.0)
    rounds: int = bounded(100, ge=1)
    local_epochs: int = bounded(2, ge=1)
    batch_size: int = bounded(5, ge=1)
    samples_per_class: int = bounded(100, ge=1)
    test_samples_per_class: int = bounded(20, ge=1)
    #: reference parameter count used for timing (the paper's model size).
    reference_parameters: int = bounded(62_000, ge=1)
    #: nominal number of training samples each client of the *paper's* testbed
    #: holds; drives the timing model, not the actual (scaled) training data.
    nominal_samples_per_client: int = bounded(2_000, ge=1)
    #: nominal number of evaluation samples a scorer runs per candidate model.
    nominal_test_samples: int = bounded(1_000, ge=1)

    def __post_init__(self) -> None:
        check_bounds(self)
        # SyntheticCIFAR10 always draws ten labels; a model with another
        # output width would die at its first fit.
        if self.dataset == "cifar10" and self.num_classes != 10:
            raise ValueError(
                f"num_classes must be 10 for dataset 'cifar10', got {self.num_classes}"
            )


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
    """Bounds check of the semi-sync knobs against the per-round cluster count.

    The quorum cannot exceed the clusters of a round, a bound across fields
    that no declared range expresses.  The lower bounds repeat the knobs'
    declared ranges for a :class:`~repro.sched.policies.SemiSyncRoundPolicy`
    built by hand, without a config.  ``None`` values are skipped —
    config-level validation passes through unresolved optionals, while the
    semi policy validates resolved values.
    """
    if quorum_k is not None and not 1 <= quorum_k <= num_clusters:
        raise ValueError("semi_quorum_k must be between 1 and the number of clusters")
    if max_staleness is not None and max_staleness <= 0:
        raise ValueError("max_staleness must be positive")


@dataclass
class ClusterConfig:
    """Configuration of one participating FL cluster (aggregator + its clients)."""

    name: str
    num_clients: int = bounded(3, ge=1)
    strategy: str = "fedavg"
    aggregation_policy: str = "all"
    policy_k: int = bounded(2, ge=1)
    scoring_policy: str = "mean"
    aggregator_profile: HardwareProfile = EDGE_CPU_NODE
    client_profile: HardwareProfile = DOCKER_CONTAINER
    #: name of the model-poisoning attack this organisation mounts
    #: (:func:`repro.core.attacks.available_attacks`); ``None`` is honest.
    attack: Optional[str] = None
    #: when set, this organisation's clients privatise their updates with the
    #: Gaussian DP mechanism (clip to this L2 norm, add calibrated noise).
    dp_clip_norm: Optional[float] = bounded(None, gt=0.0)
    dp_noise_multiplier: float = bounded(0.0, ge=0.0)
    #: probability that the organisation is up for a given round (fault
    #: injection); 1.0 means it never drops out.
    availability: float = bounded(1.0, gt=0.0, le=1.0)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every field; the error names this cluster and the field.

        A cluster is mutable, so :class:`ExperimentConfig` validates its
        clusters again: a field edited after construction is checked too.
        """
        where = f"cluster {self.name!r}:"
        check_bounds(self, f"{where} ")
        if self.dp_noise_multiplier > 0 and self.dp_clip_norm is None:
            raise ValueError(f"{where} dp_noise_multiplier > 0 needs dp_clip_norm to be set")
        if self.attack is not None and self.attack not in available_attacks():
            raise ValueError(f"{where} attack must be one of {available_attacks()}")


def knob(default: Any, help: str, **metadata: Any) -> Any:
    """Declare a run knob: an :class:`ExperimentConfig` field with one description.

    ``help`` is the knob's only description; ``repro run`` shows it and
    derives the knob's flag from the field (:mod:`repro.cli`).  Optional
    ``metadata``: ``choices`` closes the set of values — a collection, or a
    callable returning one for a registry that may still grow — ``gt`` /
    ``ge`` / ``lt`` / ``le`` declare a numeric range (:func:`check_bounds`),
    and ``flag`` overrides the derived spelling.
    """
    return field(default=default, metadata={"help": help, **metadata})


@dataclass
class ExperimentConfig:
    """Everything needed to run one UnifyFL experiment end to end.

    Every field after ``clusters`` is a run knob (:func:`knob`): declared
    once here, with its help and any closed set of values or range, and
    taken from there by the ``repro run`` / ``repro compare`` flags.  A
    bound is declared; a rule that spans fields is code in
    ``__post_init__`` and names every field it reads.
    """

    name: str
    workload: WorkloadConfig
    clusters: List[ClusterConfig]
    mode: str = knob(
        "sync", "orchestration mode, from the round-policy registry", choices=registered_modes
    )
    partitioning: str = knob(
        "dirichlet", "how the training data is split across clusters",
        choices=("iid", "dirichlet", "shard"),
    )
    dirichlet_alpha: float = knob(
        0.5, "Dirichlet concentration of the NIID split", flag="--alpha", gt=0.0
    )
    scoring_algorithm: str = knob(
        "accuracy",
        "how a scorer rates a model; multikrum and cosine compare whole rounds, so sync only",
        choices=SCORERS,
        flag="--scoring",
    )
    rounds: int = knob(10, "global rounds the run lasts", ge=1)
    seed: int = knob(0, "the experiment seed", ge=0)
    phase_duration: Optional[float] = knob(
        None,
        "sync mode: fixed per-phase duration in simulated seconds (unset: the "
        "orchestrator waits for the slowest aggregator)",
        ge=0.0,
    )
    semi_quorum_k: Optional[int] = knob(
        None, "semi mode: clusters that must submit before a round closes (unset: a majority)",
        ge=1,
    )
    max_staleness: Optional[float] = knob(
        None,
        "semi mode: simulated seconds after which an open round closes without a "
        "quorum (unset: one expected sync training window)",
        gt=0.0,
    )
    local_rounds_per_global: int = knob(
        2, "hierarchical mode: LAN-priced local rounds each site group runs per global round",
        ge=1,
    )
    round_budget: Optional[int] = knob(
        None,
        "hierarchical mode: cap on the local training rounds each cluster contributes "
        "across the run (unset: unbounded); a spent cluster still receives group models",
        ge=1,
    )
    gossip_fanout: int = knob(
        2, "gossip mode: peers each cluster exchanges models with per round (0: isolated)", ge=0
    )
    block_period: float = knob(
        2.0,
        "simulated seconds between chain blocks: the Clique period, the timing model's "
        "seal time and the chain actor's block grid",
        gt=0.0,
    )
    sanitize: bool = knob(
        False,
        "attach the simulation sanitizer (repro.analysis.sanitizer): read-only invariant "
        "checks that never perturb the timeline; a violation aborts the run",
    )
    event_streams: bool = knob(
        True,
        "model transfers and contract calls as contended event streams (link queueing, "
        "block-interval and consensus chain delays); off runs the same fabric at "
        "constant cost: nothing queues, a chain interaction costs n*TX + block_period, "
        "phase control is free.  replica_capacity and the link-level faults need it on",
    )
    link_bandwidth_mbytes_per_s: Optional[float] = knob(
        None,
        "cap of each cluster-to-storage link, in megabytes (not megabits) per simulated "
        "second (unset: the cluster's hardware profile bandwidth)",
        gt=0.0,
    )
    link_latency_s: Optional[float] = knob(
        None, "one-way latency of every cluster-to-storage link, in simulated seconds", ge=0.0
    )
    storage_replicas: int = knob(
        1,
        "storage replica sites: 1 is the single shared endpoint; with more, clusters are "
        "assigned to sites round-robin and reach remote sites over WAN links",
        ge=1,
    )
    replica_capacity: int = knob(
        1, "event streams only: parallel transfers each storage replica serves at once", ge=1
    )
    replica_selection: str = knob(
        "affinity",
        "how a transfer picks its replica: the cluster's own site (affinity) or the "
        "smallest estimated completion time, backlog per slot plus wire time (least-loaded)",
        choices=REPLICA_SELECTIONS,
    )
    replication_mode: str = knob(
        "eager",
        "how uploads reach the other replicas: pushed to every peer after the upload "
        "(eager), fetched when a download misses (lazy) or never (none)",
        choices=REPLICATION_MODES,
    )
    wan_latency_s: float = knob(
        0.05, "one-way latency of the WAN link between replica sites, in simulated seconds", ge=0.0
    )
    wan_bandwidth_mbytes_per_s: float = knob(
        50.0,
        "bandwidth of the WAN link between replica sites, in megabytes per simulated second",
        gt=0.0,
    )
    churn_rate: float = knob(
        0.0,
        "fault injection: probability a cluster drops out of a round, seeded per "
        "(cluster, round) and on top of its availability (0: no churn)",
        ge=0.0, lt=1.0,
    )
    replica_outages: int = knob(
        0,
        "fault injection, event streams only: storage-replica outage episodes, dealt "
        "round-robin over the replicas at seeded start times",
        ge=0,
    )
    outage_duration_s: float = knob(60.0, "simulated seconds one replica outage lasts", gt=0.0)
    wan_partitions: int = knob(
        0,
        "fault injection, event streams only: pairwise WAN partition episodes between "
        "replica sites (needs at least 2 storage replicas)",
        ge=0,
    )
    partition_duration_s: float = knob(60.0, "simulated seconds one WAN partition lasts", gt=0.0)
    fault_seed: Optional[int] = knob(
        None, "seed of the fault plan's streams (unset: the experiment seed)", ge=0
    )
    retry_max: int = knob(
        3,
        "resilience: failed transfer attempts retried with backoff before failing over "
        "to another replica (0: neither retries nor failover, transfers wait out faults)",
        ge=0,
    )
    backoff_base_s: float = knob(
        0.5,
        "resilience: first backoff wait in simulated seconds (attempt n waits base * 2**n)",
        gt=0.0,
    )
    backoff_jitter: float = knob(
        0.1, "resilience: seeded uniform jitter fraction applied to each backoff wait", ge=0.0
    )
    breaker_threshold: int = knob(
        3, "resilience: consecutive failures that trip a replica's circuit breaker open", ge=1
    )
    breaker_cooldown_s: float = knob(
        60.0,
        "resilience: simulated seconds an open breaker fails fast before a half-open trial",
        gt=0.0,
    )
    population: Optional[int] = knob(
        None,
        "cross-device scale: virtual clusters in the federation; the clusters become "
        "round-robin templates and only each round's sampled cohort materialises",
        ge=1,
    )
    clients_per_round: Optional[int] = knob(
        None, "sampled mode: cohort size drawn each round (required with population)", ge=1
    )
    sampling_seed: Optional[int] = knob(
        None,
        "seed of the per-round cohort draw, kept apart from fault_seed so sampling never "
        "shifts the churn stream (unset: the experiment seed)",
        ge=0,
    )

    def __post_init__(self) -> None:
        # The registry names an unknown mode, with every registered one, before
        # the declared-value check would; what the mode cannot run is checked last.
        get_policy(self.mode)
        check_bounds(self)
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
        elif self.clients_per_round is None:
            raise ValueError("population needs clients_per_round, the cohort drawn each round")
        elif self.clients_per_round > self.population:
            raise ValueError("clients_per_round must be at most population")
        # Semi-sync quorum bounds check against the per-round federation size:
        # the cohort in sampled mode, the static cluster list otherwise.
        validate_semi_params(
            self.semi_quorum_k, self.max_staleness, self.clients_per_round or len(self.clusters)
        )
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


def knob_fields() -> Tuple[Field, ...]:
    """The run knobs of :class:`ExperimentConfig`, in declaration order."""
    return tuple(f for f in fields(ExperimentConfig) if "help" in f.metadata)


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
