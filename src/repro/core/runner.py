"""End-to-end experiment runner.

:class:`ExperimentRunner` wires every substrate together from an
:class:`~repro.core.config.ExperimentConfig`:

1. generate the workload's synthetic dataset and partition it — first across
   clusters (IID or Dirichlet non-IID), then across each cluster's clients;
2. stand up the private chain (one validator account per organisation), deploy
   the UnifyFL contract, and start one IPFS node per organisation joined into
   a swarm;
3. build the clusters: clients, scorer, strategy, policies, optional attack;
4. drive the federation with the round policy the registry builds for the
   configured mode (sync / async / semi / hierarchical / gossip, plus
   anything registered downstream) from the run's
   :class:`~repro.sched.policies.OrchestrationContext`; and
5. collect an :class:`~repro.core.results.ExperimentResult` with per-aggregator
   metrics, chain/storage overhead counters and the resource report.

The same runner also exposes the paper's baselines over identical data so
benchmark comparisons are apples to apples.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.sanitizer import SimulationSanitizer
from repro.chain.account import Account
from repro.chain.blockchain import Blockchain
from repro.core.aggregator import UnifyFLAggregator
from repro.core.attacks import build_attack
from repro.core.baselines import (
    BaselineResult,
    CentralizedMultilevelBaseline,
    NoCollabBaseline,
    SingleLevelFL,
)
from repro.core.config import ClusterConfig, ExperimentConfig, WorkloadConfig
from repro.core.contract import UnifyFLContract
from repro.core.results import AggregatorResult, ExperimentResult
from repro.core.sampling import ClientSampler
from repro.core.scorer import FULL_ROUND_SCORERS, Scorer, build_scorer
from repro.core.timing import ClusterTimingModel
from repro.datasets.partition import DirichletPartitioner, IIDPartitioner, ShardPartitioner
from repro.datasets.synthetic import Dataset, SyntheticCIFAR10, SyntheticTinyImageNet
from repro.chain.clique import consensus_delay
from repro.fl.client import Client, ClientConfig, FitResult, fit_and_replay
from repro.ipfs.swarm import IPFSSwarm
from repro.ml.evaluation import Evaluator
from repro.ml.models import Model, build_model
from repro.ml.serialization import DecodedModels
from repro.ml.tensor_utils import read_only
from repro.sched.actors import STORAGE_ENDPOINT, ChainActor, CommFabric, NetworkActor
from repro.sched.policies import OrchestrationContext, RoundPolicy, StaticRoster
from repro.sched.registry import get_policy
from repro.simnet.faults import FaultPlan, ResiliencePolicy
from repro.simnet.network import NetworkLink, Topology
from repro.simnet.resources import ResourceMonitor

#: constant daemon footprints reported in Section 4.2.7.
GETH_CPU_PERCENT = 0.2
GETH_MEMORY_MB = 6.0
IPFS_CPU_PERCENT = 3.5
IPFS_MEMORY_MB = 19.0


class ClientPopulation:
    """Lazy virtual-cluster factory over a sampled federation's population.

    The population itself is only a number (``config.population``); what
    exists in memory is the set of virtual clusters some round's cohort has
    actually drawn.  ``round_aggregators`` materialises a round's cohort on
    first request (clients, IPFS node, contract registration) and memoises
    both the cohort and every member, so a cluster re-sampled in a later
    round is reused with its clock and history intact.  A materialised
    cluster holds no network — its clients train on the runner's one
    ``training_model`` — and no data rows: its clients hold row indices into
    their template's shard and gather them only while they fit.  Between
    rounds it holds one model of its own, its local one (it starts on the
    run's shared, read-only initial list, and the global model of a round
    lives only until ``record_round`` closes that round), so what it costs
    is that model, its clients' indices, generators and optimizers, and its
    storage node.  Peak memory is therefore O(distinct sampled clusters),
    not O(population).

    Cohorts come from :class:`~repro.core.sampling.ClientSampler`, so *who*
    participates in round ``r`` is a pure function of ``(sampling_seed, r)``
    — independent of materialisation order and of any other RNG stream.

    This is the rotating implementation of the round policies'
    :class:`~repro.sched.policies.Roster` seam (the dense one is
    :class:`~repro.sched.policies.StaticRoster`): member ``j`` of a round's
    cohort occupies slot ``j``.
    """

    def __init__(self, runner: "ExperimentRunner"):
        config = runner.config
        assert config.population is not None and config.clients_per_round is not None
        self.runner = runner
        self.population_size = config.population
        self.cohort_size = config.clients_per_round
        seed = config.sampling_seed if config.sampling_seed is not None else config.seed
        self.sampler = ClientSampler(config.population, self.cohort_size, seed)
        self._by_index: Dict[int, UnifyFLAggregator] = {}
        self._rounds: Dict[int, List[UnifyFLAggregator]] = {}

    @property
    def materialized_count(self) -> int:
        """Number of distinct virtual clusters built so far."""
        return len(self._by_index)

    def round_aggregators(self, round_number: int) -> List[UnifyFLAggregator]:
        """The round's cohort as live aggregators, materialising on demand."""
        cached = self._rounds.get(round_number)
        if cached is not None:
            return cached
        members = [self._materialise(i) for i in self.sampler.cohort(round_number)]
        self._rounds[round_number] = members
        return members

    def slot_key(self, slot: int) -> str:
        """Slots outlive their occupants, so events are keyed by slot index."""
        return f"lane-{slot}"

    def cohort_addresses(self, round_number: int) -> List[str]:
        """The chain addresses of a round's cohort (declared on-chain per round)."""
        return [a.address for a in self.round_aggregators(round_number)]

    def joined_mid_run(self, aggregator: UnifyFLAggregator) -> bool:
        """A cluster with no history was materialised for the round in flight."""
        return not aggregator.history

    def _materialise(self, index: int) -> UnifyFLAggregator:
        existing = self._by_index.get(index)
        if existing is not None:
            return existing
        aggregator = self.runner._materialise_virtual_cluster(index)
        self._by_index[index] = aggregator
        return aggregator


class ExperimentRunner:
    """Builds and runs one UnifyFL experiment from its configuration."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.monitor = ResourceMonitor()

        self.train_data, self.test_data = self._build_dataset(config.workload, config.seed)
        self.model_template = self._build_model(config.workload, config.seed)
        #: the run's one evaluation model and (weights, dataset) memo, shared
        #: by every aggregator and scorer; ``calls`` / ``hits`` count its use.
        self.evaluator = Evaluator(self.model_template)
        #: the run's one training network.  ``Client.fit`` installs the
        #: global weights first and reads the trained ones out last, so no
        #: client needs a network of its own: every client this runner builds
        #: takes its turn on this one.
        self.training_model = self.model_template.clone()
        #: the template's weights, taken once: every aggregator starts with
        #: its global and local model pointing at this read-only list.
        self.initial_weights = read_only(self.model_template.get_weights())
        #: the run's one decoded copy of each model, for the models of two
        #: rounds: this round's submissions and the previous round's.
        self.decoded_models = DecodedModels(
            capacity=2 * (config.clients_per_round or len(config.clusters))
        )
        #: a scorer that analyses whole rounds owns no test set, so one
        #: instance serves every cluster and its round memo is the run's:
        #: a round is analysed once, not once per assigned scorer.
        self.round_scorer: Optional[Scorer] = (
            build_scorer(config.scoring_algorithm)
            if config.scoring_algorithm in FULL_ROUND_SCORERS
            else None
        )
        self.timing_model = ClusterTimingModel(
            config.workload, block_period=config.block_period, seed=config.seed
        )
        #: read-only invariant checker (``config.sanitize=True`` only),
        #: hooked here into the run-wide memo tables and every client fit —
        #: the aggregators' and the baselines' — and in :meth:`build` into
        #: the kernel, the link scheduler, the fabric, the chain and the
        #: swarm's verified-block table.
        self.sanitizer: Optional[SimulationSanitizer] = (
            SimulationSanitizer() if config.sanitize else None
        )
        self.evaluator.sanitizer = self.sanitizer
        self.decoded_models.sanitizer = self.sanitizer
        if self.round_scorer is not None:
            self.round_scorer.sanitizer = self.sanitizer

        (
            self.cluster_train_data,
            self.cluster_client_indices,
            self.cluster_score_data,
        ) = self._partition_data()

        self.accounts: Dict[str, Account] = {}
        self.chain: Optional[Blockchain] = None
        self.swarm: Optional[IPFSSwarm] = None
        self.aggregators: List[UnifyFLAggregator] = []
        self._driver_account: Optional[Account] = None
        #: the federation's network/chain fabric, stood up by :meth:`build`:
        #: contended streams, or their constant-cost configuration with
        #: ``event_streams=False``.
        self.comm: CommFabric
        #: the run's deterministic fault schedule (``None`` unless the
        #: configuration injects churn, outages or partitions).
        self.fault_plan: Optional[FaultPlan] = None
        #: sampled federations only: the lazy virtual-cluster factory
        #: (created in :meth:`build` when ``config.population`` is set).
        self.population: Optional[ClientPopulation] = None

    # ------------------------------------------------------------------- data
    @staticmethod
    def _build_dataset(workload: WorkloadConfig, seed: int) -> Tuple[Dataset, Dataset]:
        if workload.dataset == "cifar10":
            factory = SyntheticCIFAR10(
                image_size=workload.image_size,
                samples_per_class=workload.samples_per_class,
                test_samples_per_class=workload.test_samples_per_class,
                seed=seed,
            )
        elif workload.dataset == "tiny_imagenet":
            factory = SyntheticTinyImageNet(
                num_classes=workload.num_classes,
                image_size=workload.image_size,
                samples_per_class=workload.samples_per_class,
                test_samples_per_class=workload.test_samples_per_class,
                seed=seed,
            )
        else:
            raise ValueError(f"unknown dataset '{workload.dataset}'")
        return factory.splits()

    @staticmethod
    def _build_model(workload: WorkloadConfig, seed: int) -> Model:
        kwargs = {
            "image_size": workload.image_size,
            "num_classes": workload.num_classes,
            "seed": seed,
        }
        return build_model(workload.model, **kwargs)

    def _cluster_partitioner(self, num_partitions: int):
        if self.config.partitioning == "iid":
            return IIDPartitioner(num_partitions, seed=self.config.seed)
        if self.config.partitioning == "dirichlet":
            return DirichletPartitioner(
                num_partitions,
                alpha=self.config.dirichlet_alpha,
                min_samples=max(4, self.config.workload.batch_size),
                seed=self.config.seed,
            )
        return ShardPartitioner(num_partitions, seed=self.config.seed)

    def _partition_data(self):
        """Split the training data across clusters, clients and scorer test sets.

        A cluster's shard and its scorer's test set are datasets of their
        own; a client's partition is row indices into its cluster's shard.
        """
        clusters = self.config.clusters
        cluster_partitioner = self._cluster_partitioner(len(clusters))
        cluster_train = cluster_partitioner.partition(self.train_data)

        cluster_train_data: Dict[str, Dataset] = {}
        cluster_client_indices: Dict[str, List[np.ndarray]] = {}
        cluster_score_data: Dict[str, Dataset] = {}

        # Scorer test sets: an IID slice of the held-out test data per cluster,
        # modelling each organisation's private evaluation set.
        score_partitioner = IIDPartitioner(len(clusters), seed=self.config.seed + 17)
        score_parts = score_partitioner.partition(self.test_data)

        for i, cluster in enumerate(clusters):
            data = cluster_train[i]
            cluster_train_data[cluster.name] = data
            client_partitioner = IIDPartitioner(cluster.num_clients, seed=self.config.seed + 100 + i)
            cluster_client_indices[cluster.name] = client_partitioner.partition_indices(data)
            cluster_score_data[cluster.name] = score_parts[i]
        return cluster_train_data, cluster_client_indices, cluster_score_data

    # ------------------------------------------------------------------ setup
    def _build_clients(
        self,
        cluster: ClusterConfig,
        index: int,
        shard: Optional[Dataset] = None,
        partitions: Optional[List[np.ndarray]] = None,
    ) -> List[Client]:
        """A cluster's clients: each its partition (row indices into the
        cluster's ``shard``), generator, optimizer and DP mechanism — and all
        of them the run's one ``training_model``."""
        workload = self.config.workload
        client_config = ClientConfig(
            local_epochs=workload.local_epochs,
            batch_size=workload.batch_size,
            learning_rate=workload.learning_rate,
            optimizer="sgd",
            seed=self.config.seed + index,
            dp_clip_norm=cluster.dp_clip_norm,
            dp_noise_multiplier=cluster.dp_noise_multiplier,
        )
        if shard is None:
            shard = self.cluster_train_data[cluster.name]
            partitions = self.cluster_client_indices[cluster.name]
        return [
            Client(
                client_id=f"{cluster.name}-client{j}",
                model=self.training_model,
                train_data=shard,
                config=client_config,
                indices=indices,
            )
            for j, indices in enumerate(partitions)
        ]

    def _replica_names(self) -> List[str]:
        """The storage replica endpoint names the event-stream layout declares."""
        if self.config.storage_replicas == 1:
            return [STORAGE_ENDPOINT]
        return [f"{STORAGE_ENDPOINT}-{i}" for i in range(self.config.storage_replicas)]

    def _build_fault_plan(self) -> Optional[FaultPlan]:
        """Generate the run's fault schedule, or ``None`` with faults disabled.

        A disabled configuration (the default) builds no plan at all, so the
        fault branches in scheduler/actor/aggregator never execute — the
        strongest possible bit-identity guarantee.  Outage and partition
        start times are drawn within an a-priori makespan estimate (rounds ×
        expected training + scoring windows) so they land while traffic is
        actually flowing.
        """
        config = self.config
        if not config.has_faults:
            return None
        horizon = config.rounds * (
            self.timing_model.expected_training_window(config.clusters)
            + self.timing_model.expected_scoring_window(
                config.clusters, config.scoring_algorithm
            )
        )
        return FaultPlan.from_config(config, self._replica_names(), horizon)

    def _cluster_link(self, cluster: ClusterConfig) -> NetworkLink:
        """The LAN link a cluster's aggregator profile implies (config-capped)."""
        profile = cluster.aggregator_profile
        bandwidth_mbytes_per_s = profile.bandwidth_mbytes_per_s
        if self.config.link_bandwidth_mbytes_per_s is not None:
            bandwidth_mbytes_per_s = min(
                bandwidth_mbytes_per_s, self.config.link_bandwidth_mbytes_per_s
            )
        latency_s = profile.latency_s
        if self.config.link_latency_s is not None:
            latency_s = self.config.link_latency_s
        return NetworkLink.from_mbytes_per_s(
            latency_s=latency_s,
            bandwidth_mbytes_per_s=bandwidth_mbytes_per_s,
        )

    def _build_comm_fabric(self) -> CommFabric:
        """Stand up the federation's communication fabric.

        The storage layout is a :class:`~repro.simnet.network.Topology`:
        ``storage_replicas`` replica sites (each serving ``replica_capacity``
        parallel transfers) and WAN links between sites (``wan_latency_s`` /
        ``wan_bandwidth_mbytes_per_s``); clusters join as they materialise
        (:meth:`_materialise_cluster`).  With one replica of capacity 1 this
        is the single serial :data:`~repro.sched.actors.STORAGE_ENDPOINT`.

        With several replicas, replication is on the books: an upload lands
        on one site only and ``replication_mode`` (eager / lazy / none)
        governs how — and whether — the artifact reaches the others, as real
        WAN transfers downloads are availability-gated on (the aggregators
        thread IPFS CIDs through the fabric for this).

        ``event_streams=False`` builds the same layout through
        :meth:`~repro.sched.actors.CommFabric.constant_cost`: every transfer
        costs its wire time, every chain interaction ``n·TX + block_period``,
        phase control is free — an *uncontended* transfer costs the same on
        both settings, only queueing and chain quantisation differ.
        """
        config = self.config
        topology = Topology(
            default_wan_link=NetworkLink.from_mbytes_per_s(
                latency_s=config.wan_latency_s,
                bandwidth_mbytes_per_s=config.wan_bandwidth_mbytes_per_s,
            )
        )
        for name in self._replica_names():
            topology.add_replica(name, capacity=config.replica_capacity)
        network_options = dict(
            topology=topology,
            model_bytes=self.timing_model.nominal_model_bytes,
            selection=config.replica_selection,
            replication_mode=config.replication_mode,
            faults=self.fault_plan,
            resilience=ResiliencePolicy(
                retry_max=config.retry_max,
                backoff_base_s=config.backoff_base_s,
                backoff_jitter=config.backoff_jitter,
                breaker_threshold=config.breaker_threshold,
                breaker_cooldown_s=config.breaker_cooldown_s,
            ),
            resilience_seed=config.seed,
        )
        if not config.event_streams:
            return CommFabric.constant_cost(block_period=config.block_period, **network_options)
        # Consensus scales with the organisations active at once: the static
        # cluster count, or — sampled — the per-round cohort size.
        organisations = config.clients_per_round or len(config.clusters)
        chain_actor = ChainActor(
            block_interval=config.block_period,
            consensus_delay=consensus_delay(organisations, config.block_period),
        )
        return CommFabric(NetworkActor(**network_options), chain_actor)

    def build(self) -> None:
        """Instantiate the chain, storage swarm and every aggregator.

        Sampled federations (``config.population`` set) build the shared
        substrates but materialise no clusters up front: a
        :class:`ClientPopulation` creates each round's cohort lazily, so
        peak memory is O(active cohort) instead of O(population).

        Either way a cluster is built around the run-wide structures made in
        ``__init__`` — ``evaluator``, ``decoded_models``, ``round_scorer``,
        ``training_model`` — and owns none of its own: the only networks a
        run holds are the evaluator's and the training one.
        """
        clusters = self.config.clusters
        if self.config.has_sampling:
            self._driver_account = Account.create(
                label="driver", seed=self.config.seed * 1000 + 999
            )
            self.accounts = {}
            # The driver seals blocks alone: virtual clusters come and go
            # per round, so none of them can be a standing validator.
            self.chain = Blockchain([self._driver_account], block_period=self.config.block_period)
        else:
            self.accounts = {
                cluster.name: Account.create(label=cluster.name, seed=self.config.seed * 1000 + i)
                for i, cluster in enumerate(clusters)
            }
            self._driver_account = Account.create(label="driver", seed=self.config.seed * 1000 + 999)
            validators = list(self.accounts.values())
            self.chain = Blockchain(validators, block_period=self.config.block_period)
            self.chain.register_account(self._driver_account)
        self.chain.deploy_contract(
            UnifyFLContract(mode=self.config.mode, scorer_seed=self.config.seed)
        )
        self.swarm = IPFSSwarm()
        self.fault_plan = self._build_fault_plan()
        self.comm = self._build_comm_fabric()
        if self.sanitizer is not None:
            self.comm.sanitizer = self.sanitizer
            self.comm.network.scheduler.sanitizer = self.sanitizer
            self.swarm.verified_blocks.sanitizer = self.sanitizer
            self.chain.sanitizer = self.sanitizer
        # Chain-side emission hook: every sealed block feeds the chain
        # actor's observed-block counters for the comm report.
        self.chain.add_block_listener(self.comm.chain.observe_block)

        self.aggregators = []
        if self.config.has_sampling:
            self.population = ClientPopulation(self)
            # Materialise round 1's cohort eagerly so the orchestration
            # context sees a non-empty aggregator list; later rounds
            # materialise on demand from the round policies.
            self.population.round_aggregators(1)
            return
        for i, cluster in enumerate(clusters):
            self.aggregators.append(
                self._materialise_cluster(
                    cluster,
                    account=self.accounts[cluster.name],
                    score_data=self.cluster_score_data[cluster.name],
                    seed=self.config.seed + i,
                    client_index=i,
                    site=i,
                )
            )

    def _materialise_cluster(
        self,
        cluster: ClusterConfig,
        account: Account,
        score_data: Dataset,
        seed: int,
        client_index: int,
        site: int,
        shard: Optional[Dataset] = None,
        client_partitions: Optional[List[np.ndarray]] = None,
    ) -> UnifyFLAggregator:
        """Stand up one cluster: fabric endpoint, IPFS node, clients, scorer, aggregator.

        The cluster joins the fabric at storage replica ``site`` modulo the
        replica count — the round-robin the hierarchical policy groups by —
        over the LAN link its aggregator profile implies.
        """
        assert self.chain is not None and self.swarm is not None
        replicas = self.comm.network.replicas
        self.comm.network.attach_cluster(
            cluster.name, replicas[site % len(replicas)], self._cluster_link(cluster)
        )
        node = self.swarm.create_node(f"{cluster.name}-ipfs")
        clients = self._build_clients(
            cluster, client_index, shard=shard, partitions=client_partitions
        )
        scorer = self.round_scorer
        if scorer is None:
            scorer = build_scorer(
                self.config.scoring_algorithm,
                model_template=self.model_template,
                test_data=score_data,
                evaluator=self.evaluator,
            )
        attack = build_attack(cluster.attack) if cluster.attack is not None else None
        aggregator = UnifyFLAggregator(
            config=cluster,
            workload=self.config.workload,
            account=account,
            chain=self.chain,
            ipfs_node=node,
            model_template=self.model_template,
            clients=clients,
            scorer=scorer,
            eval_data=self.test_data,
            timing_model=self.timing_model,
            attack=attack,
            resource_monitor=self.monitor,
            comm=self.comm,
            seed=seed,
            faults=self.fault_plan,
            evaluator=self.evaluator,
            decoded_models=self.decoded_models,
            initial_weights=self.initial_weights,
        )
        aggregator.sanitizer = self.sanitizer
        return aggregator

    def _materialise_virtual_cluster(self, index: int) -> UnifyFLAggregator:
        """Create virtual cluster ``index`` of a sampled population.

        The virtual cluster clones the template at ``index % len(clusters)``
        (round-robin over the configured cluster shapes), draws its own
        account/aggregator/client seeds from ranges disjoint from the eager
        path's, re-partitions the template's data shard for its clients (as
        row indices into it), and registers itself on the contract.
        """
        assert self.chain is not None
        config = self.config
        templates = config.clusters
        template = templates[index % len(templates)]
        cluster = dataclasses.replace(template, name=f"{template.name}-p{index}")
        account = Account.create(
            label=cluster.name, seed=config.seed * 1000 + 1000 + index
        )
        self.accounts[cluster.name] = account
        self.chain.register_account(account)
        client_partitioner = IIDPartitioner(
            cluster.num_clients, seed=config.seed + 100 + index
        )
        shard = self.cluster_train_data[template.name]
        aggregator = self._materialise_cluster(
            cluster,
            account=account,
            score_data=self.cluster_score_data[template.name],
            seed=config.seed + 1000 + index,
            client_index=1000 + index,
            site=index,
            shard=shard,
            client_partitions=client_partitioner.partition_indices(shard),
        )
        aggregator.register(mine=True)
        self.aggregators.append(aggregator)
        return aggregator

    # --------------------------------------------------------------------- run
    def _rounds(self, rounds: Optional[int]) -> int:
        """``config.rounds`` unless overridden (``is not None``, not
        truthiness: an explicit 0 must be rejected, not replaced)."""
        return self.config.rounds if rounds is None else rounds

    def run(self, rounds: Optional[int] = None) -> ExperimentResult:
        """Execute the experiment and return its result."""
        if self.chain is None or not self.aggregators:
            self.build()
        assert self.chain is not None and self._driver_account is not None
        rounds = self._rounds(rounds)

        ctx = OrchestrationContext(
            chain=self.chain,
            driver=self._driver_account,
            aggregators=self.aggregators,
            timing=self.timing_model,
            num_rounds=rounds,
            roster=self.population or StaticRoster(self.aggregators),
            comm=self.comm,
            config=self.config,
            sanitizer=self.sanitizer,
        )
        # No mode ladder: the registered spec's factory builds the policy.
        policy = get_policy(self.config.mode).factory(ctx)
        policy.run()
        self._record_daemon_overhead(rounds)
        return self._collect_result(policy, rounds)

    def run_profiled(
        self, rounds: Optional[int] = None, top: int = 25, sort: str = "cumulative"
    ) -> Tuple[ExperimentResult, str]:
        """Execute the experiment under ``cProfile``.

        Returns the result plus the profiler's top-``top`` functions by
        ``sort`` order (default cumulative time) as printable text — the
        profiling workflow behind ``repro run --profile`` and documented in
        ``docs/performance.md``.
        """
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = self.run(rounds=rounds)
        finally:
            profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.strip_dirs().sort_stats(sort).print_stats(top)
        return result, buffer.getvalue()

    def _record_daemon_overhead(self, rounds: int) -> None:
        for _ in range(max(1, rounds)):
            for _ in self.aggregators:
                self.monitor.record("geth", GETH_CPU_PERCENT + self._rng.normal(0, 0.03), GETH_MEMORY_MB + self._rng.normal(0, 0.4))
                self.monitor.record("ipfs", IPFS_CPU_PERCENT + self._rng.normal(0, 0.3), IPFS_MEMORY_MB + self._rng.normal(0, 1.2))

    def _collect_result(self, policy: RoundPolicy, rounds: int) -> ExperimentResult:
        assert self.chain is not None and self.swarm is not None
        aggregator_results = []
        for aggregator in self.aggregators:
            record = aggregator.final_record
            aggregator_results.append(
                AggregatorResult(
                    name=aggregator.name,
                    policy=self._policy_label(aggregator.config),
                    strategy=aggregator.config.strategy,
                    total_time=aggregator.total_time(),
                    global_accuracy=record.global_accuracy if record else float("nan"),
                    global_loss=record.global_loss if record else float("nan"),
                    local_accuracy=record.local_accuracy if record else float("nan"),
                    local_loss=record.local_loss if record else float("nan"),
                    idle_time=sum(r.timing.idle_time for r in aggregator.history),
                    straggler_count=sum(r.straggled for r in aggregator.history),
                    history=list(aggregator.history),
                )
            )
        storage_metrics = {
            "stored_bytes": float(self.swarm.total_stored_bytes()),
            "transferred_bytes": float(self.swarm.total_transferred_bytes()),
            "transfer_count": float(len(self.swarm.transfers)),
        }
        resource_reports = self.monitor.full_report()
        sampling: Dict[str, float] = {}
        if self.population is not None:
            sampling = {
                "population": float(self.population.population_size),
                "clients_per_round": float(self.population.cohort_size),
                "sampling_seed": float(self.population.sampler.seed),
                "materialized_clusters": float(self.population.materialized_count),
            }
        return ExperimentResult(
            name=self.config.name,
            mode=self.config.mode,
            scoring_algorithm=self.config.scoring_algorithm,
            partitioning=self._partition_label(),
            rounds=rounds,
            aggregators=aggregator_results,
            chain_metrics=self.chain.metrics.as_dict(),
            storage_metrics=storage_metrics,
            resource_reports=resource_reports,
            orchestration_extras=dict(policy.extras()),
            comm_metrics=self.comm.summary(),
            sampling=sampling,
        )

    def _policy_label(self, cluster: ClusterConfig) -> str:
        label = cluster.aggregation_policy
        if label in ("top_k", "random_k"):
            label = f"{label}({cluster.policy_k})"
        return f"{label}/{cluster.scoring_policy}"

    def _partition_label(self) -> str:
        if self.config.partitioning == "dirichlet":
            return f"niid(alpha={self.config.dirichlet_alpha})"
        return self.config.partitioning

    # --------------------------------------------------------------- baselines
    def _fit(self, client: Client, weights: List[np.ndarray]) -> FitResult:
        """A baseline client's fit, replayed under the sanitizer."""
        return fit_and_replay(client, weights, self.model_template, self.sanitizer)

    def _baseline_clients(self) -> Dict[str, List[Client]]:
        return {
            cluster.name: self._build_clients(cluster, i)
            for i, cluster in enumerate(self.config.clusters)
        }

    def run_no_collab_baseline(self, rounds: Optional[int] = None) -> BaselineResult:
        """Run the non-collaborative baseline over the same partitions."""
        baseline = NoCollabBaseline(
            self.config.workload,
            self.config.clusters,
            self._baseline_clients(),
            self.initial_weights,
            self.evaluator,
            self.test_data,
            timing_model=self.timing_model,
            fit=self._fit,
        )
        return baseline.run(self._rounds(rounds))

    def run_centralized_baseline(self, rounds: Optional[int] = None) -> BaselineResult:
        """Run the HBFL-style centralized multilevel baseline."""
        baseline = CentralizedMultilevelBaseline(
            self.config.workload,
            self.config.clusters,
            self._baseline_clients(),
            self.initial_weights,
            self.evaluator,
            self.test_data,
            timing_model=self.timing_model,
            fit=self._fit,
        )
        return baseline.run(self._rounds(rounds))

    def run_single_level_baseline(self, rounds: Optional[int] = None) -> BaselineResult:
        """Run flat single-level FL over all clients of all clusters."""
        all_clients: List[Client] = []
        for i, cluster in enumerate(self.config.clusters):
            all_clients.extend(self._build_clients(cluster, i))
        baseline = SingleLevelFL(
            all_clients, self.initial_weights, self.evaluator, self.test_data, fit=self._fit
        )
        return baseline.run(self._rounds(rounds))


def run_experiment(config: ExperimentConfig, rounds: Optional[int] = None) -> ExperimentResult:
    """One-call convenience wrapper: build and run an experiment."""
    runner = ExperimentRunner(config)
    return runner.run(rounds=rounds)
