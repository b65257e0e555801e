"""The UnifyFL cluster aggregator.

Each participating organisation runs one :class:`UnifyFLAggregator`.  It plays
both roles described in Section 3.1 of the paper:

* **Trainer / aggregator** — pulls the other silos' models and scores from the
  smart contract, applies its own scoring + aggregation policies to build a
  new global model, runs one round of local FL with its clients, aggregates
  their updates into a local model, stores that model on IPFS and submits the
  CID to the contract.
* **Scorer** — when the contract assigns it models to score, it pulls the
  weights from IPFS, evaluates them with its scoring algorithm, and submits
  the scores.

Both roles evaluate models — the global and local model each round, every
pulled model when scoring by accuracy or loss — through the run's one
:class:`~repro.ml.evaluation.Evaluator`, which computes each (weights,
dataset) pair once; the aggregator itself holds weights, not models.

All durations are tracked on the aggregator's simulated clock through the
:class:`~repro.core.timing.ClusterTimingModel`, and resource usage samples are
pushed to the shared :class:`~repro.simnet.resources.ResourceMonitor`.

Pull/store/chain costs are charged through the federation's shared
:class:`~repro.sched.actors.CommFabric`: by default uploads and downloads
queue on contended links and contract calls wait for the next sealed block;
on the degenerate :meth:`~repro.sched.actors.CommFabric.constant_cost` fabric
each costs its wire time / ``n * TX + block_period`` and nothing queues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.chain.account import Account
from repro.chain.blockchain import Blockchain
from repro.core.attacks import ModelPoisoningAttack
from repro.core.config import ClusterConfig, WorkloadConfig
from repro.core.selection import CandidateModel, build_aggregation_policy, build_scoring_policy
from repro.core.scorer import Scorer
from repro.core.timing import ClusterTimingModel, RoundTiming
from repro.datasets.synthetic import Dataset
from repro.fl.client import Client, fit_and_replay
from repro.fl.strategy import build_strategy
from repro.ipfs.cid import parse_cid
from repro.ipfs.node import IPFSError, IPFSNode
from repro.ml.evaluation import Evaluator
from repro.ml.models import Model
from repro.ml.serialization import DecodedModels, weights_to_bytes
from repro.ml.tensor_utils import read_only
from repro.sched.actors import CommFabric
from repro.simnet.clock import SimClock
from repro.simnet.faults import FaultPlan
from repro.simnet.resources import ResourceMonitor

Weights = List[np.ndarray]

#: stream tag folded into the seed of the generator behind an aggregator's
#: simulated decisions: availability, ``random_k`` selection, poisoning.
_DECISION_STREAM = 0xD1

#: what fetching a model that cannot be had raises: the swarm does not hold
#: the object (``IPFSError``), or the CID / the stored container is malformed
#: (``ValueError``, which ``SerializationError`` subclasses).  Such a model
#: goes unscored; anything else is a bug and propagates.
_UNAVAILABLE_MODEL = (IPFSError, ValueError)


@dataclass
class AggregatorRoundRecord:
    """Per-round metrics for one aggregator (one row-slice of Tables 5/6)."""

    round_number: int
    global_accuracy: float
    global_loss: float
    local_accuracy: float
    local_loss: float
    models_pulled: int
    models_scored: int
    timing: RoundTiming
    sim_time: float
    straggled: bool = False
    #: True when the organisation was down for this round (fault injection).
    offline: bool = False


class UnifyFLAggregator:
    """One organisation's aggregator participating in UnifyFL."""

    def __init__(
        self,
        config: ClusterConfig,
        workload: WorkloadConfig,
        account: Account,
        chain: Blockchain,
        ipfs_node: IPFSNode,
        model_template: Model,
        clients: Sequence[Client],
        scorer: Scorer,
        eval_data: Dataset,
        comm: CommFabric,
        timing_model: Optional[ClusterTimingModel] = None,
        attack: Optional[ModelPoisoningAttack] = None,
        resource_monitor: Optional[ResourceMonitor] = None,
        seed: int = 0,
        faults: Optional["FaultPlan"] = None,
        evaluator: Optional[Evaluator] = None,
        decoded_models: Optional[DecodedModels] = None,
        initial_weights: Optional[Weights] = None,
    ):
        if not clients:
            raise ValueError("an aggregator needs at least one client")
        self.config = config
        self.workload = workload
        self.account = account
        self.chain = chain
        self.ipfs = ipfs_node
        #: the run's shared evaluator; an aggregator assembled on its own
        #: gets a private one.
        self.evaluator = evaluator if evaluator is not None else Evaluator(model_template)
        #: the run's store of decoded models (one read-only copy per CID,
        #: shared by every aggregator); likewise private when built alone,
        #: sized for one slot's two rounds.
        self.decoded_models = (
            decoded_models if decoded_models is not None else DecodedModels(capacity=2)
        )
        self.clients = list(clients)
        self.scorer = scorer
        self.eval_data = eval_data
        self.timing = timing_model or ClusterTimingModel(workload)
        self.strategy = build_strategy(config.strategy)
        self.aggregation_policy = build_aggregation_policy(
            config.aggregation_policy, k=config.policy_k
        )
        self.scoring_policy = build_scoring_policy(config.scoring_policy)
        #: the poisoning this organisation applies to what it submits;
        #: ``None`` for an honest one.
        self.attack = attack
        self.monitor = resource_monitor
        #: the federation's shared communication fabric.
        self.comm = comm
        #: the run's fault plan; churn draws come from it (``None`` when the
        #: experiment injects no faults).
        self.faults = faults
        self.clock = SimClock()
        #: draws of the simulated decisions; nothing else advances it, so
        #: sampling resources (or not) cannot move a result.
        self._rng = np.random.default_rng([seed, _DECISION_STREAM])
        #: the noise of the resource samples pushed to ``monitor``.
        self._resource_rng = np.random.default_rng(seed)
        #: optional :class:`~repro.analysis.sanitizer.SimulationSanitizer`;
        #: when set, every client fit is replayed on a fresh clone of the
        #: template and compared with what the client reported.
        self.sanitizer: Optional[Any] = None
        self.model_template = model_template

        #: both models start as one list, the run's when the runner hands it
        #: over (``initial_weights``), read-only like every list held here.
        if initial_weights is None:
            initial_weights = model_template.get_weights()
        self.global_weights = initial_weights
        self.local_weights = initial_weights
        #: loss and accuracy of the global model ``record_round`` last
        #: evaluated: what an offline round, which builds none, reports.
        self._global_metrics: Dict[str, float] = {}
        self.history: List[AggregatorRoundRecord] = []
        self.own_cids: List[str] = []
        self._last_self_score: float = float("nan")
        #: what the round in flight pulled and scored, for its round record.
        self._pulled_this_round = 0
        self._scored_this_round = 0

    # ------------------------------------------------------------------ identity
    @property
    def name(self) -> str:
        return self.config.name

    @property
    def address(self) -> str:
        return self.account.address

    # ------------------------------------------------------------------ models
    # Both models are shared, read-only lists: the setters mark every array
    # assigned to them not writeable, so a holder aliases instead of copying
    # and an in-place write raises.
    @property
    def global_weights(self) -> Optional[Weights]:
        """The global model of the round in flight.

        Set by :meth:`merge_pulled` (or handed over by a round policy)
        and dropped by :meth:`record_round` once an online round closes;
        ``None`` between rounds.
        """
        return self._global_weights

    @global_weights.setter
    def global_weights(self, weights: Optional[Weights]) -> None:
        self._global_weights = None if weights is None else read_only(weights)

    @property
    def local_weights(self) -> Weights:
        """The cluster's latest locally aggregated model."""
        return self._local_weights

    @local_weights.setter
    def local_weights(self, weights: Weights) -> None:
        self._local_weights = read_only(weights)
        #: the CID these very weights were published under; ``None`` until
        #: published, and for a poisoned submission, which publishes others.
        self._local_cid: Optional[str] = None

    # ------------------------------------------------------------------ setup
    def register(self, mine: bool = True) -> None:
        """Register this aggregator with the orchestrator contract."""
        self.chain.send(self.account, "unifyfl", "registerAggregator")
        if mine:
            self.chain.mine_until_empty()

    def is_available(self, round_number: Optional[int] = None) -> bool:
        """Draw whether the organisation is up for the coming round.

        Used by the round policies for fault injection: with
        ``config.availability < 1`` the organisation occasionally sits a whole
        round out (no training, no submission, no scoring).  When the run
        carries a :class:`~repro.simnet.faults.FaultPlan`, its seeded churn
        draw for ``(cluster, round_number)`` decides too — a churned round is
        offline regardless of the availability draw, and the drop is
        accounted in the plan.  The availability draw is made whatever churn
        decides, from the decision generator that resource sampling never
        advances, so enabling churn does not perturb availability-driven runs
        and vice versa.
        """
        available = True
        if self.config.availability < 1.0:
            available = bool(self._rng.random() < self.config.availability)
        if (
            self.faults is not None
            and round_number is not None
            and self.faults.cluster_offline(self.name, round_number)
        ):
            return False
        return available

    # ------------------------------------------------------------- global model
    def pull_candidates(
        self,
        before_time: Optional[float] = None,
        max_rounds: int = 2,
        prefer_scored: bool = False,
    ) -> List[CandidateModel]:
        """Query the contract for available peer models and their score lists.

        Aggregators collaborate on "the latest set of models" (Algorithm 1's
        ``getLatestModelsWithScores``), so only the most recent submission of
        each peer is kept.  When ``prefer_scored`` is true — used by the
        performance-based policies — the most recent *scored* submission of a
        peer is preferred over a newer, not-yet-scored one, so a model that was
        submitted moments ago does not shadow the peer's evaluated model.
        """
        records = self.chain.call(
            "unifyfl",
            "getLatestModelsWithScores",
            {
                "max_rounds": max_rounds,
                "before_time": before_time,
                "exclude_submitter": self.address,
            },
            sender=self.address,
        )
        latest: Dict[str, Dict] = {}
        for record in records:
            existing = latest.get(record["submitter"])
            if existing is None:
                latest[record["submitter"]] = record
                continue
            if prefer_scored and bool(record["scores"]) != bool(existing["scores"]):
                # One of the two has scores and the other does not: keep the scored one.
                if record["scores"]:
                    latest[record["submitter"]] = record
                continue
            if (record["round"], record["timestamp"]) > (existing["round"], existing["timestamp"]):
                latest[record["submitter"]] = record
        candidates = [
            CandidateModel(
                cid=record["cid"],
                submitter=record["submitter"],
                round_number=record["round"],
                scores=dict(record["scores"]),
            )
            for record in latest.values()
        ]
        # Stable: equal CIDs stay in submitter insertion order.
        return sorted(candidates, key=lambda candidate: candidate.cid)

    def fetch_weights(self, cid: str) -> Weights:
        """Retrieve and deserialize a model from the storage swarm.

        Every fetch pulls the payload through this silo's IPFS node; the
        decoded list is the run's one list of read-only views into that
        CID's payload (:class:`DecodedModels`), decoded again only if the
        store has evicted it.
        """
        return self.decoded_models.decode(cid, self.ipfs.get(parse_cid(cid)))

    def build_global_model(self, before_time: Optional[float] = None) -> RoundTiming:
        """Pull peer models, apply the policies, and merge into the global model.

        Returns the timing contribution of the pull + aggregate step and
        advances the aggregator's clock by it.
        """
        timing = RoundTiming()
        needs_scores = self.aggregation_policy.needs_scores
        candidates = self.pull_candidates(before_time=before_time, prefer_scored=needs_scores)
        scored = self.scoring_policy.apply(candidates)
        # Filter: only models that received at least one score are considered,
        # except under the trivially-sampling policies which ignore scores.
        usable = [c for c in scored if c.scores or not needs_scores]
        self_candidate = CandidateModel(
            cid="self",
            submitter=self.address,
            round_number=self.chain.call("unifyfl", "getCurrentRound"),
            scores={},
            resolved_score=self._last_self_score,
            is_self=True,
        )
        selected = self.aggregation_policy.select(usable, self_candidate=self_candidate, rng=self._rng)

        pulled_cids = [c.cid for c in selected if not c.is_self]
        num_pulled = len(pulled_cids)
        self.merge_pulled([self.fetch_weights(cid) for cid in pulled_cids])

        # CIDs identify the artifacts so the fabric can gate each fetch on the
        # object's availability at the serving replica.
        timing.pull_time = self.comm.download(
            self.name, num_pulled, at=self.clock.now(), object_ids=pulled_cids
        )
        timing.aggregation_time = self.timing.aggregation_time(self.config, num_pulled + 1)
        self.clock.advance(timing.pull_time + timing.aggregation_time)
        self._record_resources("agg", cpu=self.config.aggregator_profile.train_cpu_percent * 0.12)
        return timing

    def merge_pulled(self, pulled: List[Weights]) -> None:
        """Merge pulled peer models into the global model of the round in flight.

        The paper's step (5): the pulled models and, after them, the local
        model, merged with equal coefficients.  With nothing pulled the local
        model is the global one.  Counts the pulled models for the round's
        record.
        """
        if pulled:
            self.global_weights = self.strategy.aggregate_stream(
                self.local_weights, [(w, 1.0) for w in [*pulled, self.local_weights]]
            )
        else:
            self.global_weights = self.local_weights
        self._pulled_this_round = len(pulled)

    # ------------------------------------------------------------- local training
    def local_training_round(self) -> RoundTiming:
        """Run one round of FL with this cluster's clients on the global model."""
        if self.global_weights is None:
            raise RuntimeError(
                f"{self.name} has no global model for the round in flight: "
                "call build_global_model first"
            )
        timing = RoundTiming()
        results = [
            fit_and_replay(client, self.global_weights, self.model_template, self.sanitizer)
            for client in self.clients
        ]
        self.local_weights = self.strategy.aggregate(self.global_weights, results)
        timing.client_training_time = self.timing.client_training_time(self.config)
        timing.aggregation_time = self.timing.aggregation_time(self.config, len(results))
        self.clock.advance(timing.client_training_time + timing.aggregation_time)
        for _ in results:
            self._record_resources("client", cpu=self.config.client_profile.train_cpu_percent)
        self._record_resources("agg", cpu=self.config.aggregator_profile.train_cpu_percent * 0.1)
        return timing

    # --------------------------------------------------------------- submission
    def submit_local_model(self) -> tuple[str, RoundTiming]:
        """Serialize the local model, add it to IPFS, and register the CID."""
        timing = RoundTiming()
        weights = self.local_weights
        if self.attack is not None:
            weights = self.attack.poison(weights, rng=self._rng)
        payload = weights_to_bytes(weights)
        cid = str(self.ipfs.add(payload))
        now = self.clock.now()
        timing.store_time = self.comm.upload(self.name, 1, at=now, object_ids=[cid])
        timing.chain_time = self.comm.chain_op(
            "submitModel", self.name, at=now + timing.store_time
        )
        self.clock.advance(timing.store_time + timing.chain_time)
        self.chain.send(
            self.account,
            "unifyfl",
            "submitModel",
            {"cid": cid, "timestamp": self.clock.now()},
        )
        self.chain.mine_until_empty()
        self.own_cids.append(cid)
        # Entered like any peer's fetch: what the submitter reads under the
        # CID is the model every other silo decodes from it.
        decoded = self.decoded_models.decode(cid, payload)
        if weights is self.local_weights:
            # An honest submission published the local model itself: hold
            # the store's decoded list (equal bits) instead of a second one.
            self.local_weights = decoded
            self._local_cid = cid
        self._record_resources("agg", cpu=self.config.aggregator_profile.train_cpu_percent * 0.05)
        return cid, timing

    # ------------------------------------------------------------------ scoring
    def score_assigned(self, before_time: Optional[float] = None) -> RoundTiming:
        """Score every model the contract has assigned to this aggregator."""
        timing = RoundTiming()
        assigned: List[str] = self.chain.call(
            "unifyfl",
            "getAssignedModels",
            {"scorer": self.address, "before_time": before_time},
            sender=self.address,
        )
        if not assigned:
            return timing
        round_context: Optional[Dict[str, Weights]] = None
        if self.scorer.requires_full_round:
            round_context = self._collect_round_weights()
        scored = 0
        scored_cids: List[str] = []
        for cid in assigned:
            if round_context is not None and cid not in round_context:
                # Still pending from a round this scorer sat out (churn): a
                # round-wise algorithm cannot place it among another round's
                # models, so it stays with its other assigned scorers.
                continue
            try:
                weights = self.fetch_weights(cid)
            except _UNAVAILABLE_MODEL:
                continue
            scored_cids.append(cid)
            if round_context is not None:
                score = self.scorer.score(weights, context={"round_weights": round_context, "cid": cid})
            else:
                score = self.scorer.score(weights, context={"cid": cid})
            self.chain.send(
                self.account,
                "unifyfl",
                "submitScore",
                {"cid": cid, "score": float(score), "timestamp": self.clock.now()},
            )
            scored += 1
        if scored:
            self.chain.mine_until_empty()
        timing.scoring_time = self.timing.scoring_time(self.config, scored, algorithm=self.scorer.name)
        now = self.clock.now()
        timing.pull_time = self.comm.download(self.name, scored, at=now, object_ids=scored_cids)
        timing.chain_time = self.comm.chain_op(
            "submitScore", self.name, at=now + timing.pull_time + timing.scoring_time,
            num_transactions=scored,
        )
        self.clock.advance(timing.total_time)
        self._record_resources("scorer", cpu=self.config.aggregator_profile.train_cpu_percent * 0.3)
        self._scored_this_round = scored
        return timing

    def _collect_round_weights(self) -> Dict[str, Weights]:
        """All models of the current round, needed by round-wise scorers (MultiKRUM)."""
        current_round = self.chain.call("unifyfl", "getCurrentRound")
        records = self.chain.call(
            "unifyfl",
            "getLatestModelsWithScores",
            {"max_rounds": 1},
            sender=self.address,
        )
        round_weights: Dict[str, Weights] = {}
        for record in records:
            if record["round"] != current_round:
                continue
            try:
                round_weights[record["cid"]] = self.fetch_weights(record["cid"])
            except _UNAVAILABLE_MODEL:
                continue
        return round_weights

    # --------------------------------------------------------------- evaluation
    def evaluate_weights(self, weights: Weights, cid: Optional[str] = None) -> Dict[str, float]:
        """Loss and accuracy of a weight set on the shared evaluation dataset.

        ``cid``, when given, is the content address ``weights`` are stored under.
        """
        loss, accuracy = self.evaluator.evaluate(weights, self.eval_data, cid=cid)
        return {"loss": loss, "accuracy": accuracy}

    def record_round(
        self,
        round_number: int,
        timing: RoundTiming,
        straggled: bool = False,
        offline: bool = False,
    ) -> AggregatorRoundRecord:
        """Evaluate both models and append a round record to the history.

        An online round closes here, so its global model is dropped.  An
        offline round built none and reports the global model this cluster
        last evaluated (evaluation is pure, so these are the bits evaluating
        it again would give).
        """
        if self.global_weights is not None:
            self._global_metrics = self.evaluate_weights(self.global_weights)
        if not offline:
            self.global_weights = None
        global_metrics = self._global_metrics
        local_metrics = self.evaluate_weights(self.local_weights, cid=self._local_cid)
        self._last_self_score = local_metrics["accuracy"]
        record = AggregatorRoundRecord(
            round_number=round_number,
            global_accuracy=global_metrics["accuracy"],
            global_loss=global_metrics["loss"],
            local_accuracy=local_metrics["accuracy"],
            local_loss=local_metrics["loss"],
            models_pulled=self._pulled_this_round if not offline else 0,
            models_scored=self._scored_this_round if not offline else 0,
            timing=timing,
            sim_time=self.clock.now(),
            straggled=straggled,
            offline=offline,
        )
        self.history.append(record)
        self._pulled_this_round = 0
        self._scored_this_round = 0
        return record

    # ------------------------------------------------------------------ summary
    @property
    def final_record(self) -> Optional[AggregatorRoundRecord]:
        """The last recorded round, if any."""
        return self.history[-1] if self.history else None

    def total_time(self) -> float:
        """Total simulated time this aggregator has spent."""
        return self.clock.now()

    def _record_resources(self, process_type: str, cpu: float) -> None:
        if self.monitor is None:
            return
        if process_type == "client":
            memory = 0.20 * self.config.client_profile.memory_mb + self._resource_rng.normal(0, 20)
        elif process_type == "scorer":
            memory = 900 + self._resource_rng.normal(0, 60)
        else:
            memory = min(
                0.75 * self.config.aggregator_profile.memory_mb,
                9000 + self._resource_rng.normal(0, 2500),
            )
        cpu_noisy = max(0.0, cpu + self._resource_rng.normal(0, cpu * 0.35 + 1.0))
        self.monitor.record(process_type, cpu_noisy, max(10.0, memory), sim_time=self.clock.now())
