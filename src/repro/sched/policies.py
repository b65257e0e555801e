"""Round policies: the pluggable "what happens when" of orchestration.

A :class:`RoundPolicy` owns the domain logic of one orchestration mode and
expresses it as events on a :class:`~repro.sched.kernel.SimulationKernel`:

* :class:`SyncRoundPolicy` — lock-step rounds with fixed training/scoring
  windows (the paper's Sync mode, Section 3.2).  Each round is three events:
  round start (barrier + training), training-window close (scoring), and
  scoring-window close (round end + bookkeeping).
* :class:`AsyncRoundPolicy` — every cluster is its own event stream (the
  paper's Async mode, Section 3.3).  The next cluster to act is always the
  earliest event in the heap, replacing the old O(n) scan over all
  aggregators with an O(log n) pop.
* :class:`SemiSyncRoundPolicy` — bounded-staleness buffered-async
  (FedBuff-style): clusters run at their own pace, but a logical round only
  closes once ``quorum_k`` clusters have submitted *or* ``max_staleness``
  simulated seconds have elapsed, and a cluster that already submitted to the
  open round waits for it to close before starting its next one.
* :class:`HierarchicalRoundPolicy` — clusters are grouped by topology site;
  each group runs several cheap LAN-priced local aggregation rounds around a
  rotating site leader, then one leader per group submits over WAN/chain per
  global round (the multi-site middleware shape: local stages composed under
  a thin global coordination tier).  Per-cluster round budgets cap how much
  local training each organisation contributes.
* :class:`GossipRoundPolicy` — no global barrier at all: every round each
  cluster pulls the latest published models of ``gossip_fanout``
  deterministic seeded peers, merges locally, trains, and publishes.
  Convergence is tracked per cluster.

Writing a new mode means subclassing :class:`RoundPolicy`, scheduling initial
events in :meth:`~RoundPolicy.install`, letting handlers schedule their
successors — and registering one :class:`~repro.sched.registry.PolicySpec`
whose factory returns the policy, so the runner, config validation, CLI and
contract all pick the mode up without edits.  The shared plumbing is the
base class's: :meth:`RoundPolicy.run` registers the clusters on the
contract, runs the events on a fresh kernel and calls
:meth:`~RoundPolicy.finalize`; the results stay where the run leaves them
(aggregator histories and clocks, :meth:`~RoundPolicy.extras`).  A
cluster's round records are the one ledger of its time: every wait a policy
imposes is booked on the record of the round it belongs to
(:meth:`~RoundPolicy._idle_until`), and the result's ``idle_time`` is their
sum.  The built-in modes register themselves at the
bottom of this module.  See ``docs/scheduling.md`` for a walk-through.

**One slot model.**  Every federation is a fixed number of *slots*; the
context's :class:`Roster` says which cluster occupies slot ``j`` in round
``r``.  A dense cross-silo run is the degenerate roster whose slot ``j`` is
permanently cluster ``j`` (:class:`StaticRoster`); a sampled run's roster is
the lazy :class:`~repro.core.runner.ClientPopulation`, whose occupants rotate
as the sampler draws them.  Policies only ever iterate slots, so there is one
code path for both shapes.

The policies consume the network and chain *event streams* of the context's
:class:`~repro.sched.actors.CommFabric`: phase transitions wait for their
transactions to seal, submission-cost predictions read the live link schedule
(including, under lazy replication, the possible on-demand fetch a consumer
of the submission would wait behind), and the semi-sync quorum close releases
waiters only at transaction finality.  On the degenerate constant-cost fabric
the same calls return per-interaction constants and free phase control — the
policies never ask which fabric they are on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.sched.kernel import SimulationKernel
from repro.sched.registry import ContractProfile, PolicySpec, register_policy

# No module-level repro.core imports here: repro.core imports this package,
# so eager imports in both directions would break whichever package is
# imported first.  Runtime needs are imported inside the handful of methods
# that use them.
if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.analysis.sanitizer import SimulationSanitizer
    from repro.chain.account import Account
    from repro.chain.blockchain import Blockchain
    from repro.core.aggregator import UnifyFLAggregator
    from repro.core.config import ExperimentConfig
    from repro.core.timing import ClusterTimingModel, RoundTiming
    from repro.sched.actors import CommFabric


class Roster(Protocol):
    """Who occupies which slot in which round — the dense/sampled seam."""

    #: number of slots, i.e. clusters active in any one round.
    cohort_size: int

    def round_aggregators(self, round_number: int) -> Sequence["UnifyFLAggregator"]:
        """The round's occupants, indexed by slot."""

    def slot_key(self, slot: int) -> str:
        """The kernel tie-break key of the slot's events."""

    def cohort_addresses(self, round_number: int) -> Optional[List[str]]:
        """The addresses to declare on-chain for the round; ``None`` if fixed."""

    def joined_mid_run(self, aggregator: "UnifyFLAggregator") -> bool:
        """Whether catching ``aggregator``'s clock up is *not* idle waiting."""


class StaticRoster:
    """The dense roster: slot ``j`` is permanently cluster ``j``.

    Events keep the cluster *name* as tie-break key, no cohort is ever
    published (the contract's default scope is every registered cluster) and
    every wait is real idle time — the clusters exist from the start.
    """

    def __init__(self, aggregators: Sequence["UnifyFLAggregator"]):
        self.aggregators = aggregators
        self.cohort_size = len(aggregators)

    def round_aggregators(self, round_number: int) -> Sequence["UnifyFLAggregator"]:
        return self.aggregators

    def slot_key(self, slot: int) -> str:
        return self.aggregators[slot].name

    def cohort_addresses(self, round_number: int) -> Optional[List[str]]:
        return None

    def joined_mid_run(self, aggregator: "UnifyFLAggregator") -> bool:
        return False


@dataclass
class OrchestrationContext:
    """Everything a round policy needs to be built and to drive a federation."""

    chain: "Blockchain"
    driver: "Account"
    #: the clusters that exist *so far*: the whole federation in a dense
    #: run, the live list a sampled roster appends to as it materialises.
    #: Per-round participants always come from ``roster``.
    aggregators: Sequence["UnifyFLAggregator"]
    timing: "ClusterTimingModel"
    num_rounds: int
    roster: Roster
    #: the federation's communication fabric: policies charge the driver's
    #: phase-control transactions (startTraining / startScoring / endRound /
    #: closeSemiRound) and their peer exchanges to it and predict submission
    #: costs from its link schedule.
    comm: "CommFabric"
    #: the experiment configuration registered factories read their knobs
    #: from; ``None`` when a policy is built by hand.
    config: Optional["ExperimentConfig"] = None
    #: optional simulation sanitizer, installed on the kernel that
    #: :meth:`RoundPolicy.run` creates.
    sanitizer: Optional["SimulationSanitizer"] = None

    def __post_init__(self) -> None:
        if not self.aggregators:
            raise ValueError("an orchestrator needs at least one aggregator")
        names = [a.name for a in self.aggregators]
        if len(set(names)) != len(names):
            raise ValueError("aggregator names must be unique")
        if any(a.comm is not self.comm for a in self.aggregators):
            raise ValueError("the aggregators of one federation must share one CommFabric")
        if self.num_rounds <= 0:
            raise ValueError("num_rounds must be positive")

    def cluster_configs(self) -> list:
        """The configs of the clusters that exist so far (window provisioning)."""
        return [a.config for a in self.aggregators]


class RoundPolicy:
    """Base class for orchestration modes expressed as kernel event streams."""

    mode = "base"

    def __init__(self, ctx: OrchestrationContext):
        self.ctx = ctx
        self.kernel: Optional[SimulationKernel] = None
        #: highest round whose cohort was published to the contract (guards
        #: setActiveCohort to once per round).
        self._cohort_round_sent = 0
        #: free-running modes run every slot as its own event stream: slot
        #: ``j`` executes global rounds 1..num_rounds, occupied in round
        #: ``r`` by member ``j`` of round ``r``'s roster.  The slot's
        #: timeline is continuous — a new occupant starts where the previous
        #: one left off — so the federation keeps a constant ``cohort_size``
        #: degree of parallelism while the participants may rotate
        #: underneath it.
        self._slot_round: Dict[int, int] = {}
        self._slot_time: Dict[int, float] = {}

    def run(self) -> None:
        """Drive the federation until every slot completed ``ctx.num_rounds``.

        Registers every aggregator not yet on the contract, then runs the
        policy's events on a fresh kernel (kept as :attr:`kernel`) carrying
        the context's sanitizer.
        """
        chain = self.ctx.chain
        registered = set(chain.call("unifyfl", "getAggregators"))
        for aggregator in self.ctx.aggregators:
            if aggregator.address not in registered:
                aggregator.register(mine=False)
        chain.mine_until_empty()
        self.kernel = SimulationKernel()
        self.kernel.sanitizer = self.ctx.sanitizer
        self.install(self.kernel)
        self.kernel.run()
        self.finalize()

    def install(self, kernel: SimulationKernel) -> None:
        """Schedule the policy's initial events on ``kernel``.

        The default starts the free-running modes: every slot's first
        activation, at its first occupant's clock.
        """
        for slot, occupant in enumerate(self.ctx.roster.round_aggregators(1)):
            self._schedule_slot(slot, occupant)

    def finalize(self) -> None:
        """Run once after the kernel drains (e.g. leftover-scoring cleanup)."""

    def extras(self) -> Dict[str, object]:
        """Policy-specific result annotations (quorum stats, closures, ...)."""
        return {}

    # ------------------------------------------------------------ shared steps
    def _update_active_cohort(self, round_number: int) -> None:
        """Publish a rotating round's cohort addresses to the contract.

        Scorer assignment is scoped to the declared set, so a cluster that
        was not drawn this round is never drafted as a scorer.  Called at
        every round start but published at most once per round (free-running
        slots all pass through here); bookkeeping only — no simulated cost
        is charged, the declaration piggybacks on the round's driver
        traffic.  A fixed roster declares nothing.
        """
        if round_number <= self._cohort_round_sent:
            return
        self._cohort_round_sent = round_number
        addresses = self.ctx.roster.cohort_addresses(round_number)
        if addresses is None:
            return
        self.ctx.chain.send(
            self.ctx.driver, "unifyfl", "setActiveCohort", {"addresses": addresses}
        )
        self.ctx.chain.mine_until_empty()

    def _driver_phase(self, method: str, at: float, args: Optional[dict] = None) -> float:
        """Send and seal the driver's ``method`` transaction at ``at``; returns its finality."""
        self.ctx.chain.send(self.ctx.driver, "unifyfl", method, args)
        self.ctx.chain.mine_until_empty()
        return at + self.ctx.comm.driver_op(method, at)

    def _idle_until(
        self, aggregator: "UnifyFLAggregator", until: float, timing: "RoundTiming"
    ) -> float:
        """Idle ``aggregator`` until ``until``, booked on its round's ``timing``.

        The round records are the one ledger of a cluster's time.  Returns
        the seconds waited.
        """
        waited = aggregator.clock.advance_to(until)
        timing.idle_time += waited
        return waited

    def _barrier_wait(
        self, aggregator: "UnifyFLAggregator", barrier: float, timing: "RoundTiming"
    ) -> float:
        """Advance a participant to a round-start barrier; returns its idle.

        A cluster the roster materialised for this round advances from
        clock 0 without having waited — it did not exist before.
        """
        if self.ctx.roster.joined_mid_run(aggregator):
            aggregator.clock.advance_to(barrier)
            return 0.0
        return self._idle_until(aggregator, barrier, timing)

    def _sat_out(self, aggregator: "UnifyFLAggregator", round_number: int) -> bool:
        """Whether a free-running cluster is down for the round (fault injection).

        A cluster that is down idles for one round's training time and
        records the round offline.
        """
        from repro.core.timing import RoundTiming

        if aggregator.is_available(round_number):
            return False
        downtime = self.ctx.timing.client_training_time(aggregator.config, jitter=False)
        aggregator.clock.advance(downtime)
        aggregator.record_round(round_number, RoundTiming(idle_time=downtime), offline=True)
        return True

    # ------------------------------------------------------ free-running slots
    def _activate(self, slot: int) -> None:
        """One self-paced round of ``slot`` (free-running modes implement it)."""
        raise NotImplementedError

    def _schedule_slot(self, slot: int, occupant: "UnifyFLAggregator") -> None:
        """Continue ``slot``'s timeline from its current occupant's clock.

        The next round's occupant may be a different cluster; re-arming is
        an O(log n) heap push, not a rescan of every cluster.
        """
        assert self.kernel is not None
        self._slot_time[slot] = occupant.clock.now()
        self.kernel.schedule_at(
            self._slot_time[slot],
            lambda: self._activate(slot),
            key=self.ctx.roster.slot_key(slot),
        )

    def _enter_round(self, slot: int) -> Tuple[int, "UnifyFLAggregator"]:
        """Advance ``slot`` to its next global round: ``(round, occupant)``.

        The occupant is aligned to the slot's timeline: a newly-materialised
        cluster starts at clock 0 and is advanced to the slot's time (no idle
        is booked — it did not exist before); a re-sampled cluster may
        already be past it, in which case it simply carries on from its own
        clock.  A permanent occupant is always exactly at its slot's time.
        """
        round_number = self._slot_round.get(slot, 0) + 1
        self._slot_round[slot] = round_number
        aggregator = self.ctx.roster.round_aggregators(round_number)[slot]
        aggregator.clock.advance_to(self._slot_time[slot])
        return round_number, aggregator

    def _free_running_round(self, aggregator: "UnifyFLAggregator", round_number: int) -> bool:
        """One self-paced cluster round (the async/semi work unit).

        Returns True when the cluster actually trained and submitted, False
        when it sat the round out offline (fault injection).
        """
        if self._sat_out(aggregator, round_number):
            return False
        # Idle clusters first serve the scoring requests assigned to them.
        timing = aggregator.score_assigned(before_time=aggregator.clock.now())
        timing += aggregator.build_global_model(before_time=aggregator.clock.now())
        timing += aggregator.local_training_round()
        timing += aggregator.submit_local_model()[1]
        aggregator.record_round(round_number, timing, straggled=False)
        return True

    def _drain_scoring(self) -> None:
        """Score any work still queued so final score lists are complete.

        The drained effort is folded into each aggregator's *last* round
        record, so summing per-round timings equals the cluster's clock —
        previously the drain advanced the clock but left the records short.
        """
        for aggregator in sorted(self.ctx.aggregators, key=lambda a: a.clock.now()):
            drain_timing = aggregator.score_assigned(before_time=aggregator.clock.now())
            if aggregator.history and drain_timing.total_time > 0:
                aggregator.history[-1].timing += drain_timing


class SyncRoundPolicy(RoundPolicy):
    """Lock-step rounds with fixed phase windows (Section 3.2)."""

    mode = "sync"

    def __init__(
        self,
        ctx: OrchestrationContext,
        training_window: Optional[float] = None,
        scoring_window: Optional[float] = None,
        scoring_algorithm: str = "accuracy",
    ):
        super().__init__(ctx)
        # ``is not None`` rather than truthiness: an explicit window of 0.0 is
        # a (degenerate but meaningful) operator choice, not "use the default"
        # — which is the window the timing model provisions for the clusters.
        if training_window is None:
            training_window = ctx.timing.expected_training_window(ctx.cluster_configs())
        if scoring_window is None:
            scoring_window = ctx.timing.expected_scoring_window(
                ctx.cluster_configs(), algorithm=scoring_algorithm
            )
        self.training_window = training_window
        self.scoring_window = scoring_window
        #: clusters that missed the submission window and owe a late submission.
        self.pending_late: set = set()
        #: the round in flight's records, and who straggled or is offline in it.
        self._round_timings: Dict[str, "RoundTiming"] = {}
        self._straggled: set = set()
        self._offline: set = set()
        #: the occupants of the round in flight.
        self._active: Sequence["UnifyFLAggregator"] = ()

    def install(self, kernel: SimulationKernel) -> None:
        """Schedule the first round start at the initial barrier time."""
        barrier = max(a.clock.now() for a in self.ctx.roster.round_aggregators(1))
        kernel.schedule_at(barrier, lambda: self._begin_round(1), key="sync-round")

    # ------------------------------------------------------------ phase events
    def _begin_round(self, round_number: int) -> None:
        """Barrier + training phase; schedules the training-window close."""
        from repro.core.timing import RoundTiming

        assert self.kernel is not None
        participants = self.ctx.roster.round_aggregators(round_number)
        self._active = participants
        self._update_active_cohort(round_number)
        # A rotating cohort may consist entirely of clusters whose clocks lag
        # the federation (fresh, or idle since an earlier round); the round
        # still starts no earlier than the previous round end.
        barrier = max(self.kernel.now(), *(a.clock.now() for a in participants))
        # Training starts when the startTraining transaction is final
        # on-chain, not the instant the driver broadcast it.
        phase_start = self._driver_phase("startTraining", barrier)
        self._round_timings = {a.name: RoundTiming() for a in participants}
        for aggregator in participants:
            # The wait for the barrier / startTraining finality belongs to this
            # round's books (zero with free phase control, where clusters are
            # already aligned when a round begins).
            self._barrier_wait(aggregator, phase_start, self._round_timings[aggregator.name])
        self._straggled = set()
        self._offline = set()
        for aggregator in participants:
            timing = self._round_timings[aggregator.name]
            # Fault injection: an unavailable organisation (availability draw
            # or fault-plan churn) sits the round out.
            if not aggregator.is_available(round_number):
                self._offline.add(aggregator.name)
                continue
            # A cluster that straggled last round submits its stale model first.
            if aggregator.name in self.pending_late:
                timing += aggregator.submit_local_model()[1]
                self.pending_late.discard(aggregator.name)
            timing += aggregator.build_global_model()
            timing += aggregator.local_training_round()
            elapsed = aggregator.clock.now() - phase_start
            # Store + finality + (lazy replication) the on-demand fetch a
            # remote consumer would wait behind: a submission no other site
            # could read in time has not made the window.
            submit_cost = self.ctx.comm.estimate_submission(
                aggregator.name, aggregator.clock.now()
            )
            if elapsed + submit_cost <= self.training_window:
                timing += aggregator.submit_local_model()[1]
            else:
                # Missed the submission window: submit next round instead.
                self._straggled.add(aggregator.name)
                self.pending_late.add(aggregator.name)

        self.kernel.schedule_at(
            phase_start + self.training_window,
            lambda: self._close_training(round_number),
            key="sync-round",
        )

    def _close_training(self, round_number: int) -> None:
        """Training window elapses: everyone idles to it, scoring begins."""
        assert self.kernel is not None
        # Scoring starts once startScoring is sealed on-chain.
        scoring_start = self._driver_phase("startScoring", self.kernel.now())
        for aggregator in self._active:
            self._idle_until(aggregator, scoring_start, self._round_timings[aggregator.name])

        for aggregator in self._active:
            if aggregator.name not in self._offline:
                self._round_timings[aggregator.name] += aggregator.score_assigned()

        self.kernel.schedule_at(
            scoring_start + self.scoring_window,
            lambda: self._close_scoring(round_number),
            key="sync-round",
        )

    def _close_scoring(self, round_number: int) -> None:
        """Scoring window elapses: close the round and start the next one."""
        assert self.kernel is not None
        # The round (and its reward bookkeeping) is only over once the
        # endRound transaction is sealed.
        round_end = self._driver_phase("endRound", self.kernel.now())
        for aggregator in self._active:
            self._idle_until(aggregator, round_end, self._round_timings[aggregator.name])

        for aggregator in self._active:
            aggregator.record_round(
                round_number,
                self._round_timings[aggregator.name],
                straggled=aggregator.name in self._straggled,
                offline=aggregator.name in self._offline,
            )

        if round_number < self.ctx.num_rounds:
            barrier = max(a.clock.now() for a in self._active)
            self.kernel.schedule_at(
                barrier, lambda: self._begin_round(round_number + 1), key="sync-round"
            )


class AsyncRoundPolicy(RoundPolicy):
    """Free-running slots; the earliest heap event is always next (3.3)."""

    mode = "async"

    def _activate(self, slot: int) -> None:
        """One self-paced round by the slot's occupant."""
        round_number, aggregator = self._enter_round(slot)
        self._update_active_cohort(round_number)
        self._free_running_round(aggregator, round_number)
        if round_number < self.ctx.num_rounds:
            self._schedule_slot(slot, aggregator)

    def finalize(self) -> None:
        """Drain leftover assigned scoring once every cluster finished."""
        self._drain_scoring()


class SemiSyncRoundPolicy(RoundPolicy):
    """Bounded-staleness buffered-async rounds (FedBuff-style).

    Clusters train and submit at their own pace, but the logical round only
    closes when ``quorum_k`` of them have submitted or ``max_staleness``
    simulated seconds have passed since the round opened.  A cluster that has
    already submitted to the open round *waits* for the close before starting
    its next round — that wait is the (bounded) idle price paid for keeping
    the federation's model versions within one round of each other.
    """

    mode = "semi"

    def __init__(
        self,
        ctx: OrchestrationContext,
        quorum_k: Optional[int] = None,
        max_staleness: Optional[float] = None,
    ):
        super().__init__(ctx)
        from repro.core.config import majority_quorum, validate_semi_params

        slots = ctx.roster.cohort_size
        # Default quorum: a majority of the slots, mirroring the
        # scorer-majority rule of the contract.  Default staleness bound: one
        # provisioned sync training window — the round never lags a full
        # lock-step phase behind.
        if quorum_k is None:
            quorum_k = majority_quorum(slots)
        if max_staleness is None:
            max_staleness = ctx.timing.expected_training_window(ctx.cluster_configs())
        validate_semi_params(quorum_k, max_staleness, slots)
        self.quorum_k = quorum_k
        self.max_staleness = max_staleness
        #: submitters waiting for the open round to close before their slot
        #: re-activates, as name -> (aggregator, slot).
        self._blocked: Dict[str, tuple] = {}
        #: semi round each cluster's latest submission was buffered into.
        self._submitted_round: Dict[str, int] = {}
        #: submissions that have *landed* (reached their submitter's local
        #: completion time on the global timeline) in the open round — this,
        #: not the contract's eagerly-registered buffer, is what quorum and
        #: staleness decisions are made on.
        self._landed = 0
        #: set when the open round's staleness deadline passed with nothing
        #: landed yet: the next landing closes the round immediately, so a
        #: round never stays open past max_staleness once it has content.
        self._deadline_passed = False
        #: slots that completed their last round.  Finished state is per
        #: *slot*: the slot retires, its last occupant does not block other
        #: slots it may later join.
        self._finished: set = set()
        self._timeout_event = None
        #: audit trail of round closures:
        #: (round, close_time, reason, landed, release_time).  "landed" is the
        #: policy's own count and can be smaller than the contract's
        #: SemiRoundClosed buffered count when submissions were registered
        #: on-chain but still in flight at close time; "release_time" is the
        #: closeSemiRound finality every same-round submitter resumed at (it
        #: equals close_time when phase control is free).
        self.closures: List[tuple] = []

    # ----------------------------------------------------------------- install
    def install(self, kernel: SimulationKernel) -> None:
        """Configure the contract's quorum, arm every slot and the timeout."""
        # Recorded for the chain accounting; nobody waits on the configuration
        # transaction (clusters start from their own clocks regardless).
        self._driver_phase("configureSemiRound", 0.0, {"quorum_k": self.quorum_k})
        super().install(kernel)
        self._arm_timeout()

    # ------------------------------------------------------------------ events
    def _activate(self, slot: int) -> None:
        """Run one self-paced round by the slot's occupant, from this event's time.

        The round's work is atomic (it advances the cluster's *local* clock
        past the kernel's global time), so quorum bookkeeping is deferred to a
        separate :meth:`_on_submission` event scheduled at the cluster's local
        submission time — that keeps round closes and staleness timeouts
        correctly ordered on the global timeline.
        """
        assert self.kernel is not None
        round_number, aggregator = self._enter_round(slot)
        self._update_active_cohort(round_number)
        submitted = self._free_running_round(aggregator, round_number)
        done = round_number >= self.ctx.num_rounds
        if done:
            self._finished.add(slot)

        if submitted:
            status = self.ctx.chain.call("unifyfl", "getSemiRoundStatus")
            self._submitted_round[aggregator.name] = status["round"]
            self.kernel.schedule_at(
                aggregator.clock.now(),
                lambda: self._on_submission(aggregator, slot),
                key=self.ctx.roster.slot_key(slot),
            )
        elif not done:
            # Offline round: nothing was submitted, keep free-running.
            self._schedule_slot(slot, aggregator)

        if self._all_finished() and self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None

    def _on_submission(self, aggregator: "UnifyFLAggregator", slot: int) -> None:
        """The occupant's submission lands (in global time): close or wait."""
        assert self.kernel is not None
        done = slot in self._finished
        status = self.ctx.chain.call("unifyfl", "getSemiRoundStatus")
        if status["round"] > self._submitted_round.get(aggregator.name, 0):
            # The round this cluster fed was closed while its submission was
            # in flight — its slot is free to continue immediately.
            if not done:
                self._schedule_slot(slot, aggregator)
            return
        self._landed += 1
        # A round closes on quorum, or at once when it is already past its
        # staleness deadline and this first landing gives it content.
        if self._landed >= self.quorum_k or self._deadline_passed:
            reason = "quorum" if self._landed >= self.quorum_k else "staleness"
            release_time = self._close_round(reason=reason)
            if not done:
                # The triggering cluster waits for closeSemiRound finality
                # exactly like every blocked waiter — closing the round is
                # not a licence to skip the consensus wait.
                self._release(aggregator, slot, release_time)
        elif not done:
            # Submitted to a round that is still open: wait for the close.
            self._blocked[aggregator.name] = (aggregator, slot)

    def _on_timeout(self) -> None:
        assert self.kernel is not None
        self._timeout_event = None
        if self._all_finished():
            return
        if self._landed > 0:
            self._close_round(reason="staleness")
        else:
            # Nothing has landed yet: an empty round cannot close, but the
            # deadline stands — the next landing closes it immediately.
            self._deadline_passed = True

    # --------------------------------------------------------------- internals
    def _arm_timeout(self) -> None:
        assert self.kernel is not None
        self._timeout_event = self.kernel.schedule_after(
            self.max_staleness, self._on_timeout, priority=1, key="semi-timeout"
        )

    def _release(self, aggregator: "UnifyFLAggregator", slot: int, release_time: float) -> None:
        """Advance a same-round submitter to the close's finality and re-arm its slot.

        Shared by blocked waiters and the cluster whose landing triggered the
        close, so every submitter of a round resumes no earlier than
        ``release_time`` (with free phase control finality is instant and the
        wait degenerates to zero).
        """
        # The wait closes the round the cluster submitted in: its last record.
        self._idle_until(aggregator, release_time, aggregator.history[-1].timing)
        self._schedule_slot(slot, aggregator)

    def _close_round(self, reason: str) -> float:
        """Close the open semi round on the contract and release waiters.

        Returns the release time — closeSemiRound finality — the caller must
        also hold its own triggering cluster to.
        """
        assert self.kernel is not None
        close_time = self.kernel.now()
        status = self.ctx.chain.call("unifyfl", "getSemiRoundStatus")
        # Blocked clusters only learn of the close once the
        # closeSemiRound transaction is sealed — the quorum close is itself a
        # chain event, so its consensus latency is part of their wait.
        release_time = self._driver_phase("closeSemiRound", close_time, {"timestamp": close_time})
        self.closures.append((status["round"], close_time, reason, self._landed, release_time))
        self._landed = 0
        self._deadline_passed = False

        if self._timeout_event is not None:
            self._timeout_event.cancel()
        self._timeout_event = None
        if not self._all_finished():
            self._arm_timeout()

        blocked = [self._blocked.pop(name) for name in sorted(self._blocked)]
        for aggregator, slot in blocked:
            self._release(aggregator, slot, release_time)
        return release_time

    def _all_finished(self) -> bool:
        return len(self._finished) == self.ctx.roster.cohort_size

    # ----------------------------------------------------------------- results
    def finalize(self) -> None:
        """Drain leftover assigned scoring once every cluster finished."""
        self._drain_scoring()

    def extras(self) -> Dict[str, object]:
        """Quorum/staleness closure statistics for the result document."""
        quorum = sum(1 for c in self.closures if c[2] == "quorum")
        staleness = sum(1 for c in self.closures if c[2] == "staleness")
        return {
            "semi_quorum_k": self.quorum_k,
            "max_staleness": self.max_staleness,
            "rounds_closed": len(self.closures),
            "quorum_closures": quorum,
            "staleness_closures": staleness,
            "closures": list(self.closures),
        }


class HierarchicalRoundPolicy(RoundPolicy):
    """Two-tier rounds: local site aggregation under a thin global tier.

    Clusters are grouped by topology site (the same ``i % num_sites``
    round-robin the fabric assigns home replicas with, so a
    group really is the set of clusters sharing a storage site).  One global
    round is:

    1. **global barrier** — everyone advances to the slowest cluster, serves
       any assigned scoring, and the round's *leader* of each group (a
       deterministic rotation over the group, skipping offline members)
       pulls the other groups' submitted models from the contract and
       broadcasts the merged model to its members over the (LAN) exchange
       links;
    2. **local tier** — ``local_rounds_per_global`` cheap aggregation
       rounds within each group: members train, shuttle their models to the
       leader, the leader merges the group model and shuttles it back.
       Nothing touches storage or chain, so a local round costs LAN
       transfers plus compute only;
    3. **global tier** — each group's leader submits the group model over
       the real storage/chain path (``submitModel``), paying WAN
       replication, link contention and block-interval finality.

    A ``round_budget`` caps the total local training rounds each cluster
    contributes across the run: an exhausted cluster keeps receiving group
    models (and can still lead and score) but trains no further — the
    per-cluster cost-control knob multi-site deployments need.
    """

    mode = "hierarchical"

    def __init__(
        self,
        ctx: OrchestrationContext,
        num_sites: int = 1,
        local_rounds_per_global: int = 2,
        round_budget: Optional[int] = None,
    ):
        super().__init__(ctx)
        if num_sites < 1:
            raise ValueError("num_sites must be at least 1")
        if local_rounds_per_global < 1:
            raise ValueError("local_rounds_per_global must be at least 1")
        if round_budget is not None and round_budget < 1:
            raise ValueError("round_budget must be at least 1 when set")
        # The site count is clamped to the number of slots.
        self.num_sites = min(num_sites, ctx.roster.cohort_size)
        self.local_rounds = local_rounds_per_global
        self.round_budget = round_budget
        #: groups[s] = the round in flight's occupants whose home site is s:
        #: the same ``slot % num_sites`` round-robin the fabric assigns home
        #: replicas with, rebuilt each round because occupants may rotate.
        self.groups: List[List["UnifyFLAggregator"]] = []
        #: local training rounds each budgeted cluster still has.
        self.budget_left: Dict[str, int] = {}
        #: (global_round, local_round) at which each cluster ran dry.
        self.budget_exhausted_at: Dict[str, tuple] = {}
        #: audit trail of leader elections: (global_round, site_index, name).
        self.leader_log: List[tuple] = []
        #: per-tier timing accumulators for the result document.
        self.tier_totals: Dict[str, float] = {
            "local_training_time": 0.0,
            "local_exchange_time": 0.0,
            "local_aggregation_time": 0.0,
            "local_idle_time": 0.0,
            "global_pull_time": 0.0,
            "global_aggregation_time": 0.0,
            "global_broadcast_time": 0.0,
            "global_store_time": 0.0,
            "global_chain_time": 0.0,
            "global_idle_time": 0.0,
            "global_scoring_time": 0.0,
        }

    # ----------------------------------------------------------------- install
    def install(self, kernel: SimulationKernel) -> None:
        """Schedule the first global round at the initial barrier time."""
        barrier = max(a.clock.now() for a in self.ctx.roster.round_aggregators(1))
        kernel.schedule_at(barrier, lambda: self._begin_round(1), key="hier-round")

    def _consume_budget(self, aggregator: "UnifyFLAggregator", global_round: int, local_round: int) -> bool:
        """Whether the cluster may train now; decrements the budget if so."""
        left = self.budget_left.get(aggregator.name, self.round_budget)
        if left is None:
            return True
        if left <= 0:
            return False
        self.budget_left[aggregator.name] = left - 1
        if left - 1 == 0:
            self.budget_exhausted_at[aggregator.name] = (global_round, local_round)
        return True

    # ------------------------------------------------------------ round events
    def _begin_round(self, global_round: int) -> None:
        from repro.core.timing import RoundTiming

        assert self.kernel is not None
        participants = self.ctx.roster.round_aggregators(global_round)
        self._update_active_cohort(global_round)
        self.groups = [[] for _ in range(self.num_sites)]
        for slot, aggregator in enumerate(participants):
            self.groups[slot % self.num_sites].append(aggregator)
        # As in sync: a rotating cohort's clocks may all lag the federation.
        barrier = max(self.kernel.now(), *(a.clock.now() for a in participants))
        timings: Dict[str, "RoundTiming"] = {}
        available: Dict[str, bool] = {}
        for aggregator in participants:
            timings[aggregator.name] = RoundTiming()
            self.tier_totals["global_idle_time"] += self._barrier_wait(
                aggregator, barrier, timings[aggregator.name]
            )
            available[aggregator.name] = aggregator.is_available(global_round)

        # Serve the scoring the previous round's leader submissions assigned.
        for aggregator in participants:
            if available[aggregator.name]:
                score_timing = aggregator.score_assigned(before_time=aggregator.clock.now())
                timings[aggregator.name] += score_timing
                self.tier_totals["global_scoring_time"] += score_timing.total_time

        for site_index, group in enumerate(self.groups):
            members = [m for m in group if available[m.name]]
            if not members:
                continue
            # The rotation's member leads; if it is offline, the next
            # available member in rotation order takes the round.
            offset = (global_round - 1) % len(group)
            leader = next(m for m in group[offset:] + group[:offset] if available[m.name])
            self.leader_log.append((global_round, site_index, leader.name))
            self._run_group_round(global_round, members, leader, timings)

        for aggregator in participants:
            aggregator.record_round(
                global_round,
                timings[aggregator.name],
                offline=not available[aggregator.name],
            )

        if global_round < self.ctx.num_rounds:
            barrier = max(a.clock.now() for a in participants)
            self.kernel.schedule_at(
                barrier, lambda: self._begin_round(global_round + 1), key="hier-round"
            )

    def _run_group_round(
        self,
        global_round: int,
        members: List["UnifyFLAggregator"],
        leader: "UnifyFLAggregator",
        timings: Dict[str, "RoundTiming"],
    ) -> None:
        """One group's complete global round: pull, local tier, submission."""
        # --- global pull: the leader fetches the other groups' submissions.
        pull_timing = leader.build_global_model(before_time=leader.clock.now())
        leader_timing = timings[leader.name]
        leader_timing += pull_timing
        self.tier_totals["global_pull_time"] += pull_timing.pull_time
        self.tier_totals["global_aggregation_time"] += pull_timing.aggregation_time

        # --- broadcast the merged global model to the group (LAN exchange).
        # Every shuttle is committed at the clock of the member that pays for
        # it: by then the payload exists (a pusher just trained, a receiver
        # was first advanced to the leader's clock).
        followers = [m for m in members if m.name != leader.name]
        self._broadcast(leader, followers, timings, "global_broadcast_time")

        # --- local tier: LAN-priced aggregation rounds around the leader.
        for local_round in range(1, self.local_rounds + 1):
            trained: List["UnifyFLAggregator"] = []
            for member in members:
                if not self._consume_budget(member, global_round, local_round):
                    continue
                train_timing = member.local_training_round()
                timings[member.name] += train_timing
                self.tier_totals["local_training_time"] += train_timing.client_training_time
                self.tier_totals["local_aggregation_time"] += train_timing.aggregation_time
                trained.append(member)
            # Members shuttle their fresh models to the leader...
            for member in trained:
                if member.name == leader.name:
                    continue
                elapsed = self.ctx.comm.exchange(member.name, leader.name, at=member.clock.now())
                member.clock.advance(elapsed)
                timings[member.name].exchange_time += elapsed
                self.tier_totals["local_exchange_time"] += elapsed
            # ...the leader waits for the slowest shuttle and merges...
            arrival = max([leader.clock.now()] + [m.clock.now() for m in trained])
            self.tier_totals["local_idle_time"] += self._idle_until(
                leader, arrival, leader_timing
            )
            weight_sets = [m.local_weights for m in trained if m.name != leader.name]
            weight_sets.append(leader.local_weights)
            group_model = leader.strategy.aggregate_stream(
                leader.local_weights, [(w, 1.0) for w in weight_sets]
            )
            merge_time = self.ctx.timing.aggregation_time(leader.config, len(weight_sets))
            leader.clock.advance(merge_time)
            leader_timing.aggregation_time += merge_time
            self.tier_totals["local_aggregation_time"] += merge_time
            leader.local_weights = group_model
            leader.global_weights = group_model
            # ...and shuttles the merged group model back.
            self._broadcast(leader, followers, timings, "local_exchange_time")

        # --- global tier: only the leader crosses WAN/chain.
        _, submit_timing = leader.submit_local_model()
        leader_timing += submit_timing
        self.tier_totals["global_store_time"] += submit_timing.store_time
        self.tier_totals["global_chain_time"] += submit_timing.chain_time

    def _broadcast(
        self,
        leader: "UnifyFLAggregator",
        followers: List["UnifyFLAggregator"],
        timings: Dict[str, "RoundTiming"],
        tier: str,
    ) -> None:
        """Shuttle the leader's global model to every follower over the LAN.

        A follower first idles to the leader's clock — the model exists from
        then — and pays for its shuttle, charged to the ``tier`` total.
        """
        for member in followers:
            self.tier_totals["local_idle_time"] += self._idle_until(
                member, leader.clock.now(), timings[member.name]
            )
            elapsed = self.ctx.comm.exchange(leader.name, member.name, at=member.clock.now())
            member.clock.advance(elapsed)
            timings[member.name].exchange_time += elapsed
            self.tier_totals[tier] += elapsed
            member.global_weights = leader.global_weights

    # ----------------------------------------------------------------- results
    def finalize(self) -> None:
        """Drain leftover assigned scoring once every group finished.

        The drained effort belongs to the global tier's scoring service (it
        is the tail of the last round's leader submissions), so it is added
        to ``tier_totals`` — the per-tier breakdown sums exactly to the
        cluster clocks.
        """
        before = {a.name: a.clock.now() for a in self.ctx.aggregators}
        self._drain_scoring()
        self.tier_totals["global_scoring_time"] += sum(
            a.clock.now() - before[a.name] for a in self.ctx.aggregators
        )

    def extras(self) -> Dict[str, object]:
        """Per-tier timing breakdown and leadership/budget audit trails."""
        return {
            "num_sites": self.num_sites,
            "local_rounds_per_global": self.local_rounds,
            "round_budget": self.round_budget if self.round_budget is not None else 0,
            "groups": {
                str(site): [m.name for m in group] for site, group in enumerate(self.groups)
            },
            "leaders": list(self.leader_log),
            "tier_totals": dict(self.tier_totals),
            "budget_exhausted": dict(self.budget_exhausted_at),
        }


class GossipRoundPolicy(RoundPolicy):
    """Barrier-free epidemic rounds: pull a few peers, merge, train, publish.

    Every cluster free-runs like async, but instead of pulling *every*
    peer's latest model through the contract view it exchanges with
    ``gossip_fanout`` peers chosen by a deterministic seeded draw per
    (cluster, round).  An exchange pulls the peer's last *published* model
    by CID through the storage fabric — so link contention,
    read-your-writes availability gating and lazy on-demand replication all
    price the exchange — and the merged model is
    trained and re-published (upload + ``submitModel`` finality).  With
    ``gossip_fanout=0`` nothing is exchanged and every cluster trains in
    isolation.  There is no global round to close, so convergence is a
    per-cluster time series, not a federation barrier.
    """

    mode = "gossip"

    def __init__(self, ctx: OrchestrationContext, fanout: int = 2, seed: int = 0):
        super().__init__(ctx)
        if fanout < 0:
            raise ValueError("gossip fanout must be non-negative")
        self.fanout = fanout
        self.seed = seed
        #: publication history per cluster, as (cid, publish_time) in time
        #: order.  A puller sees the peer's *latest visible* publication —
        #: the last one whose publish time its own clock has passed — so a
        #: fast-rounding peer's newer model never hides the older one a
        #: slower puller could causally know of.
        self._published: Dict[str, List[tuple]] = {}
        #: audit trail: (round, puller, peer, elapsed_seconds).
        self.exchange_log: List[tuple] = []
        #: exchanges skipped because the peer had published nothing visible.
        self.missed_exchanges = 0

    # ------------------------------------------------------------------ events
    def _select_peers(self, slot: int, round_number: int) -> List["UnifyFLAggregator"]:
        """The deterministic seeded fanout draw for one (slot, round).

        Peers come from the round's other occupants.  The draw is keyed on
        the *slot*, not the cluster, so it is independent of which cluster
        happens to occupy the slot this round.
        """
        participants = self.ctx.roster.round_aggregators(round_number)
        others = [a for i, a in enumerate(participants) if i != slot]
        k = min(self.fanout, len(others))
        if k <= 0:
            return []
        rng = np.random.default_rng([self.seed, round_number, slot])
        chosen = sorted(rng.choice(len(others), size=k, replace=False).tolist())
        return [others[i] for i in chosen]

    def _activate(self, slot: int) -> None:
        """One gossip round by the slot's occupant."""
        round_number, aggregator = self._enter_round(slot)
        self._run_round(aggregator, round_number, self._select_peers(slot, round_number))
        if round_number < self.ctx.num_rounds:
            self._schedule_slot(slot, aggregator)

    def _run_round(
        self,
        aggregator: "UnifyFLAggregator",
        round_number: int,
        peers: Sequence["UnifyFLAggregator"],
    ) -> None:
        """One cluster's complete gossip round: pull peers, merge, train, publish."""
        from repro.core.timing import RoundTiming

        if self._sat_out(aggregator, round_number):
            return
        timing = RoundTiming()
        pulled = []
        for peer in peers:
            cid = self._latest_visible(peer.name, aggregator.clock.now())
            if cid is None:
                # The peer has published nothing this cluster could know of
                # yet — gossip is best-effort, the exchange is simply missed.
                self.missed_exchanges += 1
                continue
            weights = aggregator.fetch_weights(cid)
            elapsed = self.ctx.comm.gossip_pull(aggregator.name, aggregator.clock.now(), cid)
            aggregator.clock.advance(elapsed)
            timing.exchange_time += elapsed
            self.exchange_log.append((round_number, aggregator.name, peer.name, elapsed))
            pulled.append(weights)

        aggregator.merge_pulled(pulled)
        merge_time = self.ctx.timing.aggregation_time(aggregator.config, len(pulled) + 1)
        aggregator.clock.advance(merge_time)
        timing.aggregation_time += merge_time

        timing += aggregator.local_training_round()
        cid, submit_timing = aggregator.submit_local_model()
        timing += submit_timing
        self._published.setdefault(aggregator.name, []).append((cid, aggregator.clock.now()))
        aggregator.record_round(round_number, timing)

    def _latest_visible(self, peer: str, now: float) -> Optional[str]:
        """The peer's newest CID whose publication ``now`` has passed."""
        for cid, publish_time in reversed(self._published.get(peer, [])):
            if publish_time <= now:
                return cid
        return None

    # ----------------------------------------------------------------- results
    def extras(self) -> Dict[str, object]:
        """Per-exchange breakdown: who pulled from whom, at what cost."""
        per_cluster: Dict[str, int] = {a.name: 0 for a in self.ctx.aggregators}
        for _, puller, _, _ in self.exchange_log:
            per_cluster[puller] += 1
        final_accuracy = {
            a.name: (a.history[-1].global_accuracy if a.history else float("nan"))
            for a in self.ctx.aggregators
        }
        return {
            "gossip_fanout": self.fanout,
            "exchange_count": len(self.exchange_log),
            "exchange_time": sum(e[3] for e in self.exchange_log),
            "missed_exchanges": self.missed_exchanges,
            "per_cluster_exchanges": per_cluster,
            "per_cluster_final_accuracy": final_accuracy,
            "exchanges": list(self.exchange_log),
        }


# --------------------------------------------------------------------------
# Built-in registrations: every consumer of "what modes exist" (runner
# dispatch, ExperimentConfig validation, CLI --mode choices, contract
# behaviour) derives its view from these specs.  Each factory maps the
# experiment configuration's knobs onto its policy's constructor.
# --------------------------------------------------------------------------

def _reject_similarity_scoring(config: "ExperimentConfig") -> None:
    """Free-running modes never see a whole round at once."""
    from repro.core.scorer import FULL_ROUND_SCORERS

    if config.scoring_algorithm in FULL_ROUND_SCORERS:
        raise ValueError(
            f"scoring_algorithm {config.scoring_algorithm!r} needs all models of a round "
            f"at once and is only supported in sync mode, not mode {config.mode!r}"
        )


register_policy(PolicySpec(
    name="sync",
    factory=lambda ctx: SyncRoundPolicy(
        ctx,
        training_window=ctx.config.phase_duration,
        scoring_window=ctx.config.phase_duration,
        scoring_algorithm=ctx.config.scoring_algorithm,
    ),
    description="lock-step phases with fixed training/scoring windows",
    contract=ContractProfile(phase_gated=True),
))
register_policy(PolicySpec(
    name="async",
    factory=AsyncRoundPolicy,
    description="free-running clusters, scorers assigned at submission",
    validate=_reject_similarity_scoring,
    contract=ContractProfile(assigns_scorers_on_submit=True),
))
register_policy(PolicySpec(
    name="semi",
    factory=lambda ctx: SemiSyncRoundPolicy(
        ctx, quorum_k=ctx.config.semi_quorum_k, max_staleness=ctx.config.max_staleness
    ),
    description="buffered-async rounds closed by quorum or staleness expiry",
    # The quorum/staleness bounds check is mode-agnostic and already runs
    # unconditionally in ExperimentConfig.__post_init__ (the knobs can be
    # set, and are range-checked, on any config).
    validate=_reject_similarity_scoring,
    contract=ContractProfile(assigns_scorers_on_submit=True, buffered=True),
))
register_policy(PolicySpec(
    name="hierarchical",
    # Site grouping mirrors the fabric's round-robin assignment
    # of clusters to storage replicas, so a "group" is exactly the set of
    # clusters sharing a storage site (one group when replicas are off).
    factory=lambda ctx: HierarchicalRoundPolicy(
        ctx,
        num_sites=ctx.config.storage_replicas,
        local_rounds_per_global=ctx.config.local_rounds_per_global,
        round_budget=ctx.config.round_budget,
    ),
    description="per-site local rounds, one leader submission per site per global round",
    validate=_reject_similarity_scoring,
    contract=ContractProfile(assigns_scorers_on_submit=True),
))
register_policy(PolicySpec(
    name="gossip",
    factory=lambda ctx: GossipRoundPolicy(
        ctx, fanout=ctx.config.gossip_fanout, seed=ctx.config.seed
    ),
    description="barrier-free seeded peer exchanges, per-cluster convergence",
    validate=_reject_similarity_scoring,
    contract=ContractProfile(),
))
