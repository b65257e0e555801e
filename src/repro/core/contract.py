"""The UnifyFL orchestrator smart contract (Algorithm 1 of the paper).

The contract coordinates the two phases of every round:

* **Training phase** — ``startTraining`` notifies the aggregators; each
  aggregator later calls ``submitModel`` with the IPFS CID of its freshly
  aggregated local model.
* **Scoring phase** — ``startScoring`` samples a majority subset
  (``N // 2 + 1``) of the registered aggregators as scorers for each submitted
  model; scorers call ``submitScore``.  ``getLatestModelsWithScores`` then
  exposes every model together with the full list of scores so each aggregator
  can apply its own aggregation and scoring policies.

The contract's per-mode behaviour is derived from the round-policy registry
(:mod:`repro.sched.registry`): each registered mode carries a
:class:`~repro.sched.registry.ContractProfile` naming the three behavioural
axes.  In **sync** mode (phase-gated) the contract enforces phase windows:
models may only be submitted during the training phase and scores only
during the scoring phase (anything later is disregarded, as in Section 3.2).
In **async** mode scorers are assigned immediately when a model CID is
submitted (Section 3.3) — **hierarchical** leader submissions behave the
same way.  In **semi** mode (bounded-staleness buffered-async) scorers are
likewise assigned at submission, but the contract additionally *buffers* the
round's submissions: ``closeSemiRound`` advances the round counter once a
quorum of clusters has contributed or the driver decides the staleness bound
expired, and ``getSemiRoundStatus`` exposes the buffer so the semi-sync round
policy can make that call.  In **gossip** mode submissions are pure
publications: recorded and auditable, but nobody is assigned to score them —
each cluster judges what it merges.

Submission and score records carry the submitting actor's simulated timestamp
so asynchronous aggregators only observe state that existed at their local
time — the contract's view methods accept a ``before_time`` cutoff for this.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.chain.contract import Contract, contract_method, view_method
from repro.core.config import majority_quorum
from repro.sched.registry import get_policy


@dataclass
class ModelSubmission:
    """A model CID registered on the contract by an aggregator."""

    cid: str
    submitter: str
    round_number: int
    timestamp: float
    scores: Dict[str, float] = field(default_factory=dict)
    score_timestamps: Dict[str, float] = field(default_factory=dict)
    assigned_scorers: List[str] = field(default_factory=list)

    def as_record(self, before_time: Optional[float] = None) -> Dict[str, Any]:
        """A JSON-friendly view of this submission, optionally time-filtered."""
        if before_time is None:
            visible_scores = dict(self.scores)
        else:
            visible_scores = {
                scorer: score
                for scorer, score in self.scores.items()
                if self.score_timestamps.get(scorer, 0.0) <= before_time
            }
        return {
            "cid": self.cid,
            "submitter": self.submitter,
            "round": self.round_number,
            "timestamp": self.timestamp,
            "scores": visible_scores,
            "assigned_scorers": list(self.assigned_scorers),
        }


class UnifyFLContract(Contract):
    """The Solidity orchestrator contract, reimplemented for the Python runtime."""

    name = "unifyfl"

    #: phases of the synchronous cycle.
    PHASE_IDLE = "idle"
    PHASE_TRAINING = "training"
    PHASE_SCORING = "scoring"
    #: the (only) phase of the semi-synchronous cycle: submissions buffer up
    #: until the round is closed by quorum or staleness expiry.
    PHASE_BUFFERING = "buffering"

    def __init__(self, mode: str = "sync", scorer_seed: int = 0, semi_quorum_k: int = 0):
        super().__init__()
        # The accepted modes and their behaviour are derived from the
        # round-policy registry: the spec's ContractProfile decides whether
        # submissions are phase-gated, whether scorers are assigned at
        # submission, and whether the semi round buffer is live — so a new
        # registered policy needs no contract edits.
        self._profile = get_policy(mode).contract
        if semi_quorum_k < 0:
            raise ValueError("semi_quorum_k must be non-negative (0 = majority)")
        self.mode = mode
        self.scorer_seed = scorer_seed
        self.aggregators: List[str] = []
        self.current_round = 1 if self._profile.buffered else 0
        self.phase = self.PHASE_BUFFERING if self._profile.buffered else self.PHASE_IDLE
        self.submissions: Dict[str, ModelSubmission] = {}
        self.round_submissions: Dict[int, List[str]] = {}
        #: scorer address -> list of CIDs awaiting that scorer's score.
        self.pending_assignments: Dict[str, List[str]] = {}
        #: semi mode: quorum size (0 = majority of registered aggregators),
        #: the open round's buffered CIDs and its opening timestamp.
        self.semi_quorum_k = semi_quorum_k
        self.semi_buffer: List[str] = []
        #: distinct submitters of the open round's buffer, kept incrementally
        #: so quorum checks stay O(1) per submission.
        self.semi_submitters: set = set()
        self.semi_opened_at = 0.0
        #: ensures SemiQuorumReached fires at most once per open round, even
        #: if the effective quorum drifts (e.g. a late registration).
        self._semi_quorum_fired = False
        #: sampled federations: the addresses drawn for the current round.
        #: ``None`` (the default, and the only state non-sampled runs ever
        #: see) means every registered aggregator is eligible to score.
        self.active_cohort: Optional[List[str]] = None

    # ------------------------------------------------------------------ setup
    @contract_method
    def registerAggregator(self) -> int:
        """Register the calling address as a participating aggregator/scorer."""
        sender = self.ctx.sender
        self.require(sender not in self.aggregators, "aggregator already registered")
        self.aggregators.append(sender)
        self.pending_assignments.setdefault(sender, [])
        self.emit("AggregatorRegistered", aggregator=sender, count=len(self.aggregators))
        self.ctx.charge(5_000)
        return len(self.aggregators)

    @contract_method
    def setActiveCohort(self, addresses: List[str]) -> int:
        """Declare the aggregators sampled for the current round.

        Sampled federations register every materialised virtual cluster but
        only a cohort participates per round; the driver publishes the drawn
        addresses so scorer assignment stays inside the cohort instead of
        drafting idle (unmaterialised-next-round) clusters.  Passing an empty
        list clears the restriction.  Non-sampled runs never call this, so
        their assignment behaviour is untouched.
        """
        for address in addresses:
            self.require(
                address in self.aggregators,
                "active cohort contains an unregistered aggregator",
            )
        self.active_cohort = list(addresses) if addresses else None
        self.emit("ActiveCohortSet", size=len(addresses))
        self.ctx.charge(5_000)
        return len(addresses)

    # --------------------------------------------------------------- training
    @contract_method
    def startTraining(self) -> int:
        """Start the training phase of a new round (Sync orchestration)."""
        self.require(len(self.aggregators) > 0, "no aggregators registered")
        self.require(
            self.phase in (self.PHASE_IDLE, self.PHASE_SCORING),
            "training phase already open",
        )
        self.current_round += 1
        self.phase = self.PHASE_TRAINING
        self.round_submissions.setdefault(self.current_round, [])
        self.emit("StartTraining", round=self.current_round)
        self.ctx.charge(10_000)
        return self.current_round

    @contract_method
    def submitModel(self, cid: str, timestamp: float = 0.0) -> None:
        """Submit the CID of an aggregated local model (valid trainers only)."""
        sender = self.ctx.sender
        self.require(sender in self.aggregators, "sender is not a registered aggregator")
        self.require(bool(cid), "cid must be non-empty")
        self.require(cid not in self.submissions, "this model CID was already submitted")
        if self._profile.phase_gated:
            self.require(
                self.phase == self.PHASE_TRAINING,
                "model submissions are only accepted during the training phase",
            )
        round_number = max(self.current_round, 1)
        submission = ModelSubmission(
            cid=cid,
            submitter=sender,
            round_number=round_number,
            timestamp=float(timestamp),
        )
        self.submissions[cid] = submission
        self.round_submissions.setdefault(round_number, []).append(cid)
        self.emit("ModelSubmitted", cid=cid, submitter=sender, round=round_number)
        self.ctx.charge(20_000)
        if self._profile.assigns_scorers_on_submit:
            self._assign_scorers(submission)
        if self._profile.buffered:
            self.semi_buffer.append(cid)
            self.semi_submitters.add(sender)
            # Quorum counts distinct submitting clusters, not raw submissions
            # (one cluster resubmitting must not close a round by itself), and
            # the event fires at most once per open round.
            quorum = self._effective_quorum()
            if not self._semi_quorum_fired and len(self.semi_submitters) >= quorum:
                self._semi_quorum_fired = True
                self.emit(
                    "SemiQuorumReached",
                    round=self.current_round,
                    buffered=len(self.semi_buffer),
                    submitters=len(self.semi_submitters),
                    quorum=quorum,
                )

    # ---------------------------------------------------------------- scoring
    @contract_method
    def startScoring(self) -> Dict[str, List[str]]:
        """Close the training window and assign scorers to every submitted model."""
        self.require(self._profile.phase_gated, "startScoring is only used in sync mode")
        self.require(self.phase == self.PHASE_TRAINING, "no training phase to close")
        self.phase = self.PHASE_SCORING
        assignments: Dict[str, List[str]] = {}
        for cid in self.round_submissions.get(self.current_round, []):
            submission = self.submissions[cid]
            if not submission.assigned_scorers:
                self._assign_scorers(submission)
            assignments[cid] = list(submission.assigned_scorers)
        self.emit("StartScoring", round=self.current_round, assignments=assignments)
        self.ctx.charge(10_000)
        return assignments

    @contract_method
    def submitScore(self, cid: str, score: float, timestamp: float = 0.0) -> None:
        """Submit a score for a model CID (valid assigned scorers only)."""
        sender = self.ctx.sender
        self.require(cid in self.submissions, "unknown model CID")
        submission = self.submissions[cid]
        self.require(sender in submission.assigned_scorers, "sender is not an assigned scorer for this model")
        self.require(sender not in submission.scores, "scorer already submitted a score for this model")
        if self._profile.phase_gated:
            self.require(
                self.phase == self.PHASE_SCORING,
                "scores are only accepted during the scoring phase",
            )
        submission.scores[sender] = float(score)
        submission.score_timestamps[sender] = float(timestamp)
        pending = self.pending_assignments.get(sender, [])
        if cid in pending:
            pending.remove(cid)
        self.emit("ScoreSubmitted", cid=cid, scorer=sender, score=float(score))
        self.ctx.charge(15_000)

    @contract_method
    def endRound(self) -> int:
        """Close the scoring window (Sync orchestration)."""
        self.require(self._profile.phase_gated, "endRound is only used in sync mode")
        self.require(self.phase == self.PHASE_SCORING, "no scoring phase to close")
        self.phase = self.PHASE_IDLE
        self.emit("RoundEnded", round=self.current_round)
        self.ctx.charge(5_000)
        return self.current_round

    # ------------------------------------------------------- semi-sync rounds
    @contract_method
    def configureSemiRound(self, quorum_k: int = 0) -> int:
        """Set the quorum size for semi mode (0 = majority of aggregators).

        Only allowed between rounds (empty buffer): changing the quorum while
        submissions are buffered would make the SemiQuorumReached threshold
        crossing ambiguous (fire twice, or never).
        """
        self.require(self._profile.buffered, "configureSemiRound is only used in semi mode")
        self.require(quorum_k >= 0, "quorum_k must be non-negative")
        self.require(
            not self.aggregators or quorum_k <= len(self.aggregators),
            "quorum_k cannot exceed the number of registered aggregators",
        )
        self.require(
            not self.semi_buffer,
            "quorum can only be reconfigured between rounds (buffer must be empty)",
        )
        self.semi_quorum_k = int(quorum_k)
        self.emit("SemiRoundConfigured", quorum_k=self.semi_quorum_k)
        self.ctx.charge(5_000)
        return self._effective_quorum()

    @contract_method
    def closeSemiRound(self, timestamp: float = 0.0) -> Dict[str, Any]:
        """Advance the semi round: clear the buffer, bump the round counter.

        The driver calls this when the quorum is reached or when it judges the
        staleness bound expired; the contract only checks that there is an open
        round with at least one buffered submission to close.
        """
        self.require(self._profile.buffered, "closeSemiRound is only used in semi mode")
        self.require(bool(self.semi_buffer), "cannot close a semi round with no submissions")
        closed = {
            "round": self.current_round,
            "buffered": len(self.semi_buffer),
            "submitters": len(self.semi_submitters),
            "opened_at": self.semi_opened_at,
            "closed_at": float(timestamp),
            "duration": float(timestamp) - self.semi_opened_at,
        }
        self.current_round += 1
        self.round_submissions.setdefault(self.current_round, [])
        self.semi_buffer = []
        self.semi_submitters = set()
        self.semi_opened_at = float(timestamp)
        self._semi_quorum_fired = False
        self.emit("SemiRoundClosed", **closed)
        self.ctx.charge(10_000)
        return closed

    # ------------------------------------------------------------------ views
    @view_method
    def getSemiRoundStatus(self) -> Dict[str, Any]:
        """Open-round state in semi mode: buffer fill vs quorum, opening time."""
        self.require(self._profile.buffered, "getSemiRoundStatus is only used in semi mode")
        quorum = self._effective_quorum()
        return {
            "round": self.current_round,
            "buffered": len(self.semi_buffer),
            "submitters": len(self.semi_submitters),
            "quorum_k": quorum,
            "opened_at": self.semi_opened_at,
            "quorum_reached": len(self.semi_submitters) >= quorum,
        }

    @view_method
    def getAggregators(self) -> List[str]:
        """Registered aggregator addresses, in registration order."""
        return list(self.aggregators)

    @view_method
    def getPhase(self) -> str:
        """Current phase of the synchronous cycle."""
        return self.phase

    @view_method
    def getCurrentRound(self) -> int:
        """The current (or most recent) round number."""
        return self.current_round

    @view_method
    def getLatestModelsWithScores(
        self,
        max_rounds: int = 0,
        before_time: Optional[float] = None,
        exclude_submitter: str = "",
    ) -> List[Dict[str, Any]]:
        """Models with their score lists, newest round first.

        Args:
            max_rounds: number of most recent rounds to include (0 = all).
            before_time: only include submissions / scores visible at this
                simulated time (used by asynchronous aggregators).
            exclude_submitter: optionally hide one submitter's own models.

        Rounds are walked newest first through ``round_submissions``, so a
        record is built only for a submission that is returned: the window
        ends ``max_rounds`` below the newest round holding a visible one.
        """
        records: List[Dict[str, Any]] = []
        newest: Optional[int] = None
        for round_number in sorted(self.round_submissions, reverse=True):
            if newest is not None and max_rounds > 0 and round_number <= newest - max_rounds:
                break
            for cid in self.round_submissions[round_number]:
                submission = self.submissions[cid]
                if before_time is not None and submission.timestamp > before_time:
                    continue
                if exclude_submitter and submission.submitter == exclude_submitter:
                    continue
                records.append(submission.as_record(before_time))
            if records and newest is None:
                newest = round_number
        records.sort(key=lambda r: (-r["round"], r["timestamp"], r["cid"]))
        return records

    @view_method
    def getAssignedModels(self, scorer: str, before_time: Optional[float] = None) -> List[str]:
        """CIDs assigned to ``scorer`` that it has not scored yet."""
        pending = self.pending_assignments.get(scorer, [])
        if before_time is None:
            return list(pending)
        return [cid for cid in pending if self.submissions[cid].timestamp <= before_time]

    @view_method
    def getSubmission(self, cid: str) -> Dict[str, Any]:
        """Full record for a single CID."""
        self.require(cid in self.submissions, "unknown model CID")
        return self.submissions[cid].as_record()

    @view_method
    def roundSubmissionCount(self, round_number: int) -> int:
        """Number of models submitted in a given round."""
        return len(self.round_submissions.get(round_number, []))

    # --------------------------------------------------------------- internals
    def _effective_quorum(self) -> int:
        """The configured semi quorum, or a majority when left at 0.

        A constructor-supplied quorum above the registered aggregator count is
        clamped to "all registered" (registration happens after deployment, so
        the constructor cannot validate against it; ``configureSemiRound``
        rejects such values once aggregators exist).
        """
        if self.semi_quorum_k > 0:
            return min(self.semi_quorum_k, max(len(self.aggregators), 1))
        return majority_quorum(len(self.aggregators))

    def _assign_scorers(self, submission: ModelSubmission) -> None:
        """Deterministically sample a majority subset of scorers for a model.

        The selection hashes (seed, round, CID) so every chain node derives
        the same assignment without an external randomness beacon.  The
        submitter itself is excluded when enough other aggregators exist,
        which is the bias-removal rationale of Section 3 step (2).

        When an active cohort is declared (sampled federations), both the
        candidate pool and the majority threshold are scoped to the cohort —
        a cluster that was not drawn this round is never asked to score.
        """
        pool = self.active_cohort if self.active_cohort else self.aggregators
        majority = majority_quorum(len(pool))
        candidates = [a for a in pool if a != submission.submitter]
        if len(candidates) < majority:
            candidates = list(pool)
        digest = hashlib.sha256(
            f"{self.scorer_seed}:{submission.round_number}:{submission.cid}".encode()
        ).digest()
        # Deterministic shuffle: sort candidates by a per-candidate hash value.
        def sort_key(address: str) -> str:
            return hashlib.sha256(digest + address.encode()).hexdigest()

        chosen = sorted(candidates, key=sort_key)[:majority]
        submission.assigned_scorers = chosen
        for scorer in chosen:
            self.pending_assignments.setdefault(scorer, []).append(submission.cid)
        self.emit(
            "ScorersAssigned",
            cid=submission.cid,
            scorers=list(chosen),
            round=submission.round_number,
        )
