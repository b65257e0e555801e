"""The runtime simulation sanitizer: read-only invariant checks.

A race-detector analogue for the discrete-event engine.  When enabled
(``ExperimentConfig(sanitize=True)`` / ``repro run --sanitize``) one
:class:`SimulationSanitizer` instance is threaded through the run and hooked
into ten places:

* the **kernel** (:meth:`check_event`): no event may commit in the simulated
  past — the event queue's ``(time, priority, key, seq)`` total order must
  hold at execution time, not just at push time;
* the **link scheduler** (:meth:`check_reservation`, called after every
  committed :class:`~repro.simnet.network.ScheduledTransfer`): reservations
  are well-formed (no queue-jumping, no negative wire time), never push an
  endpoint above its declared parallel capacity, and never start inside a
  blocked fault window of the path;
* **windowed placements** (:meth:`check_placement_window`, called on every
  placement that sweeps a capacity > 1 endpoint from the request time on):
  the start equals the one the full saturation sweep of
  :class:`~repro.simnet.reference.ReferenceLinkScheduler` gives;
* the **communication fabric** (:meth:`observe_fabric`, called after every
  fabric operation): the running totals the result documents are built from
  (wire/queued time, WAN bytes, log lengths) only ever grow;
* the **evaluator** (:meth:`check_evaluation`, called on every hit of the
  run's :class:`~repro.ml.evaluation.Evaluator` memo): the stored
  ``(loss, accuracy)`` equals what the direct computation returns now; every
  evaluation computed from a held plan equals a plan-free ``Model.evaluate``
  (:meth:`check_evaluation_plan`), and a CID that names a fingerprint names
  the one its weights hash to now (:meth:`check_evaluation_cid`);
* the **round scorer** (:meth:`check_round_scores`, called on every hit of
  the run's shared full-round scorer memo): the stored per-CID scores equal
  what ``score_round`` returns for that round now;
* the **decoded-model store** (:meth:`check_decoded_model`, called on every
  hit of the run's :class:`~repro.ml.serialization.DecodedModels`): the
  shared tensors equal, in dtype, shape and bytes, a fresh decode of the
  payload the caller just fetched;
* **local training** (:meth:`check_shared_training`, called after every
  ``Client.fit`` an aggregator issues on the run's one training network):
  the reported weights and metrics equal, byte for byte, those of the same
  fit replayed on a fresh clone of the model template;
* **block storage** (:meth:`check_block_verification`, called whenever a
  :class:`~repro.ipfs.blockstore.BlockStore` accepts a block because the
  swarm's table remembers that very ``bytes`` object as verified): hashing
  the block now gives the CID it is stored or served under;
* the **chain** (:meth:`check_tx_identity`, called for every transaction of
  a block being sealed): hashing the transaction's fields now gives the
  ``tx_hash`` it was stored with when it was built.

Every hook is strictly read-only — it inspects public state and raises
:class:`SanitizerViolation` on the first broken invariant.  A sanitized run
is therefore **bit-identical** to an unsanitized one, which the test suite
pins for all five federation modes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.simnet.reference import ReferenceLinkScheduler

#: the fabric totals :meth:`SimulationSanitizer.observe_fabric` watermarks, in order.
FABRIC_TOTALS = (
    "scheduler.total_wire_time",
    "scheduler.total_queued_time",
    "network.wan_bytes",
    "len(scheduler.log)",
    "len(network.transfer_log)",
    "len(network.decision_log)",
    "len(chain.log)",
)


class SanitizerViolation(AssertionError):
    """A simulation invariant was broken.

    Subclasses :class:`AssertionError` deliberately: a violation means the
    engine itself is wrong, not that the experiment was misconfigured.
    """


def _same_value(a: Any, b: Any) -> bool:
    """Equality under which NaN equals NaN: a poisoned model may have no
    finite loss or distance, and that repeats exactly too."""
    return a == b or (a != a and b != b)


def _same_tensor(a: Any, b: Any) -> bool:
    """Equal dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class SimulationSanitizer:
    """Read-only invariant checks over a running simulation.

    One instance serves one experiment run.  The hooks never mutate the
    objects they inspect and never consume randomness, so attaching a
    sanitizer cannot perturb the simulated timeline.
    """

    def __init__(self) -> None:
        #: checks performed, by hook name — the CLI prints this after a
        #: ``--sanitize`` run as evidence the sanitizer actually engaged.
        self.checks: Dict[str, int] = {
            "event": 0, "reservation": 0, "fabric": 0, "evaluation": 0,
            "evaluation_plan": 0, "evaluation_cid": 0, "round_scores": 0,
            "decoded_model": 0, "shared_training": 0, "block_verification": 0,
            "placement_window": 0, "tx_identity": 0,
        }
        self._fabric_watermarks: Dict[int, Tuple[float, float, int, int, int, int, int]] = {}

    # ------------------------------------------------------------------ kernel
    def check_event(self, now: float, event_time: float) -> None:
        """Assert the next event does not commit in the simulated past."""
        self.checks["event"] += 1
        if event_time < now:
            raise SanitizerViolation(
                f"event scheduled at t={event_time!r} popped with the clock "
                f"already at t={now!r}: the kernel would commit an event in "
                "the simulated past"
            )

    # --------------------------------------------------------------- scheduler
    def check_reservation(self, scheduler: Any, scheduled: Any) -> None:
        """Assert a just-committed transfer respects the scheduler's contract.

        Called from ``LinkScheduler._commit`` *after* the reservation landed,
        so the capacity sweep sees the new interval in the busy lists.
        """
        self.checks["reservation"] += 1
        if scheduled.started_at < scheduled.requested_at:
            raise SanitizerViolation(
                f"transfer {scheduled.source}->{scheduled.destination} started "
                f"at t={scheduled.started_at!r}, before it was requested at "
                f"t={scheduled.requested_at!r}"
            )
        if scheduled.finished_at < scheduled.started_at:
            raise SanitizerViolation(
                f"transfer {scheduled.source}->{scheduled.destination} has "
                f"negative wire time: started t={scheduled.started_at!r}, "
                f"finished t={scheduled.finished_at!r}"
            )
        endpoints = (
            (scheduled.source,)
            if scheduled.source == scheduled.destination
            else (scheduled.source, scheduled.destination)
        )
        for endpoint in endpoints:
            self._check_capacity(scheduler, endpoint, scheduled)
        windows = scheduler.path_fault_windows(scheduled.source, scheduled.destination)
        for start, end in windows:
            if start <= scheduled.started_at < end:
                raise SanitizerViolation(
                    f"transfer {scheduled.source}->{scheduled.destination} "
                    f"starts at t={scheduled.started_at!r}, inside the blocked "
                    f"fault window [{start!r}, {end!r})"
                )

    def _check_capacity(self, scheduler: Any, endpoint: str, scheduled: Any) -> None:
        """Sweep the intervals overlapping the new one for a capacity breach.

        Reservations occupy half-open ``[start, end)`` intervals; at no
        instant may more than ``capacity(endpoint)`` of them overlap.  Only
        the intervals that intersect the new reservation can witness a
        breach it caused, so the sweep is local.
        """
        capacity = scheduler.capacity(endpoint)
        lo, hi = scheduled.started_at, scheduled.finished_at
        if hi <= lo:
            return  # zero-width reservations cannot raise concurrency
        boundaries: List[Tuple[float, int]] = []
        for start, end in scheduler.busy_intervals(endpoint):
            if end > lo and start < hi:  # overlaps the new interval
                boundaries.append((max(start, lo), 1))
                boundaries.append((min(end, hi), -1))
        boundaries.sort()
        concurrency = 0
        for time, delta in boundaries:
            concurrency += delta
            if concurrency > capacity:
                raise SanitizerViolation(
                    f"endpoint '{endpoint}' holds {concurrency} overlapping "
                    f"reservations at t={time!r}, above its declared "
                    f"capacity {capacity}"
                )

    def check_placement_window(
        self,
        scheduler: Any,
        endpoints: Sequence[str],
        at: float,
        duration: float,
        fault_windows: Optional[List[Tuple[float, float]]],
        start: float,
    ) -> None:
        """Assert a placement swept from ``at`` on starts where the full sweep does.

        Called from ``LinkScheduler._earliest_start`` with the start it is
        about to return.  Only placements touching a capacity > 1 endpoint
        are checked: a serial endpoint blocks on its raw reservations, which
        have no window.
        """
        windowed = [
            endpoint
            for endpoint in endpoints
            if 1 < scheduler.capacity(endpoint) < float("inf")
        ]
        if not windowed:
            return
        self.checks["placement_window"] += 1
        blocked = [
            ReferenceLinkScheduler._saturated_intervals(scheduler, endpoint, at)
            for endpoint in endpoints
        ]
        if fault_windows is not None:
            blocked.append(fault_windows)
        expected = scheduler._first_fit(blocked, at, duration)
        if expected != start:
            raise SanitizerViolation(
                f"placement on endpoint '{', '.join(windowed)}' requested at "
                f"t={at!r} starts at t={start!r} with the sweep begun at the "
                f"request, but at t={expected!r} with the full saturation sweep"
            )

    # ------------------------------------------------------------------ fabric
    def observe_fabric(self, fabric: Any) -> None:
        """Assert the fabric's running totals only ever grow.

        WAN bytes are a sum over the network actor's transfer log: each call
        folds only the records appended since the last one, so checking a
        run stays linear in its transfers.  The logs' lengths are totals
        too — an append-only log never shrinks.
        """
        self.checks["fabric"] += 1
        network = fabric.network
        scheduler = network.scheduler
        key = id(fabric)
        previous = self._fabric_watermarks.get(key)
        wan_bytes, folded = (0, 0) if previous is None else (previous[2], previous[4])
        current = (
            scheduler.total_wire_time,
            scheduler.total_queued_time,
            wan_bytes + sum(record.wan_bytes for record in network.transfer_log[folded:]),
            len(scheduler.log),
            len(network.transfer_log),
            len(network.decision_log),
            len(fabric.chain.log),
        )
        if previous is not None:
            for label, before, after in zip(FABRIC_TOTALS, previous, current):
                if after < before:
                    raise SanitizerViolation(
                        f"fabric total {label} moved backwards: "
                        f"{before!r} -> {after!r}"
                    )
        self._fabric_watermarks[key] = current

    # --------------------------------------------------------------- evaluator
    def check_evaluation(
        self,
        fingerprint: str,
        dataset: str,
        stored: Sequence[float],
        recomputed: Sequence[float],
    ) -> None:
        """Assert a memoised evaluation equals the direct computation.

        Called by the evaluator on every memo hit with the tuple it is about
        to return and the one it just recomputed for the same weights and
        dataset (NaN equals NaN here: a poisoned model may have no finite
        loss, and that repeats too).
        """
        self.checks["evaluation"] += 1
        if not all(_same_value(a, b) for a, b in zip(stored, recomputed)):
            raise SanitizerViolation(
                f"memoised evaluation of weights {fingerprint} on dataset "
                f"'{dataset}' is {tuple(stored)!r}, but evaluating them now "
                f"gives {tuple(recomputed)!r}"
            )

    def check_evaluation_plan(
        self,
        fingerprint: str,
        dataset: str,
        planned: Sequence[float],
        plan_free: Sequence[float],
    ) -> None:
        """Assert an evaluation computed from a held plan equals a plan-free
        ``Model.evaluate`` of the same weights on the same dataset."""
        self.checks["evaluation_plan"] += 1
        if not all(_same_value(a, b) for a, b in zip(planned, plan_free)):
            raise SanitizerViolation(
                f"evaluating weights {fingerprint} on dataset '{dataset}' from "
                f"its held plan gives {tuple(planned)!r}, but without the plan "
                f"{tuple(plan_free)!r}"
            )

    def check_evaluation_cid(self, cid: str, stored: str, fingerprint: str) -> None:
        """Assert a CID the evaluator knows stands for one fingerprint: the
        one it was first seen with is what the weights now under it hash to."""
        self.checks["evaluation_cid"] += 1
        if fingerprint != stored:
            raise SanitizerViolation(
                f"CID {cid} names weights {stored} in the evaluator, but the "
                f"weights evaluated under it now fingerprint to {fingerprint}"
            )

    # ------------------------------------------------------------ round scorer
    def check_round_scores(
        self,
        cids: Sequence[str],
        stored: Dict[str, float],
        recomputed: Dict[str, float],
    ) -> None:
        """Assert a memoised round analysis equals the direct computation.

        Called by a full-round scorer on every memo hit with the per-CID
        scores it is about to read from and the ones ``score_round`` just
        returned for the same round.
        """
        self.checks["round_scores"] += 1
        moved = [
            cid
            for cid in sorted({*stored, *recomputed})
            if not _same_value(stored.get(cid), recomputed.get(cid))
        ]
        if moved:
            raise SanitizerViolation(
                f"memoised scores of the {len(cids)}-model round differ from "
                f"score_round's for {', '.join(moved)}: stored "
                f"{[stored.get(cid) for cid in moved]!r}, recomputed "
                f"{[recomputed.get(cid) for cid in moved]!r}"
            )

    # ----------------------------------------------------------- decoded models
    def check_decoded_model(self, cid: str, stored: Sequence[Any], decoded: Sequence[Any]) -> None:
        """Assert the shared decoded model of ``cid`` equals a fresh decode.

        Called by the decoded-model table on every hit with the tensors it
        is about to hand out and the ones just decoded from the payload the
        caller fetched under the same CID.
        """
        self.checks["decoded_model"] += 1
        if len(stored) != len(decoded):
            raise SanitizerViolation(
                f"shared decoded model {cid} holds {len(stored)} tensors, its "
                f"payload decodes to {len(decoded)}"
            )
        for index, (held, fresh) in enumerate(zip(stored, decoded)):
            if not _same_tensor(held, fresh):
                raise SanitizerViolation(
                    f"shared decoded model {cid}: tensor {index} "
                    f"({held.dtype}, shape {held.shape}) no longer equals what its "
                    f"payload decodes to ({fresh.dtype}, shape {fresh.shape})"
                )

    # ----------------------------------------------------------- local training
    def check_shared_training(self, reported: Any, replayed: Any) -> None:
        """Assert a fit on the run's shared network equals its private replay.

        Called by an aggregator after every ``Client.fit`` with the
        ``FitResult`` the client reported and the one its
        :meth:`~repro.fl.client.Client.private_twin` — same partition, copies
        of the generator, optimizer and DP mechanism taken before the fit —
        produced from the same global weights on a fresh clone of the model
        template.  A network that carries anything from one fit to the next
        shows up here as differing bytes.
        """
        self.checks["shared_training"] += 1
        moved = [
            name
            for name in sorted({*reported.metrics, *replayed.metrics})
            if not _same_value(reported.metrics.get(name), replayed.metrics.get(name))
        ]
        if len(reported.weights) != len(replayed.weights) or not all(
            map(_same_tensor, reported.weights, replayed.weights)
        ):
            moved.insert(0, "weights")
        if moved:
            raise SanitizerViolation(
                f"client {reported.client_id} trained on the run's shared "
                f"network reports {', '.join(moved)} differing from the same "
                "fit replayed on a private clone of the model template: the "
                "network carried state over from an earlier fit"
            )

    # ------------------------------------------------------------ block storage
    def check_block_verification(self, node: str, cid: Any, recomputed: Any) -> None:
        """Assert a block accepted by identity still hashes to its CID.

        Called by the swarm's verified-block table on every acceptance
        without a hash, with the holder of the block, the CID it is stored
        or served under and the CID its bytes hash to now.
        """
        self.checks["block_verification"] += 1
        if recomputed != cid:
            raise SanitizerViolation(
                f"node '{node}' accepted a block as the verified content of "
                f"{cid}, but its bytes hash to {recomputed}: the table entry "
                "does not belong to that object"
            )

    # ------------------------------------------------------------------- chain
    def check_tx_identity(self, stored: str, recomputed: str) -> None:
        """Assert a transaction still hashes to the ``tx_hash`` it was built with.

        Called by the chain for every transaction of a block it seals, with
        the hash stored at construction and the one its fields hash to now.
        """
        self.checks["tx_identity"] += 1
        if recomputed != stored:
            raise SanitizerViolation(
                f"transaction {stored} now hashes to {recomputed}: its fields "
                "changed after the hash was taken, so its receipt and the "
                "block's transactions root name a different transaction"
            )

    # --------------------------------------------------------------- reporting
    def report(self) -> Dict[str, int]:
        """Checks performed per hook — all zeros means nothing was attached."""
        return dict(self.checks)

    @property
    def total_checks(self) -> int:
        return sum(self.checks[name] for name in sorted(self.checks))
