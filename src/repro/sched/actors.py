"""Network and chain actors: middle-tier I/O as first-class event streams.

Every model transfer and every contract call of a run is an event on one
:class:`CommFabric`.  Pricing them as per-interaction constants instead
hides effects the middleware literature insists the middle tier must expose:

* **Link contention** — several clusters pushing or pulling model weights
  through the shared storage fabric queue behind each other.  The
  :class:`NetworkActor` schedules each upload/download on a
  :class:`~repro.simnet.network.LinkScheduler`, so a transfer's cost depends
  on what else is in flight, not only on its size.  With a
  :class:`~repro.simnet.network.Topology` the fabric is a set of storage
  *replicas* with parallel capacity and WAN links between sites, and the
  actor picks a replica per transfer (cluster affinity or deterministic
  least-loaded).
* **Replication is not free** — an upload lands on exactly one replica;
  every other site only holds the artifact once a real origin→replica WAN
  transfer has delivered it.  The actor keeps a
  :class:`~repro.simnet.replication.ReplicaDirectory` (when each object
  arrives where) and schedules the propagation itself, under one of three
  policies (``replication_mode``): **eager** pushes to every peer right
  after the upload commits, **lazy** fetches on demand when a download
  misses (the downloader waits behind the fetch), and **none** pins every
  download to the object's origin replica.  Downloads are read-your-writes
  gated: a download from replica *r* starts no earlier than the object's
  arrival at *r*.
* **Consensus latency** — a transaction is not final when it is sent; it is
  final when the next Clique block seals it.  The :class:`ChainActor`
  quantises every contract interaction to the block-interval grid and adds
  the consensus delay of :func:`repro.chain.clique.consensus_delay`.

Both actors keep append-only logs — the network actor one of transfers and
one of resilience decisions — and the traffic and resilience totals a run
reports (``CommFabric.summary``) are sums over them, so a run can report
*per-phase* communication and chain time instead of folding everything into
one opaque number.

Constant-cost runs (``event_streams=False``: the paper's Table 5/6 numbers,
the contention-free baselines) ride the *same* actors in the degenerate
configuration :meth:`CommFabric.constant_cost` builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.chain.clique import TX_VALIDATION_COST_S as TX_COST_S
from repro.sched import metrics
from repro.simnet.faults import CircuitBreaker, FaultPlan, ResiliencePolicy
from repro.simnet.network import ScheduledTransfer, Topology
from repro.simnet.replication import REPLICATION_MODES, ReplicaDirectory

#: endpoint name of the storage swarm in the single-replica (default) layout.
STORAGE_ENDPOINT = "storage"

#: replica-selection policies understood by :class:`NetworkActor`.
REPLICA_SELECTIONS = ("affinity", "least-loaded")


@dataclass(frozen=True, slots=True)
class ChainOp:
    """One contract interaction placed on the chain's block timeline.

    Attributes:
        kind: what the interaction was (``"submitModel"``, ``"submitScore"``,
            ``"closeSemiRound"``, ...), used for per-phase reporting.
        endpoint: name of the actor that issued the transactions.
        num_transactions: how many transactions the interaction bundles.
        submitted_at: simulated time the transactions entered the pool.
        sealed_at: simulated time the block carrying them became final
            (block-interval boundary plus consensus delay).
        block_index: index of the sealing block on the interval grid; two
            interactions with the same index share a block.
    """

    kind: str
    endpoint: str
    num_transactions: int
    submitted_at: float
    sealed_at: float
    block_index: int

    @property
    def delay(self) -> float:
        """Seconds the caller waited from submission to finality."""
        return self.sealed_at - self.submitted_at


class TransferRecord(NamedTuple):
    """One transfer committed through a :class:`NetworkActor`.

    Attributes:
        transfer: the reservation the link scheduler placed.
        phase: its reporting label (``"upload"``, ``"download"``,
            ``"replication"`` or ``"exchange"``).
        wan_bytes: the bytes it moved across a WAN hop — its size when its
            two endpoints live at different topology sites, else 0.  Resolved
            at commit time, so a later ``attach_cluster`` cannot re-label it.
    """

    transfer: ScheduledTransfer
    phase: str
    wan_bytes: int


@dataclass(frozen=True, slots=True)
class ResilienceDecision:
    """One decision of the resilience layer that moved a counter or a start.

    Attributes:
        kind: ``"retry"`` (a failed probe, backed off and retried),
            ``"trip"`` (the replica's breaker opened), ``"fast_fail"`` (the
            breaker rejected the attempt: already open, or just tripped),
            ``"failover"`` (the transfer moved to ``target``) or
            ``"degraded"`` (nowhere to fail over: the transfer waits for the
            replica's scheduled recovery).
        at: simulated time of the decision (a retry's is before its wait).
        endpoint: the endpoint whose transfer was being placed.
        replica: the replica the decision is about — the one probed,
            tripped, rejected, left or waited for.
        attempt: a retry's number, from 1 (0 for other kinds).
        attempts: the retry budget ``retry_max`` it counts against.
        seconds: a retry's backoff wait, a trip's guaranteed-open cooldown
            or a degraded wait's length until recovery (0 otherwise).
        target: a failover's new replica (``None`` for other kinds).
    """

    kind: str
    at: float
    endpoint: str
    replica: str
    attempt: int = 0
    attempts: int = 0
    seconds: float = 0.0
    target: Optional[str] = None


class NetworkActor:
    """Schedules model-weight transfers as contended link events.

    The actor owns a :class:`~repro.simnet.network.LinkScheduler` and the
    notion of *where models live*: a :class:`~repro.simnet.network.Topology`
    of storage **replicas**, each with its own parallel capacity, one of
    which the actor picks per transfer.  The default layout is the topology
    with the single replica :data:`STORAGE_ENDPOINT`.  Transfers that
    saturate an endpoint contend — exactly the queueing the constant-cost
    model could not express.

    Args:
        topology: the storage layout; supplies the links, the replica
            capacities and each cluster's home replica.
        model_bytes: serialized size of one full-scale model; every transfer
            moves a whole number of models.
        selection: replica-selection policy — ``"affinity"`` always uses a
            cluster's home replica, ``"least-loaded"`` deterministically
            picks the replica with the smallest *estimated completion time*
            (outstanding backlog per capacity slot plus the composed path
            wire time, so an empty-but-remote replica never beats a home
            replica that is strictly faster end to end; declaration order
            breaks ties).
        replication_mode: how uploaded artifacts reach the other replicas —
            ``"eager"`` (origin pushes to every peer right after the upload
            commits), ``"lazy"`` (a download miss triggers an on-demand
            origin→replica fetch the downloader waits behind) or ``"none"``
            (downloads are pinned to the origin replica).  Irrelevant with a
            single replica, where all three modes are bit-identical.
        faults: a :class:`~repro.simnet.faults.FaultPlan` whose replica
            outage and WAN partition windows are injected into the link
            scheduler at construction; at request time the actor additionally
            fails fast on faulted paths and applies the resilience layer.
            ``None`` (or a zero plan) leaves every code path bit-identical
            to the fault-free actor.
        resilience: retry/backoff + circuit-breaker knobs
            (:class:`~repro.simnet.faults.ResiliencePolicy`); only consulted
            when a live fault plan is present.  ``retry_max = 0`` disables
            the layer even under faults — transfers then wait out outages on
            the link schedule (the degraded baseline).
        resilience_seed: seeds the deterministic backoff-jitter stream.
        unbounded: infinite capacity on every endpoint — same links, replica
            choice and replication traffic, but no transfer waits for another.
    """

    def __init__(
        self,
        topology: Topology,
        model_bytes: int = 1,
        selection: str = "affinity",
        replication_mode: str = "eager",
        faults: Optional[FaultPlan] = None,
        resilience: Optional[ResiliencePolicy] = None,
        resilience_seed: int = 0,
        unbounded: bool = False,
    ):
        if model_bytes <= 0:
            raise ValueError("model_bytes must be positive")
        if selection not in REPLICA_SELECTIONS:
            raise ValueError(f"selection must be one of {REPLICA_SELECTIONS}")
        if replication_mode not in REPLICATION_MODES:
            raise ValueError(f"replication_mode must be one of {REPLICATION_MODES}")
        self.topology = topology
        self.scheduler = topology.build_scheduler(unbounded=unbounded)
        self.replicas: List[str] = topology.replicas
        self.selection = selection
        self.replication_mode = replication_mode
        self.model_bytes = int(model_bytes)
        #: per-object availability ledger; only populated in multi-replica
        #: layouts for transfers that carry object ids.
        self.directory = ReplicaDirectory()
        #: append-only log of the transfers committed *through this actor*.
        #: Owned here rather than zipped against ``scheduler.log`` so direct
        #: commits on the public scheduler cannot shift the labelling.
        self.transfer_log: List[TransferRecord] = []
        #: append-only log of the resilience layer's decisions (empty on the
        #: happy path); every resilience total is a sum over it.
        self.decision_log: List[ResilienceDecision] = []
        #: live fault plan (``None`` when the plan is zero — one check
        #: guards every fault branch, keeping the happy path untouched).
        self.faults = faults if faults is not None and not faults.is_zero else None
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._jitter_rng = None
        if self.faults is not None:
            self._jitter_rng = np.random.default_rng([int(resilience_seed), 0xBF])
            self._install_fault_windows()

    def _install_fault_windows(self) -> None:
        """Inject the plan's outage/partition windows into the link scheduler.

        Replica downtime blocks every transfer touching the replica; sites
        are registered so each cluster endpoint resolves to its home replica
        for partition lookups, and each partitioned site pair's windows
        block cross-site placements.  Done once at construction, before any
        traffic is scheduled.
        """
        assert self.faults is not None
        for replica in self.replicas:
            windows = self.faults.replica_windows(replica)
            if windows:
                self.scheduler.set_outages(replica, windows)
        for cluster in self.topology.clusters:
            self.scheduler.set_site(cluster, self.topology.home_replica(cluster))
        for i, site_a in enumerate(self.replicas):
            for site_b in self.replicas[i + 1 :]:
                windows = self.faults.partition_windows(site_a, site_b)
                if windows:
                    self.scheduler.set_partition(site_a, site_b, windows)

    def attach_cluster(self, name: str, replica: str, link=None) -> None:
        """Register a cluster endpoint: the one way a cluster joins the fabric.

        Called as each cluster materialises — up front for a dense
        federation, mid-run for a sampled one: the cluster is added to the
        topology, its composed cluster↔replica links are installed on the
        live scheduler's network (the topology's resolver only covers
        schedulers built *after* ``add_cluster``), and — when a fault plan is
        active — its site registered so partition lookups resolve.
        """
        self.topology.add_cluster(name, replica, link=link)
        for peer in self.replicas:
            self.scheduler.network.set_link(name, peer, self.topology.path_link(name, peer))
        if self.faults is not None:
            self.scheduler.set_site(name, replica)

    # ------------------------------------------------------------- resilience
    def _breaker(self, replica: str) -> CircuitBreaker:
        """The lazily-created circuit breaker guarding one replica."""
        breaker = self._breakers.get(replica)
        if breaker is None:
            breaker = CircuitBreaker(
                self.resilience.breaker_threshold, self.resilience.breaker_cooldown_s
            )
            self._breakers[replica] = breaker
        return breaker

    def _path_ok(self, endpoint: str, replica: str, at: float) -> bool:
        """Is ``replica`` reachable from ``endpoint`` at time ``at``?

        False while the replica is inside an outage window or the WAN
        between the endpoint's site and the replica's site is partitioned.
        """
        assert self.faults is not None
        if self.faults.replica_down(replica, at):
            return False
        site = self._endpoint_site(endpoint)
        if site is not None and site != replica and self.faults.partitioned(site, replica, at):
            return False
        return True

    def _failover_replica(
        self,
        endpoint: str,
        at: float,
        object_id: Optional[str],
        phase: str,
        exclude: str,
    ) -> Optional[str]:
        """Next-best reachable replica under the least-loaded completion ranking.

        Candidates must be up, unpartitioned from the caller's site and have
        a breaker willing to admit traffic; among those the deterministic
        least-loaded estimate (backlog per capacity slot + path wire time,
        availability lag for ledger-known downloads, declaration order as
        the tie-break) picks the winner.  ``None`` when no replica
        qualifies — or when the download is pinned to its origin
        (``replication_mode="none"``), where serving a copy that never
        propagated would violate the ledger.
        """
        if len(self.replicas) == 1:
            return None
        downloading = phase == "download" and self.directory.known(object_id)
        if downloading and self.replication_mode == "none":
            return None
        return self._least_loaded(
            endpoint,
            at,
            object_id if downloading else None,
            lambda replica: replica != exclude
            and self._path_ok(endpoint, replica, at)
            and self._breaker(replica).would_allow(at),
        )

    def _least_loaded(
        self, endpoint: str, at: float, gated_object: Optional[str], admit=None
    ) -> Optional[str]:
        """The admitted replica with the smallest estimated completion time.

        Cost is the backlog per capacity slot (zero when unbounded: there is
        no queue to stand in) plus the path wire time, plus — downloading
        ``gated_object`` — the wait until it is available there; declaration
        order breaks ties.  ``admit`` filters candidates (``None``: all).
        """
        best: Optional[Tuple[float, int]] = None
        chosen: Optional[str] = None
        for index, replica in enumerate(self.replicas):
            if admit is not None and not admit(replica):
                continue
            backlog = self.scheduler.outstanding_backlog(replica, at)
            wire = self.scheduler.network.transfer_time(endpoint, replica, self.model_bytes)
            cost = backlog / self.scheduler.capacity(replica) + wire
            if gated_object is not None:
                cost += self._availability_lag(gated_object, replica, at)
            key = (cost, index)
            if best is None or key < best:
                best = key
                chosen = replica
        return chosen

    def _resolve_replica(
        self, endpoint: str, at: float, object_id: Optional[str], phase: str
    ) -> Tuple[str, float]:
        """Pick the replica a transfer will actually use, resiliently.

        Returns ``(replica, earliest_start)``.  Without a live fault plan
        (or with ``retry_max = 0``) this is exactly :meth:`select_replica`
        at ``at`` — bit-identical to the pre-fault actor.  Otherwise the
        primary choice is probed through its circuit breaker: a faulted
        path burns retries with exponential backoff + deterministic jitter
        (each wait surfaces as queued time on the eventual transfer), a
        tripped or already-open breaker fails fast, and exhaustion falls
        over to the next-best reachable replica.  When *no* replica is
        reachable the caller degrades gracefully: the transfer targets the
        primary no earlier than its scheduled recovery.  Each of these
        decisions is appended to :attr:`decision_log`; a successful probe
        decides nothing and is not logged.
        """
        replica = self.select_replica(endpoint, at, object_id, phase=phase)
        faults = self.faults
        if faults is None:
            return replica, at
        policy = self.resilience
        if policy.retry_max == 0:
            # Resilience off: the link schedule's outage windows still hold,
            # so the transfer simply waits out the fault where it is.
            return replica, at
        breaker = self._breaker(replica)
        cursor = at
        if breaker.allow(cursor):
            if self._path_ok(endpoint, replica, cursor):
                breaker.record_success(cursor)
                return replica, cursor
            for attempt in range(policy.retry_max):
                if breaker.record_failure(cursor):
                    self._decide("trip", cursor, endpoint, replica, seconds=breaker.cooldown_s)
                    self._decide("fast_fail", cursor, endpoint, replica)
                    break
                assert self._jitter_rng is not None
                wait = policy.backoff(attempt, float(self._jitter_rng.random()))
                self._decide(
                    "retry", cursor, endpoint, replica,
                    attempt=attempt + 1, attempts=policy.retry_max, seconds=wait,
                )
                cursor += wait
                if self._path_ok(endpoint, replica, cursor):
                    breaker.record_success(cursor)
                    return replica, cursor
        else:
            self._decide("fast_fail", cursor, endpoint, replica)
        alternate = self._failover_replica(endpoint, cursor, object_id, phase, exclude=replica)
        if alternate is not None:
            self._decide("failover", cursor, endpoint, replica, target=alternate)
            return alternate, cursor
        start = max(cursor, faults.recovery_time(replica, cursor))
        self._decide("degraded", cursor, endpoint, replica, seconds=start - cursor)
        return replica, start

    def _decide(self, kind: str, at: float, endpoint: str, replica: str, **fields) -> None:
        """Append one resilience decision to the log."""
        self.decision_log.append(ResilienceDecision(kind, at, endpoint, replica, **fields))

    # -------------------------------------------------------- replica selection
    def select_replica(
        self,
        endpoint: str,
        at: float,
        object_id: Optional[str] = None,
        phase: str = "upload",
    ) -> str:
        """The replica a transfer from ``endpoint`` requested ``at`` would use.

        Pure and deterministic: reads only committed reservations and the
        availability ledger, so an estimate and the commit that follows it
        pick the same replica.  Downloads of a ledger-known object respect
        availability: with ``replication_mode="none"`` they are pinned to the
        object's origin, and least-loaded ranking charges each candidate the
        wait until the object's arrival there (plus, in lazy mode, the
        on-demand fetch a miss would cost).
        """
        if len(self.replicas) == 1:
            return self.replicas[0]
        downloading = phase == "download" and self.directory.known(object_id)
        if downloading and self.replication_mode == "none":
            origin = self.directory.origin(object_id)
            assert origin is not None
            return origin
        if self.selection == "affinity":
            return self.topology.home_replica(endpoint)
        chosen = self._least_loaded(endpoint, at, object_id if downloading else None)
        assert chosen is not None
        return chosen

    def _endpoint_site(self, endpoint: str) -> Optional[str]:
        """The topology site an endpoint lives at (``None``: it never attached)."""
        if endpoint in self.topology.replicas:
            return endpoint
        try:
            return self.topology.home_replica(endpoint)
        except KeyError:
            return None

    def _record(self, scheduled: ScheduledTransfer, phase: str) -> None:
        """Log one committed transfer with its WAN crossing, if any."""
        source_site = self._endpoint_site(scheduled.source)
        destination_site = self._endpoint_site(scheduled.destination)
        crosses = None not in (source_site, destination_site) and source_site != destination_site
        wan_bytes = scheduled.num_bytes if crosses else 0
        self.transfer_log.append(TransferRecord(scheduled, phase, wan_bytes))

    def _availability_lag(self, object_id: str, replica: str, at: float) -> float:
        """Extra seconds before ``object_id`` could leave ``replica`` (closed form).

        Zero once the object has arrived; the wait until its scheduled
        arrival otherwise; and for a replica with no arrival scheduled, the
        wire time of the on-demand origin→replica fetch a lazy miss would
        commit (on top of waiting out the origin's own arrival).
        """
        arrival = self.directory.arrival(object_id, replica)
        if arrival is not None:
            return max(0.0, arrival - at)
        origin = self.directory.origin(object_id)
        assert origin is not None
        origin_arrival = self.directory.arrival(object_id, origin) or 0.0
        fetch = self.scheduler.network.transfer_time(origin, replica, self.model_bytes)
        return max(0.0, origin_arrival - at) + fetch

    # ------------------------------------------------------------------ streams
    def upload(
        self,
        endpoint: str,
        num_models: int,
        at: float,
        object_ids: Optional[Sequence[str]] = None,
    ) -> float:
        """Move ``num_models`` models from ``endpoint`` into storage.

        Models are transferred one after another (each is a separate event on
        the link), so other clusters' transfers can interleave between them.
        When ``object_ids`` names the artifacts (one id per model), each
        upload is recorded in the availability ledger and — in eager mode —
        immediately followed by background origin→peer propagation transfers
        on the shared schedule.  Returns the total elapsed seconds the caller
        experienced (propagation runs off the caller's critical path and is
        *not* included).
        """
        if num_models <= 0:
            return 0.0
        cursor = at
        for object_id in self._object_sequence(object_ids, num_models):
            replica, ready = self._resolve_replica(endpoint, cursor, object_id, phase="upload")
            scheduled = self.scheduler.transfer(
                endpoint, replica, self.model_bytes, cursor, earliest_start=ready
            )
            self._record(scheduled, "upload")
            cursor = scheduled.finished_at
            if object_id is not None and len(self.replicas) > 1:
                self.directory.record_upload(object_id, replica, cursor)
                if self.replication_mode == "eager":
                    self._propagate(object_id, replica, cursor)
        return cursor - at

    def download(
        self,
        endpoint: str,
        num_models: int,
        at: float,
        object_ids: Optional[Sequence[str]] = None,
        phase: str = "download",
    ) -> float:
        """Move ``num_models`` models from storage to ``endpoint``.

        When ``object_ids`` names the artifacts, each download is
        read-your-writes gated: it starts no earlier than the object's
        arrival at the serving replica (the wait is accounted as queued
        time), and in lazy mode a miss first commits the on-demand
        origin→replica fetch the downloader then waits behind.  ``phase``
        relabels the event for reporting — gossip pulls ride the download
        machinery (same replica choice, same availability gate) but are
        accounted as "exchange" traffic.  Returns the total elapsed seconds
        the caller experienced.
        """
        if num_models <= 0:
            return 0.0
        cursor = at
        for object_id in self._object_sequence(object_ids, num_models):
            replica, ready = self._resolve_replica(endpoint, cursor, object_id, phase="download")
            available = self._ensure_available(object_id, replica, cursor, commit=True)
            scheduled = self.scheduler.transfer(
                replica, endpoint, self.model_bytes, cursor, earliest_start=max(ready, available)
            )
            self._record(scheduled, phase)
            cursor = scheduled.finished_at
        return cursor - at

    def exchange(self, source: str, destination: str, num_models: int, at: float) -> float:
        """Move ``num_models`` models directly between two cluster endpoints.

        The peer-to-peer primitive behind the hierarchical policy's
        intra-group shuttles: no storage replica is involved and nothing is
        ledgered — the transfer rides the cluster↔cluster link of the
        topology (same-site pairs compose their LAN hops, cross-site pairs
        additionally cross the WAN) and contends for both endpoints like any
        other traffic.  Returns the elapsed seconds the receiver experienced.
        """
        if num_models <= 0:
            return 0.0
        cursor = at
        for _ in range(num_models):
            scheduled = self.scheduler.transfer(source, destination, self.model_bytes, cursor)
            self._record(scheduled, "exchange")
            cursor = scheduled.finished_at
        return cursor - at

    @staticmethod
    def _object_sequence(
        object_ids: Optional[Sequence[str]], num_models: int
    ) -> List[Optional[str]]:
        """One object id per transferred model (all ``None`` when unnamed)."""
        if object_ids is None:
            return [None] * num_models
        if len(object_ids) != num_models:
            raise ValueError(
                f"object_ids must name every model: got {len(object_ids)} ids "
                f"for {num_models} models"
            )
        return list(object_ids)

    def _propagate(self, object_id: str, origin: str, at: float) -> None:
        """Eagerly push one freshly-uploaded object from its origin to every peer.

        Each push is a real WAN transfer on the shared schedule (it occupies
        a slot on both sites), committed in replica declaration order for
        determinism; the ledger records the object's arrival at each peer.
        """
        for replica in self.replicas:
            if replica == origin:
                continue
            scheduled = self.scheduler.transfer(origin, replica, self.model_bytes, at)
            self._record(scheduled, "replication")
            self.directory.record_arrival(object_id, replica, scheduled.finished_at)

    def _ensure_available(
        self, object_id: Optional[str], replica: str, at: float, commit: bool
    ) -> float:
        """Earliest time ``object_id`` can leave ``replica`` (read-your-writes).

        Unknown objects and single-replica layouts are pre-seeded (``at``
        unchanged — the legacy free-replication semantics).  A ledger miss at
        ``replica`` is resolved by an on-demand origin→replica fetch which is
        committed to the schedule when ``commit`` is true (the lazy path) and
        merely planned otherwise (pure estimates).
        """
        if len(self.replicas) == 1 or not self.directory.known(object_id):
            return at
        assert object_id is not None
        arrival = self.directory.arrival(object_id, replica)
        if arrival is not None:
            return max(at, arrival)
        origin = self.directory.origin(object_id)
        assert origin is not None
        origin_ready = max(at, self.directory.arrival(object_id, origin) or 0.0)
        if commit:
            fetch = self.scheduler.transfer(
                origin, replica, self.model_bytes, at, earliest_start=origin_ready
            )
            self._record(fetch, "replication")
            self.directory.record_arrival(object_id, replica, fetch.finished_at)
            return fetch.finished_at
        return self.scheduler.preview(
            origin, replica, self.model_bytes, at, earliest_start=origin_ready
        ).finished_at

    def estimate_upload(self, endpoint: str, at: float) -> float:
        """Elapsed seconds a one-model upload requested ``at`` would take.

        Pure: nothing is committed to the schedule.  Used by the sync policy's
        straggler decision (can this cluster still make the window?).
        """
        replica = self.select_replica(endpoint, at, phase="upload")
        return self.scheduler.estimate(endpoint, replica, self.model_bytes, at)

    def estimate_download(self, endpoint: str, at: float, object_id: Optional[str] = None) -> float:
        """Elapsed seconds a one-model download requested ``at`` would take.

        Pure, and exact: it mirrors the commit path — same replica choice,
        same availability gate, and in lazy mode the same on-demand fetch the
        download would wait behind (planned, not committed).
        """
        replica = self.select_replica(endpoint, at, object_id, phase="download")
        ready = self._ensure_available(object_id, replica, at, commit=False)
        plan = self.scheduler.preview(
            replica, endpoint, self.model_bytes, at, earliest_start=ready
        )
        return plan.finished_at - at

    def estimate_replication_lag(self, endpoint: str, at: float) -> float:
        """Worst-case extra seconds before a submission at ``at`` is fetchable everywhere.

        In lazy mode with several replicas, a model uploaded now only lives at
        its origin; the first remote consumer pays an on-demand origin→peer
        fetch.  The sync straggler decision charges that possible fetch to the
        submission estimate, so a cluster is not declared window-safe on the
        strength of a submission nobody can read in time.  Eager mode pushes
        in the background and ``none`` never propagates, so both (and any
        single-replica layout) cost nothing here.
        """
        if self.replication_mode != "lazy" or len(self.replicas) == 1:
            return 0.0
        origin = self.select_replica(endpoint, at, phase="upload")
        return max(
            self.scheduler.network.transfer_time(origin, peer, self.model_bytes)
            for peer in self.replicas
            if peer != origin
        )

    # ---------------------------------------------------------------- reporting
    def transfers(self, phase: Optional[str] = None) -> List[ScheduledTransfer]:
        """Transfers committed through this actor, optionally phase-filtered."""
        return [r.transfer for r in self.transfer_log if phase is None or r.phase == phase]

    def _totals(self, members, member_of) -> Dict[str, Dict[str, float]]:
        """``{member: {"time", "queued", "count"}}`` over the committed transfers.

        ``member_of(transfer, phase)`` names the member an event counts
        towards (anything else: nobody's).  Every member is always present
        (zeros when idle) so the exported schema is stable across runs, and
        each member's sums run in event order.
        """
        totals = {member: {"time": 0.0, "queued": 0.0, "count": 0.0} for member in members}
        for transfer, phase, _ in self.transfer_log:
            bucket = totals.get(member_of(transfer, phase))
            if bucket is not None:
                bucket["time"] += transfer.duration
                bucket["queued"] += transfer.queued_time
                bucket["count"] += 1.0
        return totals

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """Wire seconds, queued seconds and transfer count per phase.

        For downloads, ``queued`` includes availability gating — the
        read-your-writes wait for the object to arrive at the serving
        replica.
        """
        return self._totals(metrics.TRANSFER_PHASES, lambda transfer, phase: phase)

    def replica_totals(self) -> Dict[str, Dict[str, float]]:
        """The same totals per replica, over the transfers it *served*.

        Uploads into it, downloads and gossip pulls out of it; inter-replica
        propagation is :meth:`replication_totals`.
        """
        def served_by(transfer, phase):
            if phase != "replication":
                return transfer.destination if phase == "upload" else transfer.source

        return self._totals(self.replicas, served_by)

    def replication_totals(self) -> Dict[str, Dict[str, float]]:
        """Propagation totals per *receiving* replica (eager pushes + lazy fetches)."""
        return self._totals(
            self.replicas, lambda t, phase: t.destination if phase == "replication" else None
        )

    @property
    def wan_bytes(self) -> int:
        """Bytes the committed transfers moved across a WAN hop."""
        return sum(record.wan_bytes for record in self.transfer_log)

    def _decisions(self, kind: str) -> List[ResilienceDecision]:
        return [decision for decision in self.decision_log if decision.kind == kind]

    @property
    def retries(self) -> int:
        """Re-probes after a failed replica attempt."""
        return len(self._decisions("retry"))

    @property
    def backoff_wait_s(self) -> float:
        """Seconds spent in backoff waits, summed in decision order."""
        total = 0.0
        for retry in self._decisions("retry"):
            total += retry.seconds
        return total

    @property
    def failovers(self) -> int:
        """Transfers re-aimed at an alternate replica."""
        return len(self._decisions("failover"))

    @property
    def fast_fails(self) -> int:
        """Attempts a breaker rejected (already open, or tripped by the attempt)."""
        return len(self._decisions("fast_fail"))

    @property
    def breaker_trips(self) -> int:
        """Circuit-breaker trips over all replicas."""
        return len(self._decisions("trip"))

    @property
    def breaker_open_s(self) -> float:
        """Seconds breakers spent open (each trip's guaranteed cooldown window).

        Summed per replica in trip order, then over the replicas in name order.
        """
        open_s: Dict[str, float] = {}
        for trip in self._decisions("trip"):
            open_s[trip.replica] = open_s.get(trip.replica, 0.0) + trip.seconds
        return sum((open_s[replica] for replica in sorted(open_s)), 0.0)


class ChainActor:
    """Schedules contract interactions on the block-interval grid.

    Blocks seal at multiples of ``block_interval``; a transaction submitted
    at time *t* pays a per-transaction validation cost, rides the next
    boundary after it is ready, and becomes final ``consensus_delay`` seconds
    later (Clique seal verification + amortised out-of-turn wiggle).  Two
    interactions that are ready before the same boundary share a block — the
    chain-time quantisation a per-interaction constant flattens away.

    Args:
        block_interval: seconds between block boundaries (Clique ``period``).
        consensus_delay: extra seconds from boundary to finality; see
            :func:`repro.chain.clique.consensus_delay`.
        quantised: ``False`` takes the grid away — an interaction is final
            one ``block_interval`` after it is ready, i.e. costs exactly
            ``n * TX_COST_S + block_interval`` (``block_index`` then names
            the grid block it *would* have ridden).
    """

    def __init__(
        self, block_interval: float, consensus_delay: float = 0.0, quantised: bool = True
    ):
        if block_interval <= 0:
            raise ValueError("block_interval must be positive")
        if consensus_delay < 0:
            raise ValueError("consensus_delay must be non-negative")
        self.block_interval = float(block_interval)
        self.consensus_delay = float(consensus_delay)
        self.quantised = quantised
        #: append-only log of every committed interaction.
        self.log: List[ChainOp] = []
        #: blocks observed from the simulated chain via the emission hook
        #: (:meth:`repro.chain.blockchain.Blockchain.add_block_listener`).
        self.blocks_observed = 0
        self.transactions_observed = 0

    # ------------------------------------------------------------------ streams
    def _seal(self, at: float, num_transactions: int) -> tuple[float, int]:
        ready = at + max(0, num_transactions) * TX_COST_S
        # A transaction ready *exactly on* a boundary rides that boundary; only
        # strictly-later readiness waits for the next one.  (The old
        # ``floor + 1`` quantisation pushed the exact-boundary case a full
        # interval into the future.)  The genesis block is off the grid: a
        # transaction ready at exactly t=0 rides block 1, never "block 0"
        # (which would make it final after only the consensus delay, before
        # any block interval has elapsed).
        block_index = max(1, int(math.ceil(ready / self.block_interval)))
        if not self.quantised:
            return ready + self.block_interval + self.consensus_delay, block_index
        sealed = block_index * self.block_interval + self.consensus_delay
        return sealed, block_index

    def interact(self, kind: str, endpoint: str, at: float, num_transactions: int = 1) -> ChainOp:
        """Commit ``num_transactions`` transactions submitted at time ``at``.

        Returns the :class:`ChainOp` describing when they became final.
        """
        if at < 0:
            raise ValueError("submission time must be non-negative")
        sealed, block_index = self._seal(at, num_transactions)
        op = ChainOp(
            kind=kind,
            endpoint=endpoint,
            num_transactions=num_transactions,
            submitted_at=at,
            sealed_at=sealed,
            block_index=block_index,
        )
        self.log.append(op)
        return op

    def estimate(self, at: float, num_transactions: int = 1) -> float:
        """Finality delay of an interaction submitted ``at``, uncommitted."""
        sealed, _ = self._seal(at, num_transactions)
        return sealed - at

    def observe_block(self, block) -> None:
        """Block-listener callback: count blocks/transactions actually sealed."""
        self.blocks_observed += 1
        self.transactions_observed += len(getattr(block, "transactions", []))

    # ---------------------------------------------------------------- reporting
    def kind_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-kind ``{"wait": finality seconds, "count": n, "transactions": n}``."""
        totals: Dict[str, Dict[str, float]] = {}
        for op in self.log:
            bucket = totals.setdefault(op.kind, {"wait": 0.0, "count": 0.0, "transactions": 0.0})
            bucket["wait"] += op.delay
            bucket["count"] += 1.0
            bucket["transactions"] += float(op.num_transactions)
        return totals

    @property
    def blocks_spanned(self) -> int:
        """Distinct block indices the committed interactions rode."""
        return len({op.block_index for op in self.log})


class CommFabric:
    """The communication fabric: one facade over both event-stream actors.

    Every federation owns exactly one fabric; the aggregators charge their
    pull/store/chain costs through it and the round policies query it for
    submission estimates, so every byte moved and every transaction sealed
    shares a single timeline — contended by default, or the degenerate
    :meth:`constant_cost` configuration (the only one with
    ``free_phase_control``: :meth:`driver_op` costs and logs nothing).
    """

    def __init__(
        self,
        network_actor: NetworkActor,
        chain_actor: ChainActor,
        free_phase_control: bool = False,
    ):
        self.network = network_actor
        self.chain = chain_actor
        self.free_phase_control = free_phase_control
        #: optional :class:`~repro.analysis.sanitizer.SimulationSanitizer`;
        #: when set, the fabric's running totals are re-checked for
        #: monotonicity after every operation (read-only).
        self.sanitizer = None

    @classmethod
    def constant_cost(
        cls, model_bytes: int, block_period: float, topology: Optional[Topology] = None, **options
    ) -> "CommFabric":
        """The degenerate fabric: per-interaction constants, no contention.

        The one place the configuration is spelled out (``event_streams=False``
        runs and hand-assembled federations both come here) — three switches:
        (a) unbounded endpoint capacity: a transfer costs its wire time and
        never waits for another; (b) no block quantisation, no consensus
        delay: a chain interaction costs ``n * TX_COST_S + block_period``;
        (c) free driver phase control.  Everything else (``options`` are
        :class:`NetworkActor` keywords) behaves as on any fabric.  Without a
        ``topology`` storage is the single default endpoint; a cluster that
        never attaches is priced on the default LAN link.
        """
        if topology is None:
            topology = Topology().add_replica(STORAGE_ENDPOINT)
        options.update(topology=topology, model_bytes=model_bytes, unbounded=True)
        chain = ChainActor(block_period, quantised=False)
        return cls(NetworkActor(**options), chain, free_phase_control=True)

    def _observe(self) -> None:
        if self.sanitizer is not None:
            self.sanitizer.observe_fabric(self)

    # ------------------------------------------------------- aggregator-facing
    def upload(
        self,
        endpoint: str,
        num_models: int,
        at: float,
        object_ids: Optional[Sequence[str]] = None,
    ) -> float:
        """Elapsed seconds to push ``num_models`` models into storage.

        ``object_ids`` (one per model, e.g. the IPFS CIDs) feed the replica
        availability ledger so later downloads can be replication-gated.
        """
        elapsed = self.network.upload(endpoint, num_models, at, object_ids=object_ids)
        self._observe()
        return elapsed

    def download(
        self,
        endpoint: str,
        num_models: int,
        at: float,
        object_ids: Optional[Sequence[str]] = None,
    ) -> float:
        """Elapsed seconds to fetch ``num_models`` models from storage.

        With ``object_ids`` the fetches respect each object's availability:
        read-your-writes gating and, in lazy mode, on-demand fetches.
        """
        elapsed = self.network.download(endpoint, num_models, at, object_ids=object_ids)
        self._observe()
        return elapsed

    def exchange(self, source: str, destination: str, at: float, num_models: int = 1) -> float:
        """Elapsed seconds to shuttle models directly between two clusters.

        The hierarchical policy's intra-group traffic: members push their
        round's model to the site leader and the leader broadcasts the merged
        group model back, all on the cluster↔cluster links of the topology
        (LAN-priced within a site, WAN-crossing otherwise).
        """
        elapsed = self.network.exchange(source, destination, num_models, at)
        self._observe()
        return elapsed

    def gossip_pull(self, endpoint: str, at: float, object_id: str) -> float:
        """Elapsed seconds for one gossip exchange: pull a peer's model by CID.

        Rides the download machinery — same replica selection, same
        read-your-writes availability gate, same lazy on-demand fetch on a
        miss — but is accounted as "exchange" traffic so the per-exchange
        breakdown stays separable from ordinary aggregation pulls.
        """
        elapsed = self.network.download(endpoint, 1, at, object_ids=[object_id], phase="exchange")
        self._observe()
        return elapsed

    def chain_op(self, kind: str, endpoint: str, at: float, num_transactions: int = 1) -> float:
        """Elapsed seconds until ``num_transactions`` submitted ``at`` are final."""
        if num_transactions <= 0:
            return 0.0
        delay = self.chain.interact(kind, endpoint, at, num_transactions).delay
        self._observe()
        return delay

    # ----------------------------------------------------------- policy-facing
    def driver_op(self, kind: str, at: float, num_transactions: int = 1) -> float:
        """Elapsed seconds until a driver phase-control transaction
        (``startTraining`` / ``startScoring`` / ``endRound`` /
        ``closeSemiRound``) is final; zero and unlogged when phase control is free."""
        if self.free_phase_control:
            return 0.0
        return self.chain_op(kind, "driver", at=at, num_transactions=num_transactions)

    def estimate_submission(self, endpoint: str, at: float) -> float:
        """Predicted cost of a full model submission (upload + finality).

        Pure — used by :class:`~repro.sched.policies.SyncRoundPolicy` to
        decide whether a cluster can still make the training window.  In
        lazy replication mode the estimate also charges the possible
        on-demand origin→peer fetch a remote consumer would wait behind
        (:meth:`NetworkActor.estimate_replication_lag`): a submission only
        its origin site can read in time has not really made the window.
        """
        upload = self.network.estimate_upload(endpoint, at)
        finality = self.chain.estimate(at + upload, 1)
        return upload + finality + self.network.estimate_replication_lag(endpoint, at + upload)

    # ---------------------------------------------------------------- reporting
    def summary(self) -> Dict[str, float]:
        """Flat communication/chain accounting for result documents.

        One stable, JSON-friendly key per entry of
        :data:`repro.sched.metrics.METRICS` (the reference table is in
        ``docs/architecture.md``): per-phase, per-replica and per-chain-kind
        totals, run totals, and the fault/resilience counters — always
        exported, zeros on the happy path, so the schema is the same with and
        without injected faults.
        """
        out: Dict[str, float] = {}
        for entry in metrics.METRICS:
            if isinstance(entry, metrics.Metric):
                # Counts and bytes live on the fabric as ints and are exported as floats.
                value = entry.read(self)
                out[entry.name] = value if entry.unit == "s" else float(value)
                continue
            for member, bucket in sorted(entry.read(self).items()):
                for stat in entry.stats:
                    out[entry.name(member, stat)] = bucket[stat.name]
        return out
