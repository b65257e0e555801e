"""Point-to-point network model for model-weight transfers.

Two levels of fidelity live here:

* :class:`NetworkLink` / :class:`NetworkModel` — closed-form transfer costs
  (``latency + bytes / bandwidth``) with per-pair link overrides.  This is the
  constant-cost model every experiment uses by default.
* :class:`LinkScheduler` — FIFO contention on top of the same links.  Each
  endpoint carries a bounded number of concurrent transfers (its *capacity*,
  1 by default): a transfer occupies a slot on both its source and its
  destination until it completes, so concurrent transfers that saturate an
  endpoint (for example several clusters pushing models into the storage
  swarm) queue behind each other instead of magically overlapping.  The
  event-stream actors in :mod:`repro.sched.actors` build on this to turn
  network I/O into first-class simulation events.
* :class:`Topology` — a builder for multi-site storage layouts: named
  storage **replicas** with parallel capacity, per-cluster LAN links to a
  home replica, and WAN links between sites.  It materialises into a
  :class:`NetworkModel` plus a capacity-aware :class:`LinkScheduler`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .faults import merge_windows
from .units import mbytes_per_s_to_bytes_per_s


@dataclass(frozen=True)
class NetworkLink:
    """A directed link with latency (seconds) and bandwidth (bytes/second)."""

    latency_s: float
    bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")

    def transfer_time(self, num_bytes: int) -> float:
        """Seconds to move ``num_bytes`` across this link."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return self.latency_s + num_bytes / self.bandwidth_bytes_per_s

    @classmethod
    def from_mbytes_per_s(cls, latency_s: float, bandwidth_mbytes_per_s: float) -> "NetworkLink":
        """Build a link from a megabytes/s bandwidth (config and profile units)."""
        return cls(
            latency_s=latency_s,
            bandwidth_bytes_per_s=mbytes_per_s_to_bytes_per_s(bandwidth_mbytes_per_s),
        )


class NetworkModel:
    """Holds per-pair links with a configurable default.

    Keys are (source, destination) endpoint names.  When no specific link is
    registered the default link applies, which keeps experiment setup short:
    the paper's clusters sit on one LAN where all links are alike.  A
    *resolver* hook (``set_link_resolver``) can compute a pair's link on
    first use — the topology layer uses it to derive the O(n²)
    cluster↔cluster paths lazily instead of materialising every pair up
    front; resolved links are cached so repeat lookups stay O(1).
    """

    #: link used for self-transfers; shared because links are immutable.
    LOOPBACK = NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=10e9)

    def __init__(self, default_link: Optional[NetworkLink] = None):
        self.default_link = default_link or NetworkLink(latency_s=0.005, bandwidth_bytes_per_s=100e6)
        self._links: Dict[Tuple[str, str], NetworkLink] = {}
        self._resolver = None

    def set_link(self, source: str, destination: str, link: NetworkLink, symmetric: bool = True) -> None:
        """Register a link between two endpoints."""
        self._links[(source, destination)] = link
        if symmetric:
            self._links[(destination, source)] = link

    def set_link_resolver(self, resolver) -> None:
        """Install a ``(source, destination) -> Optional[NetworkLink]`` hook.

        Consulted for pairs with no registered link; a non-``None`` result
        is cached.  Returning ``None`` falls through to the default link.
        """
        self._resolver = resolver

    def link(self, source: str, destination: str) -> NetworkLink:
        """The link between two endpoints (a zero-cost loopback for self-transfers)."""
        if source == destination:
            return self.LOOPBACK
        link = self._links.get((source, destination))
        if link is not None:
            return link
        if self._resolver is not None:
            resolved = self._resolver(source, destination)
            if resolved is not None:
                self._links[(source, destination)] = resolved
                return resolved
        return self.default_link

    def transfer_time(self, source: str, destination: str, num_bytes: int) -> float:
        """Seconds to move a payload from ``source`` to ``destination``."""
        return self.link(source, destination).transfer_time(num_bytes)


@dataclass(frozen=True, slots=True)
class ScheduledTransfer:
    """One transfer placed on the contended network timeline.

    Attributes:
        source: sending endpoint name.
        destination: receiving endpoint name.
        num_bytes: payload size.
        requested_at: simulated time the caller asked for the transfer.
        started_at: time the transfer actually began (``>= requested_at`` when
            either endpoint was busy).
        finished_at: time the last byte arrived.
    """

    source: str
    destination: str
    num_bytes: int
    requested_at: float
    started_at: float
    finished_at: float

    @property
    def queued_time(self) -> float:
        """Seconds the transfer waited for a busy endpoint before starting."""
        return self.started_at - self.requested_at

    @property
    def duration(self) -> float:
        """Pure wire time (latency + serialisation), excluding queueing."""
        return self.finished_at - self.started_at

    @property
    def elapsed(self) -> float:
        """Total time the caller experienced: queueing plus wire time."""
        return self.finished_at - self.requested_at


class LinkScheduler:
    """Bounded-capacity endpoint contention over a :class:`NetworkModel`.

    Each endpoint (cluster uplink, storage replica, ...) carries up to
    ``capacity`` concurrent transfers (1 unless raised with
    :meth:`set_capacity` — the serial endpoint is the ``c = 1`` special
    case); a transfer occupies one slot on *both* endpoints for its
    duration.  Reservations are gap-filling: a transfer takes the earliest
    slot at or after its request time where both endpoints have a free slot,
    so it only queues behind transfers it genuinely overlaps in simulated
    time — not behind whatever happened to be committed first.  (The
    discrete-event kernel executes a whole cluster round atomically, so a
    fast cluster's late-round transfers are committed before a slow
    cluster's early-round ones; first-fit placement keeps the schedule
    causal anyway.)

    The wire time of an uncontended transfer is exactly
    ``NetworkModel.transfer_time`` — enabling contention never makes an
    isolated transfer slower, it only delays transfers that overlap.

    Hot-path design (every upload, pull and replication push is a placement,
    and least-loaded selection probes every replica's backlog first):

    * A request at or past everything committed on its endpoints (the common
      causal case) starts when requested: one ``_max_end`` comparison per
      endpoint, no sweep and no bisect.
    * The saturation sweep of a capacity > 1 endpoint walks boundaries that
      ``_commit`` keeps sorted, so a placement never re-sorts the history,
      and it walks only those at or after the request time: the
      reservations still running then are counted off the backlog index
      below, so a placement costs what lies ahead of it, not everything the
      endpoint has carried.
    * The backlog index behind :meth:`outstanding_backlog` is never rebuilt:
      ``_commit`` keeps a running max of interval ends beside the sorted
      timeline (O(1) on an append, a short forward fix-up on a mid-timeline
      insert), a probe bisects straight into the timeline, and the
      newest-first duration sums are accumulated lazily from the tail only
      as far back as a probe reaches — a commit truncates them to the
      intervals after the one it inserted.  Least-loaded selection probes
      every replica and then commits, so an index dropped by each commit
      would be rebuilt from the whole history once per transfer.
    * ``total_queued_time`` / ``total_wire_time`` are running counters
      updated at commit time (accumulated in log order, so they stay
      bit-identical to summing the log), never O(log-length) scans.

    These maintained structures are *accelerations* only: placements,
    queued-time and totals are bit-identical to the naive from-scratch
    recomputation, which
    :class:`repro.simnet.reference.ReferenceLinkScheduler` keeps alive as
    the property-test oracle.

    ``unbounded=True`` (constant-cost runs) gives every endpoint infinite
    capacity: no reservation blocks another, a transfer starts when requested
    (or at its ``earliest_start`` / after a fault window).  Reservations are
    still logged, so totals, backlog and the sanitizer see the same books.
    """

    def __init__(
        self,
        network: Optional[NetworkModel] = None,
        capacities: Optional[Dict[str, int]] = None,
        unbounded: bool = False,
    ):
        self.network = network or NetworkModel()
        self.unbounded = unbounded
        #: busy intervals per endpoint, sorted by (start, end); with capacity
        #: c > 1 up to c of them may overlap at any instant.
        self._busy: Dict[str, List[Tuple[float, float]]] = {}
        #: parallel capacity per endpoint; absent means serial (c = 1).
        self._capacity: Dict[str, int] = {}
        #: sorted sweep boundaries ``(time, +1/-1)`` per capacity>1 endpoint,
        #: maintained incrementally at commit time so placements need not
        #: re-sort the whole reservation history.
        self._boundaries: Dict[str, List[Tuple[float, int]]] = {}
        #: committed transfers, in request order (the transfer event log).
        self.log: List[ScheduledTransfer] = []
        self._queued_total = 0.0
        self._wire_total = 0.0
        #: latest committed finish time per endpoint (0.0 when idle) — the
        #: O(1) "is this placement past the whole timeline?" fast path.
        self._max_end: Dict[str, float] = {}
        #: per-endpoint ``(prefix_max_end, tail_sums)`` behind
        #: outstanding_backlog, both maintained by ``_commit``:
        #: ``prefix_max_end[i]`` is the latest end among ``_busy[:i + 1]``;
        #: ``tail_sums[k]`` is the summed duration of the newest ``k + 1``
        #: intervals, added newest-first, grown on demand by probes.
        self._backlog_index: Dict[str, Tuple[List[float], List[float]]] = {}
        #: fault-injected downtime windows per endpoint (merged, sorted);
        #: empty dict on the happy path so planning never pays for faults.
        self._outages: Dict[str, List[Tuple[float, float]]] = {}
        #: endpoint -> site label for partition lookups (an endpoint with no
        #: registered site is its own site).
        self._sites: Dict[str, str] = {}
        #: severed-WAN windows per unordered site pair (merged, sorted).
        self._partitions: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
        #: optional :class:`~repro.analysis.sanitizer.SimulationSanitizer`;
        #: when set, every committed reservation is re-checked against the
        #: capacity and fault-window contracts (read-only, after the commit).
        self.sanitizer = None
        for endpoint, capacity in (capacities or {}).items():
            self.set_capacity(endpoint, capacity)

    def set_outages(self, endpoint: str, windows: List[Tuple[float, float]]) -> None:
        """Declare downtime windows for ``endpoint``.

        No transfer touching the endpoint is placed overlapping one of these
        windows — traffic aimed at a down endpoint waits for its scheduled
        recovery.  Affects future placements only, so declare outages before
        scheduling traffic (the fault plan does this at fabric build time).
        An empty list clears the endpoint's outages.
        """
        merged = merge_windows(windows)
        if merged:
            self._outages[endpoint] = merged
        else:
            self._outages.pop(endpoint, None)

    def set_site(self, endpoint: str, site: str) -> None:
        """Map ``endpoint`` onto a site label for partition lookups."""
        self._sites[endpoint] = site

    def set_partition(self, site_a: str, site_b: str, windows: List[Tuple[float, float]]) -> None:
        """Declare severed-WAN windows between two sites (order-insensitive).

        Transfers whose endpoints resolve to the two sites cannot be placed
        inside a window; same-site traffic is unaffected.  An empty list
        clears the pair's partitions.
        """
        if site_a == site_b:
            raise ValueError("a partition separates two distinct sites")
        key = (site_a, site_b) if site_a < site_b else (site_b, site_a)
        merged = merge_windows(windows)
        if merged:
            self._partitions[key] = merged
        else:
            self._partitions.pop(key, None)

    def outage_windows(self, endpoint: str) -> List[Tuple[float, float]]:
        """The declared downtime windows of one endpoint."""
        return list(self._outages.get(endpoint, ()))

    def path_fault_windows(self, source: str, destination: str) -> List[Tuple[float, float]]:
        """Merged fault windows blocking the ``source -> destination`` path.

        The public form of :meth:`_fault_windows` for observers (the
        simulation sanitizer, diagnostics): always a list, empty when no
        outage or partition applies to the path.
        """
        return self._fault_windows(source, destination) or []

    def _fault_windows(self, source: str, destination: str) -> Optional[List[Tuple[float, float]]]:
        """Merged fault windows blocking the ``source -> destination`` path.

        ``None`` when nothing applies — the planning code treats ``None``
        exactly like the pre-fault scheduler, preserving bit-identity (and
        the O(1) fast path) for runs without injected faults.
        """
        if not self._outages and not self._partitions:
            return None
        windows: List[Tuple[float, float]] = []
        endpoints = (source,) if source == destination else (source, destination)
        for endpoint in endpoints:
            found = self._outages.get(endpoint)
            if found:
                windows.extend(found)
        if self._partitions and source != destination:
            site_a = self._sites.get(source, source)
            site_b = self._sites.get(destination, destination)
            if site_a != site_b:
                key = (site_a, site_b) if site_a < site_b else (site_b, site_a)
                found = self._partitions.get(key)
                if found:
                    windows.extend(found)
        if not windows:
            return None
        return merge_windows(windows)

    def set_capacity(self, endpoint: str, capacity: int) -> None:
        """Let ``endpoint`` admit up to ``capacity`` overlapping reservations.

        Affects future placements only; committed reservations are never
        rescheduled, so set capacities before scheduling traffic.  Lowering
        the capacity of an endpoint that already carries committed traffic
        raises: reservations placed under the higher capacity may overlap,
        and the serial (``c = 1``) placement path assumes non-overlapping
        busy intervals — silently keeping the old reservations would let
        "serial" placements overlap them.
        """
        if capacity < 1:
            raise ValueError("endpoint capacity must be at least 1")
        if self.unbounded:
            raise ValueError("an unbounded scheduler has no endpoint capacities to set")
        if capacity < self.capacity(endpoint) and self._busy.get(endpoint):
            raise ValueError(
                f"cannot lower the capacity of endpoint '{endpoint}' below "
                f"{self.capacity(endpoint)}: it already carries committed traffic "
                "scheduled under the higher capacity"
            )
        self._capacity[endpoint] = int(capacity)
        if capacity > 1:
            boundaries: List[Tuple[float, int]] = []
            for start, end in self._busy.get(endpoint, ()):
                boundaries.append((start, 1))
                boundaries.append((end, -1))
            boundaries.sort()
            self._boundaries[endpoint] = boundaries
        else:
            self._boundaries.pop(endpoint, None)

    def capacity(self, endpoint: str) -> float:
        """Parallel capacity of one endpoint (1 unless raised; ``inf`` when unbounded)."""
        if self.unbounded:
            return math.inf
        return self._capacity.get(endpoint, 1)

    def busy_intervals(self, endpoint: str) -> List[Tuple[float, float]]:
        """The committed ``(start, end)`` reservations of one endpoint."""
        return list(self._busy.get(endpoint, []))

    def outstanding_backlog(self, endpoint: str, at: float) -> float:
        """Reserved seconds still scheduled at or after ``at`` on one endpoint.

        The load metric behind deterministic least-loaded replica selection.
        A bisect into the endpoint's sorted timeline finds the intervals
        starting at or after ``at``; their summed duration comes from the
        newest-first tail sums, extended here only as far back as this probe
        reaches (a later probe at a smaller ``at`` extends them further, a
        commit truncates them).  Earlier intervals that still straddle
        ``at`` are walked newest-first under the commit-maintained running
        max of ends.  The additions happen in the order
        :class:`~repro.simnet.reference.ReferenceLinkScheduler` performs
        them, so the reading is bit-identical to its from-scratch answer.
        """
        intervals = self._busy.get(endpoint)
        if not intervals:
            return 0.0
        prefix_max_end, tail_sums = self._backlog_index[endpoint]
        count = len(intervals)
        first = bisect.bisect_left(intervals, (at,))
        # Intervals starting at or after ``at`` contribute their whole
        # duration: one tail-sum lookup once the tail reaches back to them.
        total = 0.0
        if first < count:
            if len(tail_sums) < count - first:
                running = tail_sums[-1] if tail_sums else 0.0
                for i in range(count - 1 - len(tail_sums), first - 1, -1):
                    start, end = intervals[i]
                    running += end - start
                    tail_sums.append(running)
            total = tail_sums[count - first - 1]
        # Earlier intervals may still straddle ``at``; walk them newest-first
        # and stop once the running max end falls behind ``at``.
        for i in range(first - 1, -1, -1):
            if prefix_max_end[i] <= at:
                break
            end = intervals[i][1]
            if end > at:
                total += end - at
        return total

    def _saturated_intervals(self, endpoint: str, at: float) -> List[Tuple[float, float]]:
        """Intervals where the endpoint is at capacity, as seen from ``at``.

        For a serial endpoint these are the raw reservations themselves
        (capacity-1 placement stays bit-identical to the pre-capacity
        scheduler).  For ``c > 1`` a sweep over the incrementally-maintained
        reservation boundaries finds the regions with ``>= c`` concurrent
        transfers — only those block a new reservation.

        The sweep starts at ``at``, not at the beginning of the history: a
        placement never starts before ``at``, so no earlier boundary can
        move it.  The reservations still running at ``at`` come from the
        backlog index, and if they already fill the endpoint the open block
        is reported from the latest of their starts — a stretch the endpoint
        is saturated over, strictly before ``at``, so a transfer requested
        inside the block (even a zero-length one) conflicts with it exactly
        as with the block's true start.
        :class:`~repro.simnet.reference.ReferenceLinkScheduler` keeps the
        full sweep as the oracle.
        """
        intervals = self._busy.get(endpoint)
        if not intervals or self.unbounded:
            return []
        cap = self.capacity(endpoint)
        if cap == 1:
            return intervals
        # Reservations starting before ``at`` that end at or after it are
        # the ones the sweep would count as active on reaching ``at`` (an
        # end exactly at ``at`` is among the boundaries swept below).  Walk
        # them newest-first until the running max of ends falls behind.
        prefix_max_end = self._backlog_index[endpoint][0]
        active = 0
        latest_start: Optional[float] = None
        for i in range(bisect.bisect_left(intervals, (at,)) - 1, -1, -1):
            if prefix_max_end[i] < at:
                break
            start, end = intervals[i]
            if end >= at:
                active += 1
                if latest_start is None:
                    latest_start = start
        block_start = latest_start if active >= cap else None
        # Sorted with the -1 before the +1 at equal times: a reservation
        # ending exactly when another starts never saturates the instant
        # between them.
        boundaries = self._boundaries[endpoint]
        saturated: List[Tuple[float, float]] = []
        for time, delta in boundaries[bisect.bisect_left(boundaries, (at, -1)) :]:
            active += delta
            if active >= cap and block_start is None:
                block_start = time
            elif active < cap and block_start is not None:
                if time > block_start:
                    saturated.append((block_start, time))
                block_start = None
        return saturated

    @staticmethod
    def _conflict_end(
        intervals: List[Tuple[float, float]], start: float, duration: float
    ) -> Optional[float]:
        """End of the first blocked interval overlapping ``[start, start+duration)``.

        ``intervals`` are sorted (and non-overlapping for the serial case),
        so a bisect finds the first interval that could still be running at
        ``start`` in O(log n); ``None`` means the slot is free.
        """
        if not intervals:
            return None
        index = bisect.bisect_right(intervals, (start, float("inf")))
        if index and intervals[index - 1][1] > start:
            index -= 1
        if index < len(intervals) and intervals[index][0] < start + duration:
            return intervals[index][1]
        return None

    def _earliest_start(
        self,
        endpoints: List[str],
        at: float,
        duration: float,
        fault_windows: Optional[List[Tuple[float, float]]] = None,
    ) -> float:
        """First time ``>= at`` where every endpoint has a slot for ``duration``.

        ``fault_windows`` are extra blocked intervals (outages/partitions on
        the path); they disable the fast path because they can block a
        request arbitrarily far past the committed timeline.
        """
        # Fast path: a request at or past every committed reservation on
        # every endpoint cannot conflict with anything — it starts
        # immediately, no sweep and no bisect.  This is the common causal
        # case (simulated time mostly moves forward).
        if fault_windows is None and all(
            at >= self._max_end.get(endpoint, 0.0) for endpoint in endpoints
        ):
            return at
        blocked = [self._saturated_intervals(endpoint, at) for endpoint in endpoints]
        if fault_windows is not None:
            blocked.append(fault_windows)
        start = self._first_fit(blocked, at, duration)
        if self.sanitizer is not None:
            self.sanitizer.check_placement_window(
                self, endpoints, at, duration, fault_windows, start
            )
        return start

    @classmethod
    def _first_fit(
        cls, blocked: List[List[Tuple[float, float]]], at: float, duration: float
    ) -> float:
        """First start ``>= at`` whose ``duration`` overlaps no blocked interval."""
        start = at
        moved = True
        while moved:
            moved = False
            for intervals in blocked:
                conflict_end = cls._conflict_end(intervals, start, duration)
                if conflict_end is not None:
                    # Overlaps a blocked region: jump past it and re-check
                    # every interval list from the new start.
                    start = conflict_end
                    moved = True
                    break
        return start

    def _plan(
        self,
        source: str,
        destination: str,
        num_bytes: int,
        at: float,
        earliest_start: Optional[float] = None,
    ) -> ScheduledTransfer:
        floor = at if earliest_start is None else max(at, earliest_start)
        duration = self.network.transfer_time(source, destination, num_bytes)
        endpoints = [source] if source == destination else [source, destination]
        start = self._earliest_start(
            endpoints, floor, duration, self._fault_windows(source, destination)
        )
        return ScheduledTransfer(
            source=source,
            destination=destination,
            num_bytes=num_bytes,
            requested_at=at,
            started_at=start,
            finished_at=start + duration,
        )

    def preview(
        self,
        source: str,
        destination: str,
        num_bytes: int,
        at: float,
        earliest_start: Optional[float] = None,
    ) -> ScheduledTransfer:
        """The schedule a transfer requested ``at`` would get, uncommitted.

        ``earliest_start`` floors the placement without moving the request
        time — the gap between the two is accounted as queueing (the
        replication layer uses it for read-your-writes availability gates).
        """
        return self._plan(source, destination, num_bytes, at, earliest_start)

    def estimate(self, source: str, destination: str, num_bytes: int, at: float) -> float:
        """Elapsed seconds a transfer requested ``at`` would take, uncommitted.

        Used by round policies that must *predict* a submission cost (the sync
        straggler decision) without reserving the link.
        """
        return self._plan(source, destination, num_bytes, at).elapsed

    def transfer(
        self,
        source: str,
        destination: str,
        num_bytes: int,
        at: float,
        earliest_start: Optional[float] = None,
    ) -> ScheduledTransfer:
        """Commit a transfer requested at time ``at`` and return its schedule.

        The transfer reserves the earliest adequate gap on both endpoints;
        transfers that overlap it in time queue into later gaps.  When
        ``earliest_start`` is given the placement additionally starts no
        earlier than it (while ``requested_at`` stays ``at``, so the wait
        shows up as queued time) — the hook availability-gated downloads
        ride on.
        """
        if at < 0:
            raise ValueError("transfer request time must be non-negative")
        return self.plan_and_commit(source, destination, num_bytes, at, earliest_start)

    def plan_and_commit(
        self,
        source: str,
        destination: str,
        num_bytes: int,
        at: float,
        earliest_start: Optional[float] = None,
    ) -> ScheduledTransfer:
        """Plan a placement and commit it."""
        scheduled = self._plan(source, destination, num_bytes, at, earliest_start)
        self._commit(scheduled)
        return scheduled

    def _commit(self, scheduled: ScheduledTransfer) -> None:
        """Reserve a planned transfer and refresh the incremental indexes."""
        interval = (scheduled.started_at, scheduled.finished_at)
        endpoints = {scheduled.source, scheduled.destination}
        for endpoint in endpoints:
            busy = self._busy.get(endpoint)
            if busy is None:
                busy = self._busy[endpoint] = []
                self._backlog_index[endpoint] = ([], [])
            position = bisect.bisect_right(busy, interval)
            busy.insert(position, interval)
            # Backlog index: carry the running max of ends through the new
            # slot (nothing to fix up on an append; on a mid-timeline insert
            # only the entries the new end overtakes), and keep the tail sums
            # that cover only intervals after it.
            prefix_max_end, tail_sums = self._backlog_index[endpoint]
            latest = scheduled.finished_at
            if position and prefix_max_end[position - 1] > latest:
                latest = prefix_max_end[position - 1]
            prefix_max_end.insert(position, latest)
            for i in range(position + 1, len(prefix_max_end)):
                if prefix_max_end[i] >= latest:
                    break
                prefix_max_end[i] = latest
            del tail_sums[len(busy) - 1 - position :]
            boundaries = self._boundaries.get(endpoint)
            if boundaries is not None:
                bisect.insort(boundaries, (scheduled.started_at, 1))
                bisect.insort(boundaries, (scheduled.finished_at, -1))
            if scheduled.finished_at > self._max_end.get(endpoint, 0.0):
                self._max_end[endpoint] = scheduled.finished_at
        self.log.append(scheduled)
        # Accumulated in log-append order, so the running totals stay
        # bit-identical to summing the log.
        self._queued_total += scheduled.queued_time
        self._wire_total += scheduled.duration
        if self.sanitizer is not None:
            self.sanitizer.check_reservation(self, scheduled)

    @property
    def total_queued_time(self) -> float:
        """Seconds transfers spent waiting for busy endpoints, summed.

        A running counter updated at commit time — never an O(log-length)
        scan.
        """
        return self._queued_total

    @property
    def total_wire_time(self) -> float:
        """Pure transfer time (no queueing) of every committed transfer.

        A running counter updated at commit time — never an O(log-length)
        scan.
        """
        return self._wire_total


class Topology:
    """Builder for a multi-site storage topology.

    A topology names the *storage replicas* artifacts are distributed to
    (each with a parallel capacity, the number of transfers it can serve at
    once), assigns every cluster a *home replica* reached over its LAN link,
    and describes the WAN links between sites.  Reaching a remote replica
    composes the cluster's LAN link with the WAN link between its home site
    and the remote one: latencies add, bandwidth is the bottleneck of the
    two hops.  ``build_scheduler`` materialises the whole layout into a
    capacity-aware :class:`LinkScheduler` the event-stream
    :class:`~repro.sched.actors.NetworkActor` can place transfers on.

    With a single replica of capacity 1 the topology degenerates to the
    serial single-endpoint model earlier releases hard-coded, bit-identically.

    Args:
        default_link: LAN link used for clusters added without an explicit
            one (also the materialised network's default link).
        default_wan_link: link assumed between two sites with no explicit
            :meth:`set_wan_link` override.
    """

    def __init__(
        self,
        default_link: Optional[NetworkLink] = None,
        default_wan_link: Optional[NetworkLink] = None,
    ):
        self.default_link = default_link or NetworkLink(latency_s=0.005, bandwidth_bytes_per_s=100e6)
        self.default_wan_link = default_wan_link or NetworkLink(latency_s=0.05, bandwidth_bytes_per_s=50e6)
        #: replica name -> parallel capacity, in declaration order (the
        #: order breaks least-loaded selection ties deterministically).
        self._replicas: Dict[str, int] = {}
        self._home: Dict[str, str] = {}
        self._lan: Dict[str, NetworkLink] = {}
        self._wan: Dict[Tuple[str, str], NetworkLink] = {}

    # ------------------------------------------------------------------ builder
    def add_replica(self, name: str, capacity: int = 1) -> "Topology":
        """Declare a storage replica able to serve ``capacity`` parallel transfers."""
        if name in self._replicas or name in self._home:
            raise ValueError(f"endpoint name '{name}' is already in use")
        if capacity < 1:
            raise ValueError("replica capacity must be at least 1")
        self._replicas[name] = int(capacity)
        return self

    def add_cluster(self, name: str, replica: str, link: Optional[NetworkLink] = None) -> "Topology":
        """Attach a cluster to its home ``replica`` over ``link`` (its LAN)."""
        if name in self._replicas or name in self._home:
            raise ValueError(f"endpoint name '{name}' is already in use")
        if replica not in self._replicas:
            raise ValueError(f"unknown replica '{replica}'; declare it with add_replica first")
        self._home[name] = replica
        self._lan[name] = link or self.default_link
        return self

    def set_wan_link(
        self, site_a: str, site_b: str, link: NetworkLink, symmetric: bool = True
    ) -> "Topology":
        """Override the WAN link between two replica sites."""
        for site in (site_a, site_b):
            if site not in self._replicas:
                raise ValueError(f"unknown replica '{site}'")
        if site_a == site_b:
            raise ValueError("a WAN link connects two distinct sites")
        self._wan[(site_a, site_b)] = link
        if symmetric:
            self._wan[(site_b, site_a)] = link
        return self

    # ------------------------------------------------------------------ queries
    @property
    def replicas(self) -> List[str]:
        """Replica names in declaration order."""
        return list(self._replicas)

    @property
    def clusters(self) -> List[str]:
        """Cluster names in declaration order."""
        return list(self._home)

    def capacity(self, replica: str) -> int:
        """Parallel capacity of one replica."""
        return self._replicas[replica]

    def home_replica(self, cluster: str) -> str:
        """The replica a cluster reaches over its LAN link."""
        return self._home[cluster]

    def wan_link(self, site_a: str, site_b: str) -> NetworkLink:
        """The WAN link between two sites (the default when not overridden)."""
        return self._wan.get((site_a, site_b), self.default_wan_link)

    def path_link(self, cluster: str, replica: str) -> NetworkLink:
        """Effective single-hop link for ``cluster`` <-> ``replica``.

        The home replica is one LAN hop; a remote replica composes LAN and
        WAN (latencies add, bandwidth is the slower hop).
        """
        lan = self._lan[cluster]
        home = self._home[cluster]
        if replica == home:
            return lan
        wan = self.wan_link(home, replica)
        return NetworkLink(
            latency_s=lan.latency_s + wan.latency_s,
            bandwidth_bytes_per_s=min(lan.bandwidth_bytes_per_s, wan.bandwidth_bytes_per_s),
        )

    def cluster_path_link(self, cluster_a: str, cluster_b: str) -> NetworkLink:
        """Effective single-hop link for direct ``cluster_a`` -> ``cluster_b`` traffic.

        Peers at the same site compose their two LAN hops; peers at
        different sites additionally cross the WAN between their homes.
        Latencies add, bandwidth is the slowest hop — the pricing behind the
        hierarchical intra-group shuttles (cheap, LAN-only) versus gossip
        exchanges that may span sites.
        """
        lan_a, lan_b = self._lan[cluster_a], self._lan[cluster_b]
        home_a, home_b = self._home[cluster_a], self._home[cluster_b]
        latency_s = lan_a.latency_s + lan_b.latency_s
        bandwidth_bytes_per_s = min(lan_a.bandwidth_bytes_per_s, lan_b.bandwidth_bytes_per_s)
        if home_a != home_b:
            wan = self.wan_link(home_a, home_b)
            latency_s += wan.latency_s
            bandwidth_bytes_per_s = min(bandwidth_bytes_per_s, wan.bandwidth_bytes_per_s)
        return NetworkLink(latency_s=latency_s, bandwidth_bytes_per_s=bandwidth_bytes_per_s)

    # -------------------------------------------------------------- materialise
    def build_network(self) -> NetworkModel:
        """Materialise every cluster<->replica and replica<->replica link.

        Cluster<->cluster paths (used only by the peer-exchange policies)
        are *not* materialised eagerly — that would be O(n²) entries paid by
        every event-stream run — but resolved and cached on first use via
        the network's link resolver.
        """
        if not self._replicas:
            raise ValueError("a topology needs at least one replica")
        network = NetworkModel(default_link=self.default_link)
        for cluster in self._home:
            for replica in self._replicas:
                network.set_link(cluster, replica, self.path_link(cluster, replica))
        replicas = list(self._replicas)
        for site_a in replicas:
            for site_b in replicas:
                if site_a != site_b:
                    network.set_link(site_a, site_b, self.wan_link(site_a, site_b), symmetric=False)

        def resolve(source: str, destination: str) -> Optional[NetworkLink]:
            if source in self._home and destination in self._home:
                return self.cluster_path_link(source, destination)
            return None

        network.set_link_resolver(resolve)
        return network

    def build_scheduler(self, unbounded: bool = False) -> LinkScheduler:
        """A capacity-aware scheduler over the materialised network
        (``unbounded=True`` drops every capacity, the replicas' included)."""
        capacities = None if unbounded else dict(self._replicas)
        return LinkScheduler(self.build_network(), capacities, unbounded=unbounded)
