"""Deterministic fault injection: churn, replica outages and WAN partitions.

The simulator priced only happy-path traffic until this module existed.
Production middleware traffic is not happy-path: organisations drop out of
rounds (churn), storage replicas go down and come back (outages with
scheduled recovery), and site pairs lose connectivity (WAN partitions).
:class:`FaultPlan` is the seeded, deterministic schedule of all three —
built once per run, either directly or from an
:class:`~repro.core.config.ExperimentConfig` via :meth:`FaultPlan.from_config`.

The plan *describes* faults; two consumers *enforce* them:

* the :class:`~repro.simnet.network.LinkScheduler` receives each replica's
  outage windows and each site pair's partition windows as blocked
  intervals, so no transfer is ever placed through a down replica or a
  severed WAN path — traffic that insists on the broken route simply waits
  for the scheduled recovery;
* the :class:`~repro.sched.actors.NetworkActor` consults the plan at
  request time and layers *resilience* on top (:class:`ResiliencePolicy`):
  per-transfer retry with exponential backoff + deterministic jitter,
  per-replica circuit breakers (:class:`CircuitBreaker`,
  closed → open → half-open), and graceful degradation — failover to the
  next-best replica under the existing least-loaded completion-time
  ranking, or a bounded wait for recovery when no replica is reachable.

Everything is reproducible: churn draws hash ``(seed, cluster, round)``
through an independent :func:`numpy.random.default_rng` stream, outage and
partition windows are generated from the seed alone, and a **zero-rate plan
injects nothing** — runs with faults disabled stay bit-identical to runs
that never heard of this module.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

#: independent sub-stream tags so churn draws, outage times and partition
#: times never alias each other off one seed.
_CHURN_STREAM = 0xC0
_OUTAGE_STREAM = 0x07
_PARTITION_STREAM = 0x9A

Window = Tuple[float, float]


def merge_windows(windows: Iterable[Window]) -> List[Window]:
    """Sort ``(start, end)`` windows and coalesce overlaps into maximal runs."""
    cleaned = sorted((float(start), float(end)) for start, end in windows)
    merged: List[Window] = []
    for start, end in cleaned:
        if start < 0 or end <= start:
            raise ValueError(f"invalid fault window ({start}, {end}): need 0 <= start < end")
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _covering_window(windows: Sequence[Window], at: float) -> Optional[Window]:
    """The merged window containing ``at``, or ``None`` when the path is up."""
    for start, end in windows:
        if start <= at < end:
            return (start, end)
        if start > at:
            return None
    return None


@dataclass(frozen=True)
class ReplicaOutage:
    """One storage replica down from ``start`` until its scheduled ``end``."""

    replica: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("an outage needs 0 <= start < end")


@dataclass(frozen=True)
class WanPartition:
    """The WAN between two replica sites severed from ``start`` until ``end``."""

    site_a: str
    site_b: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.site_a == self.site_b:
            raise ValueError("a partition separates two distinct sites")
        if self.start < 0 or self.end <= self.start:
            raise ValueError("a partition needs 0 <= start < end")


class FaultPlan:
    """A seeded, deterministic schedule of churn, outages and partitions.

    Args:
        seed: drives the per-``(cluster, round)`` churn draws; replaying the
            same seed replays the same drops.
        churn_rate: probability that a given cluster sits a given round out
            (on top of any :class:`~repro.core.config.ClusterConfig`
            availability draw).  ``0.0`` never drops anyone.
        outages: replica downtime windows with scheduled recovery.
        partitions: pairwise site partition windows.

    A plan with ``churn_rate == 0`` and no outages or partitions reports
    :attr:`is_zero` — consumers treat it exactly like no plan at all, which
    is what keeps default-configuration runs bit-identical.
    """

    def __init__(
        self,
        seed: int = 0,
        churn_rate: float = 0.0,
        outages: Iterable[ReplicaOutage] = (),
        partitions: Iterable[WanPartition] = (),
    ):
        if not 0.0 <= churn_rate < 1.0:
            raise ValueError("churn_rate must be in [0, 1)")
        self.seed = int(seed)
        self.churn_rate = float(churn_rate)
        self.outages: List[ReplicaOutage] = list(outages)
        self.partitions: List[WanPartition] = list(partitions)
        self._replica_windows: Dict[str, List[Window]] = {}
        for outage in self.outages:
            self._replica_windows.setdefault(outage.replica, []).append((outage.start, outage.end))
        for replica, windows in self._replica_windows.items():
            self._replica_windows[replica] = merge_windows(windows)
        self._partition_windows: Dict[Tuple[str, str], List[Window]] = {}
        for partition in self.partitions:
            key = tuple(sorted((partition.site_a, partition.site_b)))
            self._partition_windows.setdefault(key, []).append((partition.start, partition.end))
        for key, windows in self._partition_windows.items():
            self._partition_windows[key] = merge_windows(windows)
        #: distinct ``(cluster, round)`` drops the plan actually injected —
        #: the ``dropped_clients`` accounting the fabric summary exports.
        self._drops: Set[Tuple[str, int]] = set()

    # ------------------------------------------------------------------ queries
    @property
    def is_zero(self) -> bool:
        """True when this plan can never inject anything."""
        return self.churn_rate == 0.0 and not self.outages and not self.partitions

    def cluster_offline(self, cluster: str, round_number: int) -> bool:
        """Seeded churn draw: does ``cluster`` drop out of ``round_number``?

        Deterministic per ``(seed, cluster, round)`` — independent of call
        order and of every other random stream in the run — and idempotent:
        asking twice neither redraws nor double-counts the drop.
        """
        if self.churn_rate == 0.0:
            return False
        rng = np.random.default_rng(
            [self.seed, _CHURN_STREAM, zlib.crc32(cluster.encode("utf-8")), int(round_number)]
        )
        dropped = bool(rng.random() < self.churn_rate)
        if dropped:
            self._drops.add((cluster, int(round_number)))
        return dropped

    @property
    def dropped_clients(self) -> int:
        """Distinct ``(cluster, round)`` drops injected so far."""
        return len(self._drops)

    def replica_windows(self, replica: str) -> List[Window]:
        """Merged downtime windows of one replica (empty when always up)."""
        return list(self._replica_windows.get(replica, ()))

    def partition_windows(self, site_a: str, site_b: str) -> List[Window]:
        """Merged partition windows between two sites (order-insensitive)."""
        key = tuple(sorted((site_a, site_b)))
        return list(self._partition_windows.get(key, ()))

    def replica_down(self, replica: str, at: float) -> bool:
        """Is ``replica`` inside one of its outage windows at time ``at``?"""
        return _covering_window(self._replica_windows.get(replica, ()), at) is not None

    def partitioned(self, site_a: str, site_b: str, at: float) -> bool:
        """Is the WAN between two sites severed at time ``at``?"""
        if site_a == site_b:
            return False
        key = tuple(sorted((site_a, site_b)))
        return _covering_window(self._partition_windows.get(key, ()), at) is not None

    def recovery_time(self, replica: str, at: float) -> float:
        """End of the outage window covering ``at`` (``at`` when the replica is up)."""
        window = _covering_window(self._replica_windows.get(replica, ()), at)
        return window[1] if window is not None else at

    @property
    def outage_seconds(self) -> float:
        """Total injected replica downtime (merged, across replicas)."""
        return sum(
            end - start
            for _, windows in sorted(self._replica_windows.items())
            for start, end in windows
        )

    @property
    def partition_seconds(self) -> float:
        """Total injected partition time (merged, across site pairs)."""
        return sum(
            end - start
            for _, windows in sorted(self._partition_windows.items())
            for start, end in windows
        )

    # -------------------------------------------------------------- construction
    @classmethod
    def from_config(
        cls, config, replicas: Sequence[str], horizon_s: float
    ) -> "FaultPlan":
        """Generate the plan an :class:`~repro.core.config.ExperimentConfig` asks for.

        ``replica_outages`` outage episodes are dealt round-robin over the
        declared ``replicas`` and ``wan_partitions`` partition episodes
        round-robin over the distinct site pairs.  Episode starts are
        *staggered*: the usable window (5–70 % of ``horizon_s``, an a-priori
        estimate of the run's makespan, so faults land while traffic is
        actually flowing) is split into one stripe per episode and each
        start is drawn at a seeded uniform point inside its own stripe —
        episodes spread across the run instead of piling onto the same
        instant, which is what lets failover actually help (some replica is
        usually still up).  Each episode recovers after the configured
        duration.  The generation reads only ``fault_seed`` (default: the
        experiment seed) — never the shared experiment RNG — so enabling
        faults does not perturb data partitioning, attacks or timing jitter.
        """
        seed = config.fault_seed if config.fault_seed is not None else config.seed

        def staggered_starts(count: int, stream: int) -> List[float]:
            rng = np.random.default_rng([seed, stream])
            stripe = (0.7 - 0.05) / count
            return [
                (0.05 + stripe * (i + float(rng.random()))) * horizon for i in range(count)
            ]

        horizon = max(float(horizon_s), 1.0)
        outages: List[ReplicaOutage] = []
        if config.replica_outages > 0:
            if not replicas:
                raise ValueError("replica outages need at least one storage replica")
            for i, start in enumerate(
                staggered_starts(config.replica_outages, _OUTAGE_STREAM)
            ):
                outages.append(
                    ReplicaOutage(
                        replica=replicas[i % len(replicas)],
                        start=start,
                        end=start + config.outage_duration_s,
                    )
                )
        partitions: List[WanPartition] = []
        if config.wan_partitions > 0:
            pairs = [
                (replicas[i], replicas[j])
                for i in range(len(replicas))
                for j in range(i + 1, len(replicas))
            ]
            if not pairs:
                raise ValueError("WAN partitions need at least two storage replicas")
            for i, start in enumerate(
                staggered_starts(config.wan_partitions, _PARTITION_STREAM)
            ):
                site_a, site_b = pairs[i % len(pairs)]
                partitions.append(
                    WanPartition(
                        site_a=site_a,
                        site_b=site_b,
                        start=start,
                        end=start + config.partition_duration_s,
                    )
                )
        return cls(
            seed=seed,
            churn_rate=config.churn_rate,
            outages=outages,
            partitions=partitions,
        )


@dataclass(frozen=True)
class ResiliencePolicy:
    """Retry/backoff and circuit-breaker knobs of the resilient fabric.

    ``retry_max = 0`` switches the resilience layer off entirely: a
    transfer aimed at a down replica neither retries nor fails over — it
    waits out the outage on the link schedule (the degraded baseline the
    failover comparison is measured against).

    Attributes:
        retry_max: failed attempts retried (with backoff) before failing over.
        backoff_base_s: first backoff wait; attempt *n* waits
            ``backoff_base_s * 2**n``, times the jitter factor.
        backoff_jitter: uniform jitter fraction — each wait is scaled by
            ``1 + backoff_jitter * u`` with a deterministic seeded
            ``u ~ U[0, 1)``.
        breaker_threshold: consecutive failures that trip a replica's
            breaker from closed to open.
        breaker_cooldown_s: seconds an open breaker rejects attempts before
            allowing one half-open trial.
    """

    retry_max: int = 3
    backoff_base_s: float = 0.5
    backoff_jitter: float = 0.1
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 60.0

    def __post_init__(self) -> None:
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

    def backoff(self, attempt: int, jitter_draw: float) -> float:
        """Wait before retry ``attempt`` (0-based), jittered deterministically."""
        return self.backoff_base_s * (2.0 ** attempt) * (1.0 + self.backoff_jitter * jitter_draw)


class CircuitBreaker:
    """Per-endpoint circuit breaker: closed → open → half-open.

    Closed breakers pass every attempt through and count consecutive
    failures; ``threshold`` consecutive failures trip the breaker open at
    the failing attempt's simulated time.  An open breaker fails fast (no
    attempt, no backoff) until ``cooldown_s`` simulated seconds have
    passed, then admits exactly one half-open trial: success closes the
    breaker and resets the failure count, failure re-trips it for another
    cooldown.

    The breaker is only the state machine: :meth:`record_failure` reports a
    trip to its caller, which logs it (and charges its cooldown as open
    time — a deterministic measure that does not depend on whether a trial
    ever probed the breaker again).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, threshold: int, cooldown_s: float):
        if threshold < 1:
            raise ValueError("breaker threshold must be at least 1")
        if cooldown_s <= 0:
            raise ValueError("breaker cooldown must be positive")
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at: Optional[float] = None

    def would_allow(self, at: float) -> bool:
        """Pure query: would an attempt at ``at`` pass through?"""
        if self.state != self.OPEN:
            return True
        assert self.opened_at is not None
        return at >= self.opened_at + self.cooldown_s

    def allow(self, at: float) -> bool:
        """Gate one attempt at time ``at``.

        An open breaker whose cooldown has elapsed transitions to half-open
        and admits this attempt as its trial.
        """
        if self.state != self.OPEN:
            return True
        if self.would_allow(at):
            self.state = self.HALF_OPEN
            return True
        return False

    def record_success(self, at: float) -> None:
        """A gated attempt succeeded: close and reset."""
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = None

    def record_failure(self, at: float) -> bool:
        """A gated attempt failed: count it, trip when the threshold is hit.

        Returns whether this failure tripped the breaker open (closed→open
        or half-open→open).
        """
        if self.state != self.HALF_OPEN:
            self.failures += 1
            if self.failures < self.threshold:
                return False
        self.state = self.OPEN
        self.opened_at = at
        self.failures = 0
        return True
