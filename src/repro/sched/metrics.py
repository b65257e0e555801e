"""The fabric's run metrics, declared once.

Every total a run reports about its :class:`~repro.sched.actors.CommFabric`
is one entry of :data:`METRICS`: the exported name, the unit, what it means,
how it is read off the fabric and which exports carry it.
``CommFabric.summary`` (hence the ``comm_metrics`` block of the result JSON),
the fabric columns of the flat CSV, the communication table, the fields the
goldens record and the reference table in ``docs/architecture.md`` are all
views of that one list, so adding a total is one line here and nothing else.

An entry is a :class:`Metric` (one key) or a :class:`Family` (one key per
*member* and *stat*).  A family's members are a closed constant
(:data:`TRANSFER_PHASES`) or come from the run — its storage replicas, the
chain interaction kinds it used; only statically known keys can be CSV columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

#: transfer phases the network actor labels its events with.  "exchange" is
#: peer-level model traffic (hierarchical intra-group shuttles, gossip pulls)
#: as opposed to the cluster<->storage phases.
TRANSFER_PHASES = ("upload", "download", "replication", "exchange")

#: cell format of the flat exports, per unit ("ratio": accuracies and losses).
UNIT_FORMATS = {"s": ".3f", "count": ".0f", "bytes": ".0f", "ratio": ".6f"}

#: the three value columns of the communication table.
TIME, QUEUED, EVENTS = range(3)


@dataclass(frozen=True)
class Metric:
    """One fabric total: exported key, unit (``s`` / ``count`` / ``bytes``), meaning."""

    name: str
    unit: str
    doc: str
    #: the value, given the fabric.
    read: Callable[[Any], float]
    #: position among the fabric columns of the flat CSV (``None``: JSON only);
    #: the column is named by :func:`export_name`.
    csv: Optional[int] = None
    #: recorded per case in ``tests/goldens/digests.json``.
    golden: bool = False
    #: ``(row label, column)``: its cell in a totals row of the comm table.
    cell: Optional[Tuple[str, int]] = None
    #: ``(label, fragment)``: the comm table closes with one ``label: ...``
    #: line per label — the fragments of its metrics, each formatted with the
    #: metric's value — printed when any of those values is non-zero.
    line: Optional[Tuple[str, str]] = None


@dataclass(frozen=True)
class Stat:
    """One per-member quantity of a family: key part, unit, comm-table column."""

    name: str
    unit: str
    column: int


@dataclass(frozen=True)
class Family:
    """Per-member totals: one key per member and stat, one comm-table row per member."""

    #: key pattern over ``{member}`` and ``{stat}``.
    key: str
    doc: str
    #: comm-table row label over ``{member}``.
    label: str
    #: what the members are: ``"phase"`` (closed, :data:`CLOSED_DOMAINS`),
    #: ``"replica"`` or ``"kind"`` (the run's).
    domain: str
    stats: Tuple[Stat, ...]
    #: ``{member: {stat name: value}}``, given the fabric.
    read: Callable[[Any], Mapping[str, Mapping[str, float]]]
    #: CSV position by key (closed domains only).
    csv: Mapping[str, int] = field(default_factory=dict)
    #: members without events get no comm-table row.
    sparse: bool = False
    #: totals row whose Events cell is the sum of this family's.
    total: Optional[str] = None

    def name(self, member: str, stat: Stat) -> str:
        return self.key.format(member=member, stat=stat.name)


CLOSED_DOMAINS: Dict[str, Tuple[str, ...]] = {"phase": TRANSFER_PHASES}

_STREAM = (Stat("time", "s", TIME), Stat("queued", "s", QUEUED), Stat("count", "count", EVENTS))


def _plan(attribute: str) -> Callable[[Any], float]:
    """A total kept by the live fault plan (zero without one)."""
    return lambda f: getattr(f.network.faults, attribute) if f.network.faults else 0.0


#: every exported fabric total, in ``CommFabric.summary`` and comm-table order.
METRICS: List[Union[Metric, Family]] = [
    Family("{member}_{stat}", "wire seconds, queued seconds (availability gating included) "
           "and transfers per phase", "network {member}", "phase", _STREAM,
           lambda f: f.network.phase_totals(), total="total network",
           csv={"replication_time": 2, "replication_queued": 3, "replication_count": 4,
                "exchange_time": 5, "exchange_count": 6}),
    Family("replica_{member}_{stat}", "the same over the transfers a replica served (uploads "
           "into it, downloads and gossip pulls out of it)", "replica {member}", "replica",
           _STREAM, lambda f: f.network.replica_totals()),
    Family("replica_{member}_replication_{stat}", "the same over the propagation into a replica "
           "(eager pushes, lazy fetches)", "replicate -> {member}", "replica", _STREAM,
           lambda f: f.network.replication_totals(), sparse=True),
    Metric("storage_replicas", "count", "storage replicas of the layout",
           lambda f: len(f.network.replicas)),
    Metric("network_time", "s", "wire seconds of every transfer on the link scheduler",
           lambda f: f.network.scheduler.total_wire_time, cell=("total network", TIME)),
    Metric("network_queued", "s", "seconds those transfers waited for a busy endpoint",
           lambda f: f.network.scheduler.total_queued_time,
           csv=0, golden=True, cell=("total network", QUEUED)),
    Family("chain_{stat}_{member}", "finality wait and interactions per contract-call kind",
           "chain {member}", "kind", (Stat("wait", "s", TIME), Stat("ops", "count", EVENTS)),
           lambda f: {kind: {"wait": bucket["wait"], "ops": bucket["count"]}
                      for kind, bucket in f.chain.kind_totals().items()}),
    Metric("chain_wait", "s", "seconds callers waited for finality, all kinds",
           lambda f: sum(op.delay for op in f.chain.log),
           csv=1, golden=True, cell=("total chain wait", TIME)),
    Metric("chain_ops", "count", "contract interactions, all kinds",
           lambda f: len(f.chain.log), cell=("total chain wait", EVENTS)),
    Metric("chain_blocks_spanned", "count", "distinct blocks the interactions rode",
           lambda f: f.chain.blocks_spanned, line=("blocks spanned", "{:.0f}")),
    Metric("chain_blocks_observed", "count", "blocks the simulated chain sealed",
           lambda f: f.chain.blocks_observed),
    Metric("chain_transactions_observed", "count", "transactions in those blocks",
           lambda f: f.chain.transactions_observed),
    Metric("wan_bytes", "bytes", "bytes that crossed a WAN hop",
           lambda f: f.network.wan_bytes, csv=7, line=("WAN bytes moved", "{:.0f}")),
    # Fault injection and resilience: always exported, zeros on the happy path.
    Metric("dropped_clients", "count", "distinct (cluster, round) churn drops",
           _plan("dropped_clients"), csv=11, line=("faults", "{:.0f} dropped client-rounds, ")),
    Metric("retries", "count", "re-probes after a failed replica attempt",
           lambda f: f.network.retries, csv=8, line=("faults", "{:.0f} retries ")),
    Metric("backoff_wait_s", "s", "seconds spent in backoff waits",
           lambda f: f.network.backoff_wait_s, line=("faults", "({:.1f}s backoff), ")),
    Metric("failovers", "count", "transfers re-aimed at an alternate replica",
           lambda f: f.network.failovers, csv=10, line=("faults", "{:.0f} failovers, ")),
    Metric("breaker_trips", "count", "circuit-breaker openings",
           lambda f: f.network.breaker_trips, line=("faults", "{:.0f} breaker trips ")),
    Metric("breaker_open_s", "s", "their open time (each trip's guaranteed cooldown)",
           lambda f: f.network.breaker_open_s, csv=9, line=("faults", "({:.0f}s open)")),
    Metric("breaker_fast_fails", "count", "attempts rejected while a breaker was open",
           lambda f: f.network.fast_fails),
    Metric("fault_outage_s", "s", "injected replica downtime",
           _plan("outage_seconds"), line=("faults", "")),
    Metric("fault_partition_s", "s", "injected WAN partition time",
           _plan("partition_seconds"), line=("faults", "")),
]


def declared(**run_domains: Iterable[str]) -> Dict[str, Tuple[str, Optional[int]]]:
    """``{key: (unit, CSV position)}`` of every declared key, families expanded.

    Closed domains always expand; ``replica=`` / ``kind=`` name a run's
    members (omitted: those families contribute nothing).
    """
    domains = {**CLOSED_DOMAINS, **run_domains}
    keys: Dict[str, Tuple[str, Optional[int]]] = {}
    for entry in METRICS:
        if isinstance(entry, Metric):
            keys[entry.name] = (entry.unit, entry.csv)
            continue
        for member in domains.get(entry.domain, ()):
            for stat in entry.stats:
                key = entry.name(member, stat)
                keys[key] = (stat.unit, entry.csv.get(key))
    return keys


def export_name(name: str, unit: str) -> str:
    """Name of a metric in the flat exports: seconds are spelled ``*_s``."""
    return f"{name}_s" if unit == "s" and not name.endswith("_s") else name


def flat_columns(names: Optional[Sequence[str]] = None) -> List[Tuple[str, str, str]]:
    """``(column, key, unit)`` of the picked metrics (default: the CSV columns, in order)."""
    keys = declared()
    if names is None:
        names = sorted((key for key in keys if keys[key][1] is not None), key=lambda k: keys[k][1])
    return [(export_name(key, keys[key][0]), key, keys[key][0]) for key in names]


def flat_row(
    metrics: Mapping[str, float], names: Optional[Sequence[str]] = None, text: bool = False
) -> Dict[str, Any]:
    """``{column: value}`` of a run's ``comm_metrics``, see :func:`flat_columns`.

    ``text`` formats each value by its unit (:data:`UNIT_FORMATS`).
    """
    return {
        column: format(metrics[key], UNIT_FORMATS[unit]) if text else metrics[key]
        for column, key, unit in flat_columns(names)
    }


def golden_names() -> List[str]:
    """The totals each golden case records next to its digest."""
    return [entry.name for entry in METRICS if isinstance(entry, Metric) and entry.golden]


def members(metrics: Mapping[str, float], domain: str) -> Sequence[str]:
    """A domain's members in an exported dict (closed domains: the constant)."""
    if domain in CLOSED_DOMAINS:
        return CLOSED_DOMAINS[domain]
    # The domain's most specific key pattern is unambiguous: no other
    # declared key shares both its prefix and its suffix.
    family = max((e for e in METRICS if isinstance(e, Family) and e.domain == domain),
                 key=lambda e: len(e.key))
    prefix, suffix = family.name("\0", family.stats[0]).split("\0")
    return sorted(
        key[len(prefix):len(key) - len(suffix)]
        for key in metrics
        if key.startswith(prefix) and key.endswith(suffix)
    )


Row = Tuple[str, List[Optional[float]]]


def comm_table(metrics: Mapping[str, float]) -> Tuple[List[Row], List[Row], List[str]]:
    """One run's communication table: ``(member rows, totals rows, closing lines)``.

    A row is its label and the Time / Queued / Events cells (``None``: the
    stream has no such quantity).
    """
    rows: List[Row] = []
    totals: Dict[str, List[Optional[float]]] = {}
    fragments: Dict[str, List[Tuple[str, float]]] = {}
    for entry in METRICS:
        if isinstance(entry, Metric):
            if entry.cell is not None:
                label, column = entry.cell
                totals.setdefault(label, [None] * 3)[column] = metrics[entry.name]
            if entry.line is not None:
                label, fragment = entry.line
                fragments.setdefault(label, []).append((fragment, metrics[entry.name]))
            continue
        for member in members(metrics, entry.domain):
            cells: List[Optional[float]] = [None] * 3
            for stat in entry.stats:
                cells[stat.column] = metrics[entry.name(member, stat)]
            if entry.total is not None:
                total = totals.setdefault(entry.total, [None] * 3)
                total[EVENTS] = (total[EVENTS] or 0.0) + cells[EVENTS]
            if cells[EVENTS] or not entry.sparse:
                rows.append((entry.label.format(member=member), cells))
    lines = [
        f"{label}: " + "".join(fragment.format(value) for fragment, value in parts)
        for label, parts in fragments.items()
        if any(value for _, value in parts)
    ]
    return rows, list(totals.items()), lines
