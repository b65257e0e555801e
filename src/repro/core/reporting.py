"""Exporting experiment results to JSON and CSV.

The paper's artifact stores per-run metrics for plotting; this module provides
the equivalent for the reproduction: a stable, versioned JSON document per
:class:`~repro.core.results.ExperimentResult` (full per-round history
included) and a flat CSV with one row per aggregator for spreadsheet-style
comparison across runs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.core.results import AggregatorResult, ExperimentResult

#: schema 2 adds the optional ``sampling`` block (population / cohort /
#: sampling-seed / materialised-cluster metadata of sampled runs).  Classic
#: fully-materialised runs keep emitting version-1 documents so their JSON
#: exports stay byte-identical across releases; loaders accept both.
_SCHEMA_VERSION = 2
_SUPPORTED_SCHEMA_VERSIONS = (1, 2)

PathLike = Union[str, Path]


def _jsonable(value):
    """Recursively coerce policy extras (tuples, nested dicts) to JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def result_to_dict(result: ExperimentResult) -> Dict:
    """Convert an experiment result into a JSON-serialisable dictionary."""
    document = {
        "schema_version": _SCHEMA_VERSION if result.sampling else 1,
        "name": result.name,
        "mode": result.mode,
        "scoring_algorithm": result.scoring_algorithm,
        "partitioning": result.partitioning,
        "rounds": result.rounds,
        "chain_metrics": dict(result.chain_metrics),
        "storage_metrics": dict(result.storage_metrics),
        "comm_metrics": dict(result.comm_metrics),
        "orchestration_extras": _jsonable(result.orchestration_extras),
        "resource_reports": {
            process: report.as_dict() for process, report in result.resource_reports.items()
        },
        "aggregators": [_aggregator_to_dict(a) for a in result.aggregators],
    }
    if result.sampling:
        document["sampling"] = dict(result.sampling)
    return document


def _aggregator_to_dict(aggregator: AggregatorResult) -> Dict:
    return {
        "name": aggregator.name,
        "policy": aggregator.policy,
        "strategy": aggregator.strategy,
        "total_time": aggregator.total_time,
        "idle_time": aggregator.idle_time,
        "straggler_count": aggregator.straggler_count,
        "global_accuracy": aggregator.global_accuracy,
        "global_loss": aggregator.global_loss,
        "local_accuracy": aggregator.local_accuracy,
        "local_loss": aggregator.local_loss,
        "history": [
            {
                "round": record.round_number,
                "global_accuracy": record.global_accuracy,
                "global_loss": record.global_loss,
                "local_accuracy": record.local_accuracy,
                "local_loss": record.local_loss,
                "models_pulled": record.models_pulled,
                "models_scored": record.models_scored,
                "sim_time": record.sim_time,
                "straggled": record.straggled,
                "timing": {
                    "pull_time": record.timing.pull_time,
                    "client_training_time": record.timing.client_training_time,
                    "aggregation_time": record.timing.aggregation_time,
                    "store_time": record.timing.store_time,
                    "chain_time": record.timing.chain_time,
                    "scoring_time": record.timing.scoring_time,
                    "exchange_time": record.timing.exchange_time,
                    "idle_time": record.timing.idle_time,
                },
            }
            for record in aggregator.history
        ],
    }


def save_result_json(result: ExperimentResult, path: PathLike) -> Path:
    """Write an experiment result to a JSON file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(result_to_dict(result), handle, indent=2, sort_keys=True)
    return path


def load_result_json(path: PathLike) -> Dict:
    """Load a previously saved result document.

    Raises:
        ValueError: if the document does not carry a known schema version.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema_version") not in _SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            f"unsupported result schema version {document.get('schema_version')!r} in {path}"
        )
    return document


_CSV_COLUMNS = [
    "experiment",
    "mode",
    "partitioning",
    "scoring_algorithm",
    "rounds",
    "aggregator",
    "policy",
    "strategy",
    "total_time",
    "idle_time",
    "straggler_count",
    "global_accuracy",
    "global_loss",
    "local_accuracy",
    "local_loss",
    # Run-level fabric totals (repeated on every aggregator row; queueing is
    # zero on constant-cost runs) so topology sweeps can compare queueing from
    # the flat CSV alone.
    "network_queued_s",
    "chain_wait_s",
    # Inter-replica propagation traffic (eager pushes + lazy fetches).
    "replication_time_s",
    "replication_queued_s",
    "replication_count",
    # Peer-level exchange traffic (hierarchical shuttles, gossip pulls) and
    # the bytes that crossed a WAN hop.
    "exchange_time_s",
    "exchange_count",
    "wan_bytes",
    # Fault-injection / resilience accounting (zeros on fault-free runs).
    "retries",
    "breaker_open_s",
    "failovers",
    "dropped_clients",
]

#: Stable ``CommFabric.summary`` keys deliberately *not* exported as CSV
#: columns.  The ``WIRE002`` cross-layer lint rule requires every stable
#: summary key to appear in :data:`_CSV_COLUMNS` (directly or via the
#: ``_s``-suffix mapping, e.g. ``chain_wait`` -> ``chain_wait_s``) or in
#: this reviewed list — adding a summary total silently absent from both is
#: a lint failure, so the CSV schema can no longer drift by accident.
_CSV_EXEMPT_SUMMARY_KEYS = frozenset(
    {
        # Per-phase upload/download splits: the CSV carries the aggregate
        # network totals (network_queued_s) plus the phases that distinguish
        # topologies (replication_*, exchange_*); the full split lives in the
        # JSON document's comm_metrics.
        "upload_time",
        "upload_queued",
        "upload_count",
        "download_time",
        "download_queued",
        "download_count",
        "exchange_queued",
        # Run configuration echoes and engine counters, not per-run costs.
        "storage_replicas",
        "network_time",
        "chain_ops",
        "chain_blocks_spanned",
        "chain_blocks_observed",
        "chain_transactions_observed",
        # Resilience detail beyond the four headline columns (retries,
        # breaker_open_s, failovers, dropped_clients); kept JSON-only.
        "backoff_wait_s",
        "breaker_trips",
        "breaker_fast_fails",
        "fault_outage_s",
        "fault_partition_s",
    }
)


def save_results_csv(results: Iterable[ExperimentResult], path: PathLike) -> Path:
    """Write one CSV row per aggregator across several experiments."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        for result in results:
            comm = result.comm_metrics
            for aggregator in result.aggregators:
                writer.writerow(
                    {
                        "network_queued_s": f"{comm['network_queued']:.3f}",
                        "chain_wait_s": f"{comm['chain_wait']:.3f}",
                        "replication_time_s": f"{comm['replication_time']:.3f}",
                        "replication_queued_s": f"{comm['replication_queued']:.3f}",
                        "replication_count": f"{comm['replication_count']:.0f}",
                        "exchange_time_s": f"{comm['exchange_time']:.3f}",
                        "exchange_count": f"{comm['exchange_count']:.0f}",
                        "wan_bytes": f"{comm['wan_bytes']:.0f}",
                        "retries": f"{comm['retries']:.0f}",
                        "breaker_open_s": f"{comm['breaker_open_s']:.3f}",
                        "failovers": f"{comm['failovers']:.0f}",
                        "dropped_clients": f"{comm['dropped_clients']:.0f}",
                        "experiment": result.name,
                        "mode": result.mode,
                        "partitioning": result.partitioning,
                        "scoring_algorithm": result.scoring_algorithm,
                        "rounds": result.rounds,
                        "aggregator": aggregator.name,
                        "policy": aggregator.policy,
                        "strategy": aggregator.strategy,
                        "total_time": f"{aggregator.total_time:.3f}",
                        "idle_time": f"{aggregator.idle_time:.3f}",
                        "straggler_count": aggregator.straggler_count,
                        "global_accuracy": f"{aggregator.global_accuracy:.6f}",
                        "global_loss": f"{aggregator.global_loss:.6f}",
                        "local_accuracy": f"{aggregator.local_accuracy:.6f}",
                        "local_loss": f"{aggregator.local_loss:.6f}",
                    }
                )
    return path


def load_results_csv(path: PathLike) -> List[Dict[str, str]]:
    """Read a CSV written by :func:`save_results_csv` back into row dictionaries."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))
