"""Exporting experiment results to JSON and CSV.

The paper's artifact stores per-run metrics for plotting; this module provides
the equivalent for the reproduction: a stable, versioned JSON document per
:class:`~repro.core.results.ExperimentResult` (full per-round history
included) and a flat CSV with one row per aggregator for spreadsheet-style
comparison across runs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.core.results import AggregatorResult, ExperimentResult
from repro.core.timing import RoundTiming
from repro.sched.metrics import UNIT_FORMATS, flat_columns, flat_row

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


#: run- and aggregator-level fields both exports carry (beside the name), the
#: latter with the unit their CSV cell is formatted by (``None``: as is).
_RUN_FIELDS = ("mode", "partitioning", "scoring_algorithm", "rounds")
_AGGREGATOR_FIELDS = (
    ("policy", None),
    ("strategy", None),
    ("total_time", "s"),
    ("idle_time", "s"),
    ("straggler_count", None),
    ("global_accuracy", "ratio"),
    ("global_loss", "ratio"),
    ("local_accuracy", "ratio"),
    ("local_loss", "ratio"),
)


def result_to_dict(result: ExperimentResult) -> Dict:
    """Convert an experiment result into a JSON-serialisable dictionary."""
    document = {
        "schema_version": _SCHEMA_VERSION if result.sampling else 1,
        "name": result.name,
        **{name: getattr(result, name) for name in _RUN_FIELDS},
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
        **{name: getattr(aggregator, name) for name, _ in _AGGREGATOR_FIELDS},
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
                    field.name: getattr(record.timing, field.name)
                    for field in dataclasses.fields(RoundTiming)
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


def save_results_csv(results: Iterable[ExperimentResult], path: PathLike) -> Path:
    """Write one CSV row per aggregator across several experiments.

    The run's fabric totals (:func:`repro.sched.metrics.flat_columns`) are
    repeated on every aggregator row, so sweeps can compare queueing from the
    flat CSV alone.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ["experiment", *_RUN_FIELDS, "aggregator", *(name for name, _ in _AGGREGATOR_FIELDS)]
    header += [column for column, _, _ in flat_columns()]
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=header)
        writer.writeheader()
        for result in results:
            row = {"experiment": result.name, **flat_row(result.comm_metrics, text=True)}
            row.update((name, getattr(result, name)) for name in _RUN_FIELDS)
            for aggregator in result.aggregators:
                row["aggregator"] = aggregator.name
                for name, unit in _AGGREGATOR_FIELDS:
                    value = getattr(aggregator, name)
                    row[name] = value if unit is None else format(value, UNIT_FORMATS[unit])
                writer.writerow(row)
    return path


def load_results_csv(path: PathLike) -> List[Dict[str, str]]:
    """Read a CSV written by :func:`save_results_csv` back into row dictionaries."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))
