#!/usr/bin/env python
"""Regenerate the golden result digests under ``tests/goldens/``.

The repo's contract is *fixed seed → bit-identical results*.  Each golden
case is one tiny ``ExperimentConfig``; what is stored is the SHA-256 of
``json.dumps(result_to_dict(result), sort_keys=True)`` (the formula
``bench/child.py`` uses for ``sim.digest``) plus the fields a reviewer needs
to see *what* moved when the digest does: the event count, the simulated
makespan, every aggregator's total time and final global accuracy/loss, and
the fabric totals declared ``golden`` in ``repro.sched.metrics``.
The paper's three baselines (no collaboration, the centralized multilevel
oracle, flat single-level FL) have cases of their own: each stores the
SHA-256 of ``json.dumps(dataclasses.asdict(result), sort_keys=True)`` and the
final accuracies.
``tests/test_golden.py`` re-runs every case and reports the differing fields;
this script is the only way to change a stored value, so an intended behaviour
change shows up as a reviewed field-level diff of ``tests/goldens/digests.json``.

The digests depend on floating-point kernels, so the file records the numpy
version it was generated under and the test skips under any other.

Usage::

    python scripts/regen_goldens.py            # rewrite tests/goldens/digests.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "goldens" / "digests.json"
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy  # noqa: E402

from repro.core.config import (  # noqa: E402
    ExperimentConfig,
    cifar10_workload,
    gpu_cluster_configs,
)
from repro.core.reporting import result_to_dict  # noqa: E402
from repro.core.runner import ExperimentRunner  # noqa: E402
from repro.sched.metrics import golden_names  # noqa: E402

MODES = ("sync", "async", "semi", "hierarchical", "gossip")

#: per-variant ``ExperimentConfig`` keywords, by ``event_streams`` setting.
#: Link-level faults (outages, partitions) need ``event_streams=True``, so
#: the constant-cost faulted variant is churn only.
VARIANTS: Dict[str, Dict[bool, Dict[str, Any]]] = {
    "clean": {
        True: dict(storage_replicas=2),
        False: {},
    },
    "faulted": {
        True: dict(
            storage_replicas=2,
            replication_mode="lazy",
            churn_rate=0.25,
            replica_outages=2,
            outage_duration_s=15,
            wan_partitions=1,
            partition_duration_s=15,
            fault_seed=1,
        ),
        False: dict(churn_rate=0.25, fault_seed=1),
    },
    "sampled": {
        True: dict(storage_replicas=2, population=40, clients_per_round=3),
        False: dict(population=40, clients_per_round=3),
    },
}


def golden_cases() -> Dict[str, Dict[str, Any]]:
    """Case name -> keywords for :func:`build_config`, in a stable order."""
    cases: Dict[str, Dict[str, Any]] = {}
    for mode in MODES:
        for streams in (True, False):
            for variant, by_streams in VARIANTS.items():
                name = f"{mode}-{'streams' if streams else 'constant'}-{variant}"
                cases[name] = dict(mode=mode, event_streams=streams, **by_streams[streams])
    for scoring in ("multikrum", "cosine"):
        cases[f"sync-streams-{scoring}"] = dict(mode="sync", scoring_algorithm=scoring)
    # Twelve dense clusters: the free-running modes key their events by
    # cluster name, and "agg1, agg10, agg11, agg12, agg2, ..." sorts
    # differently from the slot index — every slot ties at t = 0, so the
    # order decides who queues behind whom on the shared storage link.
    for mode in ("async", "semi", "gossip"):
        cases[f"{mode}-streams-dense12"] = dict(mode=mode, clusters=12, clients=1)
    # The bench's ``wide_sync`` shape in miniature: twelve Multi-KRUM
    # scorers over four replicas of capacity 2, picked least-loaded.  The
    # only case whose placements run the capacity > 1 saturation sweep, and
    # nearly all of them with the request time inside the replica's history.
    cases["sync-streams-wide-cap2"] = dict(
        mode="sync",
        clusters=12,
        clients=1,
        scoring_algorithm="multikrum",
        storage_replicas=4,
        replica_capacity=2,
        replica_selection="least-loaded",
    )
    # The bench's ``silo_modes`` shape and seed: Dirichlet partitions of
    # 26, 21, 21, 21, 16 and 16 samples end on a minibatch of one.  With a
    # single image the im2col matrix is handed to BLAS as a transposed view,
    # which decides the last bit of the result, and every iid case above
    # trains on partitions of even size.
    cases["sync-streams-dirichlet-tail1"] = dict(
        mode="sync",
        clusters=4,
        clients=3,
        samples_per_class=24,
        partitioning="dirichlet",
        dirichlet_alpha=0.5,
        seed=0,
        storage_replicas=2,
    )
    return cases


#: the runner method of each baseline, by the name its cases start with.
BASELINES = {
    "no_collab": "run_no_collab_baseline",
    "centralized": "run_centralized_baseline",
    "single_level": "run_single_level_baseline",
}


def baseline_cases() -> Dict[str, Dict[str, Any]]:
    """Baseline case name -> keywords for :func:`build_config`.

    Every baseline runs on the default shape and on four clusters of two
    clients that alternate FedAvg and FedYogi, so a server-optimizer
    strategy's state carries across rounds.
    """
    shapes: Dict[str, Dict[str, Any]] = {
        "default": {},
        "mixed4x2": dict(
            clusters=4, clients=2, seed=2, strategies=("fedavg", "fedyogi") * 2
        ),
    }
    return {
        f"{baseline}-{shape}": dict(overrides)
        for baseline in BASELINES
        for shape, overrides in shapes.items()
    }


def build_config(
    name: str,
    clusters: int = 3,
    clients: int = 2,
    samples_per_class: int = 6,
    partitioning: str = "iid",
    seed: int = 3,
    strategies: Optional[Sequence[str]] = None,
    **overrides: Any,
) -> ExperimentConfig:
    """The tiny two-round federation every golden case is a variation of."""
    return ExperimentConfig(
        name=name,
        workload=cifar10_workload(
            rounds=2, samples_per_class=samples_per_class, image_size=8, learning_rate=0.05
        ),
        clusters=gpu_cluster_configs(
            num_clusters=clusters, num_clients=clients, strategies=strategies
        ),
        rounds=2,
        seed=seed,
        partitioning=partitioning,
        **overrides,
    )


def run_case(name: str, overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Run one case; returns its digest and the fields that explain a change."""
    runner = ExperimentRunner(build_config(name, **overrides))
    document = result_to_dict(runner.run())
    events = int(document["chain_metrics"]["transactions_processed"]) + len(
        runner.comm.network.scheduler.log
    )
    comm = document["comm_metrics"]
    return {
        "digest": hashlib.sha256(
            json.dumps(document, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "events": events,
        "makespan_s": max(a["total_time"] for a in document["aggregators"]),
        "aggregators": {
            a["name"]: {
                key: a[key] for key in ("total_time", "global_accuracy", "global_loss")
            }
            for a in document["aggregators"]
        },
        **{name: comm[name] for name in golden_names()},
    }


def run_baseline_case(name: str, overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Run one baseline case; returns its digest and final accuracies."""
    runner = ExperimentRunner(build_config(name, **overrides))
    result = getattr(runner, BASELINES[name.split("-")[0]])()
    accuracies = {cluster.name: cluster.accuracy for cluster in result.clusters}
    if not math.isnan(result.global_accuracy):
        accuracies["global"] = result.global_accuracy
    return {
        "digest": hashlib.sha256(
            json.dumps(dataclasses.asdict(result), sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "accuracies": accuracies,
    }


def differing_fields(expected: Any, actual: Any, path: str = "") -> List[str]:
    """``path: expected -> actual`` for every leaf two golden records disagree on."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        lines: List[str] = []
        for key in sorted(set(expected) | set(actual)):
            lines += differing_fields(
                expected.get(key, "<absent>"),
                actual.get(key, "<absent>"),
                f"{path}.{key}" if path else key,
            )
        return lines
    return [] if expected == actual else [f"{path}: {expected!r} -> {actual!r}"]


def main() -> int:
    cases = {name: run_case(name, overrides) for name, overrides in golden_cases().items()}
    baselines = {
        name: run_baseline_case(name, overrides) for name, overrides in baseline_cases().items()
    }
    document = {"numpy": numpy.__version__, "cases": cases, "baselines": baselines}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {len(cases)} golden cases and {len(baselines)} baseline cases "
        f"to {GOLDEN_PATH.relative_to(REPO_ROOT)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
