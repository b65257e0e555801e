"""One repetition of one workload, in a process of its own.

Run as ``python -m bench.child`` from the repository root by ``bench/run.py``
(which sets ``PYTHONPATH=src`` and pins BLAS to one thread).  A fresh process
per repetition is what makes ``peak_rss_mb`` and ``setup_s`` mean something:
``ru_maxrss`` is a process-wide high-water mark and imports happen once.

The untraced path touches only the stable surface of the program:
``ExperimentConfig``, ``cifar10_workload``, ``gpu_cluster_configs``,
``ExperimentRunner(config)``, ``.build()``, ``.run()``,
``runner.comm.network.scheduler.log``, ``runner.chain.metrics.as_dict()``,
``runner.chain.verify_chain()``, ``runner.comm.summary()``,
``result.sampling``, ``result.orchestration_extras`` and ``result_to_dict``.

Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench.workloads import WORKLOADS, Workload

RESILIENCE_KEYS = ("retries", "failovers", "breaker_trips", "breaker_fast_fails", "dropped_clients")


def peak_rss_mb() -> float:
    """Process high-water RSS in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_leg(
    workload_name: str,
    workload: Workload,
    leg: Dict[str, Any],
    seed: int,
    rounds: int,
    sanitize: bool,
    tracer,
) -> Dict[str, Any]:
    """Build and run one leg; returns its timings, counters and checks."""
    from repro.core.config import ExperimentConfig, cifar10_workload, gpu_cluster_configs
    from repro.core.reporting import result_to_dict
    from repro.core.runner import ExperimentRunner

    mode = leg["mode"]
    built = time.perf_counter()
    config = ExperimentConfig(
        name=f"{workload_name}-{mode}",
        workload=cifar10_workload(
            rounds=rounds,
            samples_per_class=workload.samples_per_class,
            image_size=8,
            learning_rate=0.05,
        ),
        clusters=gpu_cluster_configs(
            num_clusters=workload.clusters, num_clients=workload.clients
        ),
        rounds=rounds,
        seed=seed,
        sanitize=sanitize,
        **workload.config,
        **leg,
    )
    runner = ExperimentRunner(config)
    runner.build()
    setup_s = time.perf_counter() - built

    run = runner.run
    if tracer is not None:
        # The per-leg root span: what no layer's span covers inside it is
        # the time the trace cannot attribute.
        run = tracer.wrap(f"sched.policies.{mode}.run", run)
    wall_0, cpu_0 = time.perf_counter(), time.process_time()
    result = run()
    wall_s, cpu_s = time.perf_counter() - wall_0, time.process_time() - cpu_0

    document = result_to_dict(result)
    chain = runner.chain.metrics.as_dict()
    comm = runner.comm.summary()
    transfers = len(runner.comm.network.scheduler.log)
    history = [record for a in document["aggregators"] for record in a["history"]]
    finals = [
        a["global_accuracy"] for a in document["aggregators"] if math.isfinite(a["global_accuracy"])
    ]
    materialized = int(result.sampling.get("materialized_clusters", 0))

    checks = {
        "chain_clean": chain["transactions_failed"] == 0 and bool(runner.chain.verify_chain()),
        "metrics_finite": bool(history) and all(
            math.isfinite(record[key])
            for record in history
            for key in ("global_accuracy", "global_loss", "local_accuracy", "local_loss")
        ),
    }
    if "churn_rate" in workload.config:
        # A silently disabled fault plan would make this an ordinary run.
        checks["faults_fired"] = comm["failovers"] > 0
    if "population" in workload.config:
        # Eager materialisation would build more than the cohorts drawn.
        cohort = leg["clients_per_round"]
        checks["lazy_materialisation"] = cohort <= materialized <= rounds * cohort

    return {
        "mode": mode,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "events": transfers + int(chain["transactions_processed"]),
        "digest": hashlib.sha256(
            json.dumps(document, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "makespan_s": max(a["total_time"] for a in document["aggregators"]),
        "mean_accuracy": sum(finals) / len(finals) if finals else float("nan"),
        "checks": checks,
        "counters": {
            "simnet.network.transfers_committed": transfers,
            "sim.queued_s": comm["network_queued"],
            "sim.wire_s": comm["network_time"],
            "chain.tx_processed": chain["transactions_processed"],
            "chain.tx_failed": chain["transactions_failed"],
            "chain.blocks_mined": chain["blocks_mined"],
            "ipfs.stored_bytes": document["storage_metrics"]["stored_bytes"],
            "ipfs.transferred_bytes": document["storage_metrics"]["transferred_bytes"],
            "core.aggregator.weights_cache_hits": result.orchestration_extras.get(
                "weights_cache_hits", 0
            ),
            "core.aggregator.weights_cache_evictions": result.orchestration_extras.get(
                "weights_cache_evictions", 0
            ),
            "core.runner.materialized_clusters": materialized,
            **{f"sched.actors.{key}": comm[key] for key in RESILIENCE_KEYS},
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    entered = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--sanitize", action="store_true")
    parser.add_argument("--trace-out", type=Path, help="record spans and write them here")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import numpy
    import repro.core.reporting  # noqa: F401  (timed: the import is part of set-up)
    import repro.core.runner  # noqa: F401

    tracer = None
    if args.trace_out is not None:
        from bench.trace import Tracer

        tracer = Tracer()
        tracer.install()
    import_s = time.perf_counter() - entered
    import_rss_mb = peak_rss_mb()

    legs: List[Dict[str, Any]] = []
    for leg in workload.legs:
        try:
            legs.append(
                run_leg(args.workload, workload, leg, args.seed, args.rounds, args.sanitize, tracer)
            )
        except Exception:  # a leg that raises is a failed check, not a lost run
            legs.append({"mode": leg["mode"], "error": traceback.format_exc()})
        # Legs are independent runs; dropping each before the next keeps the
        # peak at the largest leg instead of their sum.
        gc.collect()

    done = [leg for leg in legs if "error" not in leg]
    output: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "traced": tracer is not None,
        "numpy": numpy.__version__,
        "import_s": import_s,
        "setup_s": import_s + sum(leg["setup_s"] for leg in done),
        "wall_s": sum(leg["wall_s"] for leg in done),
        "cpu_s": sum(leg["cpu_s"] for leg in done),
        "events": sum(leg["events"] for leg in done),
        "import_rss_mb": import_rss_mb,
        "peak_rss_mb": peak_rss_mb(),
        "legs": legs,
    }
    if tracer is not None:
        output["trace"] = tracer.summarise()
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        with args.trace_out.open("w", encoding="utf-8") as handle:
            json.dump(
                {"workload": args.workload, "seed": args.seed, **tracer.document(), **output["trace"]},
                handle,
            )
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
