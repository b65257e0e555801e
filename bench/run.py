#!/usr/bin/env python3
"""The repository benchmark: four workloads, each repetition a fresh child.

Three ways to run it, all from the repository root:

``python bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload for about ``S`` seconds (the ``BENCHMARK.json`` contract):
    a throw-away import-only child, then as many timed children as fit (at
    least three), and the median of each metric as one JSON object on the
    last line.  ``--trace 0`` reports the end-to-end metrics from untraced
    children; ``--trace 1`` alternates untraced and traced children and
    reports the per-layer metrics.

``python bench/run.py [--seed 0] [--reps 5] [--out bench/out/result.json]``
    Every workload: warm-up, ``--reps`` untraced children, one traced child.
    Prints every metric by name with its unit and writes the result document
    that ``bench/compare.py`` reads.

``python bench/run.py --check``
    Every workload at reduced rounds with the sanitizer on, one untraced and
    one traced child each; asserts the metric names match ``BENCHMARK.json``,
    every span target resolves, coverage >= 0.95 and overhead <= 0.25.

Children run one at a time with BLAS pinned to one thread.  All times are
host time unless the name starts with ``sim.``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
# Run as a script, sys.path[0] is bench/ itself, where trace.py would shadow
# the standard library's module of that name; import through the package.
sys.path[0] = str(ROOT)

from bench.trace import ACTION_SPAN, LAYERS, TARGETS  # noqa: E402
from bench.workloads import ALL_MODES, WORKLOADS  # noqa: E402

OUT = ROOT / "bench" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}

#: a child that has not finished by then is killed and counted as failed.
CHILD_TIMEOUT_S = 150
#: timed children per contract run, however short ``--seconds`` is.
MIN_REPS = 3
CHECK_MIN_COVERAGE = 0.95
CHECK_MAX_OVERHEAD = 0.25


def child_environment() -> Dict[str, str]:
    env = dict(os.environ)
    # The warm-up child must be able to leave .pyc files behind, or every
    # timed child's set-up is mostly compiling the program again.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH="src",
    )
    return env


def spawn(
    workload: str, seed: int, rounds: int, sanitize: bool = False, traced: bool = False
) -> Optional[Dict[str, Any]]:
    """Run one child to completion; its result, or ``None`` if it failed."""
    command = [
        sys.executable, "-m", "bench.child",
        "--workload", workload, "--seed", str(seed), "--rounds", str(rounds),
    ]
    if sanitize:
        command.append("--sanitize")
    if traced:
        command += ["--trace-out", str(OUT / f"trace_{workload}.json")]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_environment(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: child killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if done.returncode != 0 or not done.stdout.strip():
        print(f"{workload}: child exited {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def warm_up() -> None:
    """A throw-away child that imports the program, so the page cache and the
    ``.pyc`` files are paid for before the first timed child, not by it."""
    subprocess.run(
        [sys.executable, "-c", "import repro.core.reporting, repro.core.runner"],
        cwd=ROOT, env=child_environment(), capture_output=True, timeout=CHILD_TIMEOUT_S,
    )


def summarise(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and range of the per-child values of one metric."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def end_to_end_values(child: Dict[str, Any]) -> Dict[str, float]:
    return {
        "wall_s": child["wall_s"],
        "cpu_s": child["cpu_s"],
        "events_per_s": child["events"] / child["wall_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": child["setup_s"],
    }


def leg_digests(child: Dict[str, Any]) -> List[str]:
    """The SHA-256 of each leg's result document, in leg order."""
    return [leg.get("digest", "failed") for leg in child["legs"]]


def per_layer_values(child: Dict[str, Any], untraced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced child."""
    trace = child["trace"]
    spans = trace["spans"]
    legs = [leg for leg in child["legs"] if "error" not in leg]
    none = {"calls": 0, "s": 0.0}
    values: Dict[str, float] = {}
    for layer, targets in TARGETS.items():
        for short, _ in targets:
            span = spans.get(f"{layer}.{short}", none)
            values[f"{layer}.{short}_calls"] = span["calls"]
            values[f"{layer}.{short}_s"] = span["s"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = trace["layer_self_s"][layer]
    for mode in ALL_MODES:
        values[f"sched.policies.{mode}.run_s"] = spans.get(f"sched.policies.{mode}.run", none)["s"]
    values["sched.kernel.events"] = spans.get(ACTION_SPAN, none)["calls"]
    values.update(trace["counters"])
    for leg in legs:
        for name, value in leg["counters"].items():
            values[name] = values.get(name, 0) + value
    materialized = values["core.runner.materialized_clusters"]
    values["core.runner.materialise_ms_per_cluster"] = (
        1000.0 * values["core.runner.round_aggregators_s"] / materialized if materialized else 0.0
    )
    values["core.runner.rss_mb_per_cluster"] = (
        (child["peak_rss_mb"] - child["import_rss_mb"]) / materialized if materialized else 0.0
    )
    accuracies = [leg["mean_accuracy"] for leg in legs if math.isfinite(leg["mean_accuracy"])]
    values["sim.events"] = child["events"]
    values["sim.makespan_s"] = sum(leg["makespan_s"] for leg in legs)
    values["sim.mean_accuracy"] = sum(accuracies) / len(accuracies) if accuracies else 0.0
    # A metric value is a number: the first 48 bits of the SHA-256 over the
    # legs' digests (exact in a double); the document keeps the full digests.
    values["sim.digest"] = int(
        hashlib.sha256("+".join(leg_digests(child)).encode("ascii")).hexdigest()[:12], 16
    )
    values["trace.overhead_ratio"] = child["wall_s"] / untraced_wall_s - 1.0
    values["trace.coverage_ratio"] = trace["coverage_ratio"]
    values["trace.unresolved"] = len(trace["unresolved"])
    return values


class Measurement:
    """The children of one workload and what they add up to."""

    def __init__(self, workload: str, seed: int, rounds: int):
        self.workload = workload
        self.seed = seed
        self.rounds = rounds
        self.untraced: List[Dict[str, Any]] = []
        self.traced: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._reference: Optional[Dict[str, Any]] = None

    def add(self, child: Optional[Dict[str, Any]], traced: bool) -> None:
        """Count the child's checks; keep it for the metrics if every leg ran."""
        legs = WORKLOADS[self.workload].legs
        if child is None:
            self.attempted += len(legs)
            self.failed += len(legs)
            self.failures.append("child did not finish")
            return
        if self._reference is None and not traced:
            self._reference = child
        for index, leg in enumerate(child["legs"]):
            checks = {"completed": "error" not in leg, **leg.get("checks", {})}
            if self._reference is not None and "error" not in leg:
                # Fixed seed -> bit-identical results, on every repetition and
                # with tracing on: tracing must not perturb what it measures.
                twin = self._reference["legs"][index]
                checks["repeatable"] = (leg["digest"], leg["events"]) == (
                    twin.get("digest"), twin.get("events")
                )
            self.attempted += len(checks)
            for name, passed in checks.items():
                if not passed:
                    self.failed += 1
                    self.failures.append(f"{leg['mode']}: {name}" + (
                        "\n" + leg["error"] if name == "completed" else ""
                    ))
        if all("error" not in leg for leg in child["legs"]):
            (self.traced if traced else self.untraced).append(child)

    def end_to_end(self) -> Dict[str, Dict[str, Any]]:
        per_child = [end_to_end_values(child) for child in self.untraced]
        return {name: summarise([values[name] for values in per_child]) for name in END_TO_END}

    def per_layer(self) -> Dict[str, float]:
        """Median over the traced children of every per-layer metric."""
        wall_s = statistics.median(child["wall_s"] for child in self.untraced)
        per_child = [per_layer_values(child, wall_s) for child in self.traced]
        return {
            name: statistics.median(values[name] for values in per_child) for name in per_child[0]
        }


def measure(
    workload: str,
    seed: int,
    schedule: Iterable[bool],
    *,
    check: bool = False,
    seconds: Optional[float] = None,
    minimum: int = 0,
) -> Measurement:
    """Run children as ``schedule`` says (``True`` = traced), one at a time.

    With ``seconds`` set the schedule is cut short: once ``minimum`` children
    have run, the next one starts only if the longest so far would still end
    inside the budget, so a run never overshoots by a whole child.
    """
    started = time.monotonic()
    spec = WORKLOADS[workload]
    rounds = spec.check_rounds if check else spec.rounds
    measurement = Measurement(workload, seed, rounds)
    if not check:
        warm_up()
    longest = 0.0
    for count, traced in enumerate(schedule):
        begun = time.monotonic()
        if seconds is not None and count >= minimum and begun - started + longest > seconds:
            break
        measurement.add(spawn(workload, seed, rounds, sanitize=check, traced=traced), traced)
        longest = max(longest, time.monotonic() - begun)
    return measurement


def unit_of(name: str) -> str:
    return (END_TO_END.get(name) or PER_LAYER[name])["unit"]


def print_end_to_end(measurement: Measurement, end_to_end: Dict[str, Dict[str, Any]]) -> None:
    print(f"\n{measurement.workload}  (seed {measurement.seed}, {measurement.rounds} rounds/leg)")
    for name, stats in end_to_end.items():
        print(
            f"  {name:<14}{stats['median']:>12.4f} {unit_of(name):<5} n={stats['n']}  "
            f"q1={stats['q1']:.4f} q3={stats['q3']:.4f} min={stats['min']:.4f} max={stats['max']:.4f}"
        )
    ratio = measurement.failed / measurement.attempted
    print(f"  {'failed_ratio':<14}{ratio:>12.4f} ratio  "
          f"({measurement.failed} of {measurement.attempted} checks)")
    for failure in measurement.failures:
        print(f"  FAILED {failure}")


def print_per_layer(measurement: Measurement, values: Dict[str, float]) -> None:
    wall_s = statistics.median(child["wall_s"] for child in measurement.traced)
    print(f"  layer self time, share of traced wall_s ({wall_s:.3f} s):")
    for layer in sorted(LAYERS, key=lambda layer: -values[f"{layer}.self_s"]):
        self_s = values[f"{layer}.self_s"]
        print(f"    {layer:<18}{self_s:>10.4f} s {100.0 * self_s / wall_s:>6.1f} %")
    for name, value in values.items():
        print(f"  {name:<48}{value:>18.6g} {unit_of(name)}")


# ------------------------------------------------------------------- modes
def run_contract(args: argparse.Namespace) -> int:
    """One workload within ``--seconds``; the result object on the last line."""
    schedule = itertools.cycle([False, True]) if args.trace else itertools.repeat(False)
    measurement = measure(
        args.workload, args.seed, schedule,
        seconds=args.seconds, minimum=2 if args.trace else MIN_REPS,
    )
    if not measurement.untraced or (args.trace and not measurement.traced):
        print("\n".join(measurement.failures), file=sys.stderr)
        return 1
    end_to_end = measurement.end_to_end()
    print_end_to_end(measurement, end_to_end)
    if args.trace:
        values = measurement.per_layer()
        print_per_layer(measurement, values)
    else:
        values = {name: stats["median"] for name, stats in end_to_end.items()}
    print(json.dumps({
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()},
    }))
    return 0


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_batch(args: argparse.Namespace) -> int:
    """Every workload: warm-up, ``--reps`` untraced children, one traced."""
    document: Dict[str, Any] = {
        "schema": 1,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "reps": args.reps,
        "workloads": {},
    }
    failed = 0
    for workload in WORKLOADS:
        measurement = measure(workload, args.seed, [False] * args.reps + [True])
        failed += measurement.failed
        if not measurement.untraced or not measurement.traced:
            print(f"\n{workload}: no complete repetition\n" + "\n".join(measurement.failures))
            failed += 1
            continue
        end_to_end = measurement.end_to_end()
        print_end_to_end(measurement, end_to_end)
        per_layer = measurement.per_layer()
        print_per_layer(measurement, per_layer)
        for name, stats in end_to_end.items():
            stats.update({key: END_TO_END[name][key] for key in ("unit", "better", "bound")})
        document["numpy"] = measurement.untraced[0]["numpy"]
        document["workloads"][workload] = {
            "rounds": measurement.rounds,
            "attempted": measurement.attempted,
            "failed": measurement.failed,
            "failed_ratio": measurement.failed / measurement.attempted,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "digests": leg_digests(measurement.untraced[0]),
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nresult document: {args.out}   traces: {OUT}/trace_<workload>.json")
    return 1 if failed else 0


def run_check() -> int:
    """Reduced rounds, sanitizer on: does the benchmark still fit the program?"""
    problems: List[str] = []
    if [w["name"] for w in SPEC["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for workload in WORKLOADS:
        measurement = measure(workload, 0, [False, True], check=True)
        if not measurement.untraced or not measurement.traced:
            problems += [f"{workload}: {failure}" for failure in measurement.failures]
            continue
        print_end_to_end(measurement, measurement.end_to_end())
        values = measurement.per_layer()
        problems += [f"{workload}: {failure}" for failure in measurement.failures]
        if set(values) != set(PER_LAYER):
            problems.append(
                f"{workload}: per-layer names differ from BENCHMARK.json: "
                f"{sorted(set(values) ^ set(PER_LAYER))}"
            )
        if values["trace.unresolved"]:
            problems.append(f"{workload}: unresolved {measurement.traced[0]['trace']['unresolved']}")
        if values["trace.coverage_ratio"] < CHECK_MIN_COVERAGE:
            problems.append(f"{workload}: coverage {values['trace.coverage_ratio']:.3f}")
        if values["trace.overhead_ratio"] > CHECK_MAX_OVERHEAD:
            problems.append(f"{workload}: tracing overhead {values['trace.overhead_ratio']:.3f}")
        print(
            f"  trace: coverage {values['trace.coverage_ratio']:.3f}, "
            f"overhead {values['trace.overhead_ratio']:+.3f}, "
            f"unresolved {values['trace.unresolved']:.0f}"
        )
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    print("check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5, help="untraced children per workload (batch mode)")
    parser.add_argument("--out", type=Path, default=OUT / "result.json")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: no src/repro beside bench/ — nothing to measure", file=sys.stderr)
        return 2
    if args.check:
        return run_check()
    if args.workload:
        return run_contract(args)
    return run_batch(args)


if __name__ == "__main__":
    sys.exit(main())
