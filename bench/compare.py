#!/usr/bin/env python3
"""Compare two result documents of ``bench/run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of one commit) and
B the candidate.  One row per (workload, end-to-end metric) with both medians,
their quartiles and the ratio B/A, and a verdict:

``within-bound``  B's median is no worse than A's by more than the metric's bound
``regression``    it is worse by more than the bound
``unresolved``    it is worse by more than the bound, but the inter-quartile
                  spread of A or B is wider than the bound and the two sets of
                  runs overlap, so the difference cannot be told from noise

Exact counters (``sim.*``, ``chain.tx_*``, ``transfers_committed``,
``*_calls``) are compared for equality: for a change that only claims speed
they must not move.  Exits non-zero on any regression or any increase in
failed checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List


def is_exact(name: str) -> bool:
    return (
        name.startswith(("sim.", "chain.tx_"))
        or name.endswith("_calls")
        or name == "simnet.network.transfers_committed"
    )


def verdict(base: Dict[str, Any], candidate: Dict[str, Any]) -> str:
    """``base`` and ``candidate`` are the per-metric blocks of two documents."""
    bound = base["bound"]
    sign = 1.0 if base["better"] == "lower" else -1.0
    worse_by = sign * (candidate["median"] - base["median"]) / base["median"]
    if worse_by <= bound:
        return "within-bound"
    wide = any((block["q3"] - block["q1"]) / block["median"] > bound for block in (base, candidate))
    overlap = candidate["min"] <= base["max"] and base["min"] <= candidate["max"]
    return "unresolved" if wide and overlap else "regression"


def compare(base: Dict[str, Any], candidate: Dict[str, Any]) -> int:
    """Print the comparison; return the number of regressions found."""
    regressions = 0
    print(f"A = {base['commit'][:12]} (seed {base['seed']}, reps {base['reps']})   "
          f"B = {candidate['commit'][:12]} (seed {candidate['seed']}, reps {candidate['reps']})")
    header = (f"{'workload':<16}{'metric':<14}{'A median [q1, q3]':>34}"
              f"{'B median [q1, q3]':>34}{'B/A':>8}  {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    differing: List[str] = []
    for workload, a in base["workloads"].items():
        b = candidate["workloads"].get(workload)
        if b is None:
            print(f"{workload:<16}missing from B")
            regressions += 1
            continue
        for metric, block_a in a["end_to_end"].items():
            block_b = b["end_to_end"][metric]
            outcome = verdict(block_a, block_b)
            regressions += outcome == "regression"
            cells = [
                f"{block['median']:.4f} [{block['q1']:.4f}, {block['q3']:.4f}]"
                for block in (block_a, block_b)
            ]
            print(f"{workload:<16}{metric:<14}{cells[0]:>34}{cells[1]:>34}"
                  f"{block_b['median'] / block_a['median']:>8.3f}  {block_a['bound']:>6}  {outcome}")
        outcome = "within-bound" if b["failed_ratio"] <= a["failed_ratio"] else "regression"
        regressions += outcome == "regression"
        print(f"{workload:<16}{'failed_ratio':<14}{a['failed_ratio']:>34.4f}"
              f"{b['failed_ratio']:>34.4f}{'':>8}  {'any':>6}  {outcome}")
        for name, value in a["per_layer"].items():
            if is_exact(name) and b["per_layer"].get(name) != value:
                differing.append(f"{workload}: {name}  A={value!r}  B={b['per_layer'].get(name)!r}")
        if a["digests"] != b["digests"]:
            differing.append(f"{workload}: per-leg result digests differ")
    print()
    if differing:
        print("exact counters that differ (must be none unless the change meant to move them):")
        for line in differing:
            print(f"  {line}")
    else:
        print("exact counters (sim.*, chain.tx_*, transfers_committed, *_calls) and digests: all equal")
    print(f"regressions: {regressions}")
    return regressions


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, candidate = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    return 1 if compare(base, candidate) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
