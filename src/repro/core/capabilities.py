"""Framework capability matrix (Table 2 of the paper).

Table 2 compares BCFL, HBFL, ChainFL and UnifyFL along four axes: whether the
framework is single-level or hierarchical, cross-device or cross-silo, which
orchestration modes it supports, and whether aggregators are free to pick
their own scoring / aggregation behaviour.  The UnifyFL row is *derived from
this codebase* (by introspecting the registered round policies and the
aggregation/scoring policies) so the benchmark that regenerates Table 2
cannot silently drift from the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class FrameworkCapabilities:
    """One row of Table 2."""

    name: str
    fl_structure: str  # "single-level" or "hierarchical"
    fl_type: str  # "cross-device" or "cross-silo"
    orchestration: List[str]  # supported orchestration modes
    flexible_policies: bool


def unifyfl_capabilities() -> FrameworkCapabilities:
    """UnifyFL's row, derived from the implemented components."""
    from repro.core.selection import available_aggregation_policies, available_scoring_policies
    from repro.sched.registry import registered_modes

    # Table 2 compares on the paper's two modes; the row lists whichever of
    # them this implementation actually registers.
    modes = sorted({"sync", "async"}.intersection(registered_modes()))
    flexible = len(available_aggregation_policies()) > 1 and len(available_scoring_policies()) > 1
    return FrameworkCapabilities(
        name="UnifyFL",
        fl_structure="hierarchical",
        fl_type="cross-silo",
        orchestration=modes,
        flexible_policies=flexible,
    )


def related_work_capabilities() -> List[FrameworkCapabilities]:
    """The comparison rows for BCFL, HBFL and ChainFL as reported by the paper."""
    return [
        FrameworkCapabilities("BCFL", "single-level", "cross-device", ["sync"], False),
        FrameworkCapabilities("HBFL", "hierarchical", "cross-silo", ["sync"], False),
        FrameworkCapabilities("ChainFL", "hierarchical", "cross-device", ["sync"], False),
    ]


def capability_table() -> List[FrameworkCapabilities]:
    """All rows of Table 2 (related work plus UnifyFL)."""
    return related_work_capabilities() + [unifyfl_capabilities()]


def format_capability_table() -> str:
    """Render Table 2 as text."""
    rows = capability_table()
    header = f"{'Framework':<10}{'FL':<14}{'Type':<14}{'Orchestration':<16}{'Flexibility':<12}"
    lines = [header, "-" * len(header)]
    for row in rows:
        orchestration = " and ".join(m.capitalize() for m in sorted(row.orchestration))
        lines.append(
            f"{row.name:<10}{row.fl_structure:<14}{row.fl_type:<14}"
            f"{orchestration:<16}{'Flexible' if row.flexible_policies else 'None':<12}"
        )
    return "\n".join(lines)


def sync_async_comparison() -> Dict[str, Dict[str, str]]:
    """The qualitative orchestration-mode comparison of Table 3.

    The paper compares Sync and Async; the ``semi`` column extends the table
    with the bounded-staleness mode added by this reproduction (rounds close
    on a submission quorum or a staleness bound).
    """
    return {
        "training_phase_start": {"sync": "together", "async": "independent", "semi": "independent"},
        "scoring_phase_start": {"sync": "together", "async": "independent", "semi": "independent"},
        "awaits_all_weights": {"sync": "yes", "async": "no", "semi": "quorum only"},
        "straggler_impact": {"sync": "high", "async": "low", "semi": "bounded"},
        "access_to_all_weights": {"sync": "necessarily", "async": "not necessarily", "semi": "not necessarily"},
        "idle_time": {"sync": "high", "async": "low", "semi": "bounded"},
        "weight_similarity_scoring": {"sync": "supported", "async": "not supported", "semi": "not supported"},
    }
