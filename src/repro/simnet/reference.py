"""From-scratch reference scheduler: the oracle behind the fast one.

:class:`ReferenceLinkScheduler` recomputes every placement query from the
committed reservations alone — no backlog index, no running totals, no tail
fast path; everything else (the saturation sweep, fault windows, ``_plan``)
it inherits.  It is the pre-acceleration behaviour, kept alive as the oracle
of the equivalence tests (``tests/test_link_scheduler_equivalence.py``):
they drive randomized workloads, clean and faulted, through both schedulers
and assert bit-identical placements and totals, so every maintained
structure in :class:`~repro.simnet.network.LinkScheduler` stays an
acceleration rather than a semantic change.

The numeric decompositions (suffix-sum-plus-straddle backlog, log-order
totals) deliberately mirror the optimized code term for term: floating-point
addition is not associative, so the oracle must add the same numbers in the
same order to be bit-exact, not just mathematically equal.
"""

from __future__ import annotations

import bisect
from itertools import accumulate
from typing import List, Optional, Tuple

from .network import LinkScheduler


class ReferenceLinkScheduler(LinkScheduler):
    """A :class:`LinkScheduler` with every acceleration switched off."""

    def outstanding_backlog(self, endpoint: str, at: float) -> float:
        """Backlog recomputed from the raw reservations on every call."""
        intervals = self._busy.get(endpoint)
        if not intervals:
            return 0.0
        starts = [start for start, _ in intervals]
        suffix = list(accumulate(end - start for start, end in reversed(intervals)))
        suffix.reverse()
        prefix_max_end = list(accumulate((end for _, end in intervals), max))
        first = bisect.bisect_left(starts, at)
        total = suffix[first] if first < len(starts) else 0.0
        for i in range(first - 1, -1, -1):
            if prefix_max_end[i] <= at:
                break
            end = intervals[i][1]
            if end > at:
                total += end - at
        return total

    def _earliest_start(
        self,
        endpoints: List[str],
        at: float,
        duration: float,
        fault_windows: Optional[List[Tuple[float, float]]] = None,
    ) -> float:
        """The jump loop without the past-the-timeline fast path."""
        blocked = [self._saturated_intervals(endpoint) for endpoint in endpoints]
        if fault_windows is not None:
            blocked.append(fault_windows)
        start = at
        moved = True
        while moved:
            moved = False
            for intervals in blocked:
                conflict_end = self._conflict_end(intervals, start, duration)
                if conflict_end is not None:
                    start = conflict_end
                    moved = True
                    break
        return start

    @property
    def total_queued_time(self) -> float:
        """Summed over the log on every read."""
        return sum(t.queued_time for t in self.log)

    @property
    def total_wire_time(self) -> float:
        """Summed over the log on every read."""
        return sum(t.duration for t in self.log)
