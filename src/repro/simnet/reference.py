"""From-scratch reference scheduler: the oracle behind the fast one.

:class:`ReferenceLinkScheduler` recomputes every placement query from the
committed reservations alone — no backlog index, no running totals, no tail
fast path, and a saturation sweep over the whole boundary history rather
than from the request time on; everything else (fault windows, the
first-fit jump loop, ``_plan``) it inherits.  It is the pre-acceleration
behaviour, kept alive as the oracle of the equivalence tests
(``tests/test_link_scheduler_equivalence.py``): they drive randomized
workloads, clean and faulted, through both schedulers and assert
bit-identical placements and totals, so every maintained structure in
:class:`~repro.simnet.network.LinkScheduler` stays an acceleration rather
than a semantic change.

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

    def _saturated_intervals(self, endpoint: str, at: float) -> List[Tuple[float, float]]:
        """The saturation sweep over every boundary the endpoint has had.

        Ignores ``at``: blocks that closed long before the request are swept
        (and returned) as well, which is what makes this the oracle for the
        windowed sweep.  The simulation sanitizer re-derives windowed
        placements from it too.
        """
        intervals = self._busy.get(endpoint)
        if not intervals or self.unbounded:
            return []
        cap = self.capacity(endpoint)
        if cap == 1:
            return intervals
        # Sorted with the -1 before the +1 at equal times: a reservation
        # ending exactly when another starts never saturates the instant
        # between them.
        boundaries = self._boundaries[endpoint]
        saturated: List[Tuple[float, float]] = []
        active = 0
        block_start: Optional[float] = None
        for time, delta in boundaries:
            active += delta
            if active >= cap and block_start is None:
                block_start = time
            elif active < cap and block_start is not None:
                if time > block_start:
                    saturated.append((block_start, time))
                block_start = None
        return saturated

    def _earliest_start(
        self,
        endpoints: List[str],
        at: float,
        duration: float,
        fault_windows: Optional[List[Tuple[float, float]]] = None,
    ) -> float:
        """The jump loop without the past-the-timeline fast path."""
        blocked = [self._saturated_intervals(endpoint, at) for endpoint in endpoints]
        if fault_windows is not None:
            blocked.append(fault_windows)
        return self._first_fit(blocked, at, duration)

    @property
    def total_queued_time(self) -> float:
        """Summed over the log on every read."""
        return sum(t.queued_time for t in self.log)

    @property
    def total_wire_time(self) -> float:
        """Summed over the log on every read."""
        return sum(t.duration for t in self.log)
