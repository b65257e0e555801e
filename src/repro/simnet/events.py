"""Discrete-event primitives: timestamped events and a heap-backed queue.

The simulation substrate was originally driven by ad-hoc loops that scanned
every actor to find the next one to run (an O(n) operation per step).  The
:class:`EventQueue` replaces that scan with a binary heap: scheduling and
popping the earliest event are both O(log n), which is what lets the
orchestration layer scale to large federations.

Ordering is total and deterministic: events are popped by
``(time, priority, key, seq)``.  ``key`` is a caller-chosen label (the
round policies use the roster's slot key — the actor name in a dense run) so
that simultaneous events resolve in a reproducible, machine-independent
order, exactly mirroring the
``min(..., key=lambda a: (a.clock.now(), a.name))`` tie-breaking of the old
scan-based loops.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional


class Event:
    """One scheduled action in simulated time.

    Events compare by ``(time, priority, key, seq)`` so heap order is total
    even when callbacks are not comparable.  A popped event whose
    :attr:`cancelled` flag is set is silently skipped — cancellation is O(1)
    and the heap is never re-built.
    """

    __slots__ = ("time", "priority", "key", "seq", "action", "cancelled")

    def __init__(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        key: str = "",
        seq: int = 0,
    ):
        if time < 0:
            raise ValueError("event time must be non-negative")
        self.time = float(time)
        self.priority = int(priority)
        self.key = str(key)
        self.seq = int(seq)
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the queue discards it instead of firing it."""
        self.cancelled = True

    @property
    def sort_key(self):
        return (self.time, self.priority, self.key, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.2f}, prio={self.priority}, key={self.key!r}{flag})"


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self):
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._pushes = 0
        self._pops = 0

    def push(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        key: str = "",
    ) -> Event:
        """Schedule ``action`` at simulated ``time`` and return its event."""
        event = Event(time, action, priority=priority, key=key, seq=next(self._counter))
        heapq.heappush(self._heap, event)
        self._pushes += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises ``IndexError`` when the queue holds no live events.
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._pops += 1
            return event
        raise IndexError("pop from an empty EventQueue")

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` when empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None

    @property
    def stats(self) -> dict:
        """Lifetime push/pop counters (used by the scalability benchmark)."""
        return {"pushes": self._pushes, "pops": self._pops}
