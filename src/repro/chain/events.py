"""Contract event log and subscriptions.

UnifyFL's aggregators subscribe to ``StartTraining`` and ``StartScoring``
events emitted by the orchestrator contract (Algorithm 1 in the paper).  The
:class:`EventBus` reproduces the Geth behaviour they rely on: events are
appended in block order, can be filtered by contract / name / block range, and
subscribers receive callbacks as new events are sealed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True, slots=True)
class Event:
    """A single log entry emitted by a contract method.

    Sealing stamps it once with its block, transaction and log position; the
    stamped event is the one object its receipt and the :class:`EventBus`
    both hold.
    """

    contract: str
    name: str
    payload: Dict[str, Any]
    block_number: int = -1
    tx_hash: str = ""
    log_index: int = -1


@dataclass
class EventFilter:
    """Criteria for selecting events from the log."""

    contract: Optional[str] = None
    name: Optional[str] = None
    from_block: int = 0
    to_block: Optional[int] = None

    def matches(self, event: Event) -> bool:
        if self.contract is not None and event.contract != self.contract:
            return False
        if self.name is not None and event.name != self.name:
            return False
        if event.block_number < self.from_block:
            return False
        if self.to_block is not None and event.block_number > self.to_block:
            return False
        return True


class EventBus:
    """Append-only event log with filtering and callback subscriptions."""

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._subscribers: List[tuple[EventFilter, Callable[[Event], None]]] = []

    def append(self, event: Event) -> Event:
        """Record an event (already stamped with block metadata) and notify.

        An event whose ``log_index`` is its position in the log is held as
        it is; any other is held as a copy stamped with that position.
        """
        if event.log_index != len(self._events):
            event = replace(event, log_index=len(self._events))
        self._events.append(event)
        for event_filter, callback in list(self._subscribers):
            if event_filter.matches(event):
                callback(event)
        return event

    def query(self, event_filter: Optional[EventFilter] = None) -> List[Event]:
        """Return all events matching a filter, in log order."""
        event_filter = event_filter or EventFilter()
        return [e for e in self._events if event_filter.matches(e)]

    def subscribe(self, callback: Callable[[Event], None], event_filter: Optional[EventFilter] = None) -> Callable[[], None]:
        """Register a callback for future events; returns an unsubscribe function."""
        entry = (event_filter or EventFilter(), callback)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            if entry in self._subscribers:
                self._subscribers.remove(entry)

        return unsubscribe

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[Event]:
        """A copy of the full event log."""
        return list(self._events)
