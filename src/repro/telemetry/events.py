"""Structured cluster event log with monotonic sequence numbers.

Fault-tolerance behaviour — shard failure detection, hinted-handoff replay,
recovery re-replication, injected :class:`~repro.service.simulator.FailureEvent`
firings — was previously visible only as aggregate counters, which cannot
answer "what happened, in what order?".  The :class:`EventLog` records each
transition as a timestamped, sequence-numbered event so a failover drill can
be replayed and asserted on step by step.

Events are rare (a handful per run, vs. millions of index operations), so
the log is always on: it needs no ``telemetry_enabled`` gate.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

__all__ = ["Event", "EventLog"]


class Event:
    """One recorded transition."""

    __slots__ = ("seq", "time_ms", "kind", "attributes")

    def __init__(self, seq: int, time_ms: float, kind: str, attributes: Dict[str, object]):
        self.seq = seq
        self.time_ms = time_ms
        self.kind = kind
        self.attributes = attributes

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "time_ms": self.time_ms,
            "kind": self.kind,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(#{self.seq} @{self.time_ms:.3f}ms {self.kind} {self.attributes})"


class EventLog:
    """Append-only event record.

    ``seq`` is assigned at record time and strictly increases, giving a total
    order even when several events share a simulated timestamp (e.g. a
    failure injection and the resulting shard-down detection in the same
    batch).
    """

    def __init__(self, clock=None) -> None:
        self._clock = clock
        self._events: List[Event] = []
        self._next_seq = 0

    def record(self, kind: str, **attributes) -> Event:
        """Append an event, stamped from the log's clock."""
        clock = self._clock
        time_ms = clock.now_ms if clock is not None else 0.0
        event = Event(self._next_seq, time_ms, kind, dict(attributes))
        self._next_seq += 1
        self._events.append(event)
        return event

    def events(self, kind: Optional[str] = None) -> List[Event]:
        """Events in sequence order, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def kinds(self) -> List[str]:
        """Distinct kinds in first-occurrence order."""
        seen: List[str] = []
        for event in self._events:
            if event.kind not in seen:
                seen.append(event.kind)
        return seen

    def snapshot(self) -> List[Dict[str, object]]:
        return [event.to_dict() for event in self._events]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)
