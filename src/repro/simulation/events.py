"""Discrete event scheduler and the structured event bus.

The scheduler owns the :class:`~repro.simulation.clock.SimClock` and runs
callbacks in timestamp order.  Ties are broken by insertion order so the
simulation is fully deterministic.  The scheduler intentionally stays small:
the heavy lifting (power integration, CPU accounting, sampling) is done by
the components themselves through :class:`~repro.simulation.process.PeriodicProcess`.

:class:`EventBus` is the simulation layer's publish/subscribe channel for
*structured* records (as opposed to scheduled callbacks): producers such as
the access server's dispatch pipeline publish typed payloads under dotted
topics (``dispatch.assigned``, ``dispatch.batch``, ...) and observers —
tests, experiment drivers, auto-dispatch hooks — subscribe instead of
polling the producer.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.simulation.clock import SimClock

#: Records each in-memory history of a simulation retains — the event bus's
#: and the structured log's (:mod:`repro.simulation.entity`).  Both keep the
#: newest and drop the oldest.
HISTORY_LIMIT = 10_000


@dataclass(order=True)
class _QueueEntry:
    timestamp: float
    sequence: int
    event: "Event" = field(compare=False)


@dataclass
class Event:
    """A scheduled callback.

    Attributes
    ----------
    timestamp:
        Absolute simulated time at which the callback fires.
    callback:
        Zero-argument callable invoked when the event fires.
    label:
        Human-readable label used in tracing and error messages.
    cancelled:
        Cancelled events stay in the heap but are skipped when popped.
    """

    timestamp: float
    callback: Callable[[], None]
    label: str = ""
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


class EventScheduler:
    """Orders and dispatches :class:`Event` objects against a shared clock."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self._clock = clock if clock is not None else SimClock()
        self._heap: List[_QueueEntry] = []
        self._counter = itertools.count()
        self._dispatched = 0

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def now(self) -> float:
        return self._clock.now

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def dispatched(self) -> int:
        """Number of events executed so far."""
        return self._dispatched

    def schedule_at(self, timestamp: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at an absolute simulated ``timestamp``."""
        if timestamp < self._clock.now:
            raise ValueError(
                f"cannot schedule event {label!r} in the past "
                f"({timestamp:.6f} < {self._clock.now:.6f})"
            )
        event = Event(timestamp=timestamp, callback=callback, label=label)
        heapq.heappush(self._heap, _QueueEntry(timestamp, next(self._counter), event))
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        return self.schedule_at(self._clock.now + delay, callback, label)

    def run_until(self, timestamp: float) -> int:
        """Run all events up to and including ``timestamp``.

        The clock ends at ``timestamp`` even if the last event fired earlier
        — unless a callback re-entered ``run_until``/``run_for`` and drove
        the clock past the target, in which case it ends wherever the
        re-entrant run left it.  Returns the number of events dispatched by
        this call.
        """
        if timestamp < self._clock.now:
            raise ValueError(
                f"run_until target {timestamp:.6f} is before current time {self._clock.now:.6f}"
            )
        dispatched_before = self._dispatched
        while self._heap and self._heap[0].timestamp <= timestamp:
            entry = heapq.heappop(self._heap)
            if entry.event.cancelled:
                continue
            # A callback may re-enter run_until/run_for (e.g. a dispatched
            # job advancing the simulation) and leave the clock past this
            # entry's timestamp; never move the clock backwards.
            if entry.timestamp > self._clock.now:
                self._clock.advance_to(entry.timestamp)
            self._dispatched += 1
            entry.event.callback()
        if timestamp > self._clock.now:
            self._clock.advance_to(timestamp)
        return self._dispatched - dispatched_before

    def run_for(self, duration: float) -> int:
        """Run the simulation forward by ``duration`` seconds."""
        return self.run_until(self._clock.now + duration)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until the queue is empty (bounded by ``max_events`` as a safety net)."""
        dispatched_before = self._dispatched
        while self._heap:
            if self._dispatched - dispatched_before >= max_events:
                raise RuntimeError(
                    f"drain() exceeded {max_events} events; likely a runaway periodic process"
                )
            entry = heapq.heappop(self._heap)
            if entry.event.cancelled:
                continue
            if entry.timestamp > self._clock.now:
                self._clock.advance_to(entry.timestamp)
            self._dispatched += 1
            entry.event.callback()
        return self._dispatched - dispatched_before


@dataclass(frozen=True, slots=True)
class BusEvent:
    """One structured record published on an :class:`EventBus`.

    Attributes
    ----------
    timestamp:
        Simulated time the record was published (0.0 when the bus has no clock).
    topic:
        Dotted topic string, e.g. ``"dispatch.assigned"``.
    payload:
        Topic-specific fields; values are kept primitive so records can be
        serialised or asserted on directly.
    wire_payload:
        Memo of the JSON-safe payload, filled by the first push subscriber
        that delivers the record (``None`` until then; not part of equality).
    """

    timestamp: float
    topic: str
    payload: Dict[str, object] = field(default_factory=dict)
    wire_payload: Optional[Dict[str, object]] = field(
        default=None, init=False, compare=False, repr=False
    )


class EventBus:
    """Topic-based publish/subscribe channel with a bounded history.

    Parameters
    ----------
    clock:
        Optional :class:`~repro.simulation.clock.SimClock` used to stamp
        published records.
    history_limit:
        Maximum number of records retained for :meth:`events`; older records
        are dropped first.
    """

    def __init__(
        self, clock: Optional[SimClock] = None, history_limit: int = HISTORY_LIMIT
    ) -> None:
        self._clock = clock
        self._subscribers: Dict[Optional[str], List[Callable[[BusEvent], None]]] = {}
        self._history: Deque[BusEvent] = deque(maxlen=history_limit)
        self._published = 0

    @property
    def published(self) -> int:
        """Number of records published over the bus's lifetime."""
        return self._published

    @property
    def history_limit(self) -> int:
        return self._history.maxlen

    @property
    def retained(self) -> int:
        """Number of records currently held for :meth:`events`."""
        return len(self._history)

    def subscribe(self, topic: Optional[str], callback: Callable[[BusEvent], None]) -> None:
        """Register ``callback`` for ``topic`` (``None`` subscribes to every topic)."""
        self._subscribers.setdefault(topic, []).append(callback)

    def unsubscribe(self, topic: Optional[str], callback: Callable[[BusEvent], None]) -> None:
        callbacks = self._subscribers.get(topic, [])
        if callback in callbacks:
            callbacks.remove(callback)

    def has_subscribers(self, topic: str) -> bool:
        """True when ``topic`` has at least one exact-topic subscriber.

        Wildcard (``None``) subscribers are deliberately not counted:
        publishers of high-rate optional topics (``trace.span``) use this
        to skip the publish entirely when nothing topic-specific listens.
        """
        return bool(self._subscribers.get(topic))

    def publish(self, topic: str, **payload: object) -> BusEvent:
        """Publish a record and synchronously notify its subscribers."""
        if not topic:
            raise ValueError("event topic must be non-empty")
        timestamp = self._clock.now if self._clock is not None else 0.0
        record = BusEvent(timestamp=timestamp, topic=topic, payload=payload)
        self._history.append(record)
        self._published += 1
        for callback in list(self._subscribers.get(topic, ())):
            callback(record)
        for callback in list(self._subscribers.get(None, ())):
            callback(record)
        return record

    def events(self, topic: Optional[str] = None) -> List[BusEvent]:
        """Retained records, optionally filtered to one topic."""
        if topic is None:
            return list(self._history)
        return [record for record in self._history if record.topic == topic]

    def clear(self) -> None:
        self._history.clear()
