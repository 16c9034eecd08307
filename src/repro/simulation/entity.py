"""Shared simulation context and entity base class.

Every simulated component (device, power monitor, controller, access server,
network link, ...) is an :class:`Entity` attached to one
:class:`SimulationContext`.  The context bundles the event scheduler, the
clock and the per-component random streams, and offers a tiny structured
log that experiments and tests can assert on — a window of the newest
``HISTORY_LIMIT`` records, the event bus's retention contract.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.simulation.clock import SimClock
from repro.simulation.events import HISTORY_LIMIT, EventScheduler
from repro.simulation.random import RandomRegistry, SeededRandom


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One structured log line emitted by a simulated component."""

    timestamp: float
    source: str
    message: str
    data: Dict[str, object] = field(default_factory=dict)


class SimulationContext:
    """The shared environment a BatteryLab simulation runs in.

    Parameters
    ----------
    seed:
        Root seed for every random stream in this simulation.
    start_time:
        Initial simulated time in seconds.
    """

    def __init__(self, seed: int = 7, start_time: float = 0.0) -> None:
        self._scheduler = EventScheduler(SimClock(start_time))
        self._random = RandomRegistry(seed)
        self._log: Deque[LogRecord] = deque(maxlen=HISTORY_LIMIT)
        self._entities: Dict[str, "Entity"] = {}

    # -- time -----------------------------------------------------------------
    @property
    def scheduler(self) -> EventScheduler:
        return self._scheduler

    @property
    def clock(self) -> SimClock:
        return self._scheduler.clock

    @property
    def now(self) -> float:
        return self._scheduler.now

    def run_for(self, duration: float) -> int:
        return self._scheduler.run_for(duration)

    def run_until(self, timestamp: float) -> int:
        return self._scheduler.run_until(timestamp)

    # -- randomness -----------------------------------------------------------
    @property
    def seed(self) -> int:
        return self._random.root_seed

    def random_stream(self, name: str) -> SeededRandom:
        return self._random.stream(name)

    # -- entity registry ------------------------------------------------------
    def register_entity(self, entity: "Entity") -> None:
        if entity.name in self._entities:
            raise ValueError(f"an entity named {entity.name!r} is already registered")
        self._entities[entity.name] = entity

    def entity(self, name: str) -> "Entity":
        try:
            return self._entities[name]
        except KeyError:
            raise KeyError(f"no entity registered under {name!r}") from None

    def entities(self) -> List["Entity"]:
        return list(self._entities.values())

    # -- logging --------------------------------------------------------------
    def log(self, source: str, message: str, **data: object) -> LogRecord:
        record = LogRecord(timestamp=self.now, source=source, message=message, data=data)
        self._log.append(record)
        return record

    @property
    def log_retained(self) -> int:
        """Number of records currently held for :meth:`log_records`."""
        return len(self._log)

    def log_records(self, source: Optional[str] = None) -> List[LogRecord]:
        """The newest ``HISTORY_LIMIT`` records, optionally of one source."""
        if source is None:
            return list(self._log)
        return [record for record in self._log if record.source == source]


class Entity:
    """Base class for every simulated component.

    Subclasses get a stable ``name``, access to the shared context, a private
    random stream and a ``log`` helper that stamps records with the entity name.
    """

    def __init__(self, context: SimulationContext, name: str) -> None:
        if not name:
            raise ValueError("entity name must be non-empty")
        self._context = context
        self._name = name
        self._random = context.random_stream(name)
        context.register_entity(self)

    @property
    def context(self) -> SimulationContext:
        return self._context

    @property
    def name(self) -> str:
        return self._name

    @property
    def now(self) -> float:
        return self._context.now

    @property
    def random(self) -> SeededRandom:
        return self._random

    def log(self, message: str, **data: object) -> LogRecord:
        return self._context.log(self._name, message, **data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self._name!r})"
