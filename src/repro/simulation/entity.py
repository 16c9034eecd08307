"""Shared simulation context and entity base class.

Every simulated component (device, power monitor, controller, access server,
network link, ...) is an :class:`Entity` attached to one
:class:`SimulationContext`.  The context bundles the event scheduler, the
clock and the per-component random streams.  Its :meth:`~SimulationContext.log`
keeps nothing: a line goes to the stdlib ``repro.simulation`` logger at
DEBUG, stamped with simulated time, and costs a level check when DEBUG is off.
"""

from __future__ import annotations

import logging
from typing import Dict, List

from repro.simulation.clock import SimClock
from repro.simulation.events import EventScheduler
from repro.simulation.random import RandomRegistry, SeededRandom

_LOG = logging.getLogger("repro.simulation")


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
    def log(self, source: str, message: str, **data: object) -> None:
        """One line to the ``repro.simulation`` logger at DEBUG; nothing is kept."""
        if _LOG.isEnabledFor(logging.DEBUG):
            _LOG.debug("[t=%.3f] %s: %s%s", self.now, source, message, f" {data}" if data else "")


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

    def log(self, message: str, **data: object) -> None:
        self._context.log(self._name, message, **data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self._name!r})"
