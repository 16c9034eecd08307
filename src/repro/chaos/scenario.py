"""The chaos scenario DSL: declarative fault scripts on the simulation clock.

A *scenario* is an ordered list of fault events, each ``(at, kind, target,
params)``, serialisable as plain JSON so scripts can live in files and ride
the CLI (``repro chaos --scenario @script.json``).  Timestamps are
simulated seconds from the start of the run; the soak harness (or
:meth:`Scenario.schedule` for event-loop-driven hosts) fires each event
when the simulation clock reaches it.

Fault kinds
-----------
``device.kill``       fail the next N payloads on a device (mid-job death)
``device.hang``       wedge the next N payloads for ``hang_s``, then fail
``device.slow``       slow the next N payloads by ``delay_s`` (they succeed)
``power.off``         PDU outlet off: a whole vantage point goes dark
``power.on``          outlet back on
``power.cycle``       off, then on again ``off_s`` later (reboot)
``partition.start``   drop requests on a named transport/router link
``partition.heal``    heal that link
``crash.server``      kill -9 the access server at journal append ``at_append``
``crash.agent``       kill -9 an agent daemon at outbox write ``at_append`` (an
                      append, or the compaction one triggered)

Two authoring styles produce the same :class:`Scenario`:

>>> Scenario.from_dict({
...     "name": "blip",
...     "events": [
...         {"at": 5.0, "kind": "power.cycle",
...          "target": {"vantage_point": "node1"}, "params": {"off_s": 3.0}},
...     ],
... })
>>> (ScenarioBuilder("blip").at(5.0).power_cycle("node1", off_s=3.0)).build()

Canned scenarios (:func:`canned_scenario`, :func:`canned_scenario_names`)
are builder functions scaled to a run's horizon so ``repro chaos
--scenario kitchen-sink`` works at any job count; their randomised choices
draw only from the seed they are given, keeping every run reproducible
from its printed seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "FAULT_KINDS",
    "ScenarioError",
    "FaultEvent",
    "Scenario",
    "ScenarioBuilder",
    "canned_scenario",
    "canned_scenario_names",
]

#: Every fault kind the DSL accepts, and the params each understands.
FAULT_KINDS: Dict[str, tuple] = {
    "device.kill": ("jobs",),
    "device.hang": ("hang_s", "jobs"),
    "device.slow": ("delay_s", "jobs"),
    "power.off": (),
    "power.on": (),
    "power.cycle": ("off_s",),
    "partition.start": ("duration_s",),
    "partition.heal": (),
    "crash.server": ("at_append", "mode"),
    "crash.agent": ("at_append", "mode"),
}


class ScenarioError(ValueError):
    """A scenario script failed validation."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *when*, *what*, *where*, and *how hard*."""

    at: float
    kind: str
    target: Dict[str, object] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ScenarioError(
                f"unknown fault kind {self.kind!r}; kinds are {sorted(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise ScenarioError(f"event time must be non-negative, got {self.at!r}")
        unknown = set(self.params) - set(FAULT_KINDS[self.kind])
        if unknown:
            raise ScenarioError(
                f"{self.kind} does not take params {sorted(unknown)}; "
                f"it takes {sorted(FAULT_KINDS[self.kind])}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "at": self.at,
            "kind": self.kind,
            "target": dict(self.target),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        if not isinstance(data, dict):
            raise ScenarioError(f"event must be an object, got {type(data).__name__}")
        try:
            at = float(data["at"])
            kind = str(data["kind"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"event needs numeric 'at' and string 'kind': {data!r}") from exc
        target = data.get("target", {})
        params = data.get("params", {})
        if not isinstance(target, dict) or not isinstance(params, dict):
            raise ScenarioError("event 'target' and 'params' must be objects")
        return cls(at=at, kind=kind, target=dict(target), params=dict(params))


class Scenario:
    """An immutable, time-ordered fault script."""

    def __init__(self, name: str, events: List[FaultEvent]) -> None:
        self.name = name
        self.events: List[FaultEvent] = sorted(events, key=lambda e: e.at)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """Time of the last event (0 for an empty scenario)."""
        return self.events[-1].at if self.events else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "events": [e.to_dict() for e in self.events]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be an object")
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ScenarioError("scenario 'events' must be a list")
        return cls(
            name=str(data.get("name", "unnamed")),
            events=[FaultEvent.from_dict(event) for event in events],
        )

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def schedule(self, scheduler, fire: Callable[[FaultEvent], None]) -> int:
        """Register every event on an
        :class:`~repro.simulation.events.EventScheduler`; returns the count.

        For hosts that run their own event loop.  The soak harness instead
        interleaves events with its submission waves directly (same clock,
        same ordering) so that firing survives a mid-run server rebuild.
        """
        for event in self.events:
            scheduler.schedule_at(
                event.at,
                lambda event=event: fire(event),
                label=f"chaos:{self.name}:{event.kind}",
            )
        return len(self.events)


class ScenarioBuilder:
    """Fluent authoring API; every verb mirrors one DSL fault kind.

    >>> builder = ScenarioBuilder("demo")
    >>> builder.at(2.0).kill_device("node1", "node1-dev01")
    >>> builder.at(4.0).partition("agents", duration_s=3.0)
    >>> scenario = builder.build()
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._events: List[FaultEvent] = []
        self._cursor = 0.0

    def at(self, when: float) -> "ScenarioBuilder":
        """Set the timestamp the next verb(s) fire at."""
        if when < 0:
            raise ScenarioError("scenario time must be non-negative")
        self._cursor = float(when)
        return self

    def after(self, delay: float) -> "ScenarioBuilder":
        """Advance the cursor relative to the previous event."""
        return self.at(self._cursor + delay)

    def _add(self, kind: str, target: Dict[str, object], **params: object) -> "ScenarioBuilder":
        self._events.append(
            FaultEvent(at=self._cursor, kind=kind, target=target, params=params)
        )
        return self

    # -- device flakiness -----------------------------------------------------
    def kill_device(self, vantage_point: str, serial: str, jobs: int = 1):
        return self._add(
            "device.kill",
            {"vantage_point": vantage_point, "serial": serial},
            jobs=jobs,
        )

    def hang_device(self, vantage_point: str, serial: str, hang_s: float, jobs: int = 1):
        return self._add(
            "device.hang",
            {"vantage_point": vantage_point, "serial": serial},
            hang_s=hang_s,
            jobs=jobs,
        )

    def slow_device(self, vantage_point: str, serial: str, delay_s: float, jobs: int = 1):
        return self._add(
            "device.slow",
            {"vantage_point": vantage_point, "serial": serial},
            delay_s=delay_s,
            jobs=jobs,
        )

    # -- power events ---------------------------------------------------------
    def power_off(self, vantage_point: str):
        return self._add("power.off", {"vantage_point": vantage_point})

    def power_on(self, vantage_point: str):
        return self._add("power.on", {"vantage_point": vantage_point})

    def power_cycle(self, vantage_point: str, off_s: float = 1.0):
        return self._add("power.cycle", {"vantage_point": vantage_point}, off_s=off_s)

    # -- network partitions ---------------------------------------------------
    def partition(self, link: str, duration_s: Optional[float] = None):
        """Partition a named link (``"agents"``, ``"client"``, or a shard id).

        With ``duration_s`` the heal is scheduled automatically."""
        if duration_s is None:
            return self._add("partition.start", {"link": link})
        self._add("partition.start", {"link": link}, duration_s=duration_s)
        saved = self._cursor
        self.at(saved + float(duration_s))._add("partition.heal", {"link": link})
        self._cursor = saved
        return self

    def heal(self, link: str):
        return self._add("partition.heal", {"link": link})

    # -- crash-kill -----------------------------------------------------------
    def crash_server(self, at_append: int, mode: str = "after", shard: Optional[str] = None):
        target: Dict[str, object] = {}
        if shard is not None:
            target["shard"] = shard
        return self._add("crash.server", target, at_append=at_append, mode=mode)

    def crash_agent(self, agent_id: str, at_append: int, mode: str = "after"):
        return self._add(
            "crash.agent", {"agent_id": agent_id}, at_append=at_append, mode=mode
        )

    def build(self) -> Scenario:
        return Scenario(self.name, list(self._events))


# ---------------------------------------------------------------------------
# Canned scenarios
# ---------------------------------------------------------------------------
#
# Each canned scenario is a function of (seed, horizon_s, devices) so one
# name works at every soak size: fault times are fractions of the horizon,
# and device picks draw from a seed-derived stream only.  ``devices`` is a
# list of (vantage_point, serial) pairs the scenario may touch.


def _pick_devices(rng: random.Random, devices: List[tuple], count: int) -> List[tuple]:
    if not devices:
        raise ScenarioError("canned scenarios need at least one device")
    count = min(count, len(devices))
    return rng.sample(sorted(devices), count)


def _device_flaky(seed: int, horizon_s: float, devices: List[tuple]) -> Scenario:
    """Mid-job deaths, hangs and slow I/O sprinkled across the fleet."""
    rng = random.Random(seed)
    builder = ScenarioBuilder("device-flaky")
    for index, (vp, serial) in enumerate(_pick_devices(rng, devices, 6)):
        when = horizon_s * (0.1 + 0.8 * rng.random())
        verb = index % 3
        if verb == 0:
            builder.at(when).kill_device(vp, serial, jobs=1 + rng.randrange(2))
        elif verb == 1:
            builder.at(when).hang_device(vp, serial, hang_s=2.0 + rng.random() * 3.0)
        else:
            builder.at(when).slow_device(vp, serial, delay_s=0.5 + rng.random(), jobs=2)
    return builder.build()


def _power_cycle(seed: int, horizon_s: float, devices: List[tuple]) -> Scenario:
    """Reboot one vantage point mid-run — a PDU outlet cycled."""
    rng = random.Random(seed)
    vp = _pick_devices(rng, devices, 1)[0][0]
    builder = ScenarioBuilder("power-cycle")
    builder.at(horizon_s * 0.4).power_cycle(vp, off_s=max(1.0, horizon_s * 0.1))
    return builder.build()


def _partition_heal(seed: int, horizon_s: float, devices: List[tuple]) -> Scenario:
    """Cut the agent plane off the gateway for a window, then heal."""
    builder = ScenarioBuilder("partition")
    builder.at(horizon_s * 0.3).partition("agents", duration_s=max(1.0, horizon_s * 0.2))
    return builder.build()


def _crash_recovery(seed: int, horizon_s: float, devices: List[tuple]) -> Scenario:
    """Kill -9 the server mid-journal (torn final append) and recover."""
    rng = random.Random(seed)
    builder = ScenarioBuilder("crash-recovery")
    mode = rng.choice(("before", "after", "torn"))
    builder.at(horizon_s * 0.5).crash_server(at_append=0, mode=mode)
    return builder.build()


def _kitchen_sink(seed: int, horizon_s: float, devices: List[tuple]) -> Scenario:
    """Everything at once: device death + power cycle + partition +
    shard crash-kill, spread across the run."""
    rng = random.Random(seed)
    builder = ScenarioBuilder("kitchen-sink")
    picks = _pick_devices(rng, devices, 4)
    builder.at(horizon_s * 0.15).kill_device(*picks[0][:2], jobs=2)
    builder.at(horizon_s * 0.25).slow_device(*picks[1][:2], delay_s=1.0, jobs=3)
    builder.at(horizon_s * 0.35).hang_device(*picks[2][:2], hang_s=2.5)
    builder.at(horizon_s * 0.45).power_cycle(picks[3][0], off_s=max(1.0, horizon_s * 0.08))
    builder.at(horizon_s * 0.55).partition("agents", duration_s=max(1.0, horizon_s * 0.1))
    builder.at(horizon_s * 0.7).crash_server(
        at_append=0, mode=rng.choice(("before", "after", "torn"))
    )
    builder.at(horizon_s * 0.85).kill_device(*picks[0][:2])
    return builder.build()


_CANNED: Dict[str, Callable[[int, float, List[tuple]], Scenario]] = {
    "device-flaky": _device_flaky,
    "power-cycle": _power_cycle,
    "partition": _partition_heal,
    "crash-recovery": _crash_recovery,
    "kitchen-sink": _kitchen_sink,
}


def canned_scenario_names() -> List[str]:
    return sorted(_CANNED)


def canned_scenario(
    name: str, seed: int, horizon_s: float, devices: List[tuple]
) -> Scenario:
    """Instantiate a canned scenario scaled to one run's horizon and fleet."""
    try:
        build = _CANNED[name]
    except KeyError:
        raise ScenarioError(
            f"unknown canned scenario {name!r}; names: {canned_scenario_names()}"
        ) from None
    if horizon_s <= 0:
        raise ScenarioError("horizon_s must be positive")
    return build(seed, horizon_s, [tuple(d) for d in devices])
