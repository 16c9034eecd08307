"""Deterministic simulation kernel used by every BatteryLab substrate.

The real BatteryLab platform runs against wall-clock time on physical
hardware (a Raspberry Pi controller, a Monsoon power monitor, Android
phones).  This reproduction replaces all of that with a discrete-event
simulation.  The kernel in this package provides:

* :class:`~repro.simulation.clock.SimClock` — a monotonically advancing
  simulated clock with nanosecond-free float seconds.
* :class:`~repro.simulation.events.EventScheduler` — an ordered event queue
  that drives the clock and dispatches callbacks deterministically.
* :class:`~repro.simulation.random.SeededRandom` — per-component, seeded
  random streams so every experiment is reproducible bit-for-bit.
* :class:`~repro.simulation.entity.Entity` / :class:`SimulationContext` —
  base plumbing shared by devices, monitors, controllers and servers.
* :class:`~repro.simulation.process.PeriodicProcess` — helper for periodic
  activities such as power-monitor sampling or CPU accounting ticks.

Everything in the rest of the library receives a :class:`SimulationContext`
and never touches the wall clock, which is what makes the experiment
drivers in :mod:`repro.experiments` deterministic and fast.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.simulation.clock import SimClock
    from repro.simulation.entity import Entity, SimulationContext
    from repro.simulation.events import Event, EventScheduler
    from repro.simulation.process import PeriodicProcess
    from repro.simulation.random import SeededRandom

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "clock": ("SimClock",),
        "entity": ("Entity", "SimulationContext"),
        "events": ("Event", "EventScheduler"),
        "process": ("PeriodicProcess",),
        "random": ("SeededRandom",),
    },
)
