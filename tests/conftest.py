"""Shared pytest fixtures.

Most tests only need a simulation context and a device or a controller; the
platform fixture builds the paper's full deployment (access server + the
Imperial College vantage point) and is function-scoped so tests can mutate
it freely.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import ApiError, BatteryLabClient, JsonLinesTransport
from repro.core.platform import build_default_platform
from repro.device.android import AndroidDevice
from repro.device.profiles import SAMSUNG_J7_DUO
from repro.powermonitor.monsoon import MonsoonHVPM
from repro.simulation.entity import SimulationContext


@pytest.fixture
def context() -> SimulationContext:
    """A fresh deterministic simulation context."""
    return SimulationContext(seed=123)


@pytest.fixture
def device(context: SimulationContext) -> AndroidDevice:
    """A Samsung J7 Duo attached to nothing in particular."""
    return AndroidDevice(context, serial="test-dev", profile=SAMSUNG_J7_DUO)


@pytest.fixture
def monitor(context: SimulationContext) -> MonsoonHVPM:
    """A Monsoon HVPM emulator with mains power already applied."""
    unit = MonsoonHVPM(context, serial="HVPM-TEST")
    unit.power_on()
    return unit


@pytest.fixture
def platform():
    """The paper's deployment: access server + one vantage point, all browsers."""
    return build_default_platform(seed=11)


@pytest.fixture
def vantage_point(platform):
    """Handle of the default platform's single vantage point."""
    return platform.vantage_point()


# -- parked agent.poll helpers (gateway, agent-pull and federation tests) -----------


@pytest.fixture
def park_signal():
    """``park_signal(router)``: a semaphore released each time ``router``
    registers an ``agent.poll`` on its parking registry — a test waits for
    N parked agents by acquiring it N times, never by sleeping."""

    def install(router):
        parked = threading.Semaphore(0)
        register = router._park_poll

        def park(*args, **kwargs):
            poll = register(*args, **kwargs)
            parked.release()
            return poll

        router._park_poll = park
        return parked

    return install


class Poller(threading.Thread):
    """One agent long-polling over its own gateway connection."""

    def __init__(self, address, agent_id: str, wait_s: float) -> None:
        super().__init__(daemon=True)
        self.agent_id = agent_id
        self.wait_s = wait_s
        self.client = BatteryLabClient(
            JsonLinesTransport(*address, timeout_s=30.0),
            "experimenter",
            "experimenter-token",
        )
        self.offers = None
        self.error = None
        self.returned_at = None

    def run(self) -> None:
        try:
            self.offers = self.client.agent_poll(self.agent_id, wait_s=self.wait_s).offers
        except ApiError as exc:
            self.error = exc
        self.returned_at = time.perf_counter()

    def result(self, timeout_s: float = 5.0):
        """The poll's offers as job ids; fails the test if it has not returned."""
        self.join(timeout_s)
        assert not self.is_alive(), f"{self.agent_id}'s poll is still parked"
        assert self.error is None, self.error
        return [offer.job_id for offer in self.offers]


@pytest.fixture
def poller():
    """``poller(address, agent_id, wait_s=20.0)`` starts a :class:`Poller`.

    Gateway fixtures should depend on this one, so that they stop first
    (which answers whatever is still parked) and the connections are
    closed here afterwards, with no reader left blocked on them."""
    started = []

    def start(address, agent_id, wait_s=20.0):
        thread = Poller(address, agent_id, wait_s)
        started.append(thread)
        thread.start()
        return thread

    yield start
    for thread in started:
        thread.join(2.0)
        thread.client.close()
