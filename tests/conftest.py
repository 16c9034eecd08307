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
from repro.api.schemas import PUSH_FRAME_OFFER, ApiPush
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


class BusRecorder:
    """Every record published on an :class:`~repro.simulation.events.EventBus`
    since the recorder subscribed — the bus itself keeps no history, so a
    test attaches one of these before it acts."""

    def __init__(self, bus) -> None:
        self.records = []
        bus.subscribe(None, self.records.append)

    def __call__(self, topic: str) -> list:
        """The recorded records of ``topic``, oldest first."""
        return [record for record in self.records if record.topic == topic]


@pytest.fixture
def record_bus():
    """``record_bus(bus)`` subscribes and returns a :class:`BusRecorder`."""
    return BusRecorder


# -- agent offer-stream helpers (gateway, agent-pull and federation tests) ----------


class Subscriber(threading.Thread):
    """One agent waiting on its ``agent.subscribe`` stream over its own
    gateway connection.  The stream is open when the constructor returns
    (its ack is in), so a test never sleeps for it; the thread then waits
    for one offer frame."""

    def __init__(self, address, agent_id: str, wait_s: float) -> None:
        super().__init__(daemon=True)
        self.agent_id = agent_id
        self.wait_s = wait_s
        self.client = BatteryLabClient(
            JsonLinesTransport(*address, timeout_s=30.0),
            "experimenter",
            "experimenter-token",
        )
        self.stream = self.client.agent_subscribe(agent_id)
        self.frame = None
        self.error = None
        self.received_at = None

    def run(self) -> None:
        try:
            raw = self.client.transport.recv_push(
                self.stream.subscription_id, timeout_s=self.wait_s
            )
            self.frame = ApiPush.from_wire(raw)
        except ApiError as exc:
            self.error = exc
        self.received_at = time.perf_counter()

    def result(self, timeout_s: float = 5.0):
        """The frame's offers as job ids; fails the test if none arrived."""
        self.join(timeout_s)
        assert not self.is_alive(), f"{self.agent_id} is still waiting for an offer"
        assert self.error is None, self.error
        assert self.frame.frame == PUSH_FRAME_OFFER
        return [offer["job_id"] for offer in self.frame.payload["offers"]]


@pytest.fixture
def subscriber():
    """``subscriber(address, agent_id, wait_s=20.0)`` starts a :class:`Subscriber`.

    Gateway fixtures should depend on this one, so that they stop first
    (which ends every stream) and the connections are closed here
    afterwards, with no reader left blocked on them."""
    started = []

    def start(address, agent_id, wait_s=20.0):
        thread = Subscriber(address, agent_id, wait_s)
        started.append(thread)
        thread.start()
        return thread

    yield start
    for thread in started:
        thread.join(2.0)
        thread.client.close()
