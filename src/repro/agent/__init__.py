"""Agent-pull execution: edge daemons that pull work from the access server.

BatteryLab's vantage points sit behind residential NATs and flaky links
(Section 3), so the platform cannot rely on pushing work into them.  This
package inverts the flow: a :class:`~repro.agent.daemon.AgentDaemon` runs
*next to* the devices, long-polls the server for matching jobs over
Platform API v2 (``agent.poll``), claims them under a renewable lease
(``agent.claim``/``agent.heartbeat``), executes them through a pluggable
:class:`~repro.agent.connectors.DeviceConnector`, and uploads the outcome
(``agent.report``) — surviving its own crashes through a journal-backed
:class:`~repro.agent.outbox.Outbox` so results upload exactly once.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.agent.connectors import (
        CONNECTOR_PHASES,
        ConnectorContext,
        ConnectorError,
        DeviceConnector,
        FakeConnector,
        MultiConnector,
        NoProvisionConnector,
        PhaseResult,
        connector_types,
        create_connector,
        register_connector,
    )
    from repro.agent.daemon import AgentDaemon
    from repro.agent.outbox import Outbox, SimulatedCrash

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "connectors": (
            "CONNECTOR_PHASES",
            "ConnectorContext",
            "ConnectorError",
            "DeviceConnector",
            "FakeConnector",
            "MultiConnector",
            "NoProvisionConnector",
            "PhaseResult",
            "connector_types",
            "create_connector",
            "register_connector",
        ),
        "daemon": ("AgentDaemon",),
        "outbox": ("Outbox", "SimulatedCrash"),
    },
)
