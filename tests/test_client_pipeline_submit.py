"""A pipelined ``job.submit`` is built exactly like a single one.

:meth:`ClientPipeline.submit_job` shares :meth:`BatteryLabClient.submit_job`'s
body builder, so every keyword reaches the server — the execution mode, the
multi-device constraints, the controller-CPU constraint — and a session
client on a reconnecting transport stamps each pipelined submission with an
idempotency key, because ``JsonLinesTransport.send_many`` resends a batch
that failed before its first response.
"""

import pytest

from repro.api import ApiRouter, BatteryLabClient
from repro.api.client import InProcessTransport
from repro.core.platform import build_default_platform


class _SpyTransport(InProcessTransport):
    """Records every pipelined request envelope."""

    def __init__(self, router, reconnects=False):
        super().__init__(router)
        self.supports_reconnect = reconnects
        self.sent = []

    def send_many(self, requests):
        self.sent.extend(requests)
        return super().send_many(requests)


@pytest.fixture()
def platform():
    return build_default_platform(seed=29, browsers=("chrome",))


def _client(platform, reconnects=False):
    transport = _SpyTransport(ApiRouter(platform.access_server), reconnects)
    return BatteryLabClient(transport, "experimenter", "experimenter-token"), transport


def test_pipelined_agent_submit_queues_a_pull_job(platform):
    client, _ = _client(platform)
    pipe = client.pipeline()
    pipe.submit_job("pull", "noop", execution="agent")
    (view,) = pipe.flush()
    assert platform.access_server.scheduler.job(view.job_id).spec.execution == "agent"


def test_pipelined_submit_keeps_every_constraint(platform):
    client, transport = _client(platform)
    pipe = client.pipeline()
    pipe.submit_job(
        "fan-out", "noop", execution="agent", device_count=2, connector="multi",
        require_low_controller_cpu=True, max_controller_cpu_percent=30.0,
    )
    (view,) = pipe.flush()
    constraints = transport.sent[0]["payload"]["constraints"]
    assert constraints["device_count"] == 2
    assert constraints["connector"] == "multi"
    assert constraints["require_low_controller_cpu"] is True
    assert constraints["max_controller_cpu_percent"] == 30.0
    spec = platform.access_server.scheduler.job(view.job_id).spec
    assert (spec.constraints.device_count, spec.constraints.connector) == (2, "multi")


def test_session_pipeline_on_a_reconnecting_transport_carries_keys(platform):
    client, transport = _client(platform, reconnects=True)
    client.login()
    pipe = client.pipeline()
    pipe.submit_job("first", "noop")
    pipe.submit_job("second", "noop")
    pipe.flush()
    keys = [request["payload"].get("idempotency_key") for request in transport.sent[-2:]]
    assert all(isinstance(key, str) and len(key) == 32 for key in keys)
    assert keys[0] != keys[1]


def test_v1_pipelined_submit_without_a_session_is_unchanged(platform):
    # The wire shape bulk drivers (and the end-to-end benchmark) submit.
    client, transport = _client(platform, reconnects=True)
    pipe = client.pipeline()
    pipe.submit_job("plain", "noop", priority=0.25, vantage_point="node1")
    pipe.flush()
    assert transport.sent == [{
        "auth": {"token": "experimenter-token", "username": "experimenter"},
        "op": "job.submit",
        "payload": {
            "constraints": {
                "connectivity": None, "device_serial": None, "max_controller_cpu_percent": 50.0,
                "require_low_controller_cpu": False, "vantage_point": "node1",
            },
            "description": "", "is_pipeline_change": False, "log_retention_days": 7.0,
            "name": "plain", "owner": None, "payload": "noop", "priority": 0.25,
            "timeout_s": 3600.0,
        },
        "request_id": 1,
        "version": "1.0",
    }]
