"""End-to-end tests for the JSON-lines socket gateway transport.

The acceptance bar for Platform API v1: a client on a real socket drives
submit → dispatch → results with no in-process shortcuts.
"""

import json
import socket

import pytest

from repro.api import (
    ApiGateway,
    ApiRouter,
    AuthenticationApiError,
    BatteryLabClient,
    JsonLinesTransport,
    TransportApiError,
)
from repro.core.platform import build_default_platform


@pytest.fixture()
def platform():
    return build_default_platform(seed=23, browsers=("chrome",))


@pytest.fixture()
def gateway(platform):
    gateway = ApiGateway(ApiRouter(platform.access_server))
    gateway.start()
    yield gateway
    gateway.stop()


@pytest.fixture()
def client(gateway):
    host, port = gateway.address
    client = BatteryLabClient(
        JsonLinesTransport(host, port, timeout_s=10.0),
        "experimenter",
        "experimenter-token",
    )
    yield client
    client.close()


class TestGatewayEndToEnd:
    def test_submit_dispatch_results_over_the_wire(self, platform, client):
        view = client.submit_job("remote", "noop", priority=3.0)
        assert view.status == "queued"
        platform.run_queue()
        final = client.job_status(view.job_id)
        assert final.status == "completed"
        results = client.job_results(view.job_id)
        assert results.status == "completed"
        assert results.error is None

    def test_many_requests_share_one_connection(self, client):
        for _ in range(10):
            assert client.server_status().api_version == "1.0"

    def test_fleet_and_reservation_over_the_wire(self, platform, client):
        assert client.fleet().device_serials() == ["node1-dev00"]
        reservation = client.reserve_session("node1", "node1-dev00", 10.0, 300.0)
        assert reservation.end_s == 310.0

    def test_typed_errors_cross_the_wire(self, gateway):
        host, port = gateway.address
        with BatteryLabClient(
            JsonLinesTransport(host, port, timeout_s=10.0), "experimenter", "wrong"
        ) as intruder:
            with pytest.raises(AuthenticationApiError):
                intruder.fleet()

    def test_client_survives_transport_close_between_calls(self, client):
        assert client.server_status().api_version == "1.0"
        client.close()  # dropped connection: next call reconnects transparently
        assert client.server_status().api_version == "1.0"

    def test_stop_drops_established_connections(self, gateway):
        host, port = gateway.address
        connected = BatteryLabClient(
            JsonLinesTransport(host, port, timeout_s=2.0), "experimenter", "experimenter-token"
        )
        assert connected.server_status().api_version == "1.0"
        gateway.stop()
        # the pre-stop connection must not keep driving a "down" gateway
        with pytest.raises(TransportApiError):
            connected.server_status()
        connected.close()

    def test_unreachable_gateway_is_transport_failed(self, gateway):
        host, port = gateway.address
        gateway.stop()
        doomed = BatteryLabClient(
            JsonLinesTransport(host, port, timeout_s=0.5), "experimenter", "experimenter-token"
        )
        with pytest.raises(TransportApiError):
            doomed.server_status()


class TestGatewayFraming:
    def _raw(self, gateway, frame: bytes) -> dict:
        host, port = gateway.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(frame)
            return json.loads(sock.makefile("rb").readline())

    def test_malformed_json_gets_error_envelope(self, gateway):
        response = self._raw(gateway, b"{definitely not json\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "request.invalid"

    def test_non_object_frame_gets_error_envelope(self, gateway):
        response = self._raw(gateway, b"[1, 2, 3]\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "request.invalid"

    def test_blank_lines_are_ignored(self, gateway):
        response = self._raw(gateway, b"\n\n{\"op\": \"server.status\"}\n")
        # no auth -> auth error, but the blank lines did not desync framing
        assert response["error"]["code"] == "auth.invalid_credentials"

    def test_gateway_restart_rebinds(self, platform):
        gateway = ApiGateway(ApiRouter(platform.access_server))
        first = gateway.start()
        gateway.stop()
        second = ApiGateway(ApiRouter(platform.access_server))
        try:
            assert second.start() != first or True  # port may be reused; just must bind
            host, port = second.address
            with BatteryLabClient(
                JsonLinesTransport(host, port, timeout_s=5.0),
                "experimenter",
                "experimenter-token",
            ) as client:
                assert client.server_status().api_version == "1.0"
        finally:
            second.stop()


class TestPipelining:
    """Request pipelining: many in-flight requests on one connection,
    answered strictly in order, plus the client-side batch builder."""

    def test_raw_pipelined_requests_answered_in_order(self, gateway):
        host, port = gateway.address
        total = 40
        blob = b"".join(
            json.dumps(
                {
                    "op": "server.status",
                    "version": "1.0",
                    "auth": {
                        "username": "experimenter",
                        "token": "experimenter-token",
                    },
                    "payload": {},
                    "request_id": index,
                }
            ).encode("utf-8")
            + b"\n"
            for index in range(1, total + 1)
        )
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(blob)  # all requests in flight before any read
            reader = sock.makefile("rb")
            responses = [json.loads(reader.readline()) for _ in range(total)]
        assert [response["request_id"] for response in responses] == list(
            range(1, total + 1)
        )
        assert all(response["ok"] for response in responses)

    def test_transport_send_many_matches_serial_sends(self, client):
        request = {
            "op": "server.status",
            "version": "1.0",
            "auth": {"username": "experimenter", "token": "experimenter-token"},
            "payload": {},
            "request_id": 7,
        }
        batch = client.transport.send_many([dict(request) for _ in range(5)])
        assert len(batch) == 5
        assert all(response["ok"] for response in batch)
        assert batch[0]["payload"] == client.transport.send(request)["payload"]

    def test_client_pipeline_mixed_ops(self, platform, client):
        submitted = client.submit_job("pipelined", "noop")
        pipe = client.pipeline()
        status_handle = pipe.job_status(submitted.job_id)
        server_handle = pipe.server_status()
        fleet_handle = pipe.fleet()
        views = pipe.flush()
        assert len(views) == 3
        assert status_handle.result().job_id == submitted.job_id
        assert server_handle.result().api_version == "1.0"
        assert fleet_handle.result().device_serials() == ["node1-dev00"]

    def test_pipeline_surfaces_typed_errors_per_call(self, client):
        pipe = client.pipeline()
        good = pipe.server_status()
        bad = pipe.job_status(99999)
        with pytest.raises(Exception) as excinfo:
            pipe.flush()
        from repro.api import NotFoundApiError

        assert isinstance(excinfo.value, NotFoundApiError)
        assert good.result().api_version == "1.0"  # the good call still resolved
        assert isinstance(bad.error, NotFoundApiError)

    def test_pipeline_works_on_in_process_transport(self, platform):
        client = platform.client()
        pipe = client.pipeline()
        pipe.submit_job("batch-a", "noop")
        pipe.submit_job("batch-b", "noop")
        views = pipe.flush()
        assert [view.name for view in views] == ["batch-a", "batch-b"]
        platform.run_queue()
        assert client.job_status(views[0].job_id).status == "completed"


class TestConcurrentReads:
    """Read-only ops must not serialize behind mutating ops (or behind an
    external driver holding ``router_lock`` for a mutation burst)."""

    def test_slow_job_submit_does_not_block_server_status(self, platform, gateway):
        import threading
        import time as _time

        server = platform.access_server
        original = server.submit_job
        entered = threading.Event()

        def slow_submit(*args, **kwargs):
            entered.set()
            _time.sleep(1.0)  # a mutating op stuck under router_lock
            return original(*args, **kwargs)

        server.submit_job = slow_submit
        host, port = gateway.address
        try:
            writer = BatteryLabClient(
                JsonLinesTransport(host, port, timeout_s=10.0),
                "experimenter",
                "experimenter-token",
            )
            reader = BatteryLabClient(
                JsonLinesTransport(host, port, timeout_s=10.0),
                "experimenter",
                "experimenter-token",
            )
            submit_thread = threading.Thread(
                target=lambda: writer.submit_job("slow", "noop")
            )
            submit_thread.start()
            assert entered.wait(timeout=5.0)
            started = _time.perf_counter()
            status = reader.server_status()
            elapsed = _time.perf_counter() - started
            submit_thread.join(timeout=10.0)
            assert status.api_version == "1.0"
            assert elapsed < 0.5, (
                f"server.status took {elapsed:.2f}s behind a slow job.submit"
            )
            writer.close()
            reader.close()
        finally:
            server.submit_job = original

    def test_reads_concurrent_with_external_router_lock_holder(self, gateway):
        """A host driver holding ``router_lock`` (the documented pattern for
        run_queue bursts) must not freeze read-only remote requests."""
        host, port = gateway.address
        with BatteryLabClient(
            JsonLinesTransport(host, port, timeout_s=10.0),
            "experimenter",
            "experimenter-token",
        ) as client:
            client.server_status()  # connection + auth warm
            with gateway.router_lock:
                assert client.server_status().api_version == "1.0"

    def test_mutating_ops_still_serialize_through_router_lock(self, gateway):
        import threading
        import time as _time

        host, port = gateway.address
        with BatteryLabClient(
            JsonLinesTransport(host, port, timeout_s=10.0),
            "experimenter",
            "experimenter-token",
        ) as client:
            client.server_status()
            finished = threading.Event()

            def submit_while_locked():
                client_b = BatteryLabClient(
                    JsonLinesTransport(host, port, timeout_s=10.0),
                    "experimenter",
                    "experimenter-token",
                )
                client_b.submit_job("locked-out", "noop")
                finished.set()
                client_b.close()

            gateway.router_lock.acquire()
            try:
                thread = threading.Thread(target=submit_while_locked)
                thread.start()
                _time.sleep(0.3)
                assert not finished.is_set(), "job.submit ran despite router_lock"
            finally:
                gateway.router_lock.release()
            assert finished.wait(timeout=5.0)
            thread.join(timeout=5.0)


class TestParkedRequests:
    """A parked ``agent.poll`` holds its connection's place in the response
    order and nothing else: not a worker, and not a trace once the
    connection is gone."""

    AUTH = {"username": "experimenter", "token": "experimenter-token"}

    @pytest.fixture()
    def gateway(self, platform, poller):
        gateway = ApiGateway(ApiRouter(platform.access_server))
        gateway.start()
        yield gateway
        gateway.stop()

    def _line(self, op, request_id, payload=None):
        request = {
            "op": op,
            "version": "2.0",
            "auth": self.AUTH,
            "payload": payload or {},
            "request_id": request_id,
        }
        return json.dumps(request).encode("utf-8") + b"\n"

    def _poll_line(self, request_id, agent_id="edge-1"):
        return self._line(
            "agent.poll", request_id, {"agent_id": agent_id, "wait_s": 20.0, "limit": 10}
        )

    def test_requests_pipelined_behind_a_parked_poll_keep_request_order(
        self, gateway, client, park_signal
    ):
        parked = park_signal(gateway._router)
        client.agent_register("edge-1", connectors=["fake"])
        blob = (
            self._line("server.status", 1)
            + self._poll_line(2)
            + self._line("server.status", 3)
            + self._line("fleet.list", 4)
        )
        with socket.create_connection(gateway.address, timeout=10.0) as sock:
            sock.sendall(blob)  # all four in flight before any read
            reader = sock.makefile("rb")
            assert json.loads(reader.readline())["request_id"] == 1
            assert parked.acquire(timeout=5.0)
            job = client.submit_job("wakes-it", "noop", execution="agent", connector="fake")
            responses = [json.loads(reader.readline()) for _ in range(3)]
        assert [response["request_id"] for response in responses] == [2, 3, 4]
        assert all(response["ok"] for response in responses)
        offers = responses[0]["payload"]["offers"]
        assert [offer["job_id"] for offer in offers] == [job.job_id]

    def test_connection_closed_while_parked_leaves_nothing_behind(
        self, platform, gateway, client, park_signal
    ):
        import threading

        router = gateway._router
        parked = park_signal(router)
        cancelled = threading.Event()
        connections = []
        cancel_owner = router.cancel_owner

        def cancel_and_tell(owner):
            count = cancel_owner(owner)
            connections.append(owner)
            cancelled.set()
            return count

        router.cancel_owner = cancel_and_tell
        client.agent_register("edge-1", connectors=["fake"])
        with socket.create_connection(gateway.address, timeout=10.0) as sock:
            sock.sendall(self._poll_line(1) + self._line("server.status", 2))
            assert parked.acquire(timeout=5.0)
            assert router.parked_polls() == 1
        assert cancelled.wait(timeout=5.0)
        assert router.parked_polls() == 0
        (dead,) = connections
        # The cancelled poll's answer went nowhere, and the request queued
        # behind it died with the connection instead of being run.
        assert not dead._responses and not dead._requests and not dead._worker_active
        registry = platform.access_server.obs.registry
        completions = registry.family("agent_poll_completions_total")
        assert completions.labels(reason="cancelled").value == 1
        assert registry.family("api_parked_polls").labels().value == 0
        # Work for the departed agent wakes nobody and breaks nothing.
        job = client.submit_job("too-late", "noop", execution="agent", connector="fake")
        assert [o.job_id for o in client.agent_poll("edge-1").offers] == [job.job_id]

    def test_poll_that_finds_work_or_does_not_wait_is_answered_in_line(
        self, gateway, client
    ):
        client.agent_register("edge-1", connectors=["fake"])
        assert client.agent_poll("edge-1").offers == []  # wait_s=0: never parks
        job = client.submit_job("ready", "noop", execution="agent", connector="fake")
        offers = client.agent_poll("edge-1", wait_s=20.0).offers
        assert [offer.job_id for offer in offers] == [job.job_id]
        assert gateway._router.parked_polls() == 0


class TestGatewayTelemetry:
    """Gateway loop health metrics: the request/connection counters and
    per-batch latency histograms recorded on the selector-loop hot paths.
    Telemetry is per *batch* on the inline path, so a pipelined burst must
    be accounted request-for-request by the counters while the histogram
    sees at most one observation per TCP read."""

    @staticmethod
    def _registry(platform):
        return platform.access_server.obs.registry

    def _counter(self, platform, name, **labels):
        return self._registry(platform).family(name).labels(**labels).value

    def test_pipelined_burst_counted_request_for_request(self, platform, gateway):
        host, port = gateway.address
        total = 40
        blob = b"".join(
            json.dumps(
                {
                    "op": "server.status",
                    "version": "1.0",
                    "auth": {
                        "username": "experimenter",
                        "token": "experimenter-token",
                    },
                    "payload": {},
                    "request_id": index,
                }
            ).encode("utf-8")
            + b"\n"
            for index in range(1, total + 1)
        )
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(blob)  # all requests in flight before any read
            reader = sock.makefile("rb")
            responses = [json.loads(reader.readline()) for _ in range(total)]
        assert all(response["ok"] for response in responses)

        inline = self._counter(platform, "gateway_requests_total", mode="inline")
        worker = self._counter(platform, "gateway_requests_total", mode="worker")
        assert inline + worker == total  # no request missed, none double-counted

        batches = self._registry(platform).family("gateway_batch_seconds")
        observed = (
            batches.labels(mode="inline").count + batches.labels(mode="worker").count
        )
        # Per-batch telemetry: one observation per drained read, never one
        # per request — the hot-path cost bound the overhead budget relies on.
        assert 1 <= observed <= total

    def test_connection_lifecycle_counters_and_gauge(self, platform, gateway):
        host, port = gateway.address
        before = self._counter(platform, "gateway_connections_total")
        with BatteryLabClient(
            JsonLinesTransport(host, port, timeout_s=10.0),
            "experimenter",
            "experimenter-token",
        ) as client:
            client.server_status()
            assert (
                self._counter(platform, "gateway_connections_total") == before + 1
            )
            self._registry(platform).snapshot()  # collect hooks run here
            open_now = (
                self._registry(platform)
                .family("gateway_connections_open")
                .labels()
                .value
            )
            assert open_now >= 1.0

    def test_obs_metrics_op_exposes_gateway_families(self, platform, client):
        client.server_status()  # at least one request through the loop
        view = client.obs_metrics(prefix="gateway_")
        names = {sample.name for sample in view.counters}
        assert "gateway_requests_total" in names
        assert "gateway_push_drops_total" in names
        requests = [
            sample
            for sample in view.counters
            if sample.name == "gateway_requests_total"
        ]
        # The obs.metrics round-trip itself rides the gateway, so the
        # counters it reports already include at least the status call.
        assert sum(sample.value for sample in requests) >= 1.0
        histograms = {sample.name for sample in view.histograms}
        assert "gateway_batch_seconds" in histograms
