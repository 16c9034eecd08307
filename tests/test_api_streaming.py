"""Streaming subscriptions: job.watch / events.subscribe, in-process and wired.

Covers the v2 push pipeline end to end — EventBus -> router subscription ->
push frames -> client iterators — plus the shutdown regression: a gateway
with a blocked ``job.watch`` reader must stop promptly and leave no
subscription behind.
"""

import threading
import time

import pytest

from repro.api import (
    ApiGateway,
    ApiRouter,
    BatteryLabClient,
    JsonLinesTransport,
    NotFoundApiError,
    PUSH_FRAME_END,
    PUSH_FRAME_EVENT,
    TransportApiError,
    ValidationApiError,
)
from repro.core.platform import build_default_platform


@pytest.fixture()
def platform():
    return build_default_platform(seed=17, browsers=("chrome",))


@pytest.fixture()
def client(platform):
    return platform.client()


class TestInProcessWatch:
    def test_watch_streams_dispatch_events_then_ends(self, platform, client):
        view = client.submit_job("watched", "noop")
        watch = client.watch_job(view.job_id)
        assert watch.initial.status == "queued"
        platform.run_queue()
        frames = list(watch)
        topics = [frame.topic for frame in frames if frame.frame == PUSH_FRAME_EVENT]
        assert "dispatch.assigned" in topics
        assert "dispatch.released" in topics
        assert frames[-1].frame == PUSH_FRAME_END
        assert watch.done
        assert watch.final.status == "completed"
        # sequence numbers are gap-free per subscription
        assert [frame.seq for frame in frames] == list(range(1, len(frames) + 1))

    def test_watch_already_terminal_job_ends_immediately(self, platform, client):
        view = client.submit_job("quick", "noop")
        platform.run_queue()
        watch = client.watch_job(view.job_id)
        frames = list(watch)
        assert [frame.frame for frame in frames] == [PUSH_FRAME_END]
        assert watch.final.status == "completed"

    def test_watch_filters_other_jobs_events(self, platform, client):
        target = client.submit_job("target", "noop", vantage_point="nowhere")
        watch = client.watch_job(target.job_id)
        client.submit_job("noise-1", "noop")
        client.submit_job("noise-2", "noop")
        platform.run_queue()
        assert list(watch) == []  # nothing for the blocked target job

    def test_watch_cancelled_job_sees_terminal_frame(self, platform, client):
        view = client.submit_job("doomed", "noop", vantage_point="nowhere")
        watch = client.watch_job(view.job_id)
        client.cancel_job(view.job_id)
        frames = list(watch)
        assert frames[0].topic == "dispatch.cancelled"
        assert frames[-1].frame == PUSH_FRAME_END
        assert watch.final.status == "cancelled"

    def test_watch_unknown_job_is_not_found(self, client):
        with pytest.raises(NotFoundApiError):
            client.watch_job(999)

    def test_watch_iterates_incrementally(self, platform, client):
        """Draining an empty buffer stops without ending the subscription."""
        view = client.submit_job("later", "noop", vantage_point="nowhere")
        watch = client.watch_job(view.job_id)
        assert list(watch) == []
        assert not watch.done
        client.cancel_job(view.job_id)
        assert [frame.frame for frame in watch][-1] == PUSH_FRAME_END

    def test_watch_requires_v2(self, platform):
        router = ApiRouter(platform.access_server)
        response = router.handle(
            {
                "op": "job.watch",
                "version": "1.0",
                "auth": {"username": "experimenter", "token": "experimenter-token"},
                "payload": {"job_id": 1},
            }
        )
        assert response["error"]["code"] == "request.version_unsupported"

    def test_wait_returns_final_view(self, platform, client):
        view = client.submit_job("awaited", "noop")
        watch = client.watch_job(view.job_id)
        platform.run_queue()
        assert watch.wait().status == "completed"


class TestInProcessEvents:
    def test_events_stream_by_topic_prefix(self, platform, client):
        stream = client.events(topic_prefix="dispatch.")
        client.submit_job("one", "noop")
        platform.run_queue()
        topics = {frame.topic for frame in stream}
        assert "dispatch.assigned" in topics
        assert "dispatch.batch" in topics
        stream.close()

    def test_events_prefix_filters(self, platform, client):
        stream = client.events(topic_prefix="dispatch.reservation")
        client.submit_job("one", "noop")
        platform.run_queue()
        assert list(stream) == []
        stream.close()

    def test_events_empty_prefix_rejected(self, client):
        with pytest.raises(ValidationApiError):
            client.events(topic_prefix="")

    def test_cancel_subscription_stops_delivery(self, platform, client):
        stream = client.events()
        assert client.cancel_subscription(stream.subscription_id) is True
        client.submit_job("after-cancel", "noop")
        platform.run_queue()
        assert list(stream) == []
        # cancelling again reports false, not an error
        assert client.cancel_subscription(stream.subscription_id) is False

    def test_two_subscriptions_sanitise_one_record_once(self, platform, client, monkeypatch):
        from repro.api import router

        sanitised = []
        push_safe = router._push_safe
        monkeypatch.setattr(
            router, "_push_safe", lambda value: sanitised.append(value) or push_safe(value)
        )
        streams = [client.events(topic_prefix="test."), client.events(topic_prefix="test.")]
        record = platform.access_server.events.publish("test.topic", plain=1, odd={1, 2})
        assert sanitised == [1, {1, 2}]  # each value once, not once per stream
        frames = [next(iter(stream)) for stream in streams]
        assert frames[0].payload == frames[1].payload == {"plain": 1, "odd": "{1, 2}"}
        assert record.wire_payload == frames[0].payload
        assert record.payload == {"plain": 1, "odd": {1, 2}}  # the bus keeps the original
        for stream in streams:
            stream.close()

    def test_subscriptions_tracked_and_released(self, platform):
        router = ApiRouter(platform.access_server)
        from repro.api import InProcessTransport

        client = BatteryLabClient(
            InProcessTransport(router), "experimenter", "experimenter-token"
        )
        stream = client.events()
        watch_target = client.submit_job("t", "noop", vantage_point="nowhere")
        watch = client.watch_job(watch_target.job_id)
        assert len(router.active_subscriptions()) == 2
        stream.close()
        watch.close()
        assert router.active_subscriptions() == []


class TestGatewayStreaming:
    def _serve(self, platform):
        gateway = ApiGateway(ApiRouter(platform.access_server))
        gateway.start()
        return gateway

    def test_watch_over_the_wire_with_live_driver(self, platform):
        gateway = self._serve(platform)
        host, port = gateway.address
        try:
            with BatteryLabClient(
                JsonLinesTransport(host, port, timeout_s=10.0),
                "experimenter",
                "experimenter-token",
            ) as client:
                view = client.submit_job("remote-watch", "noop")
                watch = client.watch_job(view.job_id, timeout_s=10.0)
                driver = threading.Thread(target=platform.run_queue)
                driver.start()
                final = watch.wait()
                driver.join(timeout=5.0)
                assert final.status == "completed"
        finally:
            gateway.stop()

    def test_pushes_interleave_with_responses(self, platform):
        """A request on a connection with a live subscription still gets its
        response, with push frames demultiplexed around it."""
        gateway = self._serve(platform)
        host, port = gateway.address
        try:
            with BatteryLabClient(
                JsonLinesTransport(host, port, timeout_s=10.0),
                "experimenter",
                "experimenter-token",
            ) as client:
                stream = client.events(timeout_s=10.0)
                view = client.submit_job("mid-stream", "noop")
                platform.run_queue()  # events pushed while no request pending
                # this request's response must arrive despite buffered pushes
                assert client.job_status(view.job_id).status == "completed"
                topics = [frame.topic for frame in _drain(stream, 4)]
                assert "dispatch.assigned" in topics
        finally:
            gateway.stop()

    def test_pipelined_requests_interleave_with_pushes(self, platform):
        """A pipelined batch on a connection with a live subscription gets
        every response, in order, with push frames demultiplexed around
        them — frames never interleave mid-line."""
        gateway = self._serve(platform)
        host, port = gateway.address
        try:
            with BatteryLabClient(
                JsonLinesTransport(host, port, timeout_s=10.0),
                "experimenter",
                "experimenter-token",
            ) as client:
                stream = client.events(timeout_s=10.0)
                view = client.submit_job("pipelined-mid-stream", "noop")
                platform.run_queue()  # pushes buffered while no request pending
                pipe = client.pipeline()
                handles = [pipe.job_status(view.job_id) for _ in range(8)]
                pipe.server_status()
                views = pipe.flush()
                assert len(views) == 9
                assert all(h.result().status == "completed" for h in handles)
                topics = [frame.topic for frame in _drain(stream, 4)]
                assert "dispatch.assigned" in topics
        finally:
            gateway.stop()

    def test_stop_with_blocked_watcher_does_not_hang(self, platform):
        """Regression: ApiGateway.stop() must close active streaming
        subscriptions promptly — a blocked job.watch reader cannot hold
        shutdown hostage."""
        gateway = self._serve(platform)
        host, port = gateway.address
        client = BatteryLabClient(
            JsonLinesTransport(host, port, timeout_s=30.0),
            "experimenter",
            "experimenter-token",
        )
        view = client.submit_job("never-runs", "noop", vantage_point="nowhere")
        watch = client.watch_job(view.job_id, timeout_s=30.0)
        outcome = {}

        def blocked_reader():
            try:
                for _ in watch:
                    pass
            except TransportApiError as exc:
                outcome["error"] = str(exc)

        reader = threading.Thread(target=blocked_reader)
        reader.start()
        time.sleep(0.2)  # let the reader block on the socket
        started = time.perf_counter()
        gateway.stop()
        elapsed = time.perf_counter() - started
        reader.join(timeout=5.0)
        assert elapsed < 2.0, f"stop() took {elapsed:.2f}s with a blocked watcher"
        assert not reader.is_alive()
        assert "error" in outcome  # the reader was unblocked with a typed error
        assert gateway._router.active_subscriptions() == []
        client.close()

    def test_stop_with_parked_agent_poll_does_not_hang(self, platform):
        """Regression: ApiGateway.stop() must wake parked ``agent.poll``
        long-polls promptly — an agent waiting out a 30 s poll deadline
        cannot hold shutdown hostage (companion to the blocked-watcher
        test above)."""
        gateway = self._serve(platform)
        host, port = gateway.address
        client = BatteryLabClient(
            JsonLinesTransport(host, port, timeout_s=30.0),
            "experimenter",
            "experimenter-token",
        )
        client.agent_register("parked-agent", connectors=["fake"])
        outcome = {}

        def parked_poller():
            try:
                # No matching work exists: server-side this parks for 20 s
                # unless stop() wakes it.
                outcome["offers"] = client.agent_poll(
                    "parked-agent", wait_s=20.0
                ).offers
            except TransportApiError as exc:
                outcome["error"] = str(exc)

        poller = threading.Thread(target=parked_poller)
        poller.start()
        time.sleep(0.3)  # let the poll park server-side
        assert gateway._router.parked_polls() == 1
        started = time.perf_counter()
        gateway.stop()
        elapsed = time.perf_counter() - started
        poller.join(timeout=5.0)
        assert elapsed < 2.0, f"stop() took {elapsed:.2f}s with a parked poll"
        assert not poller.is_alive()
        # The woken poll either answered empty before the socket died or
        # the reader saw a typed transport error — never a hang.
        assert outcome.get("offers") == [] or "error" in outcome
        assert gateway._router.parked_polls() == 0
        client.close()

    def test_connection_death_cancels_its_subscriptions(self, platform):
        gateway = self._serve(platform)
        router = gateway._router
        host, port = gateway.address
        try:
            client = BatteryLabClient(
                JsonLinesTransport(host, port, timeout_s=10.0),
                "experimenter",
                "experimenter-token",
            )
            client.events(timeout_s=10.0)
            assert len(router.active_subscriptions()) == 1
            client.close()  # drop the TCP connection without unsubscribing
            deadline = time.time() + 5.0
            while router.active_subscriptions() and time.time() < deadline:
                time.sleep(0.05)
            assert router.active_subscriptions() == []
        finally:
            gateway.stop()

    def test_push_timeout_is_typed(self, platform):
        gateway = self._serve(platform)
        host, port = gateway.address
        try:
            with BatteryLabClient(
                JsonLinesTransport(host, port, timeout_s=10.0),
                "experimenter",
                "experimenter-token",
            ) as client:
                view = client.submit_job("quiet", "noop", vantage_point="nowhere")
                watch = client.watch_job(view.job_id, timeout_s=0.2)
                with pytest.raises(TransportApiError):
                    next(iter(watch))
        finally:
            gateway.stop()


def _drain(stream, expected, attempts=50):
    """Collect up to ``expected`` frames from a blocking stream."""
    frames = []
    for _ in range(attempts):
        try:
            frames.append(next(iter(stream)))
        except (StopIteration, TransportApiError):
            break
        if len(frames) >= expected:
            break
    return frames
