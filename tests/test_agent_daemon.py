"""The edge daemon: connectors, the outbox journal, and kill -9 recovery.

The heart of this module is the crash matrix: ``kill -9`` the daemon (via
the outbox's planned :class:`SimulatedCrash`) at every interesting journal
offset, start a fresh daemon over the same outbox file, and prove that the
job is neither lost nor double-executed and that its result uploads exactly
once — the agent-pull subsystem's core durability claim.
"""

import builtins
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accessserver.payloads import register_payload
from repro.agent import (
    CONNECTOR_PHASES,
    AgentDaemon,
    ConnectorContext,
    ConnectorError,
    DeviceConnector,
    FakeConnector,
    MultiConnector,
    NoProvisionConnector,
    Outbox,
    SimulatedCrash,
    connector_types,
    create_connector,
)
from repro.agent import outbox as outbox_module
from repro.agent.outbox import COMPACT_BYTES, fold_records
from repro.api.errors import TransportApiError
from repro.core.platform import build_default_platform

#: Executions of the counting payload, keyed by test-chosen label.  The
#: crash matrix asserts exactly-once *payload execution* with this.
_RUNS = {}


def _counting_payload(job):
    _RUNS["count-me"] = _RUNS.get("count-me", 0) + 1
    job.log("counted")
    return _RUNS["count-me"]


register_payload("count-me", _counting_payload)

#: Executions per job id of the ``count-per-job`` payload.
_EXECUTIONS = {}


def _per_job_payload(job):
    _EXECUTIONS[job.job_id] = _EXECUTIONS.get(job.job_id, 0) + 1
    return job.job_id


register_payload("count-per-job", _per_job_payload)


def make_context(**overrides):
    base = dict(
        job_id=1,
        job_name="unit",
        owner="experimenter",
        payload=None,
        vantage_point="node1",
        device_serial="node1-dev00",
        credentials={"username": "agent-user", "owner": "experimenter"},
    )
    base.update(overrides)
    return ConnectorContext(**base)


class TestConnectors:
    def test_registry_lists_builtins(self):
        assert {"fake", "noprovision", "multi"} <= set(connector_types())

    def test_unknown_type_raises(self):
        with pytest.raises(ConnectorError):
            create_connector("starlink")

    def test_unknown_phase_raises(self):
        with pytest.raises(ConnectorError):
            FakeConnector().run_phase("reboot", make_context())

    def test_fake_runs_all_phases_ok(self):
        results = FakeConnector({"result": 42}).run(make_context())
        assert [(r.phase, r.status) for r in results] == [
            ("provision", "ok"),
            ("test", "ok"),
            ("cleanup", "ok"),
        ]

    def test_fake_resolves_registered_payload(self):
        _RUNS.pop("count-me", None)
        ctx = make_context(payload="count-me")
        results = FakeConnector().run(ctx)
        assert ctx.result == 1
        # The payload's job.log() output was captured, not printed.
        test_result = results[1]
        assert "counted" in test_result.output

    def test_fake_falls_back_to_configured_result(self):
        ctx = make_context(payload=None)
        FakeConnector({"result": {"rssi": -70}}).run(ctx)
        assert ctx.result == {"rssi": -70}

    def test_fail_phase_injection_never_skips_cleanup(self):
        results = FakeConnector({"fail_phase": "test"}).run(make_context())
        by_phase = {r.phase: r for r in results}
        assert by_phase["test"].status == "failed"
        assert "injected test failure" in by_phase["test"].output
        assert by_phase["cleanup"].status == "ok"

    def test_noprovision_skips_only_provision(self):
        results = NoProvisionConnector().run(make_context())
        assert [(r.phase, r.status) for r in results] == [
            ("provision", "skipped"),
            ("test", "ok"),
            ("cleanup", "ok"),
        ]

    def test_unimplemented_phase_is_recorded_as_skipped(self):
        class CleanupOnly(DeviceConnector):
            def cleanup(self, ctx):
                return "done"

        results = CleanupOnly().run(make_context())
        assert [r.status for r in results] == ["skipped", "skipped", "ok"]

    def test_output_capture_combines_prints_and_return(self):
        class Chatty(DeviceConnector):
            def test(self, ctx):
                print("line one")
                return "and the return"

        result = Chatty().run_phase("test", make_context())
        assert result.output == "line one\nand the return"

    def test_multi_children_inherit_credentials(self):
        ctx = make_context(
            extra_devices=[("node2", "node2-dev00"), ("node2", "node2-dev01")]
        )
        MultiConnector().run(ctx)
        assert [c["device_serial"] for c in ctx.children] == [
            "node1-dev00",
            "node2-dev00",
            "node2-dev01",
        ]
        assert all(
            c["credentials"] == {"username": "agent-user", "owner": "experimenter"}
            for c in ctx.children
        )
        assert ctx.result == {
            "children": {
                "node1-dev00": "completed",
                "node2-dev00": "completed",
                "node2-dev01": "completed",
            }
        }

    def test_multi_child_failure_fails_the_parent_test_phase(self):
        ctx = make_context(extra_devices=[("node2", "node2-dev00")])
        results = MultiConnector({"child_config": {"fail_phase": "test"}}).run(ctx)
        by_phase = {r.phase: r for r in results}
        assert by_phase["test"].status == "failed"
        assert by_phase["cleanup"].status == "ok"
        assert {c["status"] for c in ctx.children} == {"failed"}


class TestOutbox:
    def test_records_roundtrip_in_order(self, tmp_path):
        outbox = Outbox(str(tmp_path / "o.jsonl"))
        outbox.append("claim", lease_id="lease-1", job_id=7)
        outbox.append("phase", lease_id="lease-1", phase="provision", status="ok")
        kinds = [r["kind"] for r in outbox.records()]
        assert kinds == ["claim", "phase"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert Outbox(str(tmp_path / "never-written.jsonl")).records() == []

    def test_torn_tail_is_dropped(self, tmp_path):
        outbox = Outbox(str(tmp_path / "o.jsonl"))
        outbox.append("claim", lease_id="lease-1", job_id=7)
        outbox.plan_crash(1, mode="torn")
        with pytest.raises(SimulatedCrash):
            outbox.append("result", lease_id="lease-1", status="completed")
        fresh = Outbox(outbox.path)
        assert [r["kind"] for r in fresh.records()] == ["claim"]
        assert fresh.lease_states()["lease-1"]["result"] is None

    def test_append_after_torn_tail_starts_a_fresh_line(self, tmp_path):
        """Reopening an outbox with a torn tail must not let the next
        append concatenate onto the fragment and corrupt itself."""
        outbox = Outbox(str(tmp_path / "o.jsonl"))
        outbox.append("claim", lease_id="lease-1", job_id=7)
        outbox.plan_crash(1, mode="torn")
        with pytest.raises(SimulatedCrash):
            outbox.append("result", lease_id="lease-1", status="completed")
        fresh = Outbox(outbox.path)
        fresh.append("result", lease_id="lease-1", status="completed")
        fresh.append("uploaded", lease_id="lease-1", duplicate=False)
        kinds = [r["kind"] for r in fresh.records()]
        assert kinds == ["claim", "result", "uploaded"]
        assert fresh.lease_states()["lease-1"]["uploaded"] is True

    def test_lease_states_fold(self, tmp_path):
        outbox = Outbox(str(tmp_path / "o.jsonl"))
        outbox.append("claim", lease_id="lease-1", job_id=7)
        outbox.append("phase", lease_id="lease-1", phase="provision", status="ok")
        outbox.append("phase", lease_id="lease-1", phase="test", status="ok")
        outbox.append("result", lease_id="lease-1", status="completed")
        outbox.append("claim", lease_id="lease-2", job_id=8)
        states = outbox.lease_states()
        assert len(states["lease-1"]["phases"]) == 2
        assert states["lease-1"]["result"]["status"] == "completed"
        assert states["lease-1"]["uploaded"] is False
        assert states["lease-2"]["claim"]["job_id"] == 8

    def test_pending_is_first_seen_order_and_excludes_settled(self, tmp_path):
        outbox = Outbox(str(tmp_path / "o.jsonl"))
        outbox.append("claim", lease_id="lease-1", job_id=7)
        outbox.append("claim", lease_id="lease-2", job_id=8)
        outbox.append("claim", lease_id="lease-3", job_id=9)
        outbox.append("result", lease_id="lease-1", status="completed")
        outbox.append("uploaded", lease_id="lease-1", duplicate=False)
        outbox.append("discarded", lease_id="lease-3", reason="expired")
        assert outbox.pending() == ["lease-2"]


@pytest.fixture()
def platform():
    return build_default_platform(seed=11, browsers=("chrome",))


def start_daemon(platform, tmp_path, name="edge-1", **kwargs):
    kwargs.setdefault("connector", "fake")
    daemon = AgentDaemon(
        platform.client(), name, tmp_path / f"{name}.jsonl", **kwargs
    )
    daemon.register()
    return daemon


class TestDaemonHappyPath:
    def test_full_cycle_journal_shape(self, platform, tmp_path):
        _RUNS.pop("count-me", None)
        client = platform.client()
        job = client.submit_job(
            "cycle", "count-me", execution="agent", connector="fake"
        )
        daemon = start_daemon(platform, tmp_path)
        assert daemon.run_once() == job.job_id
        kinds = [r["kind"] for r in daemon.outbox.records()]
        assert kinds == ["claim", "phase", "phase", "phase", "result", "uploaded"]
        assert _RUNS["count-me"] == 1
        assert client.job_status(job.job_id).status == "completed"
        assert client.job_results(job.job_id).result == 1

    def test_lease_is_renewed_between_phases_only(self, platform, tmp_path):
        """The report right after the last phase settles the lease; a
        renewal there would be a wasted round trip."""
        client = platform.client()
        job = client.submit_job("cycle", "noop", execution="agent", connector="fake")
        daemon = start_daemon(platform, tmp_path)
        renewals = []
        heartbeat = daemon.client.agent_heartbeat

        def counted(*args, **kwargs):
            renewals.append(args)
            return heartbeat(*args, **kwargs)

        daemon.client.agent_heartbeat = counted
        assert daemon.run_once() == job.job_id
        assert len(renewals) == len(CONNECTOR_PHASES) - 1

    def test_lease_lapsing_in_the_last_phase_is_caught_at_upload(
        self, platform, tmp_path, monkeypatch
    ):
        client = platform.client()
        job = client.submit_job("slow", "noop", execution="agent", connector="fake")
        daemon = start_daemon(platform, tmp_path)

        def outlive_the_lease(connector, ctx):
            platform.context.run_for(31.0)
            return "cleaned up, eventually"

        monkeypatch.setattr(FakeConnector, "cleanup", outlive_the_lease)
        assert daemon.run_once() is None
        last = daemon.outbox.records()[-1]
        assert (last["kind"], last["reason"]) == ("discarded", "lease unknown at upload")
        # The server requeued the job; the stale result did not win.
        assert client.job_status(job.job_id).status == "queued"

    def test_lease_lapsing_mid_run_still_cleans_up(
        self, platform, tmp_path, monkeypatch
    ):
        """The renewal after a slow provision finds the lease gone: the
        device is still cleaned (and that journaled) before the lease is
        discarded, and the test phase never runs."""
        client = platform.client()
        job = client.submit_job("slow", "noop", execution="agent", connector="fake")
        daemon = start_daemon(platform, tmp_path)
        provision = FakeConnector.provision

        def outlive_the_lease(connector, ctx):
            platform.context.run_for(31.0)
            return provision(connector, ctx)

        monkeypatch.setattr(FakeConnector, "provision", outlive_the_lease)
        assert daemon.run_once() is None
        records = daemon.outbox.records()
        assert [(r["kind"], r.get("phase")) for r in records] == [
            ("claim", None),
            ("phase", "provision"),
            ("phase", "cleanup"),
            ("discarded", None),
        ]
        assert records[2]["status"] == "ok"
        assert records[-1]["reason"] == "lease expired mid-run"
        assert client.job_status(job.job_id).status == "queued"
        daemon.outbox.close()

    def test_run_once_with_empty_queue_returns_none(self, platform, tmp_path):
        daemon = start_daemon(platform, tmp_path)
        assert daemon.run_once() is None
        assert daemon.outbox.records() == []

    def test_failed_phase_reports_job_failed(self, platform, tmp_path):
        client = platform.client()
        job = client.submit_job("doomed", "noop", execution="agent", connector="fake")
        daemon = start_daemon(
            platform, tmp_path, connector_config={"fail_phase": "provision"}
        )
        daemon.run_once()
        view = client.job_status(job.job_id)
        assert view.status == "failed"
        assert "provision: " in view.error
        # Cleanup still ran and was journaled before the failure uploaded.
        phases = [
            (r["phase"], r["status"])
            for r in daemon.outbox.records()
            if r["kind"] == "phase"
        ]
        assert ("cleanup", "ok") in phases


class TestDaemonLoop:
    def test_outage_mid_upload_is_healed_by_the_loop_itself(
        self, platform, tmp_path, monkeypatch
    ):
        """A result stranded in the outbox by a disconnect is uploaded when
        the gateway is back — by the running loop, not the next process
        start — and the outbox is replayed then, not every cycle."""
        client = platform.client()
        job = client.submit_job("stranded", "noop", execution="agent", connector="fake")
        daemon = start_daemon(platform, tmp_path)
        report = daemon.client.agent_report
        outage = [TransportApiError("gateway went away mid-upload")]

        def flaky_report(*args, **kwargs):
            if outage:
                raise outage.pop()
            return report(*args, **kwargs)

        daemon.client.agent_report = flaky_report
        replays = []
        resume = daemon.resume
        daemon.resume = lambda: replays.append(len(replays)) or resume()
        pauses = []
        monkeypatch.setattr("repro.agent.daemon.time.sleep", pauses.append)

        loop = daemon.run_forever(poll_wait_s=0.0)
        assert next(loop) == job.job_id
        assert pauses == [1.0]  # one retry pause, then the replay uploaded it
        kinds = [r["kind"] for r in daemon.outbox.records()]
        assert kinds == ["claim", "phase", "phase", "phase", "result", "uploaded"]
        assert client.job_status(job.job_id).status == "completed"
        # Cycles without an outage do not touch the outbox again.
        later = client.submit_job("later", "noop", execution="agent", connector="fake")
        assert next(loop) == later.job_id
        assert len(replays) == 2  # on entry, and after the outage
        loop.close()

    def test_once_and_duration_bound_the_loop(self, platform, tmp_path, monkeypatch):
        daemon = start_daemon(platform, tmp_path)
        monkeypatch.setattr("repro.agent.daemon.time.sleep", lambda s: None)
        assert list(daemon.run_forever(poll_wait_s=0.0, once=True)) == []
        assert list(daemon.run_forever(poll_wait_s=0.0, duration_s=0.0)) == []


def record_ops(transport):
    """Wrap ``transport.send``; returns the list the ops it sends land in."""
    ops = []
    send = transport.send

    def recording(request):
        ops.append(request["op"])
        return send(request)

    transport.send = recording
    return ops


class TestOfferStream:
    """A subscribed daemon waits for an ``offer`` frame and polls only when
    a frame cannot tell it all: a quiet wait, a ``seq`` gap, a frame whose
    every offer was taken, a stream it has not polled since opening."""

    @pytest.fixture()
    def gateway(self, platform):
        gateway = platform.serve_gateway()
        yield gateway
        gateway.stop()

    @staticmethod
    def connect(gateway):
        from repro.api import BatteryLabClient, JsonLinesTransport

        return BatteryLabClient(
            JsonLinesTransport(*gateway.address, timeout_s=10.0),
            "experimenter",
            "experimenter-token",
        )

    @pytest.fixture()
    def remote(self, gateway):
        """Mutations go through the gateway, whose lock release pushes."""
        with self.connect(gateway) as client:
            yield client

    @pytest.fixture()
    def daemon(self, gateway, tmp_path):
        client = self.connect(gateway)
        daemon = AgentDaemon(client, "edge-1", tmp_path / "edge-1.jsonl")
        daemon.register()
        daemon.subscribe()
        assert daemon.run_once(wait_s=5.0) is None  # the poll a new stream owes
        yield daemon
        daemon.outbox.close()
        client.close()

    def test_a_job_costs_four_requests(self, remote, daemon):
        job = remote.submit_job(
            "pushed", "noop", execution="agent", connector="fake"
        )
        ops = record_ops(daemon.client.transport)
        assert daemon.run_once(wait_s=5.0) == job.job_id
        assert ops == ["agent.claim", "agent.heartbeat", "agent.heartbeat", "agent.report"]

    def test_a_quiet_wait_polls_once(self, daemon):
        ops = record_ops(daemon.client.transport)
        assert daemon.run_once(wait_s=0.05) is None
        assert ops == ["agent.poll"]
        assert daemon.client.transport.connects == 1  # quiet, not gone

    def test_a_frame_whose_every_offer_was_taken_is_followed_by_a_poll(
        self, remote, daemon
    ):
        remote.agent_register("edge-2", connectors=["fake"])
        taken = remote.submit_job("taken", "noop", execution="agent", connector="fake")
        remote.agent_claim("edge-2", taken.job_id)
        ops = record_ops(daemon.client.transport)
        assert daemon.run_once(wait_s=5.0) is None
        assert ops == ["agent.claim", "agent.poll"]

    def test_a_seq_gap_is_followed_by_a_poll(self, remote, daemon):
        transport = daemon.client.transport
        recv_push = transport.recv_push

        def one_frame_lost(*args, **kwargs):
            frame = recv_push(*args, **kwargs)
            frame["seq"] += 1
            return frame

        transport.recv_push = one_frame_lost
        job = remote.submit_job(
            "after-a-gap", "noop", execution="agent", connector="fake"
        )
        ops = record_ops(transport)
        assert daemon.run_once(wait_s=5.0) == job.job_id
        assert ops[:2] == ["agent.poll", "agent.claim"]

    def test_a_reconnect_reopens_the_stream(self, remote, daemon):
        transport = daemon.client.transport
        send = transport.send

        def drop_before_a_heartbeat(request):
            if request["op"] == "agent.heartbeat" and transport.connects == 1:
                transport.close()  # the connection drops; send reconnects
            return send(request)

        transport.send = drop_before_a_heartbeat
        first = remote.submit_job("first", "noop", execution="agent", connector="fake")
        assert daemon.run_once(wait_s=5.0) == first.job_id
        assert transport.connects == 2  # the stream died with connection 1
        ops = record_ops(transport)
        assert daemon.run_once(wait_s=5.0) is None
        assert ops == ["agent.subscribe", "agent.poll"]
        job = remote.submit_job(
            "on-the-new-stream", "noop", execution="agent", connector="fake"
        )
        assert daemon.run_once(wait_s=5.0) == job.job_id
        assert ops[2] == "agent.claim"

    def test_an_in_process_stream_cannot_wait_and_polls(self, platform, tmp_path):
        daemon = start_daemon(platform, tmp_path)
        daemon.subscribe()
        ops = record_ops(daemon.client.transport)
        assert daemon.run_once(wait_s=5.0) is None
        assert ops == ["agent.poll"]
        job = platform.client().submit_job(
            "offered", "noop", execution="agent", connector="fake"
        )
        # The submit's offer frame is buffered, so the claim needs no poll.
        assert daemon.run_once(wait_s=5.0) == job.job_id
        assert ops[:2] == ["agent.poll", "agent.claim"]

    def test_a_submit_through_another_in_process_client_pushes_an_offer(
        self, platform, tmp_path
    ):
        daemon = start_daemon(platform, tmp_path)
        daemon.subscribe()
        assert daemon.run_once(wait_s=0.0) is None  # the poll a new stream owes
        transport = daemon.client.transport
        ops = record_ops(transport)
        job = platform.client().submit_job(
            "pushed", "noop", execution="agent", connector="fake"
        )
        buffered = [frame for frames in transport._push_buffers.values() for frame in frames]
        assert [frame["frame"] for frame in buffered] == ["offer"]
        assert ops == []
        assert daemon.run_once(wait_s=0.0) == job.job_id
        assert ops == ["agent.claim", "agent.heartbeat", "agent.heartbeat", "agent.report"]


class TestCrashMatrix:
    """kill -9 at every interesting outbox offset, then recover.

    Offsets for a single-device job (0-based appends):
    0=claim, 1=phase:provision, 2=phase:test, 3=phase:cleanup, 4=result,
    5=uploaded.  After each crash a *fresh* daemon over the same outbox
    file must settle the job with the payload having run exactly once.
    """

    def _crashing_run(self, platform, tmp_path, at_write, mode):
        _RUNS.pop("count-me", None)
        client = platform.client()
        job = client.submit_job(
            "crashy", "count-me", execution="agent", connector="fake"
        )
        outbox = Outbox(str(tmp_path / "shared.jsonl"))
        outbox.plan_crash(at_write, mode=mode)
        daemon = AgentDaemon(platform.client(), "edge-1", outbox)
        daemon.register()
        with pytest.raises(SimulatedCrash):
            daemon.run_once()
        return job

    def _recover(self, platform, tmp_path):
        fresh = AgentDaemon(platform.client(), "edge-1", tmp_path / "shared.jsonl")
        fresh.register()
        settled = fresh.resume()
        return fresh, settled

    @pytest.mark.parametrize(
        ("at_write", "mode", "runs_before_crash"),
        [
            (0, "after", 0),  # claim durable, no phase ran yet
            (1, "after", 0),  # provision journaled; test never ran
            (2, "after", 1),  # test journaled WITH its computed result
            (3, "after", 1),  # all phases journaled, result record missing
            (4, "before", 1),  # died entering the result append
            (4, "torn", 1),  # result append torn mid-line
            (4, "after", 1),  # result durable, upload never sent
        ],
    )
    def test_resume_settles_exactly_once(
        self, platform, tmp_path, at_write, mode, runs_before_crash
    ):
        job = self._crashing_run(platform, tmp_path, at_write, mode)
        assert _RUNS.get("count-me", 0) == runs_before_crash
        fresh, settled = self._recover(platform, tmp_path)
        assert settled == [job.job_id]
        # The payload ran exactly once across crash + recovery.
        assert _RUNS["count-me"] == 1
        client = platform.client()
        assert client.job_status(job.job_id).status == "completed"
        assert client.job_results(job.job_id).result == 1
        states = fresh.outbox.lease_states()
        (state,) = states.values()
        assert state["uploaded"] is True
        # Recovery leaves nothing pending; a second resume is a no-op.
        assert fresh.resume() == []

    def test_crash_after_upload_ack_lost_is_duplicate(self, platform, tmp_path):
        """Crash between the server ack'ing the report and the daemon
        journaling that ack: the retry must land as a duplicate, not a
        second settlement."""
        job = self._crashing_run(platform, tmp_path, 5, "before")
        # The server already settled the job from the first upload.
        client = platform.client()
        assert client.job_status(job.job_id).status == "completed"
        fresh, settled = self._recover(platform, tmp_path)
        assert settled == [job.job_id]
        assert _RUNS["count-me"] == 1
        uploaded = [
            r for r in fresh.outbox.records() if r["kind"] == "uploaded"
        ]
        assert [r["duplicate"] for r in uploaded] == [True]
        assert client.job_results(job.job_id).result == 1

    def test_crash_before_claim_journaled_heals_via_lease_expiry(
        self, platform, tmp_path
    ):
        """Worst case: the server granted the lease but the daemon died
        before journaling it.  The outbox knows nothing, so the lease must
        simply expire; the requeued job then runs normally — once."""
        job = self._crashing_run(platform, tmp_path, 0, "before")
        assert _RUNS.get("count-me", 0) == 0
        fresh, settled = self._recover(platform, tmp_path)
        assert settled == []  # the outbox is empty — nothing to resume
        assert fresh.run_once() is None  # job still leased to the dead run
        platform.context.run_for(31.0)
        assert fresh.run_once() == job.job_id
        assert _RUNS["count-me"] == 1
        assert platform.client().job_status(job.job_id).status == "completed"

    def test_lease_expired_while_down_discards_and_yields(
        self, platform, tmp_path
    ):
        """Daemon dies mid-run and stays down past the lease TTL: on
        restart it must discard the stale work (the server already
        requeued the job) and let the next claim win."""
        job = self._crashing_run(platform, tmp_path, 1, "after")
        platform.context.run_for(31.0)
        fresh, settled = self._recover(platform, tmp_path)
        assert settled == []
        (state,) = fresh.outbox.lease_states().values()
        assert state["discarded"] is True
        assert state["uploaded"] is False
        # The job went back to the queue and a normal cycle completes it.
        assert fresh.run_once() == job.job_id
        assert platform.client().job_status(job.job_id).status == "completed"
        assert _RUNS["count-me"] == 1  # provision crashed before the test phase

    @pytest.mark.parametrize(
        ("at_write", "cleanups_on_resume"),
        [
            (1, 1),  # provision journaled: the device still needs cleaning
            (2, 1),  # test journaled too; it must not run again
            (3, 0),  # cleanup already journaled: not run twice
        ],
    )
    def test_lease_expired_while_down_cleans_up_once(
        self, platform, tmp_path, monkeypatch, at_write, cleanups_on_resume
    ):
        self._crashing_run(platform, tmp_path, at_write, "after")
        runs_at_crash = _RUNS.get("count-me", 0)
        platform.context.run_for(31.0)
        cleanups = []
        cleanup = FakeConnector.cleanup

        def counted(connector, ctx):
            cleanups.append(ctx.job_id)
            return cleanup(connector, ctx)

        monkeypatch.setattr(FakeConnector, "cleanup", counted)
        fresh, settled = self._recover(platform, tmp_path)
        assert settled == []
        assert len(cleanups) == cleanups_on_resume
        assert _RUNS.get("count-me", 0) == runs_at_crash
        kinds = [(r["kind"], r.get("phase")) for r in fresh.outbox.records()]
        assert kinds.count(("phase", "cleanup")) == 1
        assert kinds[-1] == ("discarded", None)
        assert fresh.outbox.records()[-1]["reason"] == "lease expired while down"
        fresh.outbox.close()

    def test_test_phase_record_journals_its_computed_result(
        self, platform, tmp_path
    ):
        """The test phase's outbox record carries the computed result: a
        crash between that record and the ``result`` append must not lose
        it, because the phase is marked done and never re-runs."""
        job = self._crashing_run(platform, tmp_path, 2, "after")
        outbox = Outbox(str(tmp_path / "shared.jsonl"))
        test_records = [
            r
            for r in outbox.records()
            if r["kind"] == "phase" and r["phase"] == "test"
        ]
        assert [r["result"] for r in test_records] == [1]
        fresh, settled = self._recover(platform, tmp_path)
        assert settled == [job.job_id]
        # Resume restored the journaled value instead of re-running: the
        # counter did not advance and the upload carried result 1.
        assert _RUNS["count-me"] == 1
        assert platform.client().job_results(job.job_id).result == 1


#: Outbox writes of a single-device job: claim, a record per phase, result,
#: uploaded.
WRITES_PER_JOB = len(CONNECTOR_PHASES) + 3


def agent_reports(platform):
    return sum(
        row["value"]
        for row in platform.access_server.obs.registry.snapshot()["counters"]
        if row["name"] == "agent_reports_total"
    )


class TestPowerLossMatrix:
    """Cut the agent's power at every outbox write of two jobs, then restart.

    A power loss keeps what the outbox fsync'd: everything up to its last
    settled lease.  Whatever it forgets, the server's settled-lease memory
    keeps each report exactly-once — the outbox only decides how much work
    the restart repeats.
    """

    @pytest.mark.parametrize("at_write", range(2 * WRITES_PER_JOB))
    def test_every_job_settles_exactly_once(self, tmp_path, at_write):
        _EXECUTIONS.clear()
        platform = build_default_platform(seed=11, browsers=("chrome",))
        client = platform.client()
        jobs = [
            client.submit_job(f"job-{n}", "count-per-job", execution="agent",
                              connector="fake").job_id
            for n in range(2)
        ]
        doomed = start_daemon(platform, tmp_path)
        doomed.outbox.plan_crash(at_write, mode="power-loss")
        with pytest.raises(SimulatedCrash, match="power lost"):
            while doomed.run_once() is not None:
                pass
        doomed.outbox.close()
        reported = {
            job_id for job_id in jobs if client.job_status(job_id).status == "completed"
        }
        runs_at_cut = dict(_EXECUTIONS)

        fresh = start_daemon(platform, tmp_path)
        durable = fresh.outbox.records()
        assert not durable or durable[-1]["kind"] in ("uploaded", "discarded")
        assert fresh.outbox.pending() == []
        assert [r["kind"] for r in durable].count("uploaded") == at_write // WRITES_PER_JOB
        for _ in range(len(jobs) + 1):
            fresh.resume()
            while fresh.run_once() is not None:
                pass
            if all(client.job_status(job_id).status == "completed" for job_id in jobs):
                break
            platform.context.run_for(31.0)  # the dead run's lease expires
        assert [client.job_status(job_id).status for job_id in jobs] == ["completed"] * 2
        assert [client.job_results(job_id).result for job_id in jobs] == jobs
        assert agent_reports(platform) == len(jobs)
        for job_id in jobs:
            again = _EXECUTIONS.get(job_id, 0) - runs_at_cut.get(job_id, 0)
            assert again == (0 if job_id in reported else 1), job_id
        assert fresh.outbox.pending() == [] and fresh.resume() == []
        fresh.outbox.close()


class TestOneFsyncPerLease:
    def test_a_cycle_costs_one_fsync(self, platform, tmp_path, monkeypatch):
        client = platform.client()
        cycles = 5
        for n in range(cycles):
            client.submit_job(f"job-{n}", "noop", execution="agent", connector="fake")
        daemon = start_daemon(platform, tmp_path)
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        for _ in range(cycles):
            assert daemon.run_once() is not None
            # What run_once leaves is what a power loss would keep.
            assert daemon.outbox._log.synced_size == daemon.outbox.size_bytes
        assert daemon.outbox.compactions == 0
        assert daemon.outbox.writes == cycles * WRITES_PER_JOB
        assert len(synced) == daemon.outbox.fsyncs == cycles
        daemon.outbox.close()

    def test_a_settling_record_is_synced_before_its_compaction(
        self, tmp_path, monkeypatch
    ):
        """A compaction drops a settled lease whole, which is only safe once
        the record that settled it is on disk."""
        outbox = Outbox(str(tmp_path / "o.jsonl"))
        events = []
        monkeypatch.setattr(os, "fsync", lambda fd: events.append("fsync"))
        replace_file = outbox_module.replace_file

        def replacing(*args):
            events.append(("compact", outbox._log.synced_size == outbox.size_bytes))
            return replace_file(*args)

        monkeypatch.setattr(outbox_module, "replace_file", replacing)
        monkeypatch.setattr(outbox_module, "COMPACT_BYTES", 1)
        outbox.append("claim", lease_id="lease-1", job_id=1)
        outbox.append("phase", lease_id="lease-1", phase="provision", status="ok")
        assert events == []
        outbox.append("discarded", lease_id="lease-1", reason="expired")
        assert events[:2] == ["fsync", ("compact", True)]
        assert outbox.compactions == 1 and outbox.fsyncs == 1
        outbox.close()


def settled_lease_lines(index):
    """One noop job's six records, as the outbox writes them."""
    lease_id = f"settled-{index}"
    records = [
        {"kind": "claim", "lease_id": lease_id, "agent_id": "edge-1", "job_id": index,
         "job_name": f"job-{index}", "owner": "experimenter", "payload": "noop",
         "devices": [["node1", "node1-dev00"]]},
        *(
            {"kind": "phase", "lease_id": lease_id, "phase": phase, "status": "ok",
             "output": ""}
            for phase in CONNECTOR_PHASES
        ),
        {"kind": "result", "lease_id": lease_id, "status": "completed",
         "result": None, "error": None, "children": []},
        {"kind": "uploaded", "lease_id": lease_id, "duplicate": False},
    ]
    return [json.dumps(record, sort_keys=True) + "\n" for record in records]


class TestOutboxCompaction:
    """The file costs what is live: bounded, replayed once, fold in memory."""

    def settle(self, outbox, index):
        for line in settled_lease_lines(index):
            record = json.loads(line)
            outbox.append(record.pop("kind"), **record)

    def test_a_settling_record_at_the_bound_leaves_only_pending_leases(
        self, tmp_path, monkeypatch
    ):
        outbox = Outbox(str(tmp_path / "o.jsonl"))
        outbox.append("claim", lease_id="lease-held", job_id=99)
        outbox.append("phase", lease_id="lease-held", phase="provision", status="ok")
        self.settle(outbox, 1)
        held = outbox.lease_states()["lease-held"]
        assert outbox.compactions == 0 and len(outbox.lease_states()) == 2
        monkeypatch.setattr(outbox_module, "COMPACT_BYTES", outbox.size_bytes)
        self.settle(outbox, 2)
        assert outbox.compactions == 1
        assert [r["kind"] for r in outbox.records()] == ["claim", "phase"]
        assert outbox.lease_states() == {"lease-held": held}
        assert outbox.lease_states() == fold_records(outbox.records())
        assert outbox.pending() == ["lease-held"] and outbox.pending_count == 1
        assert outbox.size_bytes == os.path.getsize(outbox.path)
        # The reopened handle appends to the new file, not the unlinked one.
        outbox.append("phase", lease_id="lease-held", phase="test", status="ok")
        assert len(Outbox(outbox.path).lease_states()["lease-held"]["phases"]) == 2

    def test_only_a_settling_record_compacts(self, tmp_path, monkeypatch):
        outbox = Outbox(str(tmp_path / "o.jsonl"))
        monkeypatch.setattr(outbox_module, "COMPACT_BYTES", 1)
        outbox.append("claim", lease_id="lease-1", job_id=1)
        outbox.append("result", lease_id="lease-1", status="completed")
        assert outbox.compactions == 0
        outbox.append("discarded", lease_id="lease-1", reason="expired")
        assert outbox.compactions == 1 and outbox.size_bytes == 0
        assert outbox.records() == [] and outbox.lease_states() == {}

    def test_a_file_written_by_the_parent_shrinks_on_first_use(
        self, platform, tmp_path
    ):
        """10,000 settled leases and one pending: opens, resumes the pending
        one and is under the bound afterwards."""
        _RUNS.pop("count-me", None)
        client = platform.client()
        job = client.submit_job("held", "count-me", execution="agent", connector="fake")
        crashing = Outbox(str(tmp_path / "pending.jsonl"))
        crashing.plan_crash(4, mode="after")  # result durable, never uploaded
        daemon = AgentDaemon(platform.client(), "edge-1", crashing)
        daemon.register()
        with pytest.raises(SimulatedCrash):
            daemon.run_once()
        path = tmp_path / "edge-1.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(5_000):
                handle.writelines(settled_lease_lines(index))
            handle.write((tmp_path / "pending.jsonl").read_text(encoding="utf-8"))
            for index in range(5_000, 10_000):
                handle.writelines(settled_lease_lines(index))
        assert path.stat().st_size > 50 * COMPACT_BYTES
        fresh = start_daemon(platform, tmp_path)
        assert fresh.outbox.compactions == 1 and fresh.outbox.writes == 0
        assert path.stat().st_size < COMPACT_BYTES
        assert fresh.outbox.pending() == crashing.pending()
        assert fresh.outbox.lease_states() == fold_records(crashing.records())
        assert fresh.resume() == [job.job_id]
        assert _RUNS["count-me"] == 1
        assert fresh.outbox.pending() == []
        assert path.stat().st_size < COMPACT_BYTES

    def test_a_compacted_file_reads_like_any_other(self, tmp_path, monkeypatch):
        """Format unchanged: the parent's reader is ``records()`` + the fold."""
        outbox = Outbox(str(tmp_path / "o.jsonl"))
        outbox.append("claim", lease_id="lease-held", job_id=99, devices=[("a", "b")])
        monkeypatch.setattr(outbox_module, "COMPACT_BYTES", 1)
        self.settle(outbox, 1)
        text = (tmp_path / "o.jsonl").read_text(encoding="utf-8")
        assert text == json.dumps(
            {"kind": "claim", "lease_id": "lease-held", "job_id": 99,
             "devices": [["a", "b"]]},
            sort_keys=True,
        ) + "\n"

    def test_a_stale_tmp_is_unlinked_at_open(self, tmp_path):
        path = tmp_path / "o.jsonl"
        (tmp_path / "o.jsonl.tmp").write_text("half a compaction", encoding="utf-8")
        Outbox(str(path))
        assert os.listdir(tmp_path) == ["o.jsonl"]

    def test_plan_crash_offsets_keep_their_meaning(self, tmp_path, monkeypatch):
        """``writes`` counts on through a compaction and a reopened handle;
        a compaction at open counts nothing."""
        outbox = Outbox(str(tmp_path / "o.jsonl"))
        monkeypatch.setattr(outbox_module, "COMPACT_BYTES", 1)
        self.settle(outbox, 1)
        assert outbox.compactions == 1
        assert outbox.writes == 7  # six appends and the compaction they caused
        outbox.plan_crash(outbox.writes + 2, mode="before")
        outbox.append("claim", lease_id="lease-2", job_id=2)
        outbox.append("phase", lease_id="lease-2", phase="provision", status="ok")
        with pytest.raises(SimulatedCrash):
            outbox.append("phase", lease_id="lease-2", phase="test", status="ok")
        fresh = Outbox(outbox.path)  # over the bound: compacts, lease-2 is kept
        assert fresh.compactions == 1 and fresh.writes == 0
        assert len(fresh.lease_states()["lease-2"]["phases"]) == 1

    def test_resume_reads_no_file_once_constructed(
        self, platform, tmp_path, monkeypatch
    ):
        client = platform.client()
        job = client.submit_job("stranded", "noop", execution="agent", connector="fake")
        daemon = start_daemon(platform, tmp_path)
        report = daemon.client.agent_report
        outage = [TransportApiError("gateway went away mid-upload")]

        def flaky_report(*args, **kwargs):
            if outage:
                raise outage.pop()
            return report(*args, **kwargs)

        daemon.client.agent_report = flaky_report
        with pytest.raises(TransportApiError):
            daemon.run_once()
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert daemon.outbox.pending_count == 1
        assert daemon.resume() == [job.job_id]  # uploads, appends `uploaded`
        assert daemon.resume() == []
        assert opened == []

    def test_an_unwritable_outbox_is_found_before_any_claim(self, platform, tmp_path):
        client = platform.client()
        job = client.submit_job("safe", "noop", execution="agent", connector="fake")
        with pytest.raises(OSError):
            AgentDaemon(platform.client(), "edge-1", tmp_path / "no-such-dir" / "o.jsonl")
        read_only = tmp_path / "read-only"
        read_only.mkdir()
        read_only.chmod(0o500)
        try:
            if not os.access(read_only, os.W_OK):  # root ignores the mode bits
                with pytest.raises(OSError):
                    Outbox(str(read_only / "o.jsonl"))
        finally:
            read_only.chmod(0o700)
        assert client.job_status(job.job_id).status == "queued"
        assert platform.access_server.agents.leases() == []


class TestCompactionCrashMatrix:
    """kill -9 inside a compaction: before the temporary file is written,
    with it written but not renamed, and right after the rename — each with
    nothing pending, a lease mid-phases, and a ``result`` awaiting upload."""

    #: How the earlier job is left in the file: (crash offset, mode) of its run.
    PENDING = {"nothing": None, "mid-phases": (1, "after"), "result": (4, "after")}

    @pytest.mark.parametrize("pending", sorted(PENDING))
    @pytest.mark.parametrize("mode", ["before", "torn", "after"])
    def test_a_fresh_daemon_settles_everything_exactly_once(
        self, tmp_path, monkeypatch, pending, mode
    ):
        _RUNS.pop("count-me", None)
        platform = build_default_platform(seed=11, browsers=("chrome",), device_count=2)
        client = platform.client()
        path = tmp_path / "edge-1.jsonl"
        jobs = []
        if self.PENDING[pending] is not None:
            jobs.append(
                client.submit_job("held", "count-me", execution="agent", connector="fake")
            )
            first = start_daemon(platform, tmp_path)
            first.outbox.plan_crash(*self.PENDING[pending])
            with pytest.raises(SimulatedCrash):
                first.run_once()
        jobs.append(
            client.submit_job("settles", "count-me", execution="agent", connector="fake")
        )
        second = start_daemon(platform, tmp_path)
        pending_before = second.outbox.pending()
        states_before = second.outbox.lease_states()
        assert len(pending_before) == len(jobs) - 1
        # Every settling record is now over the bound: the seventh write of
        # this cycle is the compaction its `uploaded` triggers.
        monkeypatch.setattr(outbox_module, "COMPACT_BYTES", 1)
        second.outbox.plan_crash(second.outbox.writes + 6, mode=mode)
        with pytest.raises(SimulatedCrash) as crash:
            second.run_once()
        assert "(compact)" in str(crash.value)
        tmp_file = tmp_path / "edge-1.jsonl.tmp"
        assert tmp_file.exists() == (mode == "torn")
        replaced = mode == "after"
        kinds = [r["kind"] for r in second.outbox.records()]
        assert ("uploaded" in kinds) == (not replaced)

        fresh = start_daemon(platform, tmp_path)
        assert not tmp_file.exists()
        assert fresh.outbox.pending() == pending_before
        assert fresh.outbox.lease_states() == states_before
        assert fresh.outbox.lease_states() == fold_records(fresh.outbox.records())
        assert fresh.resume() == [job.job_id for job in jobs[:-1]]
        assert fresh.outbox.pending() == [] and fresh.resume() == []
        assert _RUNS["count-me"] == len(jobs)
        results = [client.job_results(job.job_id).result for job in jobs]
        assert sorted(results) == list(range(1, len(jobs) + 1))
        assert all(client.job_status(job.job_id).status == "completed" for job in jobs)
        assert path.stat().st_size == 0  # everything settled, everything dropped


KINDS = ["claim", "phase", "phase", "result", "uploaded", "discarded"]
steps = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 2), st.sampled_from(KINDS)),
    st.tuples(
        st.just("crash"),
        st.integers(0, 2),
        st.sampled_from(KINDS),
        st.sampled_from(["before", "after", "torn"]),
        st.booleans(),
    ),
    st.tuples(st.just("reopen")),
)


@settings(max_examples=60, deadline=None)
@given(script=st.lists(steps, max_size=40), bound=st.sampled_from([1, 200, 600]))
def test_a_compacting_outbox_agrees_with_one_that_never_compacts(
    tmp_path_factory, script, bound
):
    """Random leases, record kinds, planned crashes and reopens.  After
    every step the fold in memory equals a fresh replay of the file, and
    what is pending — ids, order and each lease's state — is what the
    fold of every record ever made durable says, compacted or not."""
    path = str(tmp_path_factory.mktemp("outbox") / "o.jsonl")
    real_bound = outbox_module.COMPACT_BYTES
    outbox_module.COMPACT_BYTES = bound
    try:
        outbox = Outbox(path)
        durable = []  # the file of an outbox that never compacts
        generation = [0, 0, 0]  # a settled lease's id is never claimed again
        for number, step in enumerate(script):
            if step[0] == "reopen":
                outbox.close()
                outbox = Outbox(path)
            else:
                slot, kind = step[1], step[2]
                lease_id = f"lease-{slot}-{generation[slot]}"
                if lease_id not in fold_records(durable):
                    kind = "claim"  # a lease's first record
                crash_on_append = step[0] == "crash" and not step[4]
                if step[0] == "crash":
                    # The append itself, or the compaction it may trigger.
                    outbox.plan_crash(outbox.writes + step[4], mode=step[3])
                try:
                    outbox.append(kind, lease_id=lease_id, number=number)
                except SimulatedCrash:
                    outbox.close()
                    outbox = Outbox(path)
                outbox.plan_crash(10**9)  # disarm what did not fire
                if not crash_on_append or step[3] == "after":
                    durable.append(
                        {"kind": kind, "lease_id": lease_id, "number": number}
                    )
                    if kind in ("uploaded", "discarded"):
                        generation[slot] += 1
            states = outbox.lease_states()
            assert states == fold_records(outbox.records())
            assert outbox.size_bytes == os.path.getsize(path)
            assert outbox.pending_count == len(outbox.pending())
            assert not os.path.exists(path + ".tmp")
            uncompacted = fold_records(durable)
            expected = [
                lease_id
                for lease_id, state in uncompacted.items()
                if state["claim"] and not (state["uploaded"] or state["discarded"])
            ]
            assert outbox.pending() == expected
            assert [states[lease_id] for lease_id in expected] == [
                uncompacted[lease_id] for lease_id in expected
            ]
        outbox.close()
    finally:
        outbox_module.COMPACT_BYTES = real_bound
