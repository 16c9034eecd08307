"""Multi-device agent jobs end to end: atomic claims, credential
inheritance, child results, and agent-death recovery.

The acceptance scenario for the agent-pull subsystem: a multi-device job
submitted through the *unmodified* v2 client is claimed all-or-nothing by
one agent, its children run with the parent job's credentials, their
results roll up into the parent's ``job.watch`` stream — and killing the
agent mid-run releases every held device, requeues the parent, and lets a
fresh agent finish with a journal equal to an uninterrupted run's.
"""

import json

import pytest

from repro.accessserver.persistence import InMemoryBackend
from repro.agent import (
    AgentDaemon,
    MultiConnector,
    Outbox,
    SimulatedCrash,
    register_connector,
)
from repro.analytics import AnalyticsEngine, report_json
from repro.api.errors import ConflictApiError
from repro.chaos import check_device_hold_conservation
from repro.core.platform import build_default_platform


def three_device_platform(seed=11):
    platform = build_default_platform(seed=seed, browsers=("chrome",))
    admin = platform.client(username="admin")
    admin.register_vantage_point("node2", "Example University", device_count=2)
    return platform


def submit_multi(client, name="fanout", devices=3):
    return client.submit_job(
        name, "noop", execution="agent", connector="multi", device_count=devices
    )


def multi_daemon(platform, tmp_path, name="fan-agent", **kwargs):
    kwargs.setdefault("connector", "multi")
    kwargs.setdefault("connectors", ["fake", "multi"])
    daemon = AgentDaemon(
        platform.client(), name, tmp_path / f"{name}.jsonl", **kwargs
    )
    daemon.register()
    return daemon


class TestMultiDeviceEndToEnd:
    def test_plain_client_submission_runs_on_three_devices(self, tmp_path):
        platform = three_device_platform()
        client = platform.client()
        job = submit_multi(client)
        watch = client.watch_job(job.job_id)
        daemon = multi_daemon(platform, tmp_path)
        assert daemon.run_once() == job.job_id

        view = client.job_results(job.job_id)
        assert view.result == {
            "children": {
                "node1-dev00": "completed",
                "node2-dev00": "completed",
                "node2-dev01": "completed",
            }
        }
        # Child results surfaced in the parent's watch stream, before the
        # terminal end frame.
        frames = list(watch)
        child_serials = [
            frame.payload["device_serial"]
            for frame in frames
            if frame.topic == "dispatch.child_result"
        ]
        assert sorted(child_serials) == ["node1-dev00", "node2-dev00", "node2-dev01"]
        assert watch.final.status == "completed"
        # Every device is free again.
        for vp in client.fleet().vantage_points:
            for device in vp.devices:
                assert not device.busy and device.held_by is None

    def test_children_inherit_parent_credentials_end_to_end(self, tmp_path):
        platform = three_device_platform()
        admin = platform.client(username="admin")
        admin.create_user("alice", "experimenter", "alice-token")
        alice = platform.client(username="alice", token="alice-token")
        job = submit_multi(alice, name="alices-fanout")

        seen = []

        @register_connector("recording-multi")
        class RecordingMulti(MultiConnector):
            def test(self, ctx):
                out = super().test(ctx)
                seen.extend(c["credentials"] for c in ctx.children)
                return out

        daemon = multi_daemon(platform, tmp_path, connector="recording-multi")
        assert daemon.run_once() == job.job_id
        # Three children, each running as the agent's account on behalf of
        # the parent job's owner — the inheritance rule.
        assert seen == [{"username": "experimenter", "owner": "alice"}] * 3

    def test_family_cancelled_mid_run_is_held_until_the_daemon_reports(self, tmp_path):
        platform = three_device_platform()
        server = platform.access_server
        client = platform.client()
        job = submit_multi(client)
        seen = {}

        @register_connector("cancelled-multi")
        class CancelledMidRun(MultiConnector):
            def test(self, ctx):
                client.cancel_job(job.job_id)
                seen["free_mid_run"] = server.scheduler.engine.slots.free_count
                seen["held"] = check_device_hold_conservation(server)
                return super().test(ctx)

        daemon = multi_daemon(platform, tmp_path, connector="cancelled-multi")
        assert daemon.run_once() == job.job_id
        # The cancel freed nothing while the agent was on the devices ...
        assert seen["free_mid_run"] == 0
        assert seen["held"].ok, seen["held"].details
        # ... and the report gave all three back without resurrecting the job.
        assert client.job_status(job.job_id).status == "cancelled"
        after = check_device_hold_conservation(server, drained=True)
        assert after.ok, after.details
        assert server.events.events("job.finished") == []
        again = submit_multi(client, name="next-fanout")
        assert daemon.run_once() == again.job_id

    def test_competing_agent_is_locked_out_while_lease_held(self, tmp_path):
        platform = three_device_platform()
        client = platform.client()
        job = submit_multi(client)
        client.agent_register("winner", connectors=["multi"])
        client.agent_register("loser", connectors=["multi"])
        lease = client.agent_claim("winner", job.job_id)
        assert len(lease.devices) == 3
        # The loser sees no offers (every device is held) and a direct
        # claim is rejected without holding anything.
        assert client.agent_poll("loser").offers == []
        with pytest.raises(ConflictApiError):
            client.agent_claim("loser", job.job_id)
        held_by = {
            device.held_by
            for vp in client.fleet().vantage_points
            for device in vp.devices
        }
        assert held_by == {"winner"}


def normalized_outbox_records(path):
    """Outbox records with identity fields (lease/job ids) masked, as
    byte-comparable JSON lines."""
    lines = []
    for record in Outbox(str(path)).records():
        record = dict(record)
        record.pop("lease_id", None)
        if "job_id" in record:
            record["job_id"] = 0
        lines.append(json.dumps(record, sort_keys=True))
    return lines


class TestAgentDeathMidRun:
    def run_workload(self, tmp_path, label, interrupted):
        """One multi-device job; optionally killed mid-run on the first
        agent, expired, and finished by a second agent.  Timelines are
        kept identical: the surviving claim always happens at t=31."""
        (tmp_path / label).mkdir(exist_ok=True)
        platform = three_device_platform()
        backend = InMemoryBackend()
        platform.access_server.enable_persistence(backend, snapshot_every=10**9)
        client = platform.client()
        job = submit_multi(client)

        if interrupted:
            doomed = multi_daemon(
                platform, tmp_path / label, name="doomed", lease_ttl_s=30.0
            )
            doomed.outbox.plan_crash(1, mode="after")  # die after provision
            with pytest.raises(SimulatedCrash):
                doomed.run_once()
            held = [
                (device.serial, device.held_by)
                for vp in client.fleet().vantage_points
                for device in vp.devices
                if device.held_by
            ]
            assert [h for _, h in held] == ["doomed"] * 3
        platform.context.run_for(31.0)
        if interrupted:
            assert platform.access_server.expire_agent_leases() == 1
            # Every device the dead agent held was released at once and
            # the parent went back to the queue.
            for vp in client.fleet().vantage_points:
                for device in vp.devices:
                    assert not device.busy and device.held_by is None
            assert client.job_status(job.job_id).status == "queued"

        finisher = multi_daemon(platform, tmp_path / label, name="finisher")
        assert finisher.run_once() == job.job_id
        assert client.job_status(job.job_id).status == "completed"
        return platform, backend, finisher, job

    def test_fresh_agent_completes_with_equal_journal_and_analytics(
        self, tmp_path
    ):
        interrupted = self.run_workload(tmp_path, "a", interrupted=True)
        baseline = self.run_workload(tmp_path, "b", interrupted=False)

        # The finisher's outbox journal is byte-equal to the uninterrupted
        # run's (identity fields aside): the crash left no residue in what
        # the surviving agent saw or did.
        a_lines = normalized_outbox_records(tmp_path / "a" / "finisher.jsonl")
        b_lines = normalized_outbox_records(tmp_path / "b" / "finisher.jsonl")
        assert a_lines == b_lines
        assert len(a_lines) == 6  # claim, 3 phases, result, uploaded

        # Both jobs report the same result to the client.
        a_result = interrupted[0].client().job_results(interrupted[3].job_id)
        b_result = baseline[0].client().job_results(baseline[3].job_id)
        assert a_result.result == b_result.result

        # Event-sourcing still holds through the interruption: folding the
        # interrupted run's journal cold reproduces its live analytics
        # byte for byte.
        platform, backend, _, _ = interrupted
        live = platform.access_server.analytics.report()
        replay = AnalyticsEngine.from_backend(backend).report()
        assert report_json(live) == report_json(replay)
