"""Agent-pull execution: registry, offers, leases, reports, persistence.

Server-side coverage of the agent plane introduced with API v2's
``agent.*`` ops: agent registration (journaled and snapshotted like
users), the ``execution="agent"`` mode that keeps jobs out of push
dispatch, matching/offer rules, all-or-nothing multi-device claims,
lease expiry requeueing at the job's original FIFO position (byte-parity
with crash-requeue), duplicate-report idempotency, and ``fleet`` marking
agent-held devices.
"""

import json
import threading
import time

import pytest

from repro.accessserver.agents import AgentError
from repro.accessserver.auth import Role
from repro.accessserver.jobs import JobConstraints, JobSpec, JobStatus
from repro.accessserver.payloads import noop_payload
from repro.accessserver.persistence import InMemoryBackend, serialize_job
from repro.api import BatteryLabClient, JsonLinesTransport
from repro.api.errors import (
    ConflictApiError,
    NotFoundApiError,
    PermissionApiError,
    ValidationApiError,
)
from repro.chaos import check_device_hold_conservation
from repro.core.platform import build_default_platform


@pytest.fixture()
def platform():
    return build_default_platform(seed=11, browsers=("chrome",))


@pytest.fixture()
def client(platform):
    return platform.client()


@pytest.fixture()
def admin(platform):
    return platform.client(username="admin")


def submit_agent_job(client, name="pull-me", **kwargs):
    kwargs.setdefault("execution", "agent")
    kwargs.setdefault("connector", "fake")
    return client.submit_job(name, "noop", **kwargs)


class TestAgentRegistry:
    def test_register_is_idempotent_and_refreshes(self, client):
        first = client.agent_register(
            "edge-1", connectors=["fake"], tags={"rack": "a"}
        )
        assert first.created is True
        assert first.connectors == ["fake"]
        again = client.agent_register(
            "edge-1", connectors=["fake", "multi"], tags={"rack": "b"}
        )
        assert again.created is False
        assert again.connectors == ["fake", "multi"]
        assert again.tags == {"rack": "b"}

    def test_register_unknown_vantage_point_rejected(self, client):
        with pytest.raises(NotFoundApiError):
            client.agent_register("edge-x", vantage_point="nowhere")

    def test_tester_role_cannot_register(self, platform):
        platform.access_server.users.add_user("tester1", Role.TESTER, "tester-token")
        tester = platform.client(username="tester1", token="tester-token")
        with pytest.raises(PermissionApiError):
            tester.agent_register("sneaky-agent")

    def test_poll_before_register_is_not_found(self, client):
        with pytest.raises(NotFoundApiError):
            client.agent_poll("ghost")

    def test_agents_survive_restart(self, tmp_path):
        durable = build_default_platform(
            seed=11, browsers=("chrome",), state_dir=str(tmp_path)
        )
        durable.client().agent_register(
            "edge-1", vantage_point="node1", connectors=["fake"], tags={"rack": "a"}
        )
        rebuilt = build_default_platform(
            seed=11, browsers=("chrome",), state_dir=str(tmp_path)
        )
        assert rebuilt.persistence.last_recovery.agents_restored == 1
        record = rebuilt.access_server.agents.get("edge-1")
        assert record.vantage_point == "node1"
        assert record.connectors == ("fake",)
        assert record.tags == {"rack": "a"}
        # Registration stays idempotent across the restart.
        assert rebuilt.client().agent_register("edge-1").created is False

    def test_snapshot_omits_agents_key_when_none(self, platform):
        from repro.accessserver.persistence import build_snapshot

        assert "agents" not in build_snapshot(platform.access_server, 0)
        platform.client().agent_register("edge-1")
        snapshot = build_snapshot(platform.access_server, 0)
        assert [a["agent_id"] for a in snapshot["agents"]] == ["edge-1"]


class TestOffersAndDispatchExclusion:
    def test_agent_jobs_skip_push_dispatch(self, platform, client):
        job = submit_agent_job(client)
        platform.run_queue()
        assert client.job_status(job.job_id).status == "queued"

    def test_push_jobs_not_offered_to_agents(self, platform, client):
        client.submit_job("push-job", "noop")
        client.agent_register("edge-1", connectors=["fake"])
        assert client.agent_poll("edge-1").offers == []

    def test_offer_carries_the_job_shape(self, client):
        job = submit_agent_job(client, name="shaped", priority=2.0)
        client.agent_register("edge-1", connectors=["fake"])
        offers = client.agent_poll("edge-1").offers
        assert [(o.job_id, o.name, o.owner) for o in offers] == [
            (job.job_id, "shaped", "experimenter")
        ]
        assert offers[0].priority == 2.0
        assert offers[0].device_count == 1
        assert offers[0].connector == "fake"

    def test_connector_mismatch_is_not_offered(self, client):
        submit_agent_job(client, connector="usb-c")
        client.agent_register("edge-1", connectors=["fake"])
        assert client.agent_poll("edge-1").offers == []

    def test_vantage_point_binding_filters_offers(self, admin, client):
        admin.register_vantage_point("node2", "Example University")
        submit_agent_job(client, vantage_point="node2")
        client.agent_register("edge-1", vantage_point="node1", connectors=["fake"])
        client.agent_register("edge-2", vantage_point="node2", connectors=["fake"])
        assert client.agent_poll("edge-1").offers == []
        assert len(client.agent_poll("edge-2").offers) == 1

    def test_multi_device_job_needs_multi_connector(self, admin, client):
        admin.register_vantage_point("node2", "Example University", device_count=2)
        submit_agent_job(client, connector="fake", device_count=2)
        client.agent_register("solo", connectors=["fake"])
        assert client.agent_poll("solo").offers == []
        client.agent_register("fanout", connectors=["fake", "multi"])
        assert len(client.agent_poll("fanout").offers) == 1

    def test_poll_limit_validated(self, client):
        client.agent_register("edge-1")
        with pytest.raises(ValidationApiError):
            client.agent_poll("edge-1", limit=0)

    def test_submit_rejects_unknown_execution_mode(self, client):
        with pytest.raises(ValidationApiError):
            client.submit_job("bad", "noop", execution="teleport")


class TestClaimLifecycle:
    def test_claim_runs_job_and_report_completes(self, platform, client):
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        lease = client.agent_claim("edge-1", job.job_id)
        assert lease.job_id == job.job_id
        assert lease.payload == "noop"
        assert [d.vantage_point for d in lease.devices] == ["node1"]
        assert client.job_status(job.job_id).status == "running"
        report = client.agent_report(
            lease.lease_id, "edge-1", "completed", result={"ok": True}
        )
        assert report.job.status == "completed"
        assert report.duplicate is False
        assert client.job_results(job.job_id).result == {"ok": True}

    def test_duplicate_report_is_idempotent(self, client):
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        lease = client.agent_claim("edge-1", job.job_id)
        client.agent_report(lease.lease_id, "edge-1", "completed", result=1)
        again = client.agent_report(lease.lease_id, "edge-1", "completed", result=2)
        assert again.duplicate is True
        # The first upload won; the retry changed nothing.
        assert client.job_results(job.job_id).result == 1

    def test_claim_is_exclusive(self, client):
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        client.agent_register("edge-2", connectors=["fake"])
        client.agent_claim("edge-1", job.job_id)
        with pytest.raises(ConflictApiError):
            client.agent_claim("edge-2", job.job_id)

    def test_heartbeat_renews_and_guards_ownership(self, platform, client):
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        client.agent_register("edge-2", connectors=["fake"])
        lease = client.agent_claim("edge-1", job.job_id, ttl_s=30.0)
        platform.context.run_for(20.0)
        renewed = client.agent_heartbeat(lease.lease_id, "edge-1")
        assert renewed.expires_at == pytest.approx(platform.context.now + 30.0)
        platform.context.run_for(5.0)
        with pytest.raises(PermissionApiError):
            client.agent_heartbeat(lease.lease_id, "edge-2")
        # Refused before anything changed: edge-1's lease was not renewed.
        (held,) = platform.access_server.agents.leases()
        assert held.expires_at == pytest.approx(renewed.expires_at)

    def test_report_failure_marks_job_failed(self, client):
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        lease = client.agent_claim("edge-1", job.job_id)
        client.agent_report(
            lease.lease_id, "edge-1", "failed", error="device caught fire"
        )
        view = client.job_status(job.job_id)
        assert view.status == "failed"
        assert view.error == "device caught fire"

    def test_report_settles_credits_for_lease_time(self, platform, client):
        ledger = platform.access_server.accounts.enable_credit_system(
            initial_grant_device_hours=10.0
        )
        job = submit_agent_job(client)
        before = ledger.balance("experimenter")
        client.agent_register("edge-1", connectors=["fake"])
        lease = client.agent_claim("edge-1", job.job_id, ttl_s=7200.0)
        platform.context.run_for(3600.0)
        client.agent_report(lease.lease_id, "edge-1", "completed")
        assert ledger.balance("experimenter") == pytest.approx(before - 1.0)

    def test_fleet_marks_agent_held_devices(self, client):
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        lease = client.agent_claim("edge-1", job.job_id)
        held = {
            device.serial: device.held_by
            for vp in client.fleet().vantage_points
            for device in vp.devices
            if device.held_by
        }
        assert held == {"node1-dev00": "edge-1"}
        client.agent_report(lease.lease_id, "edge-1", "completed")
        assert all(
            device.held_by is None
            for vp in client.fleet().vantage_points
            for device in vp.devices
        )


class TestLeaseExpiry:
    def test_expired_lease_requeues_at_original_fifo_position(
        self, platform, client
    ):
        first = submit_agent_job(client, name="first")
        submit_agent_job(client, name="second")
        client.agent_register("edge-1", connectors=["fake"])
        client.agent_claim("edge-1", first.job_id, ttl_s=10.0)
        platform.context.run_for(11.0)
        assert platform.access_server.agents.expire_leases() == 1
        queue = platform.access_server.scheduler.queue.jobs()
        # Original FIFO position, not the tail — mirroring crash-requeue.
        assert [job.spec.name for job in queue] == ["first", "second"]
        assert client.job_status(first.job_id).status == "queued"

    def test_expired_lease_job_offered_again_and_claimable(
        self, platform, client
    ):
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        client.agent_register("edge-2", connectors=["fake"])
        client.agent_claim("edge-1", job.job_id, ttl_s=10.0)
        platform.context.run_for(11.0)
        # Poll is read-only: it may not reap the lease, but it must see
        # through it — the expired claim's devices count as available.
        offers = client.agent_poll("edge-2").offers
        assert [o.job_id for o in offers] == [job.job_id]
        lease2 = client.agent_claim("edge-2", job.job_id)
        report = client.agent_report(lease2.lease_id, "edge-2", "completed")
        assert report.job.status == "completed"

    def test_late_report_after_expiry_is_rejected(self, platform, client):
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        lease = client.agent_claim("edge-1", job.job_id, ttl_s=10.0)
        platform.context.run_for(11.0)
        with pytest.raises(NotFoundApiError):
            client.agent_report(lease.lease_id, "edge-1", "completed")
        assert client.job_status(job.job_id).status == "queued"

    def test_report_at_exact_expiry_settles_exactly_once(self, platform, client, record_bus):
        """Satellite: a report landing at exactly ``now == expires_at``
        loses the race — ``agent_report`` reaps the lease *first*, so the
        late result is rejected and discarded, the job is requeued exactly
        once (one ``dispatch.requeued`` record, never two), and only the
        re-claiming agent's settle counts."""
        recorded = record_bus(platform.access_server.events)
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        client.agent_register("edge-2", connectors=["fake"])
        lease = client.agent_claim("edge-1", job.job_id, ttl_s=10.0)
        platform.context.run_for(10.0)  # the boundary: expired(now) is >=
        with pytest.raises(NotFoundApiError):
            client.agent_report(lease.lease_id, "edge-1", "completed", result=1)
        assert len(recorded("dispatch.requeued")) == 1
        assert recorded("job.finished") == []
        assert client.job_status(job.job_id).status == "queued"
        # The job is claimable again and the second settle is the only one.
        lease2 = client.agent_claim("edge-2", job.job_id)
        report = client.agent_report(lease2.lease_id, "edge-2", "completed", result=2)
        assert report.job.status == "completed"
        assert report.duplicate is False
        assert client.job_results(job.job_id).result == 2
        assert len(recorded("dispatch.requeued")) == 1
        assert len(recorded("job.finished")) == 1
        # A retry of the dead lease's upload stays rejected, not resurrected.
        with pytest.raises(NotFoundApiError):
            client.agent_report(lease.lease_id, "edge-1", "completed", result=1)
        assert client.job_results(job.job_id).result == 2

    def test_report_just_before_expiry_wins_without_requeue(
        self, platform, client, record_bus
    ):
        """The flip side of the boundary: one tick before expiry the lease
        is live, the report settles, and nothing is ever requeued."""
        recorded = record_bus(platform.access_server.events)
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        lease = client.agent_claim("edge-1", job.job_id, ttl_s=10.0)
        platform.context.run_for(9.999)
        report = client.agent_report(lease.lease_id, "edge-1", "completed")
        assert report.job.status == "completed"
        assert report.duplicate is False
        assert recorded("dispatch.requeued") == []
        assert len(recorded("job.finished")) == 1

    def test_lease_requeue_byte_parity_with_crash_requeue(self, tmp_path):
        """Satellite: the lease-expiry path must leave the job in exactly
        the state crash-recovery's in-flight requeue produces — same
        serialized job bytes, same queue order."""

        def claimed_pair(state_dir):
            p = build_default_platform(
                seed=11, browsers=("chrome",), state_dir=str(state_dir)
            )
            c = p.client()
            first = submit_agent_job(c, name="first")
            submit_agent_job(c, name="second")
            c.agent_register("edge-1", connectors=["fake"])
            c.agent_claim("edge-1", first.job_id, ttl_s=10.0)
            return p

        # Path A: the *server* dies mid-lease; recovery requeues in-flight.
        claimed_pair(tmp_path / "crash")
        crashed = build_default_platform(
            seed=11, browsers=("chrome",), state_dir=str(tmp_path / "crash")
        )
        assert crashed.persistence.last_recovery.jobs_requeued_in_flight == 1

        # Path B: the *agent* dies; the lease expires and is reaped.
        leased = claimed_pair(tmp_path / "lease")
        leased.context.run_for(11.0)
        assert leased.access_server.agents.expire_leases() == 1

        def queue_bytes(p):
            queue = p.access_server.scheduler.queue.jobs()
            lines = []
            for seq, job in enumerate(queue):
                lines.append(json.dumps(serialize_job(job, seq), sort_keys=True))
            return lines

        crash_bytes = queue_bytes(crashed)
        lease_bytes = queue_bytes(leased)
        assert crash_bytes == lease_bytes
        assert len(crash_bytes) == 2

    def test_a_restart_replays_the_requeue_of_a_reaped_lease(
        self, tmp_path, monkeypatch
    ):
        """A dispatch pass reaps the lapsed lease and journals
        ``job.requeued``; a restart replays that record into a queued job at
        its FIFO position, and the state it would write is byte-identical."""
        from repro.accessserver.persistence import build_snapshot, recovery

        def state_bytes(p):
            server = p.access_server
            return json.dumps(
                build_snapshot(server, server.persistence.sequence),
                separators=(",", ":"),
            )

        live = build_default_platform(
            seed=11, browsers=("chrome",), state_dir=str(tmp_path)
        )
        c = live.client()
        first = submit_agent_job(c, name="first")
        submit_agent_job(c, name="second")
        c.agent_register("edge-1", connectors=["fake"])
        c.agent_claim("edge-1", first.job_id, ttl_s=10.0)
        live.context.run_for(11.0)
        assert live.run_queue() == []  # agent jobs stay out of push dispatch
        journal = (tmp_path / "journal.jsonl").read_text(encoding="utf-8")
        requeued = [
            record["data"]["job_id"]
            for record in map(json.loads, journal.splitlines())
            if record["kind"] == "job.requeued"
        ]
        assert requeued == [first.job_id]
        before = state_bytes(live)

        replayed = []
        apply_requeued = recovery._ReplayState._apply_job_requeued

        def spy(state, data):
            replayed.append(data["job_id"])
            apply_requeued(state, data)

        monkeypatch.setattr(recovery._ReplayState, "_apply_job_requeued", spy)
        restarted = build_default_platform(
            seed=11, browsers=("chrome",), state_dir=str(tmp_path)
        )
        assert replayed == [first.job_id]
        assert restarted.persistence.last_recovery.jobs_requeued_in_flight == 0
        queue = restarted.access_server.scheduler.queue.jobs()
        assert [job.spec.name for job in queue] == ["first", "second"]
        assert queue[0].status is JobStatus.QUEUED
        assert restarted.access_server.agents.leases() == []
        # Simulated time restarts at zero; captured at the same instant, the
        # recovered state is the live one, byte for byte.
        restarted.context.run_until(live.context.now)
        assert state_bytes(restarted) == before


class TestSessionReservations:
    """A timed session reservation (§3.1) keeps agent jobs off the device as
    it keeps push jobs off it: both planes find slots through one matcher."""

    @staticmethod
    def reserve_every_device(platform, start_s, duration_s):
        platform.access_server.users.add_user("bob", Role.EXPERIMENTER, "bob-token")
        bob = platform.client(username="bob", token="bob-token")
        for vp in bob.fleet().vantage_points:
            for device in vp.devices:
                bob.reserve_session(vp.name, device.serial, start_s, duration_s)

    def test_another_owners_session_holds_agent_jobs_back_until_it_lapses(
        self, platform, client
    ):
        self.reserve_every_device(platform, platform.context.now, 600.0)
        job = submit_agent_job(client)
        pushed = client.submit_job("push-control", "noop")
        client.agent_register("edge-1", connectors=["fake"])
        assert client.agent_poll("edge-1").offers == []
        with pytest.raises(ConflictApiError):
            client.agent_claim("edge-1", job.job_id)
        platform.run_queue()
        assert client.job_status(job.job_id).status == "queued"
        assert client.job_status(pushed.job_id).status == "queued"

        platform.context.run_for(600.0)  # bob's session ends
        assert [o.job_id for o in client.agent_poll("edge-1").offers] == [job.job_id]
        lease = client.agent_claim("edge-1", job.job_id)
        report = client.agent_report(lease.lease_id, "edge-1", "completed")
        assert report.job.status == "completed"

    def test_defer_admission_keeps_agent_jobs_off_an_upcoming_session(self):
        platform = build_default_platform(
            seed=11, browsers=("chrome",), reservation_admission="defer"
        )
        client = platform.client()
        # Bob's session starts in a minute; the job's timeout is an hour.
        self.reserve_every_device(platform, platform.context.now + 60.0, 600.0)
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        assert client.agent_poll("edge-1").offers == []
        with pytest.raises(ConflictApiError):
            client.agent_claim("edge-1", job.job_id)

        platform.context.run_for(660.0)
        assert [o.job_id for o in client.agent_poll("edge-1").offers] == [job.job_id]
        assert client.agent_claim("edge-1", job.job_id).job_id == job.job_id


class TestPlaneSeparation:
    """Each plane walks only its own queued jobs: a poll never matches a push
    job, a dispatch pass never looks at an agent job."""

    @pytest.fixture()
    def bare(self):
        return build_default_platform(
            seed=11, browsers=("chrome",), persistence=False, analytics=False
        )

    @staticmethod
    def submit(platform, count, **spec):
        user = platform.experimenter
        for index in range(count):
            platform.access_server.submit_job(
                user,
                JobSpec(f"job-{index}", user.username, noop_payload, **spec),
            )

    @staticmethod
    def count_matcher_calls(server, monkeypatch):
        calls = []
        free_slots = server.scheduler.free_slots

        def counted(job, *args, **kwargs):
            calls.append(job.job_id)
            return free_slots(job, *args, **kwargs)

        monkeypatch.setattr(server.scheduler, "free_slots", counted)
        return calls

    def test_a_poll_matches_only_the_agent_jobs(self, bare, monkeypatch):
        server = bare.access_server
        # Pinned to a device that does not exist: queued for good.
        stuck = JobConstraints(vantage_point="node1", device_serial="absent")
        self.submit(bare, 10_000, constraints=stuck)
        self.submit(bare, 3, execution="agent", constraints=JobConstraints(connector="fake"))
        client = bare.client()
        client.agent_register("edge-1", connectors=["fake"])
        calls = self.count_matcher_calls(server, monkeypatch)
        assert len(client.agent_poll("edge-1").offers) == 3
        assert len(calls) == 3

    def test_a_dispatch_pass_examines_no_agent_job(self, bare, monkeypatch):
        server = bare.access_server
        self.submit(bare, 10_000, execution="agent", constraints=JobConstraints(connector="fake"))
        calls = self.count_matcher_calls(server, monkeypatch)
        ordered = []
        order = server.scheduler.policy.order
        monkeypatch.setattr(
            server.scheduler.policy,
            "order",
            lambda jobs, stats: ordered.extend(jobs) or order(jobs, stats),
        )
        assert server.scheduler.slots.free_count == 1
        assert server.run_pending_jobs() == []
        assert (ordered, calls) == ([], [])
        self.submit(bare, 1)
        assert [job.spec.execution for job in server.run_pending_jobs()] == ["push"]
        assert len(calls) == 1

    def test_a_job_requeued_by_lease_expiry_is_offered_ahead_of_later_ones(
        self, platform, client
    ):
        first = submit_agent_job(client, name="first")
        client.agent_register("edge-1", connectors=["fake"])
        client.agent_claim("edge-1", first.job_id, ttl_s=10.0)
        client.submit_job("push-between", "noop")
        submit_agent_job(client, name="later-0")
        submit_agent_job(client, name="later-1")
        platform.context.run_for(11.0)
        assert platform.access_server.agents.expire_leases() == 1
        offers = client.agent_poll("edge-1").offers
        assert [offer.name for offer in offers] == ["first", "later-0", "later-1"]
        queue = platform.access_server.scheduler.queue
        assert [job.spec.name for job in queue.jobs()] == [
            "first", "push-between", "later-0", "later-1"
        ]


class TestMultiDeviceClaims:
    def test_all_or_nothing_when_devices_short(self, admin, client):
        admin.register_vantage_point("node2", "Example University", device_count=2)
        client.agent_register("fanout", connectors=["fake", "multi"])
        # 3 devices exist; occupy one so only 2 remain free.
        blocker = submit_agent_job(client, name="blocker")
        client.agent_claim("fanout", blocker.job_id)
        big = submit_agent_job(client, name="big", device_count=3)
        assert client.agent_poll("fanout").offers == []
        with pytest.raises(ConflictApiError):
            client.agent_claim("fanout", big.job_id)
        # Nothing was held by the failed claim.
        held = [
            device.serial
            for vp in client.fleet().vantage_points
            for device in vp.devices
            if device.busy or device.held_by
        ]
        assert len(held) == 1  # only the blocker's device

    def test_multi_claim_holds_every_device_under_one_lease(
        self, admin, client
    ):
        admin.register_vantage_point("node2", "Example University", device_count=2)
        job = submit_agent_job(client, device_count=3, connector="multi")
        client.agent_register("fanout", connectors=["multi"])
        lease = client.agent_claim("fanout", job.job_id)
        assert len(lease.devices) == 3
        held = {
            device.held_by
            for vp in client.fleet().vantage_points
            for device in vp.devices
        }
        assert held == {"fanout"}
        client.agent_report(lease.lease_id, "fanout", "completed")
        assert client.job_status(job.job_id).status == "completed"

    def test_expiry_releases_all_devices_of_a_multi_lease(
        self, platform, admin, client
    ):
        admin.register_vantage_point("node2", "Example University", device_count=2)
        job = submit_agent_job(client, device_count=3, connector="multi")
        client.agent_register("fanout", connectors=["multi"])
        client.agent_claim("fanout", job.job_id, ttl_s=10.0)
        platform.context.run_for(11.0)
        assert platform.access_server.agents.expire_leases() == 1
        free = [
            device.serial
            for vp in client.fleet().vantage_points
            for device in vp.devices
            if not device.busy and device.held_by is None
        ]
        assert len(free) == 3
        assert client.job_status(job.job_id).status == "queued"

    def test_child_results_roll_into_job_watch(self, client):
        job = submit_agent_job(client)
        watch = client.watch_job(job.job_id)
        client.agent_register("edge-1", connectors=["fake"])
        lease = client.agent_claim("edge-1", job.job_id)
        client.agent_report(
            lease.lease_id,
            "edge-1",
            "completed",
            children=[
                {"device_serial": "node1-dev00", "status": "completed", "output": "ok"}
            ],
        )
        frames = list(watch)
        child_frames = [
            f for f in frames if f.topic == "dispatch.child_result"
        ]
        assert [f.payload["device_serial"] for f in child_frames] == ["node1-dev00"]
        assert child_frames[0].payload["status"] == "completed"
        assert watch.final is not None and watch.final.status == "completed"


class TestExitMatrix:
    """{agent report, lease expiry} x {one device, a multi-device family} x
    {still RUNNING, cancelled while held}: every way out of a leased
    execution gives the whole hold back.  (Push settle's column lives in
    ``test_accessserver_dispatch.py``.)"""

    #: (exit, cancelled) -> (final status, journal records from the cancel
    #: or exit on, device-hours billed for the hour the lease was held)
    EXPECTED = {
        ("report", False): ("completed", ["credit.txn", "job.finished"], 1.0),
        ("report", True): ("cancelled", ["job.cancelled", "credit.txn"], 1.0),
        ("expiry", False): ("queued", ["job.requeued"], 0.0),
        ("expiry", True): ("cancelled", ["job.cancelled"], 0.0),
    }

    @pytest.mark.parametrize("cancelled", [False, True], ids=["running", "cancelled"])
    @pytest.mark.parametrize("devices", [1, 3], ids=["single", "family"])
    @pytest.mark.parametrize("exit_by", ["report", "expiry"])
    def test_every_exit_gives_the_whole_hold_back(
        self, platform, admin, client, exit_by, devices, cancelled
    ):
        server = platform.access_server
        backend = InMemoryBackend()
        server.enable_persistence(backend)
        ledger = server.accounts.enable_credit_system(initial_grant_device_hours=10.0)
        admin.register_vantage_point("node2", "Example University", device_count=2)
        client.agent_register("fanout", connectors=["fake", "multi"])
        job = submit_agent_job(
            client, name="held", device_count=devices,
            connector="multi" if devices > 1 else "fake",
        )
        lease = client.agent_claim("fanout", job.job_id, ttl_s=5400.0)
        scheduler = server.scheduler
        assert len(scheduler.slots) - scheduler.slots.free_count == devices
        balance = ledger.balance("experimenter")
        journaled = len(backend.read_journal())
        released = []
        server.events.subscribe(
            "dispatch.released",
            lambda record: released.append(
                (record.payload["device_serial"], scheduler.slots.free_count)
            ),
        )
        platform.context.run_for(3600.0)
        if cancelled:
            client.cancel_job(job.job_id)
        # Cancelled or not, the agent holds every device until its exit.
        held = check_device_hold_conservation(server)
        assert held.ok, held.details
        assert scheduler.is_executing(job.job_id)
        assert len(scheduler.slots) - scheduler.slots.free_count == devices

        if exit_by == "report":
            client.agent_report(lease.lease_id, "fanout", "completed", result=1)
        else:
            platform.context.run_for(1800.0)  # past the 5400 s TTL
            assert server.agents.expire_leases() == 1

        status, records, billed = self.EXPECTED[exit_by, cancelled]
        assert client.job_status(job.job_id).status == status
        after = check_device_hold_conservation(server, drained=True)
        assert after.ok, after.details
        assert not scheduler.is_executing(job.job_id)
        # One dispatch.released, naming the primary slot, published once
        # every slot of the family was free again.
        assert released == [(lease.devices[0].device_serial, len(scheduler.slots))]
        assert [r["kind"] for r in backend.read_journal()[journaled:]] == records
        assert ledger.balance("experimenter") == pytest.approx(balance - billed)
        # The freed devices take new work, pushed and pulled.
        pushed = client.submit_job("after-push", "noop")
        platform.run_queue()
        assert client.job_status(pushed.job_id).status == "completed"
        pulled = submit_agent_job(client, name="after-pull")
        assert pulled.job_id in [o.job_id for o in client.agent_poll("fanout").offers]


class TestAgentManagerUnit:
    def test_settled_lease_memory_is_bounded(self, platform):
        from repro.accessserver.agents import SETTLED_LEASE_MEMORY, AgentManager

        manager = AgentManager(platform.access_server)
        manager.register(platform.experimenter, "a")
        for index in range(SETTLED_LEASE_MEMORY + 10):
            lease = manager.grant("a", job_id=index + 1, devices=[("vp", "d")], ttl_s=1.0, now=0.0)
            manager.settle(lease.lease_id)
        assert len(manager._settled) == SETTLED_LEASE_MEMORY
        # The oldest settlements were evicted; the newest are remembered.
        assert manager.settled_job(lease.lease_id) == lease.job_id

    def test_unknown_agent_errors(self, platform):
        from repro.accessserver.agents import AgentManager

        manager = AgentManager(platform.access_server)
        with pytest.raises(AgentError):
            manager.get("ghost")
        with pytest.raises(AgentError):
            manager.heartbeat("lease-1", "ghost")


class TestOfferPush:
    """``agent.subscribe`` over a real socket gateway: the mutation that makes
    a job claimable pushes one ``offer`` frame to each armed stream that can
    take it — no request waits server-side, and no test here sleeps."""

    @pytest.fixture()
    def gateway(self, platform, subscriber):
        gateway = platform.serve_gateway()
        yield gateway
        gateway.stop()

    @pytest.fixture()
    def remote(self, gateway):
        with BatteryLabClient(
            JsonLinesTransport(*gateway.address, timeout_s=10.0),
            "experimenter",
            "experimenter-token",
        ) as client:
            yield client

    @staticmethod
    def frames(platform):
        registry = platform.access_server.obs.registry
        return registry.family("agent_offer_frames_total").labels().value

    def test_submit_offers_to_the_matching_stream_and_no_other(
        self, platform, gateway, remote, subscriber
    ):
        """Eight agents wait on their streams beside the gateway's one
        dispatch thread: submits are still answered at once, submits no
        waiting agent can take push nothing, and the one that matches is
        delivered in milliseconds."""
        crowd = 8
        remote.agent_register("edge-fake", connectors=["fake"])
        bystanders = [f"edge-other-{index}" for index in range(crowd - 1)]
        for agent_id in bystanders:
            remote.agent_register(agent_id, connectors=["noprovision"])
        streams = {
            agent_id: subscriber(gateway.address, agent_id)
            for agent_id in ["edge-fake", *bystanders]
        }
        assert gateway._router.agent_subscriptions() == crowd
        gateway_threads = [
            thread for thread in threading.enumerate()
            if thread.name.startswith("batterylab-gw-worker")
        ]
        assert len(gateway_threads) == 1

        submit_ms = []
        for index in range(10):
            started = time.perf_counter()
            if index % 2:
                remote.submit_job(f"push-{index}", "noop")  # push plane
            else:  # a connector no subscribed agent announced
                submit_agent_job(remote, name=f"odd-{index}", connector="multi")
            submit_ms.append((time.perf_counter() - started) * 1000.0)
        assert sorted(submit_ms)[len(submit_ms) // 2] < 50.0, submit_ms
        assert self.frames(platform) == 0

        started = time.perf_counter()
        job = submit_agent_job(remote, name="for-edge-fake")
        assert streams["edge-fake"].result() == [job.job_id]
        wake_ms = (streams["edge-fake"].received_at - started) * 1000.0
        assert wake_ms < 50.0, wake_ms
        assert self.frames(platform) == 1
        assert all(streams[agent_id].is_alive() for agent_id in bystanders)

    def test_submit_racing_the_poll_that_re_arms_the_stream_is_pushed(
        self, platform, gateway, remote, subscriber
    ):
        """The lost-wake-up race, forced: a frame has disarmed the stream,
        and a job is submitted (a mutation from another connection, under
        the router lock) after the agent's next poll checked and before it
        answered.  The poll re-armed the stream before its check, so the
        job is pushed."""
        server = platform.access_server
        remote.agent_register("edge-1", connectors=["fake"])
        agent = subscriber(gateway.address, "edge-1")
        submit_agent_job(remote, name="first")
        agent.result()
        check = server.agent_offers
        racing = threading.Event()

        def check_then_submit(user, agent_id, limit=10):
            offers = check(user, agent_id, limit=limit)
            if not racing.is_set():  # the push's own check comes through here too
                racing.set()
                with gateway.router_lock:
                    submit_agent_job(platform.client(), name="racer")
            return offers

        server.agent_offers = check_then_submit
        polled = agent.client.agent_poll("edge-1").offers
        assert [offer.name for offer in polled] == ["first"]
        frame = agent.client.transport.recv_push(agent.stream.subscription_id, 5.0)
        assert [offer["name"] for offer in frame["payload"]["offers"]] == ["first", "racer"]
        assert self.frames(platform) == 2

    def test_one_frame_in_flight_until_a_claim_or_a_poll_re_arms_the_stream(
        self, platform, gateway, remote, subscriber
    ):
        with BatteryLabClient(
            JsonLinesTransport(*gateway.address, timeout_s=10.0), "admin", "admin-token"
        ) as admin:
            admin.register_vantage_point("node2", "Example University", device_count=2)
        remote.agent_register("edge-1", connectors=["fake"])
        agent = subscriber(gateway.address, "edge-1")
        first = submit_agent_job(remote, name="first")
        assert agent.result() == [first.job_id]
        submit_agent_job(remote, name="second")  # the stream is disarmed
        assert self.frames(platform) == 1
        agent.client.agent_claim("edge-1", first.job_id)  # re-arms; pushes nothing
        assert self.frames(platform) == 1
        submit_agent_job(remote, name="third")
        frame = agent.client.transport.recv_push(agent.stream.subscription_id, 5.0)
        assert [offer["name"] for offer in frame["payload"]["offers"]] == [
            "second", "third",
        ]
        assert frame["seq"] == 2 and self.frames(platform) == 2
        submit_agent_job(remote, name="fourth")  # disarmed again
        assert agent.client.agent_poll("edge-1").offers  # re-arms
        submit_agent_job(remote, name="fifth")
        frame = agent.client.transport.recv_push(agent.stream.subscription_id, 5.0)
        assert frame["seq"] == 3 and self.frames(platform) == 3

    def test_lease_expiry_reaped_by_a_host_tick_pushes_an_offer(
        self, platform, gateway, remote, subscriber
    ):
        job = submit_agent_job(remote)
        remote.agent_register("edge-1", connectors=["fake"])
        remote.agent_register("edge-2", connectors=["fake"])
        remote.agent_claim("edge-1", job.job_id, ttl_s=10.0)
        waiting = subscriber(gateway.address, "edge-2")
        # The clock alone announces nothing ...
        with gateway.router_lock:
            platform.context.run_for(11.0)
        assert self.frames(platform) == 0
        # ... the tick that reaps the lease publishes dispatch.requeued.
        with gateway.router_lock:
            platform.run_queue()
        assert waiting.result() == [job.job_id]
        assert self.frames(platform) == 1

    def test_release_of_the_last_missing_device_pushes_a_multi_offer(
        self, platform, gateway, remote, subscriber
    ):
        """A 4-device job waits on two devices another lease holds; the
        report that frees them (one of them a child slot) is the push."""
        with BatteryLabClient(
            JsonLinesTransport(*gateway.address, timeout_s=10.0), "admin", "admin-token"
        ) as admin:
            admin.register_vantage_point("node2", "Example University", device_count=3)
        remote.agent_register("pair", connectors=["multi"])
        remote.agent_register("fanout", connectors=["multi"])
        blocker = submit_agent_job(
            remote, name="blocker", connector="multi", device_count=2
        )
        lease = remote.agent_claim("pair", blocker.job_id)
        big = submit_agent_job(remote, name="big", connector="multi", device_count=4)
        waiting = subscriber(gateway.address, "fanout")
        assert remote.agent_poll("fanout").offers == []
        remote.agent_report(lease.lease_id, "pair", "completed")
        assert waiting.result() == [big.job_id]

    def test_offer_metrics_are_exported(self, platform, gateway, remote, subscriber):
        router = gateway._router
        closed = threading.Event()
        cancel_owner = router.cancel_owner

        def cancel_and_tell(owner):
            count = cancel_owner(owner)
            closed.set()
            return count

        router.cancel_owner = cancel_and_tell
        remote.agent_register("edge-1", connectors=["fake"])
        waiting = subscriber(gateway.address, "edge-1")
        job = submit_agent_job(remote)
        assert waiting.result() == [job.job_id]
        view = remote.obs_metrics()
        assert {"api_agent_subscriptions": 1.0}.items() <= {
            sample.name: sample.value for sample in view.gauges
        }.items()
        assert {"agent_offer_frames_total": 1.0}.items() <= {
            sample.name: sample.value for sample in view.counters
        }.items()
        waiting.client.close()
        assert closed.wait(timeout=5.0)
        text = platform.access_server.obs.registry.render_text()
        assert "api_agent_subscriptions 0" in text

    def test_agents_and_submitters_racing_lose_no_wake_and_settle_each_job_once(
        self, platform, gateway, remote
    ):
        """More threads than cores and a 10 µs switch interval: every job
        submitted while agents wait, claim and report is settled by exactly
        one agent, and no agent's wait for a frame times out.  Each agent
        waits as the daemon does: subscribe, poll once, then take the
        frames, polling when every offer of one was taken."""
        import sys

        from repro.api.errors import TransportApiError
        from repro.api.schemas import AgentPollView

        agents, submitters, jobs_each = 6, 3, 20
        total = submitters * jobs_each
        done = threading.Event()
        settled, failures = [], []

        def connect():
            return BatteryLabClient(
                JsonLinesTransport(*gateway.address, timeout_s=30.0),
                "experimenter",
                "experimenter-token",
            )

        def agent(agent_id):
            with connect() as client:
                client.agent_register(agent_id, connectors=["fake"])
                stream = client.agent_subscribe(agent_id, limit=1)
                offers = client.agent_poll(agent_id, limit=1).offers
                while not done.is_set():
                    try:
                        if not offers:
                            frame = client.transport.recv_push(
                                stream.subscription_id, timeout_s=20.0
                            )
                            offers = AgentPollView.from_wire(frame["payload"]).offers
                        job_id = offers[0].job_id
                        try:
                            lease = client.agent_claim(agent_id, job_id)
                        except ConflictApiError:
                            # Taken by another agent: poll, as the daemon does.
                            offers = client.agent_poll(agent_id, limit=1).offers
                            continue
                        offers = []
                        client.agent_report(lease.lease_id, agent_id, "completed")
                    except TransportApiError as exc:
                        if not done.is_set():
                            failures.append(exc)  # a timed-out wait: a lost wake
                        return
                    except Exception as exc:  # noqa: BLE001 - reported below
                        failures.append(exc)
                        return
                    settled.append(job_id)
                    if len(settled) == total:
                        done.set()

        def submitter(index):
            with connect() as client:
                for job in range(jobs_each):
                    submit_agent_job(client, name=f"storm-{index}-{job}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=agent, args=(f"storm-agent-{index}",), daemon=True)
                for index in range(agents)
            ] + [
                threading.Thread(target=submitter, args=(index,), daemon=True)
                for index in range(submitters)
            ]
            for thread in threads:
                thread.start()
            finished = done.wait(timeout=20.0)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures
        assert finished, f"{len(settled)}/{total} settled; a wake-up was lost"
        assert sorted(settled) == sorted(set(settled)) and len(settled) == total
        gateway.stop()  # ends the streams the agents still wait on
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert gateway._router.agent_subscriptions() == 0


class TestResentClaim:
    def test_a_claim_resent_after_its_answer_was_lost_gets_the_same_lease(
        self, platform, tmp_path
    ):
        """The daemon's connection drops after the server granted its lease
        and before the answer arrived.  The transport resends the claim
        once; the resend is answered with the lease the first copy won, so
        the cycle runs the job instead of leaving it leased for a TTL."""
        import socket

        from repro.agent import AgentDaemon

        gateway = platform.serve_gateway()
        try:
            with BatteryLabClient(
                JsonLinesTransport(*gateway.address, timeout_s=10.0),
                "experimenter",
                "experimenter-token",
            ) as client:
                daemon = AgentDaemon(client, "edge-1", tmp_path / "outbox.jsonl")
                daemon.register()
                job = submit_agent_job(client)
                server = platform.access_server
                claim = server.agent_claim
                granted = []

                def grant_then_drop(*args, **kwargs):
                    lease, claimed = claim(*args, **kwargs)
                    if not granted:
                        granted.append(lease.lease_id)
                        client.transport._sock.shutdown(socket.SHUT_RDWR)
                    return lease, claimed

                server.agent_claim = grant_then_drop
                assert daemon.run_once() == job.job_id
                assert client.transport.connects == 2  # the claim was resent
                assert client.job_status(job.job_id).status == "completed"
                (claimed,) = [r for r in daemon.outbox.records() if r["kind"] == "claim"]
                assert claimed["lease_id"] == granted[0]
                daemon.outbox.close()
        finally:
            gateway.stop()
