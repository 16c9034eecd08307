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
from repro.accessserver.jobs import JobStatus
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
        with pytest.raises(PermissionApiError):
            client.agent_heartbeat(lease.lease_id, "edge-2")

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
        ledger = platform.access_server.enable_credit_system(
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
        assert platform.access_server.expire_agent_leases() == 1
        queue = platform.access_server.scheduler.engine.queue.jobs()
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

    def test_report_at_exact_expiry_settles_exactly_once(self, platform, client):
        """Satellite: a report landing at exactly ``now == expires_at``
        loses the race — ``agent_report`` reaps the lease *first*, so the
        late result is rejected and discarded, the job is requeued exactly
        once (one ``dispatch.requeued`` record, never two), and only the
        re-claiming agent's settle counts."""
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        client.agent_register("edge-2", connectors=["fake"])
        lease = client.agent_claim("edge-1", job.job_id, ttl_s=10.0)
        platform.context.run_for(10.0)  # the boundary: expired(now) is >=
        with pytest.raises(NotFoundApiError):
            client.agent_report(lease.lease_id, "edge-1", "completed", result=1)
        events = platform.access_server.events
        assert len(events.events("dispatch.requeued")) == 1
        assert events.events("job.finished") == []
        assert client.job_status(job.job_id).status == "queued"
        # The job is claimable again and the second settle is the only one.
        lease2 = client.agent_claim("edge-2", job.job_id)
        report = client.agent_report(lease2.lease_id, "edge-2", "completed", result=2)
        assert report.job.status == "completed"
        assert report.duplicate is False
        assert client.job_results(job.job_id).result == 2
        assert len(events.events("dispatch.requeued")) == 1
        assert len(events.events("job.finished")) == 1
        # A retry of the dead lease's upload stays rejected, not resurrected.
        with pytest.raises(NotFoundApiError):
            client.agent_report(lease.lease_id, "edge-1", "completed", result=1)
        assert client.job_results(job.job_id).result == 2

    def test_report_just_before_expiry_wins_without_requeue(
        self, platform, client
    ):
        """The flip side of the boundary: one tick before expiry the lease
        is live, the report settles, and nothing is ever requeued."""
        job = submit_agent_job(client)
        client.agent_register("edge-1", connectors=["fake"])
        lease = client.agent_claim("edge-1", job.job_id, ttl_s=10.0)
        platform.context.run_for(9.999)
        report = client.agent_report(lease.lease_id, "edge-1", "completed")
        assert report.job.status == "completed"
        assert report.duplicate is False
        events = platform.access_server.events
        assert events.events("dispatch.requeued") == []
        assert len(events.events("job.finished")) == 1

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
        assert leased.access_server.expire_agent_leases() == 1

        def queue_bytes(p):
            queue = p.access_server.scheduler.engine.queue.jobs()
            lines = []
            for seq, job in enumerate(queue):
                state = serialize_job(job, seq)
                # Job ids are minted by a process-global allocator, so the
                # two platforms disagree on them by construction; identity
                # aside, the serialized state must match byte for byte.
                state["job_id"] = 0
                lines.append(json.dumps(state, sort_keys=True))
            return lines

        crash_bytes = queue_bytes(crashed)
        lease_bytes = queue_bytes(leased)
        assert crash_bytes == lease_bytes
        assert len(crash_bytes) == 2


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
        assert platform.access_server.expire_agent_leases() == 1
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
        ledger = server.enable_credit_system(initial_grant_device_hours=10.0)
        admin.register_vantage_point("node2", "Example University", device_count=2)
        client.agent_register("fanout", connectors=["fake", "multi"])
        job = submit_agent_job(
            client, name="held", device_count=devices,
            connector="multi" if devices > 1 else "fake",
        )
        lease = client.agent_claim("fanout", job.job_id, ttl_s=5400.0)
        engine = server.scheduler.engine
        assert len(engine.slots) - engine.slots.free_count == devices
        balance = ledger.balance("experimenter")
        journaled = len(backend.read_journal())
        released = []
        server.events.subscribe(
            "dispatch.released",
            lambda record: released.append(
                (record.payload["device_serial"], engine.slots.free_count)
            ),
        )
        platform.context.run_for(3600.0)
        if cancelled:
            client.cancel_job(job.job_id)
        # Cancelled or not, the agent holds every device until its exit.
        held = check_device_hold_conservation(server)
        assert held.ok, held.details
        assert engine.is_executing(job.job_id)
        assert len(engine.slots) - engine.slots.free_count == devices

        if exit_by == "report":
            client.agent_report(lease.lease_id, "fanout", "completed", result=1)
        else:
            platform.context.run_for(1800.0)  # past the 5400 s TTL
            assert server.expire_agent_leases() == 1

        status, records, billed = self.EXPECTED[exit_by, cancelled]
        assert client.job_status(job.job_id).status == status
        after = check_device_hold_conservation(server, drained=True)
        assert after.ok, after.details
        assert not engine.is_executing(job.job_id)
        # One dispatch.released, naming the primary slot, published once
        # every slot of the family was free again.
        assert released == [(lease.devices[0].device_serial, len(engine.slots))]
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

        manager = AgentManager()
        manager.register("a", 0.0)
        for index in range(SETTLED_LEASE_MEMORY + 10):
            lease = manager.grant("a", job_id=index + 1, devices=[("vp", "d")], ttl_s=1.0, now=0.0)
            manager.settle(lease.lease_id)
        assert len(manager._settled) == SETTLED_LEASE_MEMORY
        # The oldest settlements were evicted; the newest are remembered.
        assert manager.settled_job(lease.lease_id) == lease.job_id

    def test_unknown_agent_errors(self):
        from repro.accessserver.agents import AgentManager

        manager = AgentManager()
        with pytest.raises(AgentError):
            manager.get("ghost")
        with pytest.raises(AgentError):
            manager.renew("lease-1", 0.0)


class TestParkedPolls:
    """``agent.poll`` with ``wait_s`` over a real socket gateway: a parked
    poll is a registered request that the mutation creating its offer
    completes — no worker thread waits with it, and no test here sleeps."""

    @pytest.fixture()
    def gateway(self, platform, poller):
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
    def completions(platform, reason):
        family = platform.access_server.obs.registry.family(
            "agent_poll_completions_total"
        )
        return family.labels(reason=reason).value

    def test_submit_completes_the_matching_poll_and_no_other(
        self, platform, gateway, remote, poller, park_signal
    ):
        """Twice as many agents parked as the gateway has workers: submits
        are still answered at once, submits no parked agent can take wake
        nobody, and the one that matches is delivered in milliseconds."""
        workers = gateway._worker_threads
        parked = park_signal(gateway._router)
        remote.agent_register("edge-fake", connectors=["fake"])
        bystanders = [f"edge-other-{index}" for index in range(2 * workers - 1)]
        for agent_id in bystanders:
            remote.agent_register(agent_id, connectors=["noprovision"])
        pollers = {
            agent_id: poller(gateway.address, agent_id)
            for agent_id in ["edge-fake", *bystanders]
        }
        for _ in pollers:
            assert parked.acquire(timeout=5.0)
        assert gateway._router.parked_polls() == 2 * workers
        gateway_threads = [
            thread for thread in threading.enumerate()
            if thread.name.startswith("batterylab-gw-worker")
        ]
        assert len(gateway_threads) <= workers

        submit_ms = []
        for index in range(10):
            started = time.perf_counter()
            if index % 2:
                remote.submit_job(f"push-{index}", "noop")  # push plane
            else:  # a connector nobody parked here announced
                submit_agent_job(remote, name=f"odd-{index}", connector="multi")
            submit_ms.append((time.perf_counter() - started) * 1000.0)
        assert sorted(submit_ms)[len(submit_ms) // 2] < 50.0, submit_ms
        assert gateway._router.parked_polls() == 2 * workers
        assert self.completions(platform, "work") == 0

        started = time.perf_counter()
        job = submit_agent_job(remote, name="for-edge-fake")
        assert pollers["edge-fake"].result() == [job.job_id]
        wake_ms = (pollers["edge-fake"].returned_at - started) * 1000.0
        assert wake_ms < 50.0, wake_ms
        assert gateway._router.parked_polls() == 2 * workers - 1
        assert self.completions(platform, "work") == 1

    def test_submit_between_the_check_and_the_park_is_delivered(
        self, platform, gateway, remote, poller
    ):
        """The lost-wake-up race, forced: the job is submitted (and acked)
        after the poll's check came back empty and before the poll parks."""
        server = platform.access_server
        remote.agent_register("edge-1", connectors=["fake"])
        check = server.agent_offers
        racing = threading.Event()

        def check_then_submit(user, agent_id, limit=10):
            offers = check(user, agent_id, limit=limit)
            if not racing.is_set():  # the re-check comes through here too
                racing.set()
                submit_agent_job(remote, name="racer")
            return offers

        server.agent_offers = check_then_submit
        polling = poller(gateway.address, "edge-1")
        polling.result()
        assert [offer.name for offer in polling.offers] == ["racer"]
        assert self.completions(platform, "work") == 1
        assert gateway._router.parked_polls() == 0

    def test_lease_expiry_reaped_by_a_host_tick_wakes_a_parked_poll(
        self, platform, gateway, remote, poller, park_signal
    ):
        parked = park_signal(gateway._router)
        job = submit_agent_job(remote)
        remote.agent_register("edge-1", connectors=["fake"])
        remote.agent_register("edge-2", connectors=["fake"])
        remote.agent_claim("edge-1", job.job_id, ttl_s=10.0)
        polling = poller(gateway.address, "edge-2")
        assert parked.acquire(timeout=5.0)
        # The clock alone announces nothing ...
        with gateway.router_lock:
            platform.context.run_for(11.0)
        assert gateway._router.parked_polls() == 1
        # ... the tick that reaps the lease publishes dispatch.requeued.
        with gateway.router_lock:
            platform.run_queue()
        assert polling.result() == [job.job_id]
        assert self.completions(platform, "work") == 1

    def test_release_of_the_last_missing_device_wakes_a_multi_poll(
        self, platform, gateway, remote, poller, park_signal
    ):
        """A 4-device job waits on two devices another lease holds; the
        report that frees them (one of them a child slot) is the wake."""
        parked = park_signal(gateway._router)
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
        polling = poller(gateway.address, "fanout")
        assert parked.acquire(timeout=5.0)
        assert remote.agent_poll("fanout").offers == []
        remote.agent_report(lease.lease_id, "pair", "completed")
        assert polling.result() == [big.job_id]

    def test_deadline_answers_empty_and_metrics_are_exported(
        self, platform, gateway, remote, poller
    ):
        remote.agent_register("edge-1", connectors=["fake"])
        polling = poller(gateway.address, "edge-1", wait_s=0.05)
        assert polling.result() == []
        assert self.completions(platform, "deadline") == 1
        view = remote.obs_metrics()
        assert {"api_parked_polls"} <= {sample.name for sample in view.gauges}
        assert {"agent_poll_completions_total"} <= {
            sample.name for sample in view.counters
        }
        park = [
            sample for sample in view.histograms
            if sample.name == "agent_poll_park_seconds"
        ]
        assert park and park[0].count == 1 and park[0].sum >= 0.05
        assert "api_parked_polls 0" in platform.access_server.obs.registry.render_text()

    def test_agents_and_submitters_racing_lose_no_wake_and_settle_each_job_once(
        self, platform, gateway, remote
    ):
        """More threads than cores and a 10 µs switch interval: every job
        submitted while agents park, wake, claim and report is settled by
        exactly one agent, and nothing is left parked at a deadline."""
        import sys

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
                while not done.is_set():
                    try:
                        offers = client.agent_poll(agent_id, wait_s=20.0, limit=1).offers
                        if not offers:
                            continue
                        lease = client.agent_claim(agent_id, offers[0].job_id)
                        client.agent_report(lease.lease_id, agent_id, "completed")
                    except ConflictApiError:
                        continue  # another agent claimed the offer first
                    except Exception as exc:  # noqa: BLE001 - reported below
                        if not done.is_set():
                            failures.append(exc)
                        return
                    settled.append(offers[0].job_id)
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
        assert self.completions(platform, "deadline") == 0
        gateway.stop()  # answers the agents still parked: their loops see ``done``
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert gateway._router.parked_polls() == 0
