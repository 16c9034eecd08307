"""Chaos injection points: the wire, the journal, and the federation link.

Covers them end to end against real platform components — a
:class:`ChaosTransport` wrapping both the in-process bridge and the
socket-level :class:`JsonLinesTransport`; a :class:`FileBackend`
crash-killing its persisted access server at chosen journal appends in
all three modes (with recovery verified after each); and a
:class:`ShardPartition` severing one shard of a live scatter-gather
federation and healing it again.
"""

import pytest

from repro.api import ApiGateway, ApiRouter
from repro.api.client import BatteryLabClient, InProcessTransport
from repro.api.errors import TransportApiError
from repro.api.gateway import JsonLinesTransport
from repro.accessserver.persistence import FileBackend
from repro.chaos.faults import SimulatedCrash
from repro.chaos.injectors import ChaosTransport, ShardPartition
from repro.core.platform import build_default_platform
from repro.federation.router import FederationRouter
from repro.federation.shard import build_federation_shards


@pytest.fixture()
def platform():
    return build_default_platform(seed=29, browsers=("chrome",))


def chaos_client(platform, **kwargs):
    transport = ChaosTransport(
        InProcessTransport(ApiRouter(platform.access_server)), **kwargs
    )
    return (
        BatteryLabClient(transport, "experimenter", "experimenter-token"),
        transport,
    )


class TestChaosTransportInProcess:
    def test_partition_fails_requests_with_the_retryable_error(self, platform):
        client, transport = chaos_client(platform)
        client.submit_job("before", "noop")  # link healthy
        transport.partition()
        with pytest.raises(TransportApiError):
            client.submit_job("during", "noop")
        with pytest.raises(TransportApiError):
            client.fleet()  # reads fail too: the wire is down, not the op
        transport.heal()
        view = client.submit_job("after", "noop")
        assert view.status == "queued"
        assert transport.dropped_requests == 2

    def test_drop_next_loses_a_bounded_number_then_recovers(self, platform):
        client, transport = chaos_client(platform)
        transport.drop_next(2)
        for _ in range(2):
            with pytest.raises(TransportApiError):
                client.fleet()
        client.fleet()  # self-healed
        assert transport.dropped_requests == 2

    def test_heal_clears_a_pending_drop_order(self, platform):
        client, transport = chaos_client(platform)
        transport.drop_next(5)
        transport.heal()
        client.fleet()
        assert transport.dropped_requests == 0

    def test_delay_burns_the_sink_not_the_wall_clock(self, platform):
        burned = []
        client, transport = chaos_client(platform, delay_sink=burned.append)
        transport.delay(2.5)
        client.fleet()
        client.fleet()
        transport.delay(0.0)
        client.fleet()
        assert burned == [2.5, 2.5]
        assert transport.delayed_requests == 2

    def test_validation(self, platform):
        _, transport = chaos_client(platform)
        with pytest.raises(ValueError):
            transport.drop_next(-1)
        with pytest.raises(ValueError):
            transport.delay(-0.5)

    def test_idempotent_resubmit_across_a_partition_is_one_job(self, platform):
        """The soak harness's retry contract: a submission that failed on
        the wire is retried under its idempotency key and must not double."""
        client, transport = chaos_client(platform)
        transport.partition()
        with pytest.raises(TransportApiError):
            client.submit_job("retry-me", "noop", idempotency_key="soak-1")
        transport.heal()
        first = client.submit_job("retry-me", "noop", idempotency_key="soak-1")
        again = client.submit_job("retry-me", "noop", idempotency_key="soak-1")
        assert first.job_id == again.job_id


class TestChaosTransportOverTheWire:
    def test_partition_and_heal_around_a_real_socket_gateway(self, platform):
        gateway = ApiGateway(ApiRouter(platform.access_server))
        gateway.start()
        try:
            host, port = gateway.address
            transport = ChaosTransport(JsonLinesTransport(host, port, timeout_s=10.0))
            client = BatteryLabClient(transport, "experimenter", "experimenter-token")
            try:
                view = client.submit_job("wired", "noop")
                transport.partition()
                with pytest.raises(TransportApiError):
                    client.job_status(view.job_id)
                transport.heal()
                assert client.job_status(view.job_id).status == "queued"
                assert transport.dropped_requests == 1
            finally:
                client.close()
        finally:
            gateway.stop()


class TestJournalCrashPoints:
    """The agent-outbox crash matrix, on the server journal: a
    ``FileBackend`` crash-kills its server at a chosen journal append."""

    def _persisted(self, tmp_path, recover=False):
        platform = build_default_platform(
            seed=29, browsers=("chrome",), persistence=False
        )
        backend = FileBackend(tmp_path / "state", fsync_every=1)
        platform.access_server.enable_persistence(
            backend, recover=recover, snapshot_every=10_000
        )
        return platform, backend

    def _recovered_names(self, tmp_path):
        platform, _ = self._persisted(tmp_path, recover=True)
        return [
            job.spec.name
            for job in platform.access_server.scheduler.queue.jobs()
        ]

    def test_before_mode_loses_the_append(self, tmp_path):
        platform, backend = self._persisted(tmp_path)
        client = platform.client()
        client.submit_job("first", "noop")
        backend.plan_crash(backend.writes, mode="before")
        with pytest.raises(SimulatedCrash):
            client.submit_job("second", "noop")
        assert self._recovered_names(tmp_path) == ["first"]

    def test_after_mode_keeps_the_append_durable(self, tmp_path):
        platform, backend = self._persisted(tmp_path)
        client = platform.client()
        client.submit_job("first", "noop")
        backend.plan_crash(backend.writes, mode="after")
        with pytest.raises(SimulatedCrash):
            client.submit_job("second", "noop")
        # The record hit the disk even though the server never saw the ack.
        assert self._recovered_names(tmp_path) == ["first", "second"]

    def test_torn_mode_leaves_half_a_line_recovery_drops_it(self, tmp_path):
        platform, backend = self._persisted(tmp_path)
        client = platform.client()
        client.submit_job("first", "noop")
        before = backend.journal_path.read_bytes()
        backend.plan_crash(backend.writes, mode="torn")
        with pytest.raises(SimulatedCrash):
            client.submit_job("second", "noop")
        torn = backend.journal_path.read_bytes()
        assert len(torn) > len(before)
        assert not torn.endswith(b"\n")  # the exact shape of a torn write(2)
        assert self._recovered_names(tmp_path) == ["first"]

    def test_only_journal_appends_are_crash_points(self, tmp_path):
        platform, backend = self._persisted(tmp_path)
        client = platform.client()
        client.submit_job("first", "noop")
        writes = backend.writes
        assert writes == backend.appended > 0
        platform.access_server.persistence.checkpoint()  # snapshot + truncate
        assert backend.writes == writes
        backend.plan_crash(writes + 1, mode="before")
        client.submit_job("second", "noop")  # append `writes`: survives
        with pytest.raises(SimulatedCrash):
            client.submit_job("third", "noop")
        with pytest.raises(ValueError):
            backend.plan_crash(-1)

    def test_disarm_cancels_the_kill(self, tmp_path):
        platform, backend = self._persisted(tmp_path)
        client = platform.client()
        backend.plan_crash(backend.writes, mode="after")
        backend.crash_plan.disarm()
        client.submit_job("calm", "noop")
        assert self._recovered_names(tmp_path) == ["calm"]

    def test_the_journal_gauges_read_the_backend(self, tmp_path):
        """A crash-armable backend is the backend: its fsync and snapshot
        gauges are exported, not lost behind a wrapper."""
        platform, backend = self._persisted(tmp_path)
        backend.plan_crash(10**6)
        for name in ("one", "two"):
            platform.client().submit_job(name, "noop")
        platform.access_server.persistence.checkpoint()
        snapshot = platform.access_server.obs.registry.snapshot()
        gauges = {g["name"]: g["value"] for g in snapshot["gauges"]}
        assert gauges["journal_fsyncs_total"] == backend.fsyncs > 0
        assert gauges["journal_snapshot_bytes"] == backend.snapshot_bytes > 0


class TestShardPartition:
    def _federation(self):
        shards = build_federation_shards(2)
        router = FederationRouter(shards)
        client = BatteryLabClient(
            InProcessTransport(router), "experimenter", "experimenter-token"
        )
        return router, shards, client

    def _submit_on(self, client, shard_index, name):
        return client.submit_job(
            name, "noop", vantage_point=f"shard-{shard_index}-node1"
        )

    def test_partitioned_shard_fails_retryably_others_serve(self):
        router, shards, client = self._federation()
        partition = ShardPartition(shards[1])
        partition.partition()
        assert partition.partitioned
        with pytest.raises(TransportApiError):
            self._submit_on(client, 1, "dark")
        # The healthy shard keeps serving through the same router.
        view = self._submit_on(client, 0, "lit")
        assert view.status == "queued"
        assert partition.dropped_requests == 1

    def test_heal_restores_the_link_and_the_retry_lands_once(self):
        router, shards, client = self._federation()
        partition = ShardPartition(shards[1])
        partition.partition()
        with pytest.raises(TransportApiError):
            client.submit_job(
                "retry", "noop",
                vantage_point="shard-1-node1", idempotency_key="fed-1",
            )
        partition.heal()
        assert not partition.partitioned
        first = client.submit_job(
            "retry", "noop", vantage_point="shard-1-node1", idempotency_key="fed-1"
        )
        again = client.submit_job(
            "retry", "noop", vantage_point="shard-1-node1", idempotency_key="fed-1"
        )
        assert first.job_id == again.job_id

    def test_partition_is_idempotent_and_passes_control_plane_through(self):
        router, shards, client = self._federation()
        partition = ShardPartition(shards[0])
        partition.partition()
        partition.partition()  # no double-wrap
        # Non-request attributes pass through to the real router.
        assert shards[0].router.server is not None
        partition.heal()
        assert not partition.partitioned
        assert self._submit_on(client, 0, "back").status == "queued"
