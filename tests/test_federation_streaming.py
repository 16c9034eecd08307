"""Cross-shard push streams through the federation router.

Satellite acceptance for PR 8: a federated ``events.subscribe`` merges
every shard's stream behind one subscription id whose ``seq`` honours the
PR-5 back-pressure contract (seq gap == ``dropped``), ``job.watch`` end
frames survive a shard draining mid-watch, and a 2000-event flood merges
deterministically — every published event accounted for, in publish order.
"""

import json
import socket

import pytest

from repro.api import ApiGateway
from repro.api.client import BatteryLabClient, InProcessTransport
from repro.federation import (
    FederationRouter,
    build_federation_shards,
    lane_of_job,
)

ADMIN = {"username": "admin", "token": "admin-token"}


def fed_client(router, username="admin"):
    return BatteryLabClient(
        InProcessTransport(router), username, f"{username}-token"
    )


def admin_call(router, op, payload, request_id=1):
    return router.handle(
        {
            "op": op,
            "version": "2.0",
            "request_id": request_id,
            "auth": ADMIN,
            "payload": payload,
        }
    )


def subscribe(router, sink, topic_prefix="dispatch.", owner=None):
    response = router.handle(
        {
            "op": "events.subscribe",
            "version": "2.0",
            "request_id": 1,
            "auth": ADMIN,
            "payload": {"topic_prefix": topic_prefix},
        },
        push=sink.append,
        owner=owner if owner is not None else object(),
    )
    assert response["ok"], response
    return response["payload"]["subscription_id"]


@pytest.fixture()
def fed2():
    shards = build_federation_shards(2)
    return FederationRouter(shards), shards


class TestMergedEventStream:
    def test_events_from_both_shards_share_one_cursor(self, fed2):
        router, shards = fed2
        frames = []
        subscribe(router, frames, topic_prefix="job.")
        client = fed_client(router)
        client.login()
        expected = []
        for i in range(5):
            for shard_index in (0, 1):
                view = client.submit_job(
                    f"j-{i}-{shard_index}",
                    "noop",
                    vantage_point=f"shard-{shard_index}-node1",
                )
                expected.append(view.job_id)
        # One frame per submission, in publish order, one contiguous cursor.
        assert [f["payload"]["job_id"] for f in frames] == expected
        assert [f["seq"] for f in frames] == list(range(1, len(expected) + 1))
        assert len({f["subscription_id"] for f in frames}) == 1

    def test_fed_seq_advances_by_dropped_plus_one(self, fed2):
        """A leg frame carrying ``dropped`` (lost upstream of the merge)
        must open the same gap in the federated cursor, so a consumer's
        seq arithmetic keeps working across the fan-in."""
        router, _ = fed2
        frames = []
        fed_id = subscribe(router, frames, topic_prefix="dispatch.")
        sub = router._subscriptions[fed_id]
        leg = {
            "kind": "push",
            "subscription_id": 77,
            "frame": "event",
            "seq": 1,
            "topic": "dispatch.x",
            "timestamp": 0.0,
            "payload": {},
            "version": "2.0",
        }
        router._forward_frame(sub, "shard-0", dict(leg))
        router._forward_frame(sub, "shard-1", {**leg, "seq": 1})
        router._forward_frame(sub, "shard-0", {**leg, "seq": 4, "dropped": 2})
        seqs = [f["seq"] for f in frames]
        assert seqs == [1, 2, 5]  # the 2-frame loss stays visible
        assert frames[-1]["dropped"] == 2
        assert frames[-1]["seq"] - frames[-2]["seq"] == frames[-1]["dropped"] + 1
        assert all(f["subscription_id"] == fed_id for f in frames)

    def test_flood_of_2000_events_merges_deterministically(self, fed2):
        router, shards = fed2
        frames = []
        subscribe(router, frames, topic_prefix="flood.")
        total = 2000
        for index in range(total):
            shard = shards[index % 2]
            shard.server.events.publish("flood.burst", job_id=index)
        assert len(frames) == total
        # In-process legs drop nothing, so the merged cursor is gap-free
        # and ordered exactly as published — alternating shards and all.
        assert [f["seq"] for f in frames] == list(range(1, total + 1))
        assert [f["payload"]["job_id"] for f in frames] == list(range(total))

    def test_cancel_owner_tears_down_every_leg(self, fed2):
        router, shards = fed2
        frames = []
        owner = object()
        subscribe(router, frames, owner=owner)
        assert router.active_subscriptions()
        assert router.cancel_owner(owner) == 1
        assert router.active_subscriptions() == []
        for shard in shards:
            assert shard.router.active_subscriptions() == []

    def test_close_all_closes_fed_and_shard_subscriptions(self, fed2):
        router, shards = fed2
        subscribe(router, [])
        assert router.close_all_subscriptions() >= 1
        assert router.active_subscriptions() == []
        for shard in shards:
            assert shard.router.active_subscriptions() == []

    def test_failing_push_cancels_the_fed_subscription(self, fed2):
        router, shards = fed2

        def explode(frame):
            raise OSError("consumer died")

        response = router.handle(
            {
                "op": "events.subscribe",
                "version": "2.0",
                "request_id": 1,
                "auth": ADMIN,
                "payload": {"topic_prefix": "job."},
            },
            push=explode,
            owner=object(),
        )
        assert response["ok"]
        client = fed_client(router)
        client.login()
        client.submit_job("boom", "noop", vantage_point="shard-0-node1")
        # The dead consumer's subscription is gone federation-wide.
        assert router.active_subscriptions() == []
        for shard in shards:
            assert shard.router.active_subscriptions() == []


class TestWatchAcrossDrain:
    def test_watch_routes_to_the_lane_and_retags_frames(self, fed2):
        router, shards = fed2
        client = fed_client(router)
        client.login()
        view = client.submit_job("watched", "noop", vantage_point="shard-1-node1")
        assert lane_of_job(view.job_id, 2) == 1
        watch = client.watch_job(view.job_id)
        shards[1].server.drain()
        final = watch.wait()
        assert final.status == "completed"
        assert final.job_id == view.job_id

    def test_end_frame_survives_a_drain_mid_watch(self, fed2):
        """Draining settles in-flight jobs; their watchers must receive
        the terminal ``end`` frame before the shard can detach."""
        router, shards = fed2
        client = fed_client(router)
        client.login()
        view = client.submit_job("drain-me", "noop", vantage_point="shard-1-node1")
        watch = client.watch_job(view.job_id)
        response = admin_call(router, "shard.drain", {"shard_id": "shard-1"})
        assert response["ok"]
        final = watch.wait()
        assert final.status == "completed"
        # The watch is fully settled federation-side: detaching the shard
        # afterwards has no streams left to orphan.
        assert admin_call(router, "shard.remove", {"shard_id": "shard-1"})["ok"]
        assert router.active_subscriptions() == []

    def test_subscription_cancel_works_through_the_federation(self, fed2):
        router, _ = fed2
        client = fed_client(router)
        client.login()
        stream = client.events(topic_prefix="job.")
        assert client.cancel_subscription(stream.subscription_id) is True
        assert router.active_subscriptions() == []


class TestFloodOverTheGateway:
    def test_backpressure_contract_holds_across_the_merge(self, fed2):
        """PR-5's contract, federated: a slow consumer behind a real
        gateway loses frames to the bounded push queue, and every loss is
        surfaced as a ``dropped`` counter matching the federated seq gap —
        no matter which shard each frame came from."""
        router, shards = fed2
        gateway = ApiGateway(router, push_queue_limit=16)
        gateway.start()
        host, port = gateway.address
        raw = socket.create_connection((host, port), timeout=10.0)
        try:
            raw.sendall(
                (
                    json.dumps(
                        {
                            "op": "events.subscribe",
                            "version": "2.0",
                            "auth": ADMIN,
                            "payload": {"topic_prefix": "flood."},
                            "request_id": 1,
                        }
                    )
                    + "\n"
                ).encode("utf-8")
            )
            reader = raw.makefile("rb")
            raw.settimeout(10.0)
            assert json.loads(reader.readline())["ok"] is True

            total = 2000
            for index in range(1, total + 1):
                shard = shards[index % 2]
                shard.server.events.publish(
                    "flood.burst", job_id=index, blob="x" * 4096
                )

            frames = []
            dropped = 0
            while True:
                frame = json.loads(reader.readline())
                frames.append(frame)
                dropped += frame.get("dropped", 0)
                if frame["seq"] == total:
                    break
            assert dropped > 0, "a 16-deep queue cannot hold a 2000-event flood"
            assert len(frames) + dropped == total
            previous = 0
            for frame in frames:
                assert frame["seq"] == previous + frame.get("dropped", 0) + 1
                previous = frame["seq"]
        finally:
            raw.close()
            gateway.stop()
