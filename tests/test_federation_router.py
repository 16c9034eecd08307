"""Federation layer: sharded access servers behind the scatter-gather router.

The acceptance bar for PR 8: a 2-shard federation drives the *existing*
API v2 client SDK unmodified through :class:`FederationRouter` — routed
ops return the same wire bytes a standalone server would, scattered reads
merge deterministically, and a drain → detach → re-attach cycle loses no
jobs and leaves the merged analytics report identical.
"""

import json
import os
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ApiGateway, ApiRouter, JsonLinesTransport
from repro.api.client import BatteryLabClient, InProcessTransport
from repro.api.errors import ConflictApiError, NotFoundApiError, PermissionApiError
from repro.core.platform import build_default_platform
from repro.federation import merge as fed_merge
from repro.federation import (
    FederationRouter,
    PlacementDirectory,
    ShardState,
    build_federation_shards,
    build_shard,
    lane_of_job,
    merge_job_list,
    merge_report,
    merge_status,
    merge_timeseries,
    rendezvous_shard,
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


def submit_on(client, shard_index, name, **kwargs):
    """Submit a job constrained to shard ``shard_index``'s vantage point."""
    return client.submit_job(
        name, "noop", vantage_point=f"shard-{shard_index}-node1", **kwargs
    )


@pytest.fixture()
def fed2():
    shards = build_federation_shards(2)
    return FederationRouter(shards), shards


class TestPlacementPrimitives:
    def test_lane_of_job_inverts_the_strided_allocator(self):
        # shard k of N mints k+1, k+1+N, ...: the lane is recoverable
        # from the id alone for every shard and stride.
        for lane_count in (1, 2, 3, 5):
            for index in range(lane_count):
                for step in range(4):
                    job_id = (index + 1) + step * lane_count
                    assert lane_of_job(job_id, lane_count) == index

    def test_lane_of_job_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lane_of_job(0, 2)
        with pytest.raises(ValueError):
            lane_of_job(1, 0)

    def test_rendezvous_is_deterministic_and_minimally_disruptive(self):
        shard_ids = ["shard-0", "shard-1", "shard-2"]
        keys = [f"key-{i}" for i in range(200)]
        first = {key: rendezvous_shard(key, shard_ids) for key in keys}
        assert first == {key: rendezvous_shard(key, shard_ids) for key in keys}
        survivors = ["shard-0", "shard-2"]
        moved = 0
        for key in keys:
            relocated = rendezvous_shard(key, survivors)
            if first[key] in survivors:
                # Keys a surviving shard was winning must not move.
                assert relocated == first[key]
            else:
                moved += 1
        assert moved > 0  # shard-1's keys redistribute

    def test_directory_is_sticky_across_forget(self):
        directory = PlacementDirectory()
        directory.vantage_points["vp-a"] = "shard-0"
        directory.devices["dev-1"] = "shard-0"
        directory.record_submission("alice", "key-1", "shard-0")
        assert directory.shard_for_constraints("vp-a", None) == "shard-0"
        assert directory.shard_for_constraints(None, "dev-1") == "shard-0"
        assert directory.shard_for_submission("alice", "key-1") == "shard-0"
        assert directory.shard_for_submission("alice", None) is None
        directory.forget_vantage_points("shard-0")
        assert directory.shard_for_constraints("vp-a", None) is None
        # Sticky submissions survive: the original job still lives there.
        assert directory.shard_for_submission("alice", "key-1") == "shard-0"


class TestMergeFolds:
    def test_job_list_windows_after_the_global_sort(self):
        payloads = [
            ("shard-0", {"jobs": [{"job_id": 1}, {"job_id": 3}], "total": 2}),
            ("shard-1", {"jobs": [{"job_id": 2}, {"job_id": 4}], "total": 2}),
        ]
        merged = merge_job_list(payloads, offset=1, limit=2)
        assert [job["job_id"] for job in merged["jobs"]] == [2, 3]
        assert merged["total"] == 4

    def test_status_sums_and_conservative_booleans(self):
        payloads = [
            (
                "shard-0",
                {
                    "vantage_points": ["b"],
                    "users": ["admin", "alice"],
                    "queued_jobs": 2,
                    "pending_approval": 1,
                    "scheduling_policy": "fifo",
                    "reservation_admission": "ignore",
                    "auto_dispatch": True,
                    "persistence": True,
                    "orphaned_jobs": [7],
                    "orphaned_vantage_points": [],
                    "journal": {
                        "records": 5,
                        "records_since_snapshot": 5,
                        "snapshots_written": 0,
                        "last_snapshot_at": 10.0,
                    },
                },
            ),
            (
                "shard-1",
                {
                    "vantage_points": ["a"],
                    "users": ["admin", "bob"],
                    "queued_jobs": 3,
                    "pending_approval": 0,
                    "scheduling_policy": "fifo",
                    "reservation_admission": "ignore",
                    "auto_dispatch": True,
                    "persistence": False,
                    "orphaned_jobs": [],
                    "orphaned_vantage_points": ["ghost"],
                    "journal": None,
                },
            ),
        ]
        merged = merge_status(payloads, "2.0")
        assert merged["vantage_points"] == ["a", "b"]
        assert merged["users"] == ["admin", "alice", "bob"]
        assert merged["queued_jobs"] == 5
        assert merged["pending_approval"] == 1
        assert merged["persistence"] is False  # conservative: not on shard-1
        assert merged["certificate_serial"] is None
        assert "shard_id" not in merged  # the federation is not one shard
        assert merged["journal"]["records"] == 5
        assert merged["journal"]["last_snapshot_at"] == 10.0

    def test_report_percentiles_merge_by_sample_weight(self):
        payloads = [
            (
                "shard-0",
                {
                    "records_folded": 4,
                    "first_ts": 1.0,
                    "last_ts": 9.0,
                    "jobs": {"submitted": 3, "completed": 3},
                    "owners": [
                        {"owner": "alice", "jobs_submitted": 3, "device_hours": 0.5}
                    ],
                    "queue_wait": {
                        "samples": 3,
                        "mean_s": 1.0,
                        "p50_s": 1.0,
                        "p90_s": 1.0,
                        "p99_s": 1.0,
                        "max_s": 2.0,
                    },
                    "run_time": {"samples": 0},
                    "devices": [{"vantage_point": "b", "device_serial": "d2"}],
                    "reservations": {
                        "created": 1,
                        "cancelled": 0,
                        "booked_device_hours": 1.5,
                    },
                },
            ),
            (
                "shard-1",
                {
                    "records_folded": 2,
                    "first_ts": 0.5,
                    "last_ts": 4.0,
                    "jobs": {"submitted": 1, "failed": 1},
                    "owners": [
                        {"owner": "alice", "jobs_submitted": 1, "device_hours": 0.25}
                    ],
                    "queue_wait": {
                        "samples": 1,
                        "mean_s": 5.0,
                        "p50_s": 5.0,
                        "p90_s": 5.0,
                        "p99_s": 5.0,
                        "max_s": 5.0,
                    },
                    "run_time": {"samples": 0},
                    "devices": [{"vantage_point": "a", "device_serial": "d1"}],
                    "reservations": {
                        "created": 0,
                        "cancelled": 1,
                        "booked_device_hours": 0.25,
                    },
                },
            ),
        ]
        merged = merge_report(payloads)
        assert merged["records_folded"] == 6
        assert merged["first_ts"] == 0.5 and merged["last_ts"] == 9.0
        assert merged["jobs"] == {"submitted": 4, "completed": 3, "failed": 1}
        assert merged["owners"] == [
            {"owner": "alice", "jobs_submitted": 4, "device_hours": 0.75}
        ]
        # (3*1.0 + 1*5.0) / 4 — the sample-count-weighted estimate.
        assert merged["queue_wait"]["p50_s"] == 2.0
        assert merged["queue_wait"]["samples"] == 4
        assert merged["queue_wait"]["max_s"] == 5.0
        assert [d["device_serial"] for d in merged["devices"]] == ["d1", "d2"]
        assert merged["reservations"]["booked_device_hours"] == 1.75

    def test_timeseries_sums_on_the_shared_grid(self):
        payloads = [
            (
                "shard-0",
                {
                    "bucket_s": 60.0,
                    "buckets": [{"start_s": 0.0, "submitted": 2, "completed": 1}],
                },
            ),
            (
                "shard-1",
                {
                    "bucket_s": 60.0,
                    "buckets": [
                        {"start_s": 0.0, "submitted": 1},
                        {"start_s": 60.0, "completed": 3},
                    ],
                },
            ),
        ]
        merged = merge_timeseries(payloads)
        assert merged["bucket_s"] == 60.0
        assert merged["buckets"] == [
            {"start_s": 0.0, "submitted": 3, "completed": 1},
            {"start_s": 60.0, "completed": 3},
        ]


class TestRoutedOps:
    def test_job_ids_stay_in_their_lanes(self, fed2):
        router, shards = fed2
        client = fed_client(router)
        client.login()
        for i in range(4):
            for shard_index in (0, 1):
                view = submit_on(client, shard_index, f"j-{shard_index}-{i}")
                assert lane_of_job(view.job_id, 2) == shard_index

    def test_lane_ops_reach_the_owning_shard(self, fed2):
        router, shards = fed2
        client = fed_client(router)
        client.login()
        on_0 = submit_on(client, 0, "left")
        on_1 = submit_on(client, 1, "right")
        # Each shard's scheduler holds exactly its own job.
        assert [j.job_id for j in shards[0].server.scheduler.jobs()] == [on_0.job_id]
        assert [j.job_id for j in shards[1].server.scheduler.jobs()] == [on_1.job_id]
        for shard in shards:
            shard.server.drain()
        assert client.job_status(on_0.job_id).status == "completed"
        assert client.job_results(on_1.job_id).status == "completed"

    def test_idempotency_key_resubmission_is_sticky(self, fed2):
        router, shards = fed2
        client = fed_client(router)
        client.login()
        first = client.submit_job("retry-me", "noop", idempotency_key="k-1")
        again = client.submit_job("retry-me", "noop", idempotency_key="k-1")
        assert again.job_id == first.job_id
        total = sum(len(s.server.scheduler.jobs()) for s in shards)
        assert total == 1

    def test_sticky_resubmission_survives_a_drain(self, fed2):
        router, shards = fed2
        client = fed_client(router)
        client.login()
        first = submit_on(client, 1, "pin-right", idempotency_key="k-2")
        assert admin_call(router, "shard.drain", {"shard_id": "shard-1"})["ok"]
        # Draining takes no *new* placements, but the resubmission belongs
        # to the original job and must still reach shard-1.
        again = client.submit_job("pin-right", "noop", idempotency_key="k-2")
        assert again.job_id == first.job_id

    def test_unconstrained_submits_spread_by_owner(self, fed2):
        router, _ = fed2
        admin = fed_client(router)
        admin.login()
        owners = [f"user-{i}" for i in range(8)]
        for owner in owners:
            admin.create_user(owner, "experimenter", f"{owner}-token")
        homes = set()
        for owner in owners:
            with fed_client(router, owner) as member:
                member.login()
                view = member.submit_job(f"by-{owner}", "noop")
                homes.add(lane_of_job(view.job_id, 2))
        assert homes == {0, 1}  # rendezvous spreads distinct owners

    def test_detached_lane_answers_conflict_not_notfound(self, fed2):
        router, shards = fed2
        client = fed_client(router)
        client.login()
        stranded = submit_on(client, 1, "stranded")
        shards[1].server.drain()
        admin_call(router, "shard.drain", {"shard_id": "shard-1"})
        admin_call(router, "shard.remove", {"shard_id": "shard-1"})
        with pytest.raises(ConflictApiError):
            client.job_status(stranded.job_id)

    def test_credits_home_is_stable_across_membership(self, fed2):
        router, shards = fed2
        for shard in shards:
            shard.server.accounts.enable_credit_system(initial_grant_device_hours=0.0)
        admin = fed_client(router)
        admin.login()
        admin.create_user("carol", "experimenter", "carol-token")
        admin.grant_credits("carol", 7.5)
        before = admin.credits_balance("carol").balance_device_hours
        # Credit accounts rendezvous over the *lane set*, not the active
        # set — a drain elsewhere must not re-home (and zero) the balance.
        home = rendezvous_shard("carol", ["shard-0", "shard-1"])
        other = "shard-1" if home == "shard-0" else "shard-0"
        admin_call(router, "shard.drain", {"shard_id": other})
        assert admin.credits_balance("carol").balance_device_hours == before


class TestScatteredReads:
    def test_fleet_list_unions_both_shards(self, fed2):
        router, _ = fed2
        client = fed_client(router)
        client.login()
        fleet = client.fleet()
        assert [vp.name for vp in fleet.vantage_points] == [
            "shard-0-node1",
            "shard-1-node1",
        ]

    def test_job_list_is_globally_id_ordered_and_paginated(self, fed2):
        router, shards = fed2
        client = fed_client(router)
        client.login()
        for i in range(3):
            submit_on(client, 0, f"l-{i}")
            submit_on(client, 1, f"r-{i}")
        listed = client.list_jobs()
        ids = [view.job_id for view in listed]
        assert ids == sorted(ids) and len(ids) == 6
        page = client.job_page(offset=2, limit=3)
        assert page.total == 6
        assert [view.job_id for view in page.jobs] == ids[2:5]

    @pytest.mark.parametrize(
        "payload, auth",
        [
            ({"offset": -2, "limit": 3}, ADMIN),
            ({"limit": -1}, ADMIN),
            ({"offset": "x"}, ADMIN),
            ({"status": "bogus", "offset": -1}, ADMIN),
            ({"limit": 2, "colour": "red"}, ADMIN),
            # Credentials are checked before the payload, as standalone.
            ({"offset": -1}, {"username": "admin", "token": "wrong"}),
        ],
    )
    def test_invalid_paging_is_rejected_as_a_standalone_server_would(
        self, fed2, payload, auth
    ):
        router, _ = fed2
        client = fed_client(router)
        client.login()
        for i in range(3):
            submit_on(client, 0, f"l-{i}")
            submit_on(client, 1, f"r-{i}")
        solo = ApiRouter(
            build_default_platform(seed=7, browsers=("chrome",)).access_server
        )
        request = {
            "op": "job.list",
            "version": "2.0",
            "request_id": 9,
            "auth": auth,
            "payload": payload,
        }
        expected = solo.handle(dict(request))
        assert expected["ok"] is False
        assert router.handle(dict(request)) == expected

    def test_server_status_merges_the_fleet_view(self, fed2):
        router, _ = fed2
        client = fed_client(router)
        client.login()
        submit_on(client, 0, "queued-left")
        view = client.server_status(version="2.0")
        assert view.vantage_points == ["shard-0-node1", "shard-1-node1"]
        assert view.queued_jobs == 1
        assert view.shard_id is None  # the federation is not one shard

    def test_analytics_report_sums_both_shards(self, fed2):
        router, shards = fed2
        client = fed_client(router)
        client.login()
        for i in range(2):
            submit_on(client, 0, f"a-{i}")
            submit_on(client, 1, f"b-{i}")
        for shard in shards:
            shard.server.drain()
        report = client.analytics_report()
        assert report.jobs.submitted == 4
        assert report.jobs.completed == 4
        per_shard = sum(
            s.server.analytics.report()["records_folded"] for s in shards
        )
        assert report.records_folded == per_shard

    def test_obs_metrics_are_labelled_by_shard(self, fed2):
        router, _ = fed2
        client = fed_client(router)
        client.login()
        client.fleet()
        view = client.obs_metrics(prefix="api_requests")
        shards_seen = {
            sample.labels.get("shard")
            for sample in view.counters
            if sample.name == "api_requests_total"
        }
        assert shards_seen == {"shard-0", "shard-1"}

    def test_scatter_order_is_shard_id_sorted_not_arrival(self, fed2):
        router, _ = fed2
        client = fed_client(router)
        client.login()
        first = client.fleet().vantage_points
        # Re-asking may hit caches, locks, whatever — the order is data-keyed.
        for _ in range(3):
            assert [vp.name for vp in client.fleet().vantage_points] == [
                vp.name for vp in first
            ]


def _job_list(router, payload, auth=ADMIN):
    response = router.handle(
        {
            "op": "job.list",
            "version": "2.0",
            "request_id": 1,
            "auth": auth,
            "payload": payload,
        }
    )
    assert response["ok"], response
    return response["payload"]


class TestJobListPushDown:
    """Each leg returns at most its page's head; the merged page is unchanged."""

    @settings(max_examples=60, deadline=None)
    @given(
        shard_count=st.sampled_from([1, 2, 4]),
        jobs=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["admin", "experimenter"]),
                st.sampled_from(["queue", "cancel", "drain"]),
            ),
            max_size=16,
        ),
        status=st.sampled_from(
            [None, "queued", "completed", "cancelled", "pending_approval"]
        ),
        owner=st.sampled_from([None, "admin", "experimenter", "nobody"]),
        offset=st.one_of(st.just(0), st.integers(0, 24)),
        limit=st.one_of(st.none(), st.just(0), st.integers(0, 20)),
    )
    def test_page_is_the_window_of_the_sorted_union(
        self, shard_count, jobs, status, owner, offset, limit
    ):
        shards = build_federation_shards(shard_count, analytics=False)
        router = FederationRouter(shards)
        clients = {
            name: fed_client(router, name) for name in ("admin", "experimenter")
        }
        for client in clients.values():
            client.login()
        for index, name, action in jobs:
            index %= shard_count
            view = submit_on(clients[name], index, f"{name}-{action}")
            if action == "cancel":
                clients[name].cancel_job(view.job_id)
            elif action == "drain":
                shards[index].server.drain()

        unpaged = {"status": status}
        if owner is not None:
            unpaged["owner"] = owner
        union = sorted(
            (
                job
                for shard in shards
                for job in _job_list(shard.router, unpaged)["jobs"]
            ),
            key=lambda job: job["job_id"],
        )
        stop = None if limit is None else offset + limit

        leg_sizes = []
        real_merge = fed_merge.merge_job_list

        def spying_merge(payloads, **kwargs):
            leg_sizes.extend(len(payload["jobs"]) for _, payload in payloads)
            return real_merge(payloads, **kwargs)

        paged = dict(unpaged, offset=offset)
        if limit is not None:
            paged["limit"] = limit
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fed_merge, "merge_job_list", spying_merge)
            page = _job_list(router, paged)

        assert page["jobs"] == union[offset:stop]
        assert page["total"] == len(union)
        assert (page["offset"], page["limit"]) == (offset, limit)
        assert len(leg_sizes) == (shard_count if shard_count > 1 else 0)
        if stop is not None:
            assert all(size <= stop for size in leg_sizes)


class TestFederationOfOneByteParity:
    """A single-lane federation must be wire-identical to one server."""

    OPS = (
        {"op": "server.status", "version": "1.0", "request_id": 2, "payload": {}},
        {
            "op": "job.submit",
            "version": "1.0",
            "request_id": 3,
            "payload": {"name": "parity", "payload": "noop"},
        },
        {"op": "fleet.list", "version": "1.0", "request_id": 4, "payload": {}},
        {
            "op": "job.status",
            "version": "1.0",
            "request_id": 5,
            "payload": {"job_id": 1},
        },
        {"op": "job.list", "version": "1.0", "request_id": 6, "payload": {}},
        {
            "op": "job.status",
            "version": "1.0",
            "request_id": 7,
            "payload": {"job_id": 999},
        },
    )

    def test_same_bytes_as_standalone_server(self, monkeypatch):
        # The standalone server mints from the process-global allocator,
        # which other tests may have advanced; start it from a fresh
        # series so the comparison is two pristine deployments.
        from repro.accessserver import jobs as jobs_module

        monkeypatch.setattr(
            jobs_module, "_job_ids", jobs_module._JobIdAllocator()
        )
        standalone = build_default_platform(
            seed=7, node_identifier="shard-0-node1", browsers=("chrome",)
        )
        solo = ApiRouter(standalone.access_server)
        shard = build_shard("shard-0", 0, 1)
        fed = FederationRouter([shard])
        auth = {"username": "experimenter", "token": "experimenter-token"}
        for template in self.OPS:
            request = dict(template)
            request["auth"] = auth
            expected = solo.handle(dict(request))
            actual = fed.handle(dict(request))
            assert actual == expected, request["op"]

    def test_v2_status_differs_only_by_shard_id(self):
        standalone = build_default_platform(
            seed=7, node_identifier="shard-0-node1", browsers=("chrome",)
        )
        solo = ApiRouter(standalone.access_server)
        fed = FederationRouter([build_shard("shard-0", 0, 1)])
        request = {
            "op": "server.status",
            "version": "2.0",
            "request_id": 1,
            "auth": {"username": "admin", "token": "admin-token"},
            "payload": {},
        }
        expected = solo.handle(dict(request))
        actual = fed.handle(dict(request))
        assert actual["payload"].pop("shard_id") == "shard-0"
        assert actual == expected


class TestShardAdminPlane:
    def test_shard_list_reports_states_and_hardware(self, fed2):
        router, _ = fed2
        response = admin_call(router, "shard.list", {})
        assert response["ok"]
        rows = response["payload"]["shards"]
        assert [(r["shard_id"], r["state"]) for r in rows] == [
            ("shard-0", "active"),
            ("shard-1", "active"),
        ]
        assert rows[0]["vantage_points"] == ["shard-0-node1"]

    def test_admin_ops_require_manage_permission(self, fed2):
        router, _ = fed2
        response = router.handle(
            {
                "op": "shard.list",
                "version": "2.0",
                "request_id": 1,
                "auth": {
                    "username": "experimenter",
                    "token": "experimenter-token",
                },
                "payload": {},
            }
        )
        assert not response["ok"]
        assert response["error"]["code"] == "auth.permission_denied"

    def test_admin_ops_are_v2_only(self, fed2):
        router, _ = fed2
        response = router.handle(
            {
                "op": "shard.list",
                "version": "1.0",
                "request_id": 1,
                "auth": ADMIN,
                "payload": {},
            }
        )
        assert not response["ok"]
        assert response["error"]["code"] == "request.version_unsupported"

    def test_drain_settles_inflight_work(self, fed2):
        router, shards = fed2
        client = fed_client(router)
        client.login()
        queued = submit_on(client, 1, "inflight")
        response = admin_call(router, "shard.drain", {"shard_id": "shard-1"})
        assert response["ok"] and response["payload"]["state"] == "draining"
        # The drain ran the queue to empty before returning.
        assert client.job_status(queued.job_id).status == "completed"
        assert shards[1].server.scheduler.queue_length() == 0

    def test_draining_shard_takes_no_new_placements(self, fed2):
        router, shards = fed2
        client = fed_client(router)
        client.login()
        admin_call(router, "shard.drain", {"shard_id": "shard-1"})
        with pytest.raises(ConflictApiError):
            submit_on(client, 1, "refused")
        # Unconstrained work keeps flowing — to the remaining active shard.
        view = client.submit_job("rerouted", "noop")
        assert lane_of_job(view.job_id, 2) == 0

    def test_last_attached_shard_cannot_drain(self, fed2):
        router, _ = fed2
        admin_call(router, "shard.drain", {"shard_id": "shard-1"})
        admin_call(router, "shard.remove", {"shard_id": "shard-1"})
        response = admin_call(router, "shard.drain", {"shard_id": "shard-0"})
        assert not response["ok"]
        assert response["error"]["code"] == "resource.conflict"

    def test_remove_requires_drain_first(self, fed2):
        router, _ = fed2
        response = admin_call(router, "shard.remove", {"shard_id": "shard-1"})
        assert not response["ok"]
        assert response["error"]["code"] == "resource.conflict"

    def test_add_outside_the_lane_space_is_refused(self, fed2):
        router, _ = fed2
        response = admin_call(router, "shard.add", {"shard_id": "shard-9"})
        assert not response["ok"]
        assert response["error"]["code"] == "resource.conflict"

    def test_add_without_a_factory_is_refused(self, fed2):
        router, _ = fed2
        admin_call(router, "shard.drain", {"shard_id": "shard-1"})
        admin_call(router, "shard.remove", {"shard_id": "shard-1"})
        response = admin_call(router, "shard.add", {"shard_id": "shard-1"})
        assert not response["ok"]
        assert response["error"]["code"] == "resource.conflict"


class TestRollingRestart:
    """The tentpole acceptance: drain + restart loses nothing."""

    def _factory(self, state_root):
        def build(shard_id, index, lane_count):
            return build_shard(
                shard_id, index, lane_count,
                state_dir=os.path.join(state_root, shard_id),
            )

        return build

    def test_drain_restart_loses_no_jobs_and_report_is_stable(self, tmp_path):
        state_root = str(tmp_path)
        shards = build_federation_shards(2, state_root=state_root)
        router = FederationRouter(shards, shard_factory=self._factory(state_root))
        client = fed_client(router)
        client.login()
        ids = []
        for i in range(3):
            ids.append(submit_on(client, 0, f"l-{i}").job_id)
            ids.append(submit_on(client, 1, f"r-{i}").job_id)
        for shard in shards:
            shard.server.drain()
        pre_report = client.analytics_report()
        pre_list = [view.job_id for view in client.list_jobs()]

        assert admin_call(router, "shard.drain", {"shard_id": "shard-1"})["ok"]
        assert admin_call(router, "shard.remove", {"shard_id": "shard-1"})["ok"]
        added = admin_call(router, "shard.add", {"shard_id": "shard-1"})
        assert added["ok"] and added["payload"]["state"] == "active"

        # The shard restarted from its journal, but the federation's one
        # session table outlived it: the same token answers, no re-login.
        assert [view.job_id for view in client.list_jobs()] == pre_list
        for job_id in ids:
            assert client.job_status(job_id).status == "completed"
        post_report = client.analytics_report()
        assert post_report.to_wire() == pre_report.to_wire()

    def test_cold_replay_report_matches_the_live_merge(self, tmp_path):
        state_root = str(tmp_path)
        shards = build_federation_shards(2, state_root=state_root)
        router = FederationRouter(shards)
        client = fed_client(router)
        client.login()
        for i in range(2):
            submit_on(client, 0, f"l-{i}")
            submit_on(client, 1, f"r-{i}")
        for shard in shards:
            shard.server.drain()
            shard.sync()
        live = client.analytics_report()

        # A brand-new federation recovered from the same journals must
        # produce the identical merged report: live == replay, federated.
        recovered = build_federation_shards(2, state_root=state_root)
        replay_router = FederationRouter(recovered)
        with fed_client(replay_router) as replay_client:
            replay_client.login()
            replayed = replay_client.analytics_report()
        assert replayed.to_wire() == live.to_wire()

    def test_reattached_shard_keeps_minting_in_its_lane(self, tmp_path):
        state_root = str(tmp_path)
        shards = build_federation_shards(2, state_root=state_root)
        router = FederationRouter(shards, shard_factory=self._factory(state_root))
        client = fed_client(router)
        client.login()
        before = submit_on(client, 1, "before-restart")
        admin_call(router, "shard.drain", {"shard_id": "shard-1"})
        admin_call(router, "shard.remove", {"shard_id": "shard-1"})
        admin_call(router, "shard.add", {"shard_id": "shard-1"})
        after = submit_on(client, 1, "after-restart")
        # Recovery claimed the journaled ids into the lane allocator: the
        # next id continues the stride, it does not collide.
        assert lane_of_job(after.job_id, 2) == 1
        assert after.job_id > before.job_id

    def _restart(self, router, shard_id):
        for op in ("shard.drain", "shard.remove", "shard.add"):
            response = admin_call(router, op, {"shard_id": shard_id})
            assert response["ok"], response

    def test_a_session_outlives_a_shard_restart(self, tmp_path):
        state_root = str(tmp_path)
        shards = build_federation_shards(2, state_root=state_root)
        router = FederationRouter(shards, shard_factory=self._factory(state_root))
        login = router.handle(
            {"op": "auth.login", "version": "2.0", "request_id": 1, "auth": ADMIN}
        )
        token = login["payload"]["session_token"]
        client = fed_client(router)
        client.login()
        ids = [submit_on(client, lane, f"j-{lane}").job_id for lane in (0, 1)]

        self._restart(router, "shard-1")

        # The rebuilt shard resolves the token it never saw minted: the
        # federation's session table outlived the shard, so no re-login.
        request = {"op": "job.list", "version": "2.0", "session": token}
        listed = router.handle(dict(request, request_id=2, payload={}))
        assert listed["ok"], listed
        assert [job["job_id"] for job in listed["payload"]["jobs"]] == ids
        status = router.handle(
            dict(request, op="job.status", request_id=3, payload={"job_id": ids[1]})
        )
        assert status["ok"], status

    def _past_the_ttl(self, router):
        for shard in router.shards:
            shard.platform.context.run_for(router.sessions.default_ttl_s + 400.0)

    def _status(self, router, token, job_id, request_id):
        return router.handle(
            {
                "op": "job.status",
                "version": "2.0",
                "request_id": request_id,
                "session": token,
                "payload": {"job_id": job_id},
            }
        )

    def test_a_login_after_the_reference_shard_restarts_past_the_ttl_serves_every_lane(
        self, tmp_path
    ):
        state_root = str(tmp_path)
        shards = build_federation_shards(2, state_root=state_root)
        router = FederationRouter(shards, shard_factory=self._factory(state_root))
        client = fed_client(router)
        client.login()
        right = submit_on(client, 1, "right").job_id
        self._past_the_ttl(router)

        self._restart(router, "shard-0")

        # The rebuilt reference shard mints on the federation's clock, not
        # from zero, so lane 1 does not read the new token as long expired.
        login = router.handle(
            {"op": "auth.login", "version": "2.0", "request_id": 1, "auth": ADMIN}
        )
        status = self._status(router, login["payload"]["session_token"], right, 2)
        assert status["ok"], status
        clocks = {shard.server.context.now for shard in router.shards}
        assert clocks == {router.sessions.default_ttl_s + 400.0}

    def test_a_token_past_its_ttl_is_refused_on_a_restarted_lane(self, tmp_path):
        state_root = str(tmp_path)
        shards = build_federation_shards(2, state_root=state_root)
        router = FederationRouter(shards, shard_factory=self._factory(state_root))
        login = router.handle(
            {"op": "auth.login", "version": "2.0", "request_id": 1, "auth": ADMIN}
        )
        token = login["payload"]["session_token"]
        client = fed_client(router)
        client.login()
        ids = [submit_on(client, lane, f"j-{lane}").job_id for lane in (0, 1)]
        self._past_the_ttl(router)

        self._restart(router, "shard-1")

        for request_id, job_id in enumerate(ids, start=2):
            status = self._status(router, token, job_id, request_id)
            assert not status["ok"]
            assert status["error"]["code"] == "auth.session_expired", status

    def test_shard_add_restores_users_created_while_detached(self, tmp_path):
        state_root = str(tmp_path)
        shards = build_federation_shards(2, state_root=state_root)
        router = FederationRouter(shards, shard_factory=self._factory(state_root))
        admin_call(router, "shard.drain", {"shard_id": "shard-1"})
        admin_call(router, "shard.remove", {"shard_id": "shard-1"})
        create = {"username": "dave", "role": "experimenter", "token": "dave-token"}
        assert admin_call(router, "user.create", create)["ok"]
        assert admin_call(router, "shard.add", {"shard_id": "shard-1"})["ok"]

        def dave_on_shard_1():
            server = router.shards[1].server
            return server.users.authenticate("dave", "dave-token", over_https=True)

        assert dave_on_shard_1().username == "dave"
        dave = fed_client(router, "dave")
        dave.login()
        assert lane_of_job(submit_on(dave, 1, "dave-right").job_id, 2) == 1
        # Journaled on the lane: the next restart recovers the account.
        self._restart(router, "shard-1")
        assert dave_on_shard_1().role.value == "experimenter"

    def test_plain_server_recovering_shard_state_adopts_the_lane(self, tmp_path):
        """Snapshotted shard identity is journaled configuration: a bare
        server pointed at a shard's state-dir (the CLI ``status``/``serve
        --state-dir`` path) restores id, index and lane count, so fresh
        ids keep minting in the shard's residue class."""
        state_dir = str(tmp_path)
        shard = build_shard("shard-1", 1, 2, state_dir=state_dir)
        client = fed_client(shard.router)
        client.login()
        minted = [client.submit_job(f"j-{i}", "noop").job_id for i in range(3)]
        shard.server.persistence.checkpoint()

        plain = build_default_platform(
            seed=3,
            node_identifier="shard-1-node1",
            persistence=False,
            analytics=False,
        )
        server = plain.access_server
        assert server.shard_id is None
        server.enable_persistence(state_dir)
        assert server.shard_id == "shard-1"
        assert (server.shard_index, server.shard_count) == (1, 2)
        with fed_client(ApiRouter(server)) as recovered:
            recovered.login()
            view = recovered.submit_job("after-recovery", "noop")
        assert lane_of_job(view.job_id, 2) == 1
        assert view.job_id > max(minted)


class TestFederatedSessions:
    def test_one_login_reaches_every_shard(self, fed2):
        router, shards = fed2
        client = fed_client(router)
        session = client.login()
        assert session.username == "admin"
        # One bearer token drives mutations on both shards.
        left = submit_on(client, 0, "left")
        right = submit_on(client, 1, "right")
        assert {lane_of_job(left.job_id, 2), lane_of_job(right.job_id, 2)} == {0, 1}

    def test_logout_revokes_the_federated_session(self, fed2):
        router, _ = fed2
        client = fed_client(router)
        client.login()
        assert client.logout() is True
        assert client.session_active is False

    def test_logout_refuses_the_token_on_every_lane(self, fed2):
        router, _ = fed2
        client = fed_client(router)
        token = client.login().session_token
        ids = [submit_on(client, lane, f"j-{lane}").job_id for lane in (0, 1)]
        base = {"version": "2.0", "session": token}
        logout = router.handle(dict(base, op="auth.logout", request_id=1, payload={}))
        assert logout["payload"] == {"revoked": True}
        for request_id, job_id in enumerate(ids, start=2):
            refused = router.handle(
                dict(base, op="job.status", request_id=request_id,
                     payload={"job_id": job_id})
            )
            assert refused["error"]["code"] == "auth.session_expired"

    def test_session_table_stays_bounded_over_logins_past_the_ttl(self, fed2):
        router, shards = fed2
        login = {
            "op": "auth.login",
            "version": "2.0",
            "request_id": 1,
            "auth": ADMIN,
        }
        kept = router.handle(dict(login, payload={"ttl_s": 3600.0}))
        for _ in range(50):
            response = router.handle(dict(login, payload={"ttl_s": 10.0}))
            assert response["ok"], response
            for shard in shards:
                shard.server.context.run_for(11.0)
        # The one table every shard shares holds the live long session and
        # the newest short one, itself past its TTL; the 49 older short
        # sessions were swept by the logins after them.
        now = shards[0].server.context.now
        assert router.sessions.active_count(now) == 1
        assert len(router.sessions._sessions) == 2
        token = kept["payload"]["session_token"]
        listed = router.handle(
            {
                "op": "job.list",
                "version": "2.0",
                "request_id": 2,
                "session": token,
                "payload": {},
            }
        )
        assert listed["ok"], listed

    def test_user_create_broadcasts_to_every_shard(self, fed2):
        router, shards = fed2
        admin = fed_client(router)
        admin.login()
        admin.create_user("dave", "experimenter", "dave-token")
        for shard in shards:
            # The account must exist on each shard for fan-out auth.
            user = shard.server.users.authenticate("dave", "dave-token", over_https=True)
            assert user.username == "dave"

    def test_a_user_create_that_misses_a_shard_is_an_error_naming_it(
        self, fed2, monkeypatch
    ):
        router, shards = fed2
        create = {"username": "erin", "role": "experimenter", "token": "erin-token"}

        def disk_full(*args, **kwargs):
            raise RuntimeError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(shards[1].server.accounts, "create_user", disk_full)
            partial = admin_call(router, "user.create", create)
        assert not partial["ok"]
        assert partial["error"]["code"] == "server.internal"
        assert partial["error"]["details"] == {
            "failed_shards": {"shard-1": "server.internal"}
        }
        # The retry finishes the job: shard-0 already holds the account
        # (resource.conflict), shard-1 now accepts.
        retried = admin_call(router, "user.create", create, request_id=2)
        assert retried["ok"], retried
        for shard in shards:
            assert shard.server.users.authenticate("erin", "erin-token", over_https=True)
        # A refusal every shard shares is the standalone answer, unwrapped.
        again = admin_call(router, "user.create", create, request_id=3)
        assert again["error"]["code"] == "resource.conflict"


class TestFederatedAgents:
    """Agents attach to any shard; their leases live where they registered.

    Registration places the agent — pinned to the shard hosting its bound
    vantage point, or by rendezvous when unbound — and every subsequent
    ``agent.*`` op routes to that sticky home, because leases are
    shard-local state.
    """

    def test_vantage_point_binding_pins_the_home_shard(self, fed2):
        router, shards = fed2
        client = fed_client(router, "experimenter")
        view = client.agent_register("pinned", vantage_point="shard-1-node1")
        assert view.created is True
        assert router._directory.agents["pinned"] == "shard-1"
        assert shards[1].server.agents.get("pinned").vantage_point == "shard-1-node1"
        assert "pinned" not in [
            a.agent_id for a in shards[0].server.agents.agents()
        ]

    def test_unbound_agent_placed_by_rendezvous_and_sticky(self, fed2):
        router, shards = fed2
        client = fed_client(router, "experimenter")
        first = client.agent_register("roamer", connectors=["fake"])
        home = router._directory.agents["roamer"]
        assert home == rendezvous_shard("roamer", ["shard-0", "shard-1"])
        # Re-registration refreshes in place on the same shard.
        again = client.agent_register("roamer", connectors=["fake", "multi"])
        assert first.created is True and again.created is False
        assert router._directory.agents["roamer"] == home

    def test_agent_cycle_routes_to_the_home_shard(self, fed2):
        router, shards = fed2
        client = fed_client(router, "experimenter")
        client.agent_register(
            "worker", vantage_point="shard-1-node1", connectors=["fake"]
        )
        job = client.submit_job(
            "pulled",
            "noop",
            vantage_point="shard-1-node1",
            execution="agent",
            connector="fake",
        )
        offers = client.agent_poll("worker").offers
        assert [o.job_id for o in offers] == [job.job_id]
        lease = client.agent_claim("worker", job.job_id)
        client.agent_heartbeat(lease.lease_id, "worker")
        report = client.agent_report(lease.lease_id, "worker", "completed", result=7)
        assert report.job.status == "completed"
        assert client.job_results(job.job_id).result == 7
        # The lease lived (and settled) on the home shard only.
        assert shards[1].server.agents.settled_job(lease.lease_id) == job.job_id

    def test_unknown_agent_poll_is_not_found(self, fed2):
        router, _ = fed2
        client = fed_client(router, "experimenter")
        with pytest.raises(NotFoundApiError):
            client.agent_poll("stranger")

    def test_detached_home_answers_conflict(self, fed2):
        router, _ = fed2
        client = fed_client(router, "experimenter")
        client.agent_register("stranded", vantage_point="shard-1-node1")
        admin_call(router, "shard.drain", {"shard_id": "shard-1"})
        admin_call(router, "shard.remove", {"shard_id": "shard-1"})
        with pytest.raises(ConflictApiError):
            client.agent_poll("stranded")
        with pytest.raises(ConflictApiError):
            client.agent_register("stranded")

    def test_drain_wakes_parked_agent_polls(self, fed2):
        """A shard drain must not sit behind a long-poll deadline: parked
        ``agent.poll`` requests are cancelled as the drain begins."""
        router, shards = fed2
        client = fed_client(router, "experimenter")
        client.agent_register("sleeper", vantage_point="shard-1-node1")
        outcome = {}

        def parked_poll():
            with fed_client(router, "experimenter") as poller:
                outcome["offers"] = poller.agent_poll("sleeper", wait_s=20.0).offers

        thread = threading.Thread(target=parked_poll)
        thread.start()
        deadline = time.time() + 2.0
        while shards[1].router.parked_polls() == 0 and time.time() < deadline:
            time.sleep(0.01)
        assert shards[1].router.parked_polls() == 1
        started = time.perf_counter()
        response = admin_call(router, "shard.drain", {"shard_id": "shard-1"})
        elapsed = time.perf_counter() - started
        thread.join(timeout=5.0)
        assert response["ok"]
        assert elapsed < 2.0, f"drain took {elapsed:.2f}s behind a parked poll"
        assert not thread.is_alive()
        assert outcome["offers"] == []
        assert shards[1].router.parked_polls() == 0

    def test_parked_poll_over_a_gateway_is_woken_by_its_home_shard_only(
        self, fed2, poller, park_signal
    ):
        """The socket path through the federation router: polls park on the
        home shard's registry without holding the dispatch thread, a job on
        the other shard leaves them parked, one on their own wakes them."""
        router, shards = fed2
        parked = park_signal(shards[1].router)
        with ApiGateway(router) as gateway:
            with BatteryLabClient(
                JsonLinesTransport(*gateway.address, timeout_s=10.0),
                "experimenter",
                "experimenter-token",
            ) as client:
                client.agent_register(
                    "worker", vantage_point="shard-1-node1", connectors=["fake"]
                )
                pollers = [poller(gateway.address, "worker") for _ in range(8)]
                for _ in pollers:
                    assert parked.acquire(timeout=5.0)
                assert router.parked_polls() == len(pollers)
                dispatch_threads = [
                    thread for thread in threading.enumerate()
                    if thread.name.startswith("batterylab-gw-worker")
                ]
                assert len(dispatch_threads) == 1
                assert shards[0].router.parked_polls() == 0
                submit_on(client, 0, "elsewhere", execution="agent", connector="fake")
                submit_on(client, 1, "push-plane")
                assert router.parked_polls() == len(pollers)
                started = time.perf_counter()
                job = submit_on(client, 1, "pulled", execution="agent", connector="fake")
                for polling in pollers:
                    assert polling.result() == [job.job_id]
                    assert polling.returned_at - started < 0.05
                assert router.parked_polls() == 0

    def test_parked_poll_dies_with_its_gateway_connection(self, fed2, park_signal):
        router, shards = fed2
        parked = park_signal(shards[1].router)
        fed_client(router, "experimenter").agent_register(
            "worker", vantage_point="shard-1-node1"
        )
        gone = threading.Event()
        cancel_owner = router.cancel_owner

        def cancel_and_tell(owner):
            count = cancel_owner(owner)
            gone.set()
            return count

        router.cancel_owner = cancel_and_tell
        request = {
            "op": "agent.poll",
            "version": "2.0",
            "request_id": 1,
            "auth": {"username": "experimenter", "token": "experimenter-token"},
            "payload": {"agent_id": "worker", "wait_s": 20.0},
        }
        with ApiGateway(router) as gateway:
            with socket.create_connection(gateway.address, timeout=10.0) as sock:
                sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
                assert parked.acquire(timeout=5.0)
                assert shards[1].router.parked_polls() == 1
            assert gone.wait(timeout=5.0)
            assert router.parked_polls() == 0

    def test_in_process_poll_blocks_until_a_submit_completes_it(self, fed2, park_signal):
        """No gateway: the caller blocks on the same registry entry, and the
        in-process transport that carried the submit re-checks it."""
        router, shards = fed2
        parked = park_signal(shards[1].router)
        client = fed_client(router, "experimenter")
        client.agent_register("worker", vantage_point="shard-1-node1")
        outcome = {}

        def blocked_poll():
            with fed_client(router, "experimenter") as agent:
                outcome["offers"] = agent.agent_poll("worker", wait_s=20.0).offers

        thread = threading.Thread(target=blocked_poll)
        thread.start()
        assert parked.acquire(timeout=5.0)
        job = submit_on(client, 1, "pulled", execution="agent")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert [offer.job_id for offer in outcome["offers"]] == [job.job_id]
        assert router.parked_polls() == 0

    def test_detach_answers_a_poll_parked_on_a_draining_shard(self, fed2, park_signal):
        router, shards = fed2
        parked = park_signal(shards[1].router)
        client = fed_client(router, "experimenter")
        client.agent_register("late", vantage_point="shard-1-node1")
        assert admin_call(router, "shard.drain", {"shard_id": "shard-1"})["ok"]
        outcome = {}

        def blocked_poll():
            with fed_client(router, "experimenter") as agent:
                outcome["offers"] = agent.agent_poll("late", wait_s=20.0).offers

        thread = threading.Thread(target=blocked_poll)
        thread.start()
        assert parked.acquire(timeout=5.0)
        assert admin_call(router, "shard.remove", {"shard_id": "shard-1"})["ok"]
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert outcome["offers"] == []
        assert shards[1].router.parked_polls() == 0
