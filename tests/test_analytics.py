"""The analytics engine: reducers, record sources, and its two contracts.

1. **Determinism** — replaying the committed fixture journal must produce
   the committed report *byte for byte* (`analytics_report_golden.json`).
   A failure means the fold is no longer deterministic (or the report
   schema changed — regenerate the golden deliberately, never casually).
2. **Live-vs-replay equivalence** — the same workload folded through the
   live EventBus tap and through a cold journal replay must produce
   identical reports; this is what makes the journal an event-sourcing
   substrate rather than just a crash-recovery log.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accessserver.persistence import InMemoryBackend, register_payload
from repro.analytics import (
    AnalyticsEngine,
    JournalReplaySource,
    OpsRecord,
    ThroughputReducer,
    distribution_view,
    JobLifecycleReducer,
    normalize_bus_event,
    percentile,
    report_json,
    synthesize_snapshot_records,
)
from repro.core.platform import build_default_platform
from repro.simulation.events import BusEvent

FIXTURE_DIR = "tests/data/analytics_fixture"
GOLDEN_PATH = "tests/data/analytics_report_golden.json"


@register_payload("analytics-test/explode")
def explode_payload(ctx):
    raise RuntimeError("deliberate failure")


def run_mixed_workload(platform):
    """Submissions from two owners, an approval, a reject, a cancel, a
    failure, reservations (one cancelled) and credit traffic."""
    server = platform.access_server
    server.enable_credit_system(initial_grant_device_hours=6.0)
    admin = platform.client(username="admin")
    admin.create_user("alice", "experimenter", "alice-token")
    alice = platform.client(username="alice", token="alice-token")
    client = platform.client()

    for index in range(3):
        client.submit_job(f"exp-{index}", "noop", timeout_s=120.0)
    alice.submit_job("alice-0", "noop", timeout_s=120.0)
    alice.submit_job("alice-bad", "analytics-test/explode", timeout_s=120.0)
    pipeline = client.submit_job("pipeline", "noop", is_pipeline_change=True)
    doomed = alice.submit_job("doomed", "noop", is_pipeline_change=True)
    admin.approve_job(pipeline.job_id)
    admin.reject_job(doomed.job_id, reason="nope")
    parked = client.submit_job("parked", "noop", vantage_point="node9")
    reservation = admin.reserve_session(
        "node1", "node1-dev00", start_s=9000.0, duration_s=1800.0
    )
    admin.reserve_session("node1", "node1-dev00", start_s=20000.0, duration_s=600.0)
    server.scheduler.cancel_reservation(reservation.reservation_id)
    platform.run_queue()
    client.cancel_job(parked.job_id)
    admin.grant_credits("alice", 4.0, note="top-up")


class TestGoldenReplay:
    def test_fixture_replay_is_byte_stable(self):
        """Cold replay of the committed journal reproduces the committed
        report exactly — the determinism contract."""
        engine = AnalyticsEngine.from_backend(FIXTURE_DIR)
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            assert engine.report_json() == handle.read()

    def test_fixture_replay_twice_is_identical(self):
        first = AnalyticsEngine.from_backend(FIXTURE_DIR).report()
        second = AnalyticsEngine.from_backend(FIXTURE_DIR).report()
        assert report_json(first) == report_json(second)

    def test_fixture_content_sanity(self):
        report = AnalyticsEngine.from_backend(FIXTURE_DIR).report()
        owners = {row["owner"]: row for row in report["owners"]}
        assert set(owners) >= {"alice", "bob"}
        assert report["jobs"]["failed"] == 1
        assert report["jobs"]["rejected"] == 1
        assert report["reservations"]["created"] == 2
        assert report["reservations"]["cancelled"] == 1
        assert any(row["failure_rate"] > 0 for row in report["devices"])


class TestLiveVsReplayEquivalence:
    @pytest.fixture()
    def platform(self):
        return build_default_platform(seed=23, browsers=("chrome",))

    def test_same_workload_same_report(self, platform):
        server = platform.access_server
        backend = InMemoryBackend()
        server.enable_persistence(backend, snapshot_every=10**9)
        run_mixed_workload(platform)

        live = server.analytics.report()
        replay = AnalyticsEngine.from_backend(backend).report()
        assert report_json(live) == report_json(replay)

    def test_same_workload_same_timeseries(self, platform):
        server = platform.access_server
        backend = InMemoryBackend()
        server.enable_persistence(backend, snapshot_every=10**9)
        run_mixed_workload(platform)

        for bucket_s in (60.0, 300.0, 3600.0):
            assert server.analytics.timeseries(bucket_s) == AnalyticsEngine.from_backend(
                backend
            ).timeseries(bucket_s)

    def test_compacted_journal_keeps_totals(self, platform):
        """Aggressive snapshot compaction folds history into state, but the
        replayed report still carries the surviving totals."""
        server = platform.access_server
        backend = InMemoryBackend()
        server.enable_persistence(backend, snapshot_every=5)
        client = platform.client()
        for index in range(6):
            client.submit_job(f"job-{index}", "noop", timeout_s=60.0)
        platform.run_queue()
        server.persistence.checkpoint()
        assert not backend.read_journal()  # everything folded away

        live = server.analytics.report()
        replay = AnalyticsEngine.from_backend(backend).report()
        assert replay["jobs"]["submitted"] == live["jobs"]["submitted"] == 6
        assert replay["jobs"]["completed"] == live["jobs"]["completed"] == 6
        assert replay["owners"] == live["owners"]

    def test_compaction_preserves_approved_pipeline_backlog(self, platform):
        """An approved-but-still-queued pipeline change must replay as
        queued, not pending_approval, even after its approval record was
        folded into a snapshot."""
        server = platform.access_server
        backend = InMemoryBackend()
        server.enable_persistence(backend, snapshot_every=10**9)
        client = platform.client()
        admin = platform.client(username="admin")
        view = client.submit_job(
            "pipeline", "noop", is_pipeline_change=True, vantage_point="node9"
        )
        admin.approve_job(view.job_id)
        server.persistence.checkpoint()  # folds submit+approve into the snapshot
        assert not backend.read_journal()

        live = server.analytics.report()
        replay = AnalyticsEngine.from_backend(backend).report()
        assert live["jobs"]["pending_approval"] == 0
        assert replay["jobs"]["pending_approval"] == 0
        assert replay["jobs"]["queued"] == live["jobs"]["queued"] == 1

    def test_compaction_preserves_rejected_flag(self, platform):
        """A rejected pipeline change keeps its rejected count across a
        checkpoint: the snapshot row's rejection error restores the flag."""
        server = platform.access_server
        backend = InMemoryBackend()
        server.enable_persistence(backend, snapshot_every=10**9)
        client = platform.client()
        admin = platform.client(username="admin")
        view = client.submit_job("doomed", "noop", is_pipeline_change=True)
        admin.reject_job(view.job_id, reason="not reviewed")
        server.persistence.checkpoint()
        assert not backend.read_journal()

        live = server.analytics.report()
        replay = AnalyticsEngine.from_backend(backend).report()
        assert live["jobs"]["rejected"] == replay["jobs"]["rejected"] == 1
        assert live["jobs"]["cancelled"] == replay["jobs"]["cancelled"] == 1

    def test_future_reservation_does_not_skew_window_after_compaction(self, platform):
        """A booking far in the future survives a checkpoint as only its
        start time; it must not stretch the report window (and thereby
        deflate every occupancy figure) on replay."""
        server = platform.access_server
        backend = InMemoryBackend()
        server.enable_persistence(backend, snapshot_every=10**9)
        client = platform.client()
        admin = platform.client(username="admin")
        client.submit_job("real-work", "noop", timeout_s=60.0)
        platform.run_queue()
        admin.reserve_session(
            "node1", "node1-dev00", start_s=1_000_000.0, duration_s=600.0
        )
        server.persistence.checkpoint()

        live = server.analytics.report()
        replay = AnalyticsEngine.from_backend(backend).report()
        assert replay["window"] == live["window"]
        assert replay["window"]["last_ts"] < 1_000_000.0
        assert replay["devices"] == live["devices"]
        assert replay["reservations"]["booked_device_hours"] == pytest.approx(
            1 / 6, abs=1e-6
        )

    def test_analytics_seeded_from_recovered_journal(self, platform):
        """A restarted server's report spans its pre-crash history."""
        server = platform.access_server
        backend = InMemoryBackend()
        server.enable_persistence(backend, snapshot_every=10**9)
        client = platform.client()
        for index in range(4):
            client.submit_job(f"job-{index}", "noop", timeout_s=60.0)
        platform.run_queue()
        before_crash = server.analytics.report()

        second = build_default_platform(seed=23, browsers=("chrome",), analytics=False)
        second.access_server.enable_persistence(backend)
        engine = second.access_server.enable_analytics()
        recovered = engine.report()
        assert recovered["jobs"] == before_crash["jobs"]
        assert recovered["owners"] == before_crash["owners"]


class TestReducers:
    def test_percentile_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(samples, 0.50) == 5.0
        assert percentile(samples, 0.90) == 9.0
        assert percentile(samples, 0.99) == 10.0
        assert percentile([], 0.50) == 0.0

    def test_distribution_view_is_stable(self):
        view = distribution_view([3.0, 1.0, 2.0])
        assert view == {
            "samples": 3,
            "mean_s": 2.0,
            "p50_s": 2.0,
            "p90_s": 3.0,
            "p99_s": 3.0,
            "max_s": 3.0,
        }

    def test_throughput_rebuckets_to_coarser_sizes(self):
        reducer = ThroughputReducer(base_bucket_s=60.0)
        for ts in (10.0, 70.0, 130.0, 400.0):
            reducer.fold(
                OpsRecord(
                    ts,
                    "job.submitted",
                    {"job_id": 1, "owner": "o", "submitted_at": ts},
                )
            )
        fine = reducer.timeseries()
        assert [b["start_s"] for b in fine["buckets"]] == [0.0, 60.0, 120.0, 360.0]
        coarse = reducer.timeseries(300.0)
        assert [(b["start_s"], b["submitted"]) for b in coarse["buckets"]] == [
            (0.0, 3),
            (300.0, 1),
        ]
        # Finer than the fold resolution clamps to the base bucket.
        assert reducer.timeseries(1.0)["bucket_s"] == 60.0
        # A non-multiple rounds up so bucket labels stay honest: base
        # buckets are assigned whole and must not straddle boundaries.
        rounded = reducer.timeseries(90.0)
        assert rounded["bucket_s"] == 120.0
        assert [(b["start_s"], b["submitted"]) for b in rounded["buckets"]] == [
            (0.0, 2),
            (120.0, 1),
            (360.0, 1),
        ]

    def test_unknown_bus_topics_normalize_to_none(self):
        assert normalize_bus_event(BusEvent(0.0, "dispatch.batch", {"assigned": 1})) is None
        assert normalize_bus_event(BusEvent(0.0, "dispatch.released", {"job_id": 1})) is None
        assert (
            normalize_bus_event(BusEvent(0.0, "credit.account_opened", {"owner": "x"}))
            is None
        )

    def test_credit_only_accounts_appear_in_owner_rows(self):
        """A contributor earning credits without ever submitting a job
        still gets an owners row, so fleet credit movement reconciles."""
        engine = AnalyticsEngine()
        engine.fold(
            OpsRecord(
                5.0,
                "credit.txn",
                {"account": "institution", "kind": "contribution",
                 "amount_device_hours": 12.0},
            )
        )
        report = engine.report()
        assert [row["owner"] for row in report["owners"]] == ["institution"]
        row = report["owners"][0]
        assert row["submitted"] == 0
        assert row["credits_granted_device_hours"] == 12.0
        assert row["credits_burned_device_hours"] == 0.0

    def test_engine_ignores_events_for_unknown_jobs(self):
        engine = AnalyticsEngine()
        engine.fold(OpsRecord(1.0, "job.assigned", {"job_id": 99}))
        engine.fold(OpsRecord(2.0, "job.finished", {"job_id": 99, "status": "completed", "finished_at": 2.0}))
        report = engine.report()
        assert report["jobs"]["submitted"] == 0
        assert report["owners"] == []


def recount_jobs(reducer):
    """``job_counts()`` the slow way: one walk over every retained timeline."""
    named = ("completed", "failed", "cancelled", "running", "pending_approval")
    counts = dict.fromkeys(named + ("queued", "rejected"), 0)
    for timeline in reducer._jobs.values():
        counts[timeline.status if timeline.status in named else "queued"] += 1
        counts["rejected"] += timeline.rejected
    return {"submitted": len(reducer._jobs), "requeues": reducer._requeues, **counts}


lifecycle_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ("submit", "submit-held", "approve", "assign", "requeue", "finish",
             "fail", "cancel", "reject")
        ),
        st.integers(min_value=1, max_value=3),  # few ids: resubmits and strays happen
    ),
    max_size=60,
)


class TestIncrementalViews:
    """The views a report reads are kept by the fold, not recomputed from
    every retained job; they must equal the recomputation at every step."""

    @settings(max_examples=200, deadline=None)
    @given(steps=lifecycle_steps)
    @example(steps=[("submit", 1), ("reject", 1), ("submit", 1)])
    def test_job_counts_and_distributions_equal_a_recount(self, steps):
        reducer = JobLifecycleReducer()
        waits, runs = [], []
        for ts, (step, job_id) in enumerate(steps):
            ts = float(ts * 7 % 11)  # samples arrive out of order
            tracked = reducer._jobs.get(job_id)
            data = {"job_id": job_id}
            if step in ("submit", "submit-held"):
                kind = "job.submitted"
                status = "pending_approval" if step == "submit-held" else "queued"
                data.update(owner="o", status=status, submitted_at=ts)
            elif step in ("finish", "fail"):
                kind = "job.finished"
                data.update(status="completed" if step == "finish" else "failed", finished_at=ts)
                if tracked is not None and tracked.last_assigned_at is not None:
                    runs.append(ts - tracked.last_assigned_at)
            else:
                kind = {"approve": "job.approved", "assign": "job.assigned",
                        "requeue": "job.requeued", "cancel": "job.cancelled",
                        "reject": "job.rejected"}[step]
                if step == "assign" and tracked is not None and tracked.first_assigned_at is None:
                    waits.append(ts - tracked.submitted_at)
            reducer.fold(OpsRecord(ts, kind, data))
            assert reducer.job_counts() == recount_jobs(reducer)
            assert reducer.wait_distribution() == distribution_view(waits)
            assert reducer.run_distribution() == distribution_view(runs)


class TestSnapshotSynthesis:
    def test_snapshot_jobs_become_lifecycle_records(self):
        snapshot = {
            "format": 1,
            "sequence": 7,
            "jobs": [
                {
                    "job_id": 1,
                    "spec": {"name": "done", "owner": "alice", "priority": 1.0,
                             "timeout_s": 60.0, "is_pipeline_change": False},
                    "status": "completed",
                    "submitted_at": 10.0,
                    "started_at": 20.0,
                    "finished_at": 50.0,
                    "assigned_vantage_point": "node1",
                    "assigned_device": "node1-dev00",
                },
                {
                    "job_id": 2,
                    "spec": {"name": "waiting", "owner": "bob"},
                    "status": "queued",
                    "submitted_at": 15.0,
                },
            ],
            "reservations": [
                {"reservation_id": 3, "username": "alice", "vantage_point": "node1",
                 "device_serial": "node1-dev00", "start_s": 100.0, "duration_s": 3600.0},
            ],
            "credit": {
                "accounts": [
                    {"owner": "alice", "transactions": [
                        {"timestamp": 5.0, "account": "alice", "kind": "grant",
                         "amount_device_hours": 6.0, "note": ""},
                        {"timestamp": 50.0, "account": "alice", "kind": "usage",
                         "amount_device_hours": -0.01, "note": ""},
                    ]},
                ]
            },
        }
        engine = AnalyticsEngine()
        for record in synthesize_snapshot_records(snapshot):
            engine.fold(record)
        report = engine.report()
        assert report["jobs"] == {
            "submitted": 2, "completed": 1, "failed": 0, "cancelled": 0,
            "rejected": 0, "requeues": 0, "running": 0, "queued": 1,
            "pending_approval": 0,
        }
        alice = report["owners"][0]
        assert alice["owner"] == "alice"
        assert alice["device_seconds"] == 30.0
        assert alice["queue_wait_s"] == 10.0
        assert alice["credits_burned_device_hours"] == 0.01
        assert alice["credits_granted_device_hours"] == 6.0
        assert report["reservations"]["booked_device_hours"] == 1.0
        device = report["devices"][0]
        assert (device["vantage_point"], device["device_serial"]) == ("node1", "node1-dev00")
        assert device["busy_seconds"] == 30.0

    def test_replay_source_skips_records_folded_into_snapshot(self):
        backend = InMemoryBackend()
        backend.write_snapshot({"format": 1, "sequence": 2, "jobs": []})
        backend.append({"seq": 1, "ts": 0.0, "kind": "job.submitted",
                        "data": {"job": {"job_id": 1, "spec": {"name": "a", "owner": "o"},
                                         "status": "queued", "submitted_at": 0.0}}})
        backend.append({"seq": 3, "ts": 1.0, "kind": "job.submitted",
                        "data": {"job": {"job_id": 2, "spec": {"name": "b", "owner": "o"},
                                         "status": "queued", "submitted_at": 1.0}}})
        records = list(JournalReplaySource(backend).records())
        assert [record.data["job_id"] for record in records] == [2]


class TestJournalHealthStatus:
    def test_status_surfaces_journal_health(self):
        platform = build_default_platform(seed=5, browsers=("chrome",))
        server = platform.access_server
        assert server.status()["journal"] is None
        server.enable_persistence(InMemoryBackend(), snapshot_every=3)
        client = platform.client()
        for index in range(4):
            client.submit_job(f"job-{index}", "noop")
        status = server.status()["journal"]
        assert status["records"] == 4
        assert status["records_since_snapshot"] == 1  # 3 folded by a checkpoint
        assert status["snapshots_written"] >= 2  # attach-time + rollover
        assert status["last_snapshot_at"] == server.context.now

    def test_status_view_round_trips_journal_health(self):
        platform = build_default_platform(seed=5, browsers=("chrome",))
        platform.access_server.enable_persistence(InMemoryBackend())
        view = platform.client().server_status(version="2.0")
        assert view.journal is not None
        assert view.journal.records == 0
        assert view.journal.last_snapshot_at == 0.0
        wire = json.loads(json.dumps(view.to_wire()))
        assert wire["journal"]["snapshots_written"] == 1

    def test_journal_rides_v2_envelopes_only(self):
        """Even with persistence on, a v1 status response must keep its
        frozen wire form — a strict pre-v2 StatusView parser would reject
        the unknown field."""
        platform = build_default_platform(seed=5, browsers=("chrome",))
        platform.access_server.enable_persistence(InMemoryBackend())
        v1 = platform.client().server_status()
        assert v1.journal is None
        assert "journal" not in v1.to_wire()

    def test_journal_elided_without_persistence(self):
        platform = build_default_platform(seed=5, browsers=("chrome",))
        view = platform.client().server_status(version="2.0")
        assert view.journal is None
        assert "journal" not in view.to_wire()  # elided at its default
