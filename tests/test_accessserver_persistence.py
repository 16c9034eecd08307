"""Crash-recovery tests for the durable access-server state subsystem.

Kill-and-replay round trips asserting that queue order, credit balances,
reservation windows and in-flight job re-queueing are identical after
``recover_into`` — including the headline property: the post-recovery
assignment sequence matches what an uninterrupted run would have produced.
A "crash" here is simply abandoning the old server object without closing
its backend; every journal append is flushed, so that models a process
kill exactly.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accessserver import persistence
from repro.accessserver.jobs import JobConstraints, JobSpec, JobStatus
from repro.accessserver.persistence import manager as persistence_manager
from repro.accessserver.persistence import (
    TERMINAL_STATUSES,
    FileBackend,
    InMemoryBackend,
    PersistenceError,
    build_snapshot,
    encode_snapshot,
    recover_into,
    resolve_payload,
)
from repro.accessserver.payloads import (
    noop_payload,
    payload_name,
    register_payload,
    unregister_payload,
)
from repro.analytics import AnalyticsEngine, JournalReplaySource
from repro.api import ApiError
from repro.api.errors import ConflictApiError
from repro.chaos.faults import SimulatedCrash
from repro.cli import main
from repro.core.platform import build_default_platform


@register_payload("persistence-echo")
def echo_payload(ctx):
    return {"device": ctx.device_serial}


@register_payload("persistence-measure-1h")
def measure_one_hour(ctx):
    ctx.api.power_monitor()
    ctx.api.set_voltage(3.85)
    ctx.api.controller.monitor.set_sample_rate(20.0)  # billing follows the hold
    ctx.api.measure(ctx.device_serial, duration=3600.0)
    ctx.api.power_monitor()
    return "measured"


def durable_platform(state_dir, seed=11, device_count=2, **kwargs):
    return build_default_platform(
        seed=seed,
        browsers=("chrome",),
        device_count=device_count,
        state_dir=str(state_dir),
        **kwargs,
    )


def spec(name, payload=echo_payload, **kwargs):
    return JobSpec(name=name, owner="experimenter", run=payload, **kwargs)


class TestPayloadRegistry:
    def test_round_trip(self):
        assert payload_name(echo_payload) == "persistence-echo"
        assert resolve_payload("persistence-echo") is echo_payload
        assert resolve_payload("noop") is noop_payload

    def test_unregistered_name_fails_at_execution_not_lookup(self):
        stand_in = resolve_payload("never-registered")
        with pytest.raises(PersistenceError, match="never-registered"):
            stand_in(None)

    def test_unregistered_callable_has_no_name(self):
        assert payload_name(lambda ctx: None) is None


class TestBackends:
    def test_in_memory_round_trip(self):
        backend = InMemoryBackend()
        assert not backend.has_state()
        backend.append({"seq": 1, "kind": "x", "data": {}})
        backend.write_snapshot({"format": 1, "sequence": 1})
        assert backend.has_state()
        assert backend.read_journal() == [{"seq": 1, "kind": "x", "data": {}}]
        assert backend.read_snapshot()["sequence"] == 1
        backend.reset_journal()
        assert backend.read_journal() == []

    def test_file_backend_round_trip(self, tmp_path):
        backend = FileBackend(tmp_path / "state")
        backend.append({"seq": 1, "kind": "a", "data": {"n": 1}})
        backend.append({"seq": 2, "kind": "b", "data": {"n": 2}})
        backend.write_snapshot({"format": 1, "sequence": 0})
        assert backend.has_state()
        reread = FileBackend(tmp_path / "state")
        assert [r["kind"] for r in reread.read_journal()] == ["a", "b"]
        assert reread.read_snapshot() == {"format": 1, "sequence": 0}

    def test_torn_tail_record_is_dropped(self, tmp_path):
        backend = FileBackend(tmp_path)
        backend.append({"seq": 1, "kind": "a", "data": {}})
        backend.close()
        with open(backend.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "kind": "b", "da')  # crash mid-append
        reread = FileBackend(tmp_path)
        assert [r["seq"] for r in reread.read_journal()] == [1]
        assert reread.torn_records_dropped == 1

    def test_mid_journal_corruption_raises(self, tmp_path):
        backend = FileBackend(tmp_path)
        backend.append({"seq": 1, "kind": "a", "data": {}})
        backend.close()
        with open(backend.journal_path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
            handle.write(json.dumps({"seq": 3, "kind": "c", "data": {}}) + "\n")
        with pytest.raises(PersistenceError, match="corrupt journal"):
            FileBackend(tmp_path).read_journal()

    def test_fsync_batching(self, tmp_path):
        backend = FileBackend(tmp_path, fsync_every=3)
        for seq in range(7):
            backend.append({"seq": seq, "kind": "tick", "data": {}})
        assert backend.fsyncs == 2  # after records 3 and 6
        backend.sync()
        assert backend.fsyncs == 3  # the straggler
        backend.sync()
        assert backend.fsyncs == 3  # nothing pending, no extra fsync
        for seq in range(7, 9):
            backend.append({"seq": seq, "kind": "tick", "data": {}})
        backend.reset_journal()  # a checkpoint restarts the count
        for seq in range(9, 11):
            backend.append({"seq": seq, "kind": "tick", "data": {}})
        assert backend.fsyncs == 3
        backend.close()
        assert backend.fsyncs == 4  # the final sync
        with pytest.raises(ValueError):
            FileBackend(tmp_path / "other", fsync_every=0)

    def test_snapshot_replace_is_atomic(self, tmp_path):
        backend = FileBackend(tmp_path)
        backend.write_snapshot({"format": 1, "sequence": 1})
        backend.write_snapshot({"format": 1, "sequence": 2})
        assert backend.read_snapshot()["sequence"] == 2
        assert not backend.snapshot_path.with_suffix(".json.tmp").exists()


class TestJournaling:
    def test_mutations_reach_the_journal(self, tmp_path):
        platform = durable_platform(tmp_path)
        server = platform.access_server
        server.accounts.enable_credit_system()
        server.submit_job(platform.experimenter, spec("j0"))
        server.reserve_session(
            platform.experimenter, "node1", "node1-dev01", start_s=500.0, duration_s=60.0
        )
        kinds = [r["kind"] for r in server.persistence.backend.read_journal()]
        assert "credit.enabled" in kinds
        assert "credit.account_opened" in kinds
        assert "credit.txn" in kinds  # the initial grant
        assert "job.submitted" in kinds
        assert "reservation.created" in kinds

    def test_submission_records_payload_by_name(self, tmp_path):
        platform = durable_platform(tmp_path)
        server = platform.access_server
        server.submit_job(platform.experimenter, spec("j0"))
        (record,) = [
            r for r in server.persistence.backend.read_journal() if r["kind"] == "job.submitted"
        ]
        assert record["data"]["job"]["spec"]["payload"] == "persistence-echo"

    def test_snapshot_interval_compacts_the_journal(self, tmp_path):
        platform = build_default_platform(seed=11, browsers=("chrome",), device_count=2)
        server = platform.access_server
        manager = server.enable_persistence(str(tmp_path), snapshot_every=5)
        for index in range(12):
            server.submit_job(platform.experimenter, spec(f"j{index}"))
        assert manager.snapshots_written >= 3  # initial checkpoint + 2 compactions
        assert manager.records_since_snapshot < 5
        assert len(manager.backend.read_journal()) == manager.records_since_snapshot
        # Compaction must lose nothing: a recovery still sees all 12 jobs.
        rebuilt = durable_platform(tmp_path)
        assert rebuilt.access_server.scheduler.queue_length() == 12

    def test_double_attach_rejected(self, tmp_path):
        platform = durable_platform(tmp_path)
        with pytest.raises(PersistenceError, match="already attached"):
            platform.access_server.enable_persistence(str(tmp_path / "other"))


class TestRecovery:
    def test_queue_order_survives_restart(self, tmp_path):
        platform = durable_platform(tmp_path)
        server = platform.access_server
        names = ["a", "b", "c", "d", "e"]
        for name in names:
            server.submit_job(platform.experimenter, spec(name))
        rebuilt = durable_platform(tmp_path)
        queue = rebuilt.access_server.scheduler.queue.jobs()
        assert [job.spec.name for job in queue] == names
        report = rebuilt.persistence.last_recovery
        assert report.jobs_queued == 5
        assert report.snapshot_loaded

    def test_assignment_sequence_identical_to_uninterrupted_run(self, tmp_path):
        def submit_workload(platform):
            server = platform.access_server
            for index in range(8):
                kwargs = {}
                if index % 3 == 0:
                    kwargs["constraints"] = JobConstraints(device_serial="node1-dev01")
                server.submit_job(platform.experimenter, spec(f"j{index}", **kwargs))

        def executed_assignments(server):
            executed = server.run_pending_jobs(max_jobs=100)
            return [
                (job.spec.name, job.assigned_vantage_point, job.assigned_device)
                for job in executed
            ]

        control = build_default_platform(seed=11, browsers=("chrome",), device_count=2)
        submit_workload(control)
        uninterrupted = executed_assignments(control.access_server)

        crashed = durable_platform(tmp_path)
        submit_workload(crashed)
        # ... the process dies here, before anything ran ...
        recovered = durable_platform(tmp_path)
        assert executed_assignments(recovered.access_server) == uninterrupted
        assert uninterrupted  # the comparison must cover real work

    def test_in_flight_job_requeues_at_original_position(self, tmp_path):
        platform = durable_platform(tmp_path, device_count=1)
        server = platform.access_server
        first = server.submit_job(platform.experimenter, spec("first"))
        server.submit_job(platform.experimenter, spec("second"))
        # Assign without executing: the journal sees job.assigned but never a
        # job.finished — exactly what a crash mid-payload leaves behind.
        batch = server.scheduler.dispatch_batch(server.context.now)
        assert [a.job.spec.name for a in batch] == ["first"]
        assert first.status is JobStatus.RUNNING

        rebuilt = durable_platform(tmp_path, device_count=1)
        report = rebuilt.persistence.last_recovery
        assert report.jobs_requeued_in_flight == 1
        queue = rebuilt.access_server.scheduler.queue.jobs()
        assert [job.spec.name for job in queue] == ["first", "second"]
        executed = rebuilt.access_server.run_pending_jobs()
        assert [job.spec.name for job in executed] == ["first", "second"]
        assert all(job.status is JobStatus.COMPLETED for job in executed)

    def test_credit_balances_and_history_survive(self, tmp_path):
        platform = durable_platform(tmp_path)
        server = platform.access_server
        ledger = server.accounts.enable_credit_system(initial_grant_device_hours=10.0)
        ledger.open_account("contributor", contributes_hardware=True, now=0.0)
        ledger.credit_contribution("contributor", 4.0, now=0.0, note="hosting")
        server.submit_job(
            platform.experimenter, spec("burn", payload=measure_one_hour, timeout_s=7200.0)
        )
        server.run_pending_jobs()
        expected_balance = ledger.balance("experimenter")
        assert expected_balance == pytest.approx(9.0, abs=0.01)

        rebuilt = durable_platform(tmp_path)
        recovered_ledger = rebuilt.access_server.accounts.credit_policy.ledger
        assert recovered_ledger.balance("experimenter") == pytest.approx(expected_balance)
        assert recovered_ledger.balance("contributor") == pytest.approx(
            ledger.balance("contributor")
        )
        original = ledger.account("experimenter").transactions
        recovered = recovered_ledger.account("experimenter").transactions
        assert [(t.kind, t.amount_device_hours) for t in recovered] == [
            (t.kind, t.amount_device_hours) for t in original
        ]
        assert recovered_ledger.account("contributor").contributes_hardware

    def test_boot_code_may_re_enable_credit_system_after_recovery(self, tmp_path):
        # Hosts enable persistence then unconditionally enable the credit
        # system; after a recovery that call must keep the restored ledger
        # (balances included) instead of swapping in a fresh empty one.
        platform = durable_platform(tmp_path)
        ledger = platform.access_server.accounts.enable_credit_system(initial_grant_device_hours=7.0)
        ledger.open_account("alice", now=0.0)
        assert ledger.balance("alice") == pytest.approx(7.0)

        rebuilt = durable_platform(tmp_path)
        re_enabled = rebuilt.access_server.accounts.enable_credit_system(
            initial_grant_device_hours=7.0
        )
        assert re_enabled is rebuilt.access_server.accounts.credit_policy.ledger
        assert re_enabled.balance("alice") == pytest.approx(7.0)
        assert len(re_enabled.account("alice").transactions) == 1

    def test_reservation_windows_survive_and_cancellations_stick(self, tmp_path):
        platform = durable_platform(tmp_path)
        server = platform.access_server
        keep = server.reserve_session(
            platform.experimenter, "node1", "node1-dev00", start_s=100.0, duration_s=50.0
        )
        drop = server.reserve_session(
            platform.experimenter, "node1", "node1-dev01", start_s=200.0, duration_s=50.0
        )
        server.scheduler.cancel_reservation(drop.reservation_id)

        rebuilt = durable_platform(tmp_path)
        reservations = rebuilt.access_server.scheduler.reservations.all()
        assert [(r.reservation_id, r.vantage_point, r.device_serial, r.start_s, r.duration_s)
                for r in reservations] == [
            (keep.reservation_id, "node1", "node1-dev00", 100.0, 50.0)
        ]
        # Fresh reservations must not collide with recovered ids.
        fresh = rebuilt.access_server.reserve_session(
            rebuilt.experimenter, "node1", "node1-dev01", start_s=300.0, duration_s=10.0
        )
        assert fresh.reservation_id > drop.reservation_id

    def test_pending_approval_jobs_recover_and_approve(self, tmp_path):
        platform = durable_platform(tmp_path)
        server = platform.access_server
        server.submit_job(
            platform.experimenter, spec("pipeline", is_pipeline_change=True)
        )
        rebuilt = durable_platform(tmp_path)
        server2 = rebuilt.access_server
        (pending,) = server2.pending_approval()
        assert pending.spec.name == "pipeline"
        assert pending.status is JobStatus.PENDING_APPROVAL
        server2.approve_job(rebuilt.admin, pending)
        executed = server2.run_pending_jobs()
        assert [job.spec.name for job in executed] == ["pipeline"]

    @pytest.mark.parametrize("decision", ["approve_job", "reject_job"])
    def test_a_cancelled_pipeline_change_is_refused_live_and_recovered(
        self, tmp_path, decision
    ):
        platform = durable_platform(tmp_path)
        view = platform.client().submit_job("pipeline", "noop", is_pipeline_change=True)
        platform.client().cancel_job(view.job_id)

        def assert_refused(booted):
            admin = booted.client(username="admin")
            assert admin.approvals() == []
            with pytest.raises(ConflictApiError, match="not awaiting approval"):
                getattr(admin, decision)(view.job_id)
            job = admin.job_status(view.job_id)
            assert (job.status, job.error) == ("cancelled", None)

        assert_refused(platform)
        assert_refused(durable_platform(tmp_path))

    def test_run_configuration_wins_over_journaled_policy(self, tmp_path):
        # Policy/admission are this run's configuration (CLI flags, boot
        # code), not queue state: recovery reports the journaled values but
        # never silently overrides what the host just asked for.
        platform = durable_platform(tmp_path, reservation_admission="defer")
        platform.access_server.set_scheduling_policy("priority")
        rebuilt = durable_platform(tmp_path)  # note: built with defaults
        assert rebuilt.access_server.scheduler.policy.name == "fifo"
        assert rebuilt.access_server.scheduler.reservation_admission == "ignore"
        report = rebuilt.persistence.last_recovery
        assert report.journaled_policy == "priority"
        assert report.journaled_admission == "defer"
        explicit = durable_platform(
            tmp_path, scheduling_policy="priority", reservation_admission="defer"
        )
        assert explicit.access_server.scheduler.policy.name == "priority"
        assert explicit.access_server.scheduler.reservation_admission == "defer"

    def test_stale_journal_after_partial_checkpoint_is_not_reapplied(self, tmp_path):
        # Crash window: a checkpoint writes its snapshot but dies before
        # truncating the journal.  Replay must skip the now-stale records
        # (their sequence numbers are folded into the snapshot) instead of
        # applying them twice.
        platform = durable_platform(tmp_path)
        ledger = platform.access_server.accounts.enable_credit_system(initial_grant_device_hours=7.0)
        ledger.open_account("alice", now=0.0)
        stale_journal = (tmp_path / "journal.jsonl").read_bytes()

        durable_platform(tmp_path)  # restart: checkpoint = snapshot + truncate
        # ... but this crash loses the truncation, resurrecting the journal:
        (tmp_path / "journal.jsonl").write_bytes(stale_journal)

        third = durable_platform(tmp_path)
        recovered = third.access_server.accounts.credit_policy.ledger
        assert recovered.balance("alice") == pytest.approx(7.0)  # not 14.0
        assert len(recovered.account("alice").transactions) == 1

    def test_terminal_jobs_keep_results_and_ids_stay_unique(self, tmp_path):
        platform = durable_platform(tmp_path)
        server = platform.access_server
        done = server.submit_job(platform.experimenter, spec("done"))
        server.run_pending_jobs()
        assert done.status is JobStatus.COMPLETED

        rebuilt = durable_platform(tmp_path)
        recovered = rebuilt.access_server.scheduler.job(done.job_id)
        assert recovered.status is JobStatus.COMPLETED
        assert recovered.result == {"device": "node1-dev00"}
        fresh = rebuilt.access_server.submit_job(rebuilt.experimenter, spec("fresh"))
        assert fresh.job_id > max(j.job_id for j in rebuilt.access_server.scheduler.jobs()
                                  if j is not fresh)

    def test_unregistered_payload_fails_loudly_at_execution(self, tmp_path):
        platform = durable_platform(tmp_path)
        server = platform.access_server
        server.submit_job(
            platform.experimenter,
            JobSpec(name="ephemeral", owner="experimenter", run=lambda ctx: "ok"),
        )
        rebuilt = durable_platform(tmp_path)
        assert rebuilt.persistence.last_recovery.missing_payloads == ["ephemeral"]
        (job,) = rebuilt.access_server.run_pending_jobs()
        assert job.status is JobStatus.FAILED
        assert "register_payload" in job.error

    def test_no_persistence_flag_skips_recovery_and_journaling(self, tmp_path):
        platform = durable_platform(tmp_path)
        platform.access_server.submit_job(platform.experimenter, spec("queued"))
        rebuilt = durable_platform(tmp_path, persistence=False)
        assert rebuilt.persistence is None
        assert rebuilt.access_server.scheduler.queue_length() == 0
        # The durable state is untouched: a third, persistent run still recovers.
        third = durable_platform(tmp_path)
        assert third.access_server.scheduler.queue_length() == 1

    def test_recover_requires_fresh_backend_state_semantics(self, tmp_path):
        # recover=False attaches journaling but deliberately ignores state.
        platform = durable_platform(tmp_path)
        platform.access_server.submit_job(platform.experimenter, spec("queued"))
        fresh = build_default_platform(seed=11, browsers=("chrome",), device_count=2)
        manager = fresh.access_server.enable_persistence(
            FileBackend(tmp_path), recover=False
        )
        assert manager.last_recovery is None
        assert fresh.access_server.scheduler.queue_length() == 0

    def test_restart_resumes_queued_job_readme_scenario(self, tmp_path):
        # The README quickstart: submit, restart with the same --state-dir,
        # and the queued job runs as if nothing happened.
        first_run = durable_platform(tmp_path)
        first_run.access_server.submit_job(first_run.experimenter, spec("resume-me"))
        # process exits without running the queue
        second_run = durable_platform(tmp_path)
        executed = second_run.run_queue()
        assert [job.spec.name for job in executed] == ["resume-me"]
        assert executed[0].status is JobStatus.COMPLETED


class TestInMemoryRecovery:
    def test_round_trip_through_in_memory_backend(self):
        backend = InMemoryBackend()
        platform = build_default_platform(seed=11, browsers=("chrome",))
        server = platform.access_server
        server.enable_persistence(backend)
        server.submit_job(platform.experimenter, spec("mem"))

        fresh = build_default_platform(seed=11, browsers=("chrome",))
        report = recover_into(fresh.access_server, backend)
        assert report.jobs_queued == 1
        (job,) = fresh.access_server.run_pending_jobs()
        assert job.spec.name == "mem" and job.status is JobStatus.COMPLETED

    def test_missing_vantage_point_leaves_devices_unregistered(self):
        backend = InMemoryBackend()
        platform = build_default_platform(seed=11, browsers=("chrome",))
        platform.access_server.enable_persistence(backend)
        platform.access_server.submit_job(platform.experimenter, spec("stranded"))

        # The "host" rebuilds with a *different* vantage point name, so the
        # journaled node1 never re-joins.
        fresh = build_default_platform(
            seed=11, browsers=("chrome",), node_identifier="node9"
        )
        report = recover_into(fresh.access_server, backend)
        assert report.missing_vantage_points == ["node1"]
        assert fresh.access_server.scheduler.queue_length() == 1


class TestCliStateDir:
    def test_quickstart_with_state_dir_round_trips(self, tmp_path, capsys):
        state = tmp_path / "state"
        assert main(["--seed", "3", "--state-dir", str(state), "quickstart"]) == 0
        capsys.readouterr()
        assert (state / "snapshot.json").exists()
        assert main(["--seed", "3", "--state-dir", str(state), "quickstart"]) == 0
        assert "median_ma" in capsys.readouterr().out

    def test_parser_accepts_new_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["--state-dir", "/tmp/x", "--no-persistence",
             "--reservation-admission", "defer", "--scheduling-policy", "deadline",
             "quickstart"]
        )
        assert args.state_dir == "/tmp/x"
        assert args.no_persistence is True
        assert args.reservation_admission == "defer"
        assert args.scheduling_policy == "deadline"


# ---------------------------------------------------------------------------
# Checkpoints encode a settled job once: byte identity and invalidation
# ---------------------------------------------------------------------------

#: The server the self-cancelling payload reaches back into.
_LIVE = {}


@register_payload("persistence-boom")
def boom_payload(ctx):
    ctx.log("about to fail")
    raise RuntimeError("boom")


@register_payload("persistence-chatty")
def chatty_payload(ctx):
    ctx.log("one")
    ctx.log("two")
    return [1, 2.5, None, "\u00e9\u4e2d"]  # non-ASCII must survive ensure_ascii


@register_payload("persistence-cancel-self")
def cancel_self_payload(ctx):
    # Cancelled mid-payload: the job is terminal from here on, a checkpoint
    # sees it that way, and the payload *still* writes to its log.
    server = _LIVE["server"]
    server.scheduler.cancel(ctx.job.job_id)
    server.persistence.checkpoint()
    ctx.log("still running after the cancel")


PUSH_PAYLOADS = (
    "persistence-echo",
    "persistence-boom",
    "persistence-chatty",
    "persistence-cancel-self",
)


def fresh_encode(server) -> str:
    """What a checkpoint must write: the whole state encoded with no cache."""
    return json.dumps(
        build_snapshot(server, server.persistence.sequence), separators=(",", ":")
    )


class CheckedBackend:
    """Delegates to a real backend; after every snapshot write compares the
    bytes that reached it with a cache-free encode of the state right then."""

    def __init__(self, inner, server) -> None:
        self.inner = inner
        self.server = server
        self.checked = 0

    def raw_snapshot(self) -> str:
        if isinstance(self.inner, FileBackend):
            return self.inner.snapshot_path.read_text(encoding="utf-8")
        return self.inner.snapshot

    def write_snapshot(self, snapshot) -> None:
        self.inner.write_snapshot(snapshot)
        assert self.raw_snapshot() == fresh_encode(self.server)
        self.checked += 1

    def __getattr__(self, name):
        return getattr(self.inner, name)


BACKENDS = {
    "file": FileBackend,
    "memory": lambda state_dir: InMemoryBackend(),
}


class World:
    """A server in the state the snapshot has a key for — shard identity,
    credits, a second vantage point, an agent, a reservation — plus the
    operations that move jobs through every status.  Invalid operations
    (cancel a finished job, approve one not pending, ...) are part of the
    point: they are attempted and their refusal ignored."""

    def __init__(self, kind: str, state_dir, snapshot_every: int = 4) -> None:
        self.platform = build_default_platform(
            seed=11, browsers=("chrome",), device_count=2, persistence=False
        )
        self.server = server = self.platform.access_server
        _LIVE["server"] = server
        server.configure_shard("shard-1", shard_index=1, shard_count=3)
        self.backend = CheckedBackend(BACKENDS[kind](state_dir), server)
        self.manager = server.enable_persistence(
            self.backend, snapshot_every=snapshot_every
        )
        server.accounts.enable_credit_system(initial_grant_device_hours=50.0)
        self.client = self.platform.client()
        self.admin = self.platform.client(username="admin")
        self.admin.register_vantage_point(
            "node2", "Example University", device_count=2
        )
        self.client.agent_register("edge-1", connectors=["fake", "multi"])
        server.reserve_session(
            self.platform.experimenter, "node1", "node1-dev01",
            start_s=50_000.0, duration_s=60.0,
        )
        self.jobs = []
        self.leases = []

    def apply(self, op) -> None:
        name, arg = op
        try:
            getattr(self, "_" + name)(arg)
        except ApiError:
            pass

    def _job(self, index):
        return self.jobs[index % len(self.jobs)] if self.jobs else 0

    def _submit(self, index) -> None:
        payload = PUSH_PAYLOADS[index % len(PUSH_PAYLOADS)]
        view = self.client.submit_job(f"push-{len(self.jobs)}", payload)
        self.jobs.append(view.job_id)

    def _submit_agent(self, device_count) -> None:
        view = self.client.submit_job(
            f"pull-{len(self.jobs)}", "noop", execution="agent",
            connector="fake", device_count=device_count,
        )
        self.jobs.append(view.job_id)

    def _submit_pipeline(self, _arg) -> None:
        view = self.client.submit_job(
            f"pipeline-{len(self.jobs)}", "noop", is_pipeline_change=True
        )
        self.jobs.append(view.job_id)

    def _run(self, max_jobs) -> None:
        self.server.run_pending_jobs(max_jobs=max_jobs)

    def _claim(self, ttl_s) -> None:
        offers = self.client.agent_poll("edge-1").offers
        if offers:
            lease = self.client.agent_claim("edge-1", offers[0].job_id, ttl_s=ttl_s)
            self.leases.append(lease.lease_id)

    def _report(self, index) -> None:
        # Leases stay listed, so a later draw reports one twice.
        if self.leases:
            lease_id = self.leases[index % len(self.leases)]
            status = "completed" if index % 3 else "failed"
            self.client.agent_report(
                lease_id, "edge-1", status, result={"n": index}, error="agent said no"
            )

    def _cancel(self, index) -> None:
        self.client.cancel_job(self._job(index))

    def _approve(self, index) -> None:
        self.admin.approve_job(self._job(index))

    def _reject(self, index) -> None:
        self.admin.reject_job(self._job(index), reason="not this week")

    def _results(self, index) -> None:
        self.client.job_results(self._job(index))
        self.client.job_status(self._job(index))

    def _advance(self, seconds) -> None:
        self.platform.context.clock.advance(float(seconds))
        self.server.agents.expire_leases()

    def _grant(self, amount) -> None:
        self.admin.grant_credits("experimenter", float(amount), note="top-up")

    def _checkpoint(self, _arg) -> None:
        self.manager.checkpoint()

    def statuses(self) -> set:
        return {job.status for job in self.server.scheduler.jobs()}


#: Leaves a job in every status (and an agent job, a two-device job, and
#: two cancelled pipeline changes that reject and approve both refuse).
EVERY_STATUS = [
    ("submit", 0), ("submit", 1), ("submit", 2), ("submit", 3), ("run", 10),
    ("submit_agent", 1), ("submit_agent", 2), ("claim", 30), ("claim", 30),
    ("report", 1), ("report", 1),
    ("submit_pipeline", 0), ("submit_pipeline", 0), ("submit_pipeline", 0),
    ("cancel", 7), ("reject", 7), ("cancel", 8), ("approve", 8),
    ("submit_agent", 1), ("claim", 30),
    ("submit", 0), ("cancel", 10), ("submit", 2),
]

OPS = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 3)),
    st.tuples(st.just("submit_agent"), st.integers(1, 2)),
    st.tuples(st.just("submit_pipeline"), st.just(0)),
    st.tuples(st.just("run"), st.integers(1, 6)),
    st.tuples(st.just("claim"), st.sampled_from([5, 30])),
    st.tuples(st.just("report"), st.integers(0, 30)),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("approve"), st.integers(0, 30)),
    st.tuples(st.just("reject"), st.integers(0, 30)),
    st.tuples(st.just("results"), st.integers(0, 30)),
    st.tuples(st.just("advance"), st.sampled_from([1, 10, 40])),
    st.tuples(st.just("grant"), st.integers(1, 3)),
    st.tuples(st.just("checkpoint"), st.just(0)),
)


class TestCheckpointBytes:
    @pytest.mark.parametrize("kind", sorted(BACKENDS))
    def test_every_status_on_every_backend(self, kind, tmp_path):
        world = World(kind, tmp_path)
        for op in EVERY_STATUS:
            world.apply(op)
        assert world.statuses() == set(JobStatus)
        world.manager.checkpoint()
        world.manager.checkpoint()
        # snapshot_every=4 checkpointed all the way through, mid-settle too.
        assert world.backend.checked > 10
        snapshot = world.backend.read_snapshot()
        assert {"shard_id", "agents", "credit", "reservations"} <= set(snapshot)
        assert snapshot["credit"]["accounts"] and snapshot["pending_approval"]

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(sorted(BACKENDS)), ops=st.lists(OPS, max_size=40))
    def test_any_history_checkpoints_to_a_cache_free_encode(self, kind, ops):
        with tempfile.TemporaryDirectory() as state_dir:
            world = World(kind, state_dir)
            for op in EVERY_STATUS + ops:
                world.apply(op)
            world.manager.checkpoint()
            assert world.backend.checked > 10

    def test_encode_snapshot_is_json_dumps(self):
        for document in (
            {},
            {"jobs": []},
            {"format": 1, "jobs": [{"a": 1.5}, '{"b":"\\u00e9"}', {"c": None}], "z": []},
            {"jobs": ['{"only":1}'], "credit": None},
        ):
            tree = dict(document)
            if "jobs" in tree:
                tree["jobs"] = [
                    json.loads(job) if isinstance(job, str) else job
                    for job in tree["jobs"]
                ]
            assert "".join(encode_snapshot(document)) == json.dumps(
                tree, separators=(",", ":")
            )


class TestSettledRecordsStaySettled:
    """Every way to touch a job after it settled, each between two
    checkpoints — the CheckedBackend fails the second one if the record
    changed behind the cache."""

    @pytest.fixture()
    def world(self, tmp_path):
        return World("file", tmp_path, snapshot_every=10**9)

    def settle(self, world, ops):
        for op in ops:
            world.apply(op)
        world.manager.checkpoint()

    def test_cancel_results_and_reads_of_settled_jobs(self, world):
        self.settle(world, [("submit", 0), ("submit", 1), ("submit", 0), ("cancel", 2),
                            ("run", 10)])
        cached = world.manager.settled_records()
        assert len(cached) == 3
        for index in range(3):
            world.apply(("cancel", index))  # refused, or a no-op re-cancel
            world.apply(("results", index))
        world.apply(("grant", 2))
        world.admin.create_user("newcomer", "experimenter", "newcomer-token")
        world.manager.checkpoint()
        assert world.manager.settled_records() == cached

    def test_duplicate_agent_report(self, world):
        self.settle(world, [("submit_agent", 1), ("claim", 30), ("report", 1)])
        (job_id,) = world.manager.settled_job_ids
        world.apply(("report", 2))  # same lease, different verdict: ignored
        world.manager.checkpoint()
        assert world.server.scheduler.job(job_id).result == {"n": 1}

    def test_lease_expiry_requeues_and_the_job_settles_again(self, world):
        self.settle(world, [("submit_agent", 2), ("claim", 5)])
        assert not world.manager.settled_job_ids  # running: nothing to keep
        world.apply(("advance", 40))  # lease lapses -> requeued
        world.manager.checkpoint()
        self.settle(world, [("claim", 30), ("report", 1)])
        assert len(world.manager.settled_job_ids) == 1

    def test_a_cancelled_pipeline_change_settles_at_once(self, world):
        self.settle(world, [("submit_pipeline", 0), ("cancel", 0)])
        # Cancelling took it off the approval queue: nothing is left to decide.
        assert world.manager.settled_job_ids == world.jobs
        cached = world.manager.settled_records()
        for decide in (world.admin.approve_job, world.admin.reject_job):
            with pytest.raises(ConflictApiError, match="not awaiting approval"):
                decide(world.jobs[0])
        world.manager.checkpoint()
        assert world.manager.settled_records() == cached
        assert world.statuses() == {JobStatus.CANCELLED}

    def test_payload_logging_after_its_own_cancellation(self, world):
        self.settle(world, [("submit", 3), ("run", 5)])
        (job,) = world.server.scheduler.jobs()
        assert job.status is JobStatus.CANCELLED
        assert job.log_lines[-1].endswith("still running after the cancel")
        assert world.backend.checked >= 3  # incl. the payload's own checkpoint

    def test_terminal_job_still_holding_its_queue_position(self, world):
        # Driving the scheduler by hand, as the benchmarks' drains do: the
        # job is terminal first and gives up its queue sequence later.
        self.settle(world, [("submit", 0)])
        scheduler = world.server.scheduler
        (assignment,) = scheduler.dispatch_batch(world.server.context.now)
        assignment.job.mark_completed(world.server.context.now, None)
        world.manager.checkpoint()
        assert not world.manager.settled_job_ids
        scheduler.release(assignment.job)
        world.manager.checkpoint()
        assert len(world.manager.settled_job_ids) == 1

    def test_unregistering_a_payload_renames_settled_jobs(self, world):
        register_payload("persistence-short-lived", lambda ctx: "ok")
        world.jobs.append(
            world.client.submit_job("short", "persistence-short-lived").job_id
        )
        self.settle(world, [("run", 5)])
        (text,) = world.manager.settled_records().values()
        assert '"payload":"persistence-short-lived"' in text
        unregister_payload("persistence-short-lived")
        world.manager.checkpoint()
        (text,) = world.manager.settled_records().values()
        assert '"payload":null' in text


class TestEncodeOnce:
    @pytest.fixture()
    def serialize_calls(self, monkeypatch):
        calls = []
        real = persistence.serialize_job

        def counting(job, queue_seq=None):
            calls.append(job.job_id)
            return real(job, queue_seq=queue_seq)

        monkeypatch.setattr(persistence_manager, "serialize_job", counting)
        return calls

    def settled_platform(self, backend, settled, queued=0, **spec_kwargs):
        platform = build_default_platform(
            seed=11, browsers=("chrome",), device_count=3, persistence=False
        )
        server = platform.access_server
        server.enable_persistence(backend, snapshot_every=10**9)
        self.submit(platform, settled, **spec_kwargs)
        while server.run_pending_jobs(max_jobs=1000):
            pass
        self.submit(platform, queued, vantage_point="node99")  # never dispatchable
        return platform

    @staticmethod
    def submit(platform, count, vantage_point=None, **spec_kwargs):
        for index in range(count):
            platform.access_server.submit_job(
                platform.experimenter,
                spec(
                    f"job-{index}", payload=noop_payload,
                    constraints=JobConstraints(vantage_point=vantage_point),
                    **spec_kwargs,
                ),
            )

    def test_checkpoint_encodes_live_plus_newly_settled(self, serialize_calls):
        backend = InMemoryBackend()
        platform = self.settled_platform(backend, settled=5000, queued=7)
        server, manager = platform.access_server, platform.access_server.persistence
        manager.checkpoint()
        self.submit(platform, 10)
        assert len(server.run_pending_jobs(max_jobs=100)) == 10
        del serialize_calls[:]  # submits journal a serialised job too
        manager.checkpoint()
        assert len(serialize_calls) == 7 + 10
        assert backend.snapshot == fresh_encode(server)
        counters = {
            (c["name"], c["labels"].get("source")): c["value"]
            for c in server.obs.registry.snapshot()["counters"]
        }
        # attach (0 jobs) + first checkpoint (5007 encoded) + this one.
        assert counters[("journal_snapshot_jobs_total", "encoded")] == 5007 + 17
        assert counters[("journal_snapshot_jobs_total", "reused")] == 5000

    def test_retention_lapse_drops_the_job_from_snapshot_and_cache(self):
        backend = InMemoryBackend()
        platform = self.settled_platform(
            backend, settled=20, queued=2, log_retention_days=1.0
        )
        server, manager = platform.access_server, platform.access_server.persistence
        self.submit(platform, 5)  # default retention: a week
        server.run_pending_jobs(max_jobs=100)
        manager.checkpoint()
        assert len(manager.settled_job_ids) == 25
        platform.context.clock.advance(2 * 86_400.0)
        manager.checkpoint()
        kept = backend.read_snapshot()["jobs"]
        assert len(kept) == 5 + 2
        retained_terminal = [
            job["job_id"] for job in kept if JobStatus(job["status"]) in TERMINAL_STATUSES
        ]
        assert manager.settled_job_ids == retained_terminal
        assert backend.snapshot == fresh_encode(server)

    def test_first_checkpoint_after_recovery_encodes_everything_once(
        self, tmp_path, serialize_calls
    ):
        self.settled_platform(FileBackend(tmp_path), settled=40, queued=3)
        del serialize_calls[:]
        rebuilt = durable_platform(tmp_path, device_count=3)  # recovers + checkpoints
        assert len(serialize_calls) == 43
        del serialize_calls[:]
        rebuilt.persistence.checkpoint()
        assert len(serialize_calls) == 3
        assert len(rebuilt.persistence.settled_job_ids) == 40

    def test_checkpoint_metrics_are_exported(self, tmp_path):
        platform = self.settled_platform(FileBackend(tmp_path), settled=4, queued=1)
        server = platform.access_server
        server.persistence.checkpoint()
        snapshot = server.obs.registry.snapshot()
        gauges = {g["name"]: g["value"] for g in snapshot["gauges"]}
        assert gauges["journal_snapshot_bytes"] == (tmp_path / "snapshot.json").stat().st_size
        (histogram,) = [
            h for h in snapshot["histograms"] if h["name"] == "journal_checkpoint_seconds"
        ]
        assert histogram["count"] == 2 and histogram["sum"] > 0
        text = server.obs.registry.render_text()
        assert 'journal_snapshot_jobs_total{source="encoded"} 5' in text


class TestSnapshotDurability:
    def test_directory_is_fsynced_between_rename_and_truncation(
        self, tmp_path, monkeypatch
    ):
        platform = durable_platform(tmp_path)
        platform.access_server.submit_job(platform.experimenter, spec("queued"))
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        real_reset = FileBackend.reset_journal

        def fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            events.append("fsync-dir" if is_dir else "fsync-file")
            real_fsync(fd)

        def replace(src, dst):
            events.append("rename")
            real_replace(src, dst)

        def reset(backend):
            events.append("truncate")
            real_reset(backend)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(FileBackend, "reset_journal", reset)
        platform.persistence.checkpoint()
        # journal tail, snapshot tmp file, then the rename made durable.
        assert events == ["fsync-file", "fsync-file", "rename", "fsync-dir", "truncate"]

    def test_kill_between_snapshot_write_and_rename(self, tmp_path, monkeypatch):
        platform = build_default_platform(
            seed=11, browsers=("chrome",), device_count=2, persistence=False
        )
        server = platform.access_server
        server.enable_persistence(FileBackend(tmp_path))
        for name in ("first", "second"):
            server.submit_job(platform.experimenter, spec(name))
        server.run_pending_jobs(max_jobs=1)
        before = (tmp_path / "snapshot.json").read_bytes()

        def die(src, dst):
            raise SimulatedCrash("kill -9 before the rename")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", die)
            with pytest.raises(SimulatedCrash):
                server.persistence.checkpoint()
        tmp_file = tmp_path / "snapshot.json.tmp"
        assert tmp_file.exists() and tmp_file.stat().st_size > len(before)
        assert (tmp_path / "snapshot.json").read_bytes() == before

        reopened = FileBackend(tmp_path)
        assert tmp_file.exists()  # a reader leaves it to the owner
        assert reopened.read_snapshot()["jobs"] == []  # the previous snapshot...
        assert len(reopened.read_journal()) >= 4  # ...and the journal past it
        rebuilt = durable_platform(tmp_path)
        jobs = {job.spec.name: job.status for job in rebuilt.access_server.scheduler.jobs()}
        assert jobs == {"first": JobStatus.COMPLETED, "second": JobStatus.QUEUED}
        assert not tmp_file.exists()

    def test_a_cold_replay_writes_nothing(self, tmp_path):
        """A reader may be looking at a live server's directory, whose
        ``snapshot.json.tmp`` is the checkpoint being written right now and
        whose journal ends in the record being appended."""
        state = tmp_path / "state"
        platform = durable_platform(state)
        platform.access_server.submit_job(platform.experimenter, spec("queued"))
        platform.persistence.backend.sync()
        (state / "snapshot.json.tmp").write_text('{"format":1,"seq', encoding="utf-8")
        with open(state / "journal.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"seq":99,"ts":0.0,"kind":"job.sub')
        before = {path.name: path.read_bytes() for path in state.iterdir()}
        replayed = list(JournalReplaySource(str(state)).records())
        report = AnalyticsEngine.from_backend(str(state)).report()
        cold = build_default_platform(seed=11, browsers=("chrome",), device_count=2)
        recovery = recover_into(cold.access_server, FileBackend(state))
        assert replayed and report["jobs"]["submitted"] == 1
        assert recovery.jobs_queued == 1
        assert {path.name: path.read_bytes() for path in state.iterdir()} == before
