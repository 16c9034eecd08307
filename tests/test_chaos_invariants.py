"""The invariant catalogue: every check's pass path AND its fail path.

An invariant checker that cannot fail is worse than none — each test
class here drives its check green against a healthy platform, then
manufactures the specific wreckage the check exists to catch and asserts
the verdict flips with an actionable detail line.
"""

import json

import pytest

from repro.accessserver.agents import SETTLED_LEASE_MEMORY
from repro.accessserver.persistence import FileBackend
from repro.chaos.faults import ExecutionLedger
from repro.chaos.injectors import CrashingBackend
from repro.chaos.invariants import (
    CheckResult,
    InvariantReport,
    InvariantViolation,
    check_analytics_live_equals_replay,
    check_credit_conservation,
    check_device_hold_conservation,
    check_history_bounded,
    check_no_double_execution,
    check_no_lost_jobs,
    check_outbox_bounded,
    check_push_contract,
    check_recovery_byte_identical,
    check_snapshot_equals_fresh_encode,
)
from repro.agent import AgentDaemon
from repro.agent import outbox as outbox_module
from repro.chaos import ScenarioBuilder, SoakConfig, run_soak
from repro.core.platform import build_default_platform


@pytest.fixture()
def platform():
    return build_default_platform(seed=31, browsers=("chrome",))


def finished_job(platform, name="done"):
    view = platform.client().submit_job(name, "noop")
    platform.run_queue()
    return view


class TestInvariantReport:
    def test_aggregates_in_order_and_raises_with_failures_only(self):
        report = InvariantReport()
        report.add(CheckResult("a", True, "fine"))
        report.add(CheckResult("b", False, "broken"))
        report.add(CheckResult("c", False, "also broken"))
        assert not report.ok
        assert [c.name for c in report.failures()] == ["b", "c"]
        assert "PASS  a — fine" in report.summary()
        with pytest.raises(InvariantViolation) as excinfo:
            report.raise_on_failure()
        message = str(excinfo.value)
        assert "FAIL  b — broken" in message
        assert "a" not in message.split("FAIL")[0].replace(
            "invariant violation(s):", ""
        ).strip()

    def test_ok_report_raises_nothing_and_serialises(self):
        report = InvariantReport([CheckResult("a", True)])
        report.raise_on_failure()
        assert report.to_dict() == {
            "ok": True,
            "checks": [{"name": "a", "ok": True, "details": ""}],
        }

    def test_violation_is_an_assertion_error(self):
        # The CLI maps AssertionError to exit code 1; keep the lineage.
        assert issubclass(InvariantViolation, AssertionError)


class TestNoLostJobs:
    def test_terminal_jobs_pass(self, platform):
        view = finished_job(platform)
        check = check_no_lost_jobs([platform.access_server], [view.job_id])
        assert check.ok
        assert "accounted for" in check.details

    def test_vanished_id_fails(self, platform):
        view = finished_job(platform)
        check = check_no_lost_jobs([platform.access_server], [view.job_id, 9999])
        assert not check.ok
        assert "vanished" in check.details
        assert check.data["missing"] == [9999]

    def test_non_terminal_after_drain_fails(self, platform):
        view = platform.client().submit_job("stuck", "noop")  # never dispatched
        check = check_no_lost_jobs([platform.access_server], [view.job_id])
        assert not check.ok
        assert "non-terminal" in check.details
        assert check.data["stuck"] == [view.job_id]


class TestNoDoubleExecution:
    def test_clean_ledger_passes_and_counts_crash_reruns(self):
        ledger = ExecutionLedger()
        ledger.record(1)
        ledger.begin_epoch()
        ledger.record(1)
        check = check_no_double_execution(ledger)
        assert check.ok
        assert "1 legitimate crash re-run(s)" in check.details

    def test_same_epoch_repeat_fails(self):
        ledger = ExecutionLedger()
        ledger.record(1)
        ledger.record(1)
        check = check_no_double_execution(ledger)
        assert not check.ok
        assert "double-executed" in check.details


class TestCreditConservation:
    def test_transaction_history_reconciles(self, platform):
        ledger = platform.access_server.enable_credit_system()
        finished_job(platform)
        check = check_credit_conservation(ledger)
        assert check.ok
        assert "reconcile" in check.details

    def test_tampered_balance_is_ledger_drift(self, platform):
        ledger = platform.access_server.enable_credit_system()
        finished_job(platform)
        account = next(iter(ledger.accounts()))
        account.balance_device_hours += 1.0  # credits minted off the books
        check = check_credit_conservation(ledger)
        assert not check.ok
        assert "drift" in check.details
        assert check.data["drifting"][0][0] == account.owner


class TestDeviceHoldConservation:
    def claimed(self, platform, ttl_s=10.0):
        client = platform.client()
        job = client.submit_job("held", "noop", execution="agent", connector="fake")
        client.agent_register("edge-1", connectors=["fake"])
        return job, client.agent_claim("edge-1", job.job_id, ttl_s=ttl_s)

    def test_a_live_lease_is_a_legitimate_hold_until_drained(self, platform):
        server = platform.access_server
        self.claimed(platform)
        assert check_device_hold_conservation(server).ok
        verdict = check_device_hold_conservation(server, drained=True)
        assert not verdict.ok
        assert "still held after drain: 1 busy slot(s)" in verdict.details

    def test_a_cancelled_job_under_a_dead_lease_is_a_stranded_device(self, platform):
        server = platform.access_server
        job, _lease = self.claimed(platform)
        platform.client().cancel_job(job.job_id)
        assert check_device_hold_conservation(server).ok  # the agent may still report
        platform.context.run_for(60.0)  # ... until its lease runs out unreaped
        verdict = check_device_hold_conservation(server)
        assert not verdict.ok
        assert f"job {job.job_id} holds a device" in verdict.details
        server.expire_agent_leases()
        assert check_device_hold_conservation(server, drained=True).ok

    def test_a_lease_whose_device_went_to_another_job_fails(self, platform):
        server = platform.access_server
        job, lease = self.claimed(platform)
        # Given back behind the lease's back.
        server.scheduler.release(server.scheduler.job(job.job_id))
        verdict = check_device_hold_conservation(server)
        assert not verdict.ok
        assert f"{lease.lease_id} holds node1/node1-dev00" in verdict.details


class TestHistoryBounded:
    def test_a_healthy_platform_is_within_every_bound(self, tmp_path):
        platform = build_default_platform(
            seed=31, browsers=("chrome",), state_dir=str(tmp_path)
        )
        finished_job(platform)
        platform.access_server.persistence.checkpoint()
        verdict = check_history_bounded(platform.access_server, drained=True)
        assert verdict.ok, verdict.details
        assert "sim log" in verdict.details and "/10000" in verdict.details

    def test_a_history_past_its_bound_fails(self, platform):
        server = platform.access_server
        agents = server.agents
        for index in range(SETTLED_LEASE_MEMORY + 1):  # behind settle()'s trim
            agents._settled[f"lease-{index}"] = index
        verdict = check_history_bounded(server)
        assert not verdict.ok
        assert (
            f"settled-lease memory holds {SETTLED_LEASE_MEMORY + 1} record(s), "
            f"bound {SETTLED_LEASE_MEMORY}" in verdict.details
        )

    def test_a_per_job_cache_that_outlives_its_job_fails(self, platform):
        server = platform.access_server
        view = finished_job(platform)
        assert check_history_bounded(server).ok
        del server.scheduler._all_jobs[view.job_id]  # evicted; the fold kept it
        verdict = check_history_bounded(server)
        assert not verdict.ok
        assert "analytics timelines keeps 1 job(s)" in verdict.details

    def test_a_parked_poll_or_a_lease_fails_only_a_drained_run(self, platform):
        server = platform.access_server
        client = platform.client()
        job = client.submit_job("held", "noop", execution="agent", connector="fake")
        client.agent_register("edge-1", connectors=["fake"])
        client.agent_claim("edge-1", job.job_id, ttl_s=10.0)
        assert check_history_bounded(server).ok
        verdict = check_history_bounded(server, drained=True)
        assert not verdict.ok
        assert "after drain: 0 parked poll(s), 1 live lease(s)" in verdict.details

        class Router:  # what the check asks of an ApiRouter
            def parked_polls(self):
                return 2

        verdict = check_history_bounded(server, [Router()], drained=True)
        assert "after drain: 2 parked poll(s), 1 live lease(s)" in verdict.details


class TestOutboxBounded:
    @pytest.fixture()
    def daemon(self, platform, tmp_path):
        client = platform.client()
        for index in range(3):
            client.submit_job(f"job-{index}", "noop", execution="agent", connector="fake")
        daemon = AgentDaemon(platform.client(), "edge-1", tmp_path / "edge-1.jsonl")
        daemon.register()
        while daemon.run_once() is not None:
            pass
        return daemon

    def test_a_drained_daemon_holds_what_is_live(self, daemon):
        verdict = check_outbox_bounded([daemon.outbox], drained=True)
        assert verdict.ok, verdict.details
        assert "1 outbox(es)" in verdict.details and "65536 B" in verdict.details
        assert check_outbox_bounded([], drained=True).ok

    def test_a_file_that_outgrew_the_bound_fails(self, daemon, monkeypatch):
        # Three settled leases on disk, and a bound that should have dropped them.
        monkeypatch.setattr(outbox_module, "COMPACT_BYTES", 64)
        verdict = check_outbox_bounded([daemon.outbox])
        assert not verdict.ok
        assert f"edge-1.jsonl: file is {daemon.outbox.size_bytes} B, bound" in verdict.details

    def test_a_fold_that_drifted_from_its_file_fails(self, daemon):
        with open(daemon.outbox.path, "a", encoding="utf-8") as handle:
            record = {"kind": "claim", "lease_id": "lease-behind-its-back", "job_id": 1}
            handle.write(json.dumps(record) + "\n")
        verdict = check_outbox_bounded([daemon.outbox])
        assert not verdict.ok
        assert "in-memory fold differs from a replay of the file" in verdict.details
        assert "gauges read" in verdict.details

    def test_a_leftover_tmp_fails(self, daemon):
        open(daemon.outbox.path + ".tmp", "w").close()
        verdict = check_outbox_bounded([daemon.outbox])
        assert not verdict.ok
        assert "a compaction left edge-1.jsonl.tmp behind" in verdict.details

    def test_a_pending_lease_fails_only_a_drained_run(self, daemon):
        daemon.outbox.append("claim", lease_id="lease-held", job_id=9)
        assert check_outbox_bounded([daemon.outbox]).ok
        verdict = check_outbox_bounded([daemon.outbox], drained=True)
        assert not verdict.ok
        assert "after drain: 1 pending lease(s)" in verdict.details

    @pytest.mark.parametrize("mode", ["before", "torn", "after"])
    def test_an_agent_crash_can_land_inside_a_compaction(
        self, tmp_path, monkeypatch, mode
    ):
        """With every settle over the bound, the seventh write of the first
        cycle after the event is the compaction: the soak survives a kill
        there — nothing lost, nothing run twice, the outbox check green."""
        monkeypatch.setattr(outbox_module, "COMPACT_BYTES", 1)
        builder = ScenarioBuilder("agent-crash-in-compaction")
        builder.at(2.0).crash_agent("agent-0", at_append=6, mode=mode)
        result = run_soak(SoakConfig(
            jobs=200,
            batch=50,
            seed=7,
            scenario=builder.build(),
            state_dir=str(tmp_path),
            agents=1,
            agent_job_fraction=0.5,
        ))
        assert result.ok, result.summary()
        assert result.metrics["agent_crashes"] == 1
        assert result.metrics["crash_reruns"] == 0  # the job had been reported
        names = [check.name for check in result.report.checks]
        assert "outbox_bounded" in names


class TestAnalyticsLiveEqualsReplay:
    def test_live_report_matches_cold_replay(self, tmp_path):
        platform = build_default_platform(
            seed=31, browsers=("chrome",), state_dir=str(tmp_path)
        )
        platform.access_server.enable_analytics()
        finished_job(platform)
        check = check_analytics_live_equals_replay(platform.access_server)
        assert check.ok
        assert "reports identical" in check.details

    def test_missing_analytics_or_persistence_fails_loudly(self, platform):
        check = check_analytics_live_equals_replay(platform.access_server)
        assert not check.ok
        assert "not enabled" in check.details


class TestSnapshotEqualsFreshEncode:
    def _durable(self, tmp_path):
        platform = build_default_platform(
            seed=31, browsers=("chrome",), persistence=False
        )
        backend = CrashingBackend(FileBackend(tmp_path / "state"))
        platform.access_server.enable_persistence(backend, recover=False)
        return platform

    def test_reused_records_match_a_cache_free_encode(self, tmp_path):
        platform = self._durable(tmp_path)
        finished_job(platform)
        platform.access_server.persistence.checkpoint()  # encodes "done" once
        platform.client().submit_job("queued", "noop")
        check = check_snapshot_equals_fresh_encode(platform.access_server)
        assert check.ok, check.details
        assert "identical to a cache-free encode" in check.details

    def test_a_settled_record_changed_behind_the_cache_fails(self, tmp_path):
        platform = self._durable(tmp_path)
        view = finished_job(platform)
        platform.access_server.persistence.checkpoint()
        platform.access_server.scheduler.job(view.job_id).log("written after settling")
        check = check_snapshot_equals_fresh_encode(platform.access_server)
        assert not check.ok
        assert "differs from a cache-free encode" in check.details

    def test_missing_persistence_fails_loudly(self, platform):
        check = check_snapshot_equals_fresh_encode(platform.access_server)
        assert not check.ok
        assert "not enabled" in check.details


class TestRecoveryByteIdentical:
    def _factory(self, tmp_path):
        def build(backend):
            platform = build_default_platform(
                seed=31, browsers=("chrome",), persistence=False
            )
            platform.access_server.enable_analytics()
            platform.access_server.enable_persistence(backend, recover=True)
            return platform

        return build

    def test_double_recovery_agrees(self, tmp_path):
        platform = build_default_platform(
            seed=31, browsers=("chrome",), persistence=False
        )
        backend = CrashingBackend(FileBackend(tmp_path / "state"))
        platform.access_server.enable_analytics()
        platform.access_server.enable_persistence(backend, recover=False)
        finished_job(platform)
        platform.client().submit_job("queued", "noop")
        check = check_recovery_byte_identical(backend, self._factory(tmp_path))
        assert check.ok
        assert "two recoveries agree" in check.details

    def test_unwraps_the_crashing_proxy_and_leaves_state_untouched(self, tmp_path):
        platform = build_default_platform(
            seed=31, browsers=("chrome",), persistence=False
        )
        backend = CrashingBackend(FileBackend(tmp_path / "state"))
        platform.access_server.enable_analytics()
        platform.access_server.enable_persistence(backend, recover=False)
        finished_job(platform)
        before = backend.inner.journal_path.read_bytes()
        check_recovery_byte_identical(backend, self._factory(tmp_path))
        # Each recovery ran on a *clone*: the live journal did not grow.
        backend.inner.sync()
        assert backend.inner.journal_path.read_bytes() == before


class TestPushContract:
    def test_contiguous_stream_passes(self):
        frames = [{"seq": s} for s in (1, 2, 3, 4)]
        check = check_push_contract(frames)
        assert check.ok
        assert check.data == {"gaps": 0, "declared": 0}

    def test_gaps_covered_by_declared_drops_pass(self):
        frames = [{"seq": 1}, {"seq": 2}, {"seq": 5, "dropped": 2}, {"seq": 6}]
        check = check_push_contract(frames)
        assert check.ok
        assert check.data == {"gaps": 2, "declared": 2}

    def test_undeclared_gap_fails(self):
        frames = [{"seq": 1}, {"seq": 4}]
        check = check_push_contract(frames)
        assert not check.ok
        assert "2 frame(s) missing but only 0 declared" in check.details

    def test_sequence_regression_fails(self):
        frames = [{"seq": 2}, {"seq": 1}]
        check = check_push_contract(frames)
        assert not check.ok
        assert "backwards" in check.details

    def test_real_gateway_drops_satisfy_the_contract(self, platform):
        """Flood a bounded in-process push queue; the frames that survive
        must declare every gap — the backpressure contract, re-checked by
        the chaos catalogue instead of the point tests."""
        from repro.api import ApiRouter

        router = ApiRouter(platform.access_server)
        received = []
        sub = router.handle(
            {
                "op": "events.subscribe",
                "version": "2.0",
                "request_id": 1,
                "auth": {"username": "admin", "token": "admin-token"},
                "payload": {"topic_prefix": "job."},
            },
            push=received.append,
        )
        assert sub["ok"] is True, sub
        client = platform.client()
        for index in range(5):
            client.submit_job(f"burst-{index}", "noop")
        frames = [f for f in received if f.get("frame") == "event"]
        assert len(frames) == 5
        check = check_push_contract(frames)
        assert check.ok, check.details
