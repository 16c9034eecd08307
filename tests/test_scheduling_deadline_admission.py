"""Tests for the deadline/EDF policy and reservation-aware admission."""

from __future__ import annotations

import pytest

from repro.accessserver.dispatch import SchedulingError
from repro.accessserver.jobs import Job, JobConstraints, JobSpec, JobStatus
from repro.accessserver.policies import DeadlinePolicy, DispatchStats, create_policy
from repro.accessserver.scheduler import JobScheduler


def make_job(name, owner="owner", timeout_s=3600.0, **constraint_kwargs):
    return Job(
        spec=JobSpec(
            name=name,
            owner=owner,
            run=lambda ctx: None,
            timeout_s=timeout_s,
            constraints=JobConstraints(**constraint_kwargs),
        )
    )


class TestDeadlinePolicy:
    def test_orders_by_submission_plus_timeout(self):
        policy = DeadlinePolicy()
        relaxed = make_job("relaxed", timeout_s=7200.0)
        relaxed.submitted_at = 0.0
        tight = make_job("tight", timeout_s=600.0)
        tight.submitted_at = 100.0
        ordered = policy.order([relaxed, tight], DispatchStats(now=200.0))
        assert [job.spec.name for job in ordered] == ["tight", "relaxed"]

    def test_ties_keep_submission_order(self):
        policy = DeadlinePolicy()
        first = make_job("first", timeout_s=600.0)
        second = make_job("second", timeout_s=600.0)
        first.submitted_at = second.submitted_at = 50.0
        ordered = policy.order([first, second], DispatchStats())
        assert [job.spec.name for job in ordered] == ["first", "second"]

    def test_edf_alias_resolves_to_deadline(self):
        assert isinstance(create_policy("edf"), DeadlinePolicy)

    def test_scheduler_dispatches_earliest_deadline_first(self):
        scheduler = JobScheduler(policy="deadline")
        scheduler.slots.register("node1", "dev0")
        relaxed = make_job("relaxed", timeout_s=9000.0)
        tight = make_job("tight", timeout_s=300.0)
        scheduler.submit(relaxed, now=0.0)
        scheduler.submit(tight, now=0.0)  # submitted later, but tighter deadline
        (assignment,) = scheduler.dispatch_batch(now=0.0)
        assert assignment.job is tight
        assert relaxed.status is JobStatus.QUEUED


class TestReservationAwareAdmission:
    def make_scheduler(self, mode="defer"):
        scheduler = JobScheduler(reservation_admission=mode)
        scheduler.slots.register("node1", "dev0")
        return scheduler

    def test_unknown_mode_rejected(self):
        with pytest.raises(SchedulingError, match="admission mode"):
            JobScheduler(reservation_admission="maybe")

    def test_long_job_deferred_from_slot_with_upcoming_reservation(self):
        scheduler = self.make_scheduler()
        scheduler.reserve_session("alice", "node1", "dev0", start_s=100.0, duration_s=600.0)
        job = make_job("long", owner="bob", timeout_s=3600.0)
        scheduler.submit(job, now=0.0)
        assert scheduler.dispatch_batch(now=0.0) == []
        assert job.status is JobStatus.QUEUED
        # Once the reservation has passed, the job dispatches normally.
        (assignment,) = scheduler.dispatch_batch(now=700.0)
        assert assignment.job is job

    def test_short_job_fits_before_the_reservation(self):
        scheduler = self.make_scheduler()
        scheduler.reserve_session("alice", "node1", "dev0", start_s=100.0, duration_s=600.0)
        job = make_job("short", owner="bob", timeout_s=50.0)
        scheduler.submit(job, now=0.0)
        (assignment,) = scheduler.dispatch_batch(now=0.0)
        assert assignment.job is job

    def test_holders_own_upcoming_reservation_does_not_block(self):
        scheduler = self.make_scheduler()
        scheduler.reserve_session("alice", "node1", "dev0", start_s=100.0, duration_s=600.0)
        job = make_job("own", owner="alice", timeout_s=3600.0)
        scheduler.submit(job, now=0.0)
        (assignment,) = scheduler.dispatch_batch(now=0.0)
        assert assignment.job is job

    def test_ignore_mode_keeps_seed_behaviour(self):
        scheduler = self.make_scheduler(mode="ignore")
        scheduler.reserve_session("alice", "node1", "dev0", start_s=100.0, duration_s=600.0)
        job = make_job("long", owner="bob", timeout_s=3600.0)
        scheduler.submit(job, now=0.0)
        (assignment,) = scheduler.dispatch_batch(now=0.0)
        assert assignment.job is job

    def test_eligible_recheck_honours_defer_mode(self):
        scheduler = self.make_scheduler()
        job = make_job("late", owner="bob", timeout_s=3600.0)
        scheduler.submit(job, now=0.0)
        (assignment,) = scheduler.dispatch_batch(now=0.0)
        # A reservation lands after assignment but before execution begins.
        scheduler.reserve_session("alice", "node1", "dev0", start_s=200.0, duration_s=600.0)
        assert not scheduler.eligible(job, "node1", "dev0", now=150.0)
        assert scheduler.eligible(job, "node1", "dev0", now=900.0)

    def test_next_blocking_start_skips_owner_reservations(self):
        scheduler = self.make_scheduler()
        scheduler.reserve_session("alice", "node1", "dev0", start_s=100.0, duration_s=50.0)
        scheduler.reserve_session("bob", "node1", "dev0", start_s=300.0, duration_s=50.0)
        reservations = scheduler.reservations
        assert reservations.next_blocking_start("node1", "dev0", 0.0, "alice") == 300.0
        assert reservations.next_blocking_start("node1", "dev0", 0.0, "bob") == 100.0
        assert reservations.next_blocking_start("node1", "dev0", 400.0, "carol") is None

    def test_earliest_relevant_end_sees_upcoming_reservations(self):
        scheduler = self.make_scheduler()
        scheduler.reserve_session("alice", "node1", "dev0", start_s=500.0, duration_s=100.0)
        reservations = scheduler.reservations
        assert reservations.earliest_active_end(0.0) is None
        assert reservations.earliest_relevant_end(0.0) == 600.0
        assert reservations.earliest_relevant_end(700.0) is None


class TestAdmissionOnThePlatform:
    def test_auto_dispatch_wakes_after_upcoming_reservation_in_defer_mode(self):
        from repro.core.platform import build_default_platform

        platform = build_default_platform(
            seed=6, browsers=("chrome",), reservation_admission="defer"
        )
        server = platform.access_server
        server.reserve_session(
            platform.admin, "node1", "node1-dev00", start_s=50.0, duration_s=200.0
        )
        server.enable_auto_dispatch()  # no poll interval
        blocked = server.submit_job(
            platform.experimenter,
            JobSpec(name="deferred", owner="experimenter", run=lambda ctx: "ok",
                    timeout_s=3600.0),
        )
        platform.run_for(40.0)
        # Not started: the reservation at t=50 begins inside the job's timeout.
        assert blocked.status is JobStatus.QUEUED
        platform.run_for(250.0)  # crosses the reservation end at t=250
        assert blocked.status is JobStatus.COMPLETED
