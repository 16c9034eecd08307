"""Tests for jobs, workspaces, the scheduler and timed sessions."""

import pytest

from repro.accessserver.jobs import Job, JobConstraints, JobError, JobSpec, JobStatus, Workspace
from repro.accessserver import scheduler as scheduler_module
from repro.accessserver.scheduler import JobScheduler, SchedulingError
from repro.simulation.events import EventBus


def make_job(name="test-job", owner="experimenter", **constraint_kwargs) -> Job:
    return Job(
        spec=JobSpec(
            name=name,
            owner=owner,
            run=lambda ctx: "ok",
            constraints=JobConstraints(**constraint_kwargs),
        )
    )


def dispatch_one(scheduler, now, **kwargs):
    """The assignment a one-job tick makes (the first placeable job), or None."""
    batch = scheduler.dispatch_batch(now, max_assignments=1, **kwargs)
    return batch[0] if batch else None


class TestJobLifecycle:
    def test_state_transitions(self):
        job = make_job()
        job.mark_running(now=1.0, vantage_point="node1", device="dev0")
        assert job.status is JobStatus.RUNNING
        job.mark_completed(now=5.0, result={"x": 1})
        assert job.status is JobStatus.COMPLETED
        assert job.duration_s == 4.0
        assert job.result == {"x": 1}

    def test_failure_path(self):
        job = make_job()
        job.mark_running(1.0, "node1", "dev0")
        job.mark_failed(2.0, "boom")
        assert job.status is JobStatus.FAILED
        assert job.error == "boom"

    def test_invalid_transitions_rejected(self):
        job = make_job()
        with pytest.raises(JobError):
            job.mark_completed(1.0, None)
        job.mark_running(1.0, "node1", "dev0")
        with pytest.raises(JobError):
            job.mark_running(2.0, "node1", "dev0")
        job.mark_completed(3.0, None)
        with pytest.raises(JobError):
            job.mark_cancelled()

    def test_cancel_queued_job(self):
        job = make_job()
        job.mark_cancelled()
        assert job.status is JobStatus.CANCELLED

    def test_job_ids_unique(self):
        assert make_job().job_id != make_job().job_id

    def test_logging(self):
        job = make_job()
        job.log("hello")
        assert job.log_lines == ["hello"]


class TestWorkspace:
    def test_store_and_fetch(self):
        workspace = Workspace()
        workspace.store("trace", [1, 2, 3])
        assert workspace.fetch("trace") == [1, 2, 3]
        assert workspace.names() == ["trace"]

    def test_missing_artifact(self):
        with pytest.raises(JobError):
            Workspace().fetch("missing")

    def test_empty_name_rejected(self):
        with pytest.raises(JobError):
            Workspace().store("", 1)

    def test_retention(self):
        workspace = Workspace(created_at=0.0, retention_days=7.0)
        assert not workspace.expired(now=6 * 24 * 3600.0)
        assert workspace.expired(now=8 * 24 * 3600.0)


class TestScheduler:
    @pytest.fixture
    def scheduler(self) -> JobScheduler:
        scheduler = JobScheduler()
        scheduler.slots.register("node1", "dev0")
        scheduler.slots.register("node2", "dev0")
        return scheduler

    def test_submit_and_dispatch(self, scheduler):
        job = scheduler.submit(make_job(), now=0.0)
        assignment = dispatch_one(scheduler, now=0.0)
        assert assignment.job is job and job.status is JobStatus.RUNNING
        assert scheduler.slots.is_busy(assignment.vantage_point, assignment.device_serial)
        assert scheduler.queue_length() == 0

    def test_one_job_at_a_time_per_device(self, scheduler):
        first = scheduler.submit(make_job("first", vantage_point="node1"), now=0.0)
        second = scheduler.submit(make_job("second", vantage_point="node1"), now=0.0)
        assert dispatch_one(scheduler, now=0.0).job is first
        assert dispatch_one(scheduler, now=0.0) is None
        with pytest.raises(SchedulingError):
            scheduler.assign(second, "node1", "dev0", now=0.0)
        first.mark_completed(1.0, None)
        scheduler.release(first)
        assert dispatch_one(scheduler, now=1.0).job is second

    def test_device_constraint(self, scheduler):
        scheduler.slots.register("node1", "dev1")
        job = scheduler.submit(make_job(device_serial="dev1"), now=0.0)
        assert dispatch_one(scheduler, now=0.0).device_serial == "dev1"

    def test_vantage_point_constraint(self, scheduler):
        job = scheduler.submit(make_job(vantage_point="node2"), now=0.0)
        assert dispatch_one(scheduler, now=0.0).vantage_point == "node2"

    def test_unsatisfiable_constraint_waits(self, scheduler):
        scheduler.submit(make_job(vantage_point="node-missing"), now=0.0)
        assert dispatch_one(scheduler, now=0.0) is None

    def test_low_cpu_constraint(self, scheduler):
        scheduler.submit(
            make_job(require_low_controller_cpu=True, max_controller_cpu_percent=50.0), now=0.0
        )
        assert dispatch_one(scheduler, now=0.0, controller_cpu=lambda vp: 80.0) is None
        assert dispatch_one(scheduler, now=0.0, controller_cpu=lambda vp: 20.0) is not None

    def test_cancel_removes_from_queue(self, scheduler):
        job = scheduler.submit(make_job(), now=0.0)
        scheduler.cancel(job.job_id)
        assert dispatch_one(scheduler, now=0.0) is None
        assert scheduler.job(job.job_id).status is JobStatus.CANCELLED

    def test_a_second_cancel_changes_nothing(self, record_bus):
        bus = EventBus()
        recorded = record_bus(bus)
        scheduler = JobScheduler(event_bus=bus)
        change = make_job("pipeline")
        change.status = JobStatus.PENDING_APPROVAL
        scheduler.submit(change, now=0.0)
        assert scheduler.awaiting_approval == {change.job_id: change}
        assert scheduler.cancel(change.job_id) is change
        assert scheduler.cancel(change.job_id) is change
        assert scheduler.awaiting_approval == {}
        assert len(recorded("dispatch.cancelled")) == 1

    def test_unknown_job_and_slot(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.job(9999)
        with pytest.raises(SchedulingError):
            scheduler.assign(make_job(), "nodeX", "devX", now=0.0)

    def test_jobs_filter_by_status(self, scheduler):
        job = scheduler.submit(make_job(), now=0.0)
        assert job in scheduler.jobs(JobStatus.QUEUED)
        assert scheduler.jobs(JobStatus.RUNNING) == []

    def test_jobs_read_in_id_order_however_they_arrived(self, scheduler, monkeypatch):
        first, second, third, fourth = (make_job(name=f"job-{i}") for i in range(4))
        scheduler.submit(second, now=0.0)
        scheduler.submit(fourth, now=0.0)
        scheduler.restore_job(first, queued=True)  # below the last id: recovery, re-homing
        third.status = JobStatus.PENDING_APPROVAL
        scheduler.submit(third, now=0.0)
        assert scheduler.awaiting_approval == {third.job_id: third}
        scheduler.enqueue_approved(third)
        assert scheduler.jobs() == [first, second, third, fourth]
        assert scheduler.jobs(JobStatus.QUEUED) == [first, second, third, fourth]

        # The table was re-ordered once; reads no longer sort it.
        monkeypatch.setattr(scheduler_module, "sorted", None, raising=False)
        assert scheduler.jobs() == [first, second, third, fourth]
        newest = scheduler.submit(make_job(), now=1.0)
        scheduler.restore_job(second, queued=False)  # a known id keeps its place
        assert scheduler.jobs() == [first, second, third, fourth, newest]
        assert scheduler.jobs() is not scheduler.jobs()  # a fresh list each read


class TestReservations:
    @pytest.fixture
    def scheduler(self) -> JobScheduler:
        scheduler = JobScheduler()
        scheduler.slots.register("node1", "dev0")
        return scheduler

    def test_reserve_and_list(self, scheduler):
        reservation = scheduler.reserve_session("alice", "node1", "dev0", start_s=0.0, duration_s=600.0)
        assert reservation.end_s == 600.0
        assert scheduler.reservations.active_at(100.0) == [reservation]
        assert scheduler.reservations.active_at(700.0) == []

    def test_overlapping_reservation_rejected(self, scheduler):
        scheduler.reserve_session("alice", "node1", "dev0", start_s=0.0, duration_s=600.0)
        with pytest.raises(SchedulingError):
            scheduler.reserve_session("bob", "node1", "dev0", start_s=300.0, duration_s=600.0)
        # A different device is fine.
        scheduler.slots.register("node1", "dev1")
        scheduler.reserve_session("bob", "node1", "dev1", start_s=300.0, duration_s=600.0)

    def test_back_to_back_reservations_allowed(self, scheduler):
        scheduler.reserve_session("alice", "node1", "dev0", start_s=0.0, duration_s=600.0)
        scheduler.reserve_session("bob", "node1", "dev0", start_s=600.0, duration_s=600.0)

    def test_invalid_duration(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.reserve_session("alice", "node1", "dev0", start_s=0.0, duration_s=0.0)

    def test_reservation_blocks_other_users_jobs(self, scheduler):
        scheduler.reserve_session("alice", "node1", "dev0", start_s=0.0, duration_s=600.0)
        scheduler.submit(make_job(owner="bob"), now=0.0)
        assert dispatch_one(scheduler, now=100.0) is None
        # The reservation holder's own jobs may still run.
        scheduler.submit(make_job("alice-job", owner="alice"), now=0.0)
        assert dispatch_one(scheduler, now=100.0).job.spec.owner == "alice"

    def test_cancel_reservation(self, scheduler):
        reservation = scheduler.reserve_session("alice", "node1", "dev0", start_s=0.0, duration_s=600.0)
        scheduler.cancel_reservation(reservation.reservation_id)
        assert scheduler.reservations.all() == []
