"""Tests for the indexed batch dispatch pipeline and its scheduling policies."""

import pytest

from repro.accessserver.dispatch import (
    ConstraintQueue,
    DeviceSlotIndex,
    ReservationIndex,
    SchedulingError,
    SessionReservation,
)
from repro.accessserver.jobs import Job, JobConstraints, JobSpec, JobStatus
from repro.accessserver.persistence import InMemoryBackend
from repro.accessserver.policies import (
    DispatchStats,
    FairSharePolicy,
    FifoPolicy,
    PolicyError,
    PriorityPolicy,
    create_policy,
    policy_names,
)
from repro.accessserver.scheduler import JobScheduler
from repro.chaos import check_device_hold_conservation
from repro.core.platform import build_default_platform
from repro.obs import SPAN_TOPIC
from repro.simulation.events import EventBus


def make_job(name="job", owner="experimenter", priority=0.0, **constraint_kwargs) -> Job:
    return Job(
        spec=JobSpec(
            name=name,
            owner=owner,
            run=lambda ctx: "ok",
            priority=priority,
            constraints=JobConstraints(**constraint_kwargs),
        )
    )


def reference_fifo_assignments(scheduler, now, controller_cpu=None):
    """The seed's dispatch loop: a linear scan for the first placeable job,
    assign it, rescan from the head.

    Re-implemented against the scheduler's indexes as the behavioural
    oracle for ``dispatch_batch`` with the FIFO policy.
    """
    assignments = []
    while True:
        candidate = None
        for job in scheduler.jobs(JobStatus.QUEUED):
            constraints = job.spec.constraints
            slots = []
            for key in scheduler.slots.keys():
                vantage_point, device_serial = key.split("/", 1)
                if constraints.vantage_point and vantage_point != constraints.vantage_point:
                    continue
                if constraints.device_serial and device_serial != constraints.device_serial:
                    continue
                if scheduler.slots.is_busy(vantage_point, device_serial):
                    continue
                slots.append((vantage_point, device_serial))
            for vantage_point, device_serial in sorted(slots):
                reserved = any(
                    r.vantage_point == vantage_point
                    and r.device_serial == device_serial
                    and r.active_at(now)
                    and r.username != job.spec.owner
                    for r in scheduler.reservations.all()
                )
                if reserved:
                    continue
                if constraints.require_low_controller_cpu and controller_cpu is not None:
                    if controller_cpu(vantage_point) > constraints.max_controller_cpu_percent:
                        continue
                candidate = (job, vantage_point, device_serial)
                break
            if candidate:
                break
        if candidate is None:
            return assignments
        job, vantage_point, device_serial = candidate
        scheduler.assign(job, vantage_point, device_serial, now)
        assignments.append((job.spec.name, vantage_point, device_serial))


class TestPolicies:
    def test_registry(self):
        assert policy_names() == ["credit", "deadline", "edf", "fair-share", "fifo", "priority"]
        assert create_policy("fifo").name == "fifo"
        assert create_policy("fair_share").name == "fair-share"
        assert create_policy("PRIORITY").name == "priority"
        assert create_policy("deadline").name == "deadline"
        assert create_policy("edf").name == "deadline"  # alias for the same ordering
        policy = FifoPolicy()
        assert create_policy(policy) is policy
        with pytest.raises(PolicyError):
            create_policy("round-robin")

    def test_fifo_keeps_submission_order(self):
        jobs = [make_job(name=f"j{i}") for i in range(4)]
        assert FifoPolicy().order(jobs, DispatchStats()) == jobs

    def test_priority_orders_high_first_stable(self):
        low1 = make_job(name="low1", priority=0)
        high = make_job(name="high", priority=10)
        low2 = make_job(name="low2", priority=0)
        mid = make_job(name="mid", priority=5)
        ordered = PriorityPolicy().order([low1, high, low2, mid], DispatchStats())
        assert [job.spec.name for job in ordered] == ["high", "mid", "low1", "low2"]

    def test_fair_share_interleaves_owners(self):
        jobs = [make_job(name=f"a{i}", owner="alice") for i in range(3)]
        jobs += [make_job(name=f"b{i}", owner="bob") for i in range(2)]
        ordered = FairSharePolicy().order(jobs, DispatchStats())
        assert [job.spec.name for job in ordered] == ["a0", "b0", "a1", "b1", "a2"]

    def test_fair_share_penalises_owner_with_running_jobs(self):
        jobs = [make_job(name="a0", owner="alice"), make_job(name="b0", owner="bob")]
        stats = DispatchStats(running_by_owner={"alice": 2})
        ordered = FairSharePolicy().order(jobs, stats)
        assert [job.spec.name for job in ordered] == ["b0", "a0"]

    def test_policies_return_permutations(self):
        jobs = [make_job(name=f"j{i}", owner=f"o{i % 3}", priority=i % 2) for i in range(7)]
        for name in policy_names():
            ordered = create_policy(name).order(jobs, DispatchStats())
            assert sorted(j.job_id for j in ordered) == sorted(j.job_id for j in jobs)


class TestDeviceSlotIndex:
    def test_register_and_sorted_iteration(self):
        index = DeviceSlotIndex()
        for vp, serial in [("node2", "dev1"), ("node1", "dev1"), ("node1", "dev0")]:
            index.register(vp, serial)
        free = [(s.vantage_point, s.device_serial) for s in index.iter_free()]
        assert free == [("node1", "dev0"), ("node1", "dev1"), ("node2", "dev1")]
        assert index.free_count == 3

    def test_busy_slots_leave_the_free_index(self):
        index = DeviceSlotIndex()
        index.register("node1", "dev0")
        index.register("node1", "dev1")
        index.mark_busy("node1", "dev0", job_id=1)
        assert [s.device_serial for s in index.iter_free("node1")] == ["dev1"]
        assert index.is_busy("node1", "dev0")
        index.mark_free("node1", "dev0")
        assert index.free_count == 2

    def test_double_busy_rejected(self):
        index = DeviceSlotIndex()
        index.register("node1", "dev0")
        index.mark_busy("node1", "dev0", job_id=1)
        with pytest.raises(SchedulingError):
            index.mark_busy("node1", "dev0", job_id=2)

    def test_constrained_iteration(self):
        index = DeviceSlotIndex()
        index.register("node1", "dev0")
        index.register("node2", "dev0")
        only = [(s.vantage_point, s.device_serial) for s in index.iter_free(device_serial="dev0")]
        assert only == [("node1", "dev0"), ("node2", "dev0")]
        assert list(index.iter_free("ghost")) == []


class TestReservationIndex:
    def make(self, rid, start, duration, username="alice", serial="dev0"):
        return SessionReservation(
            reservation_id=rid,
            username=username,
            vantage_point="node1",
            device_serial=serial,
            start_s=start,
            duration_s=duration,
        )

    def test_bisect_lookup_finds_active_interval(self):
        index = ReservationIndex()
        for rid, start in enumerate([600.0, 0.0, 1800.0], start=1):
            index.add(self.make(rid, start, 600.0))
        assert index.active("node1", "dev0", 100.0).start_s == 0.0
        assert index.active("node1", "dev0", 700.0).start_s == 600.0
        assert index.active("node1", "dev0", 1500.0) is None
        assert index.active("node1", "dev0", 1800.0).start_s == 1800.0
        assert index.active("node1", "ghost", 100.0) is None

    def test_overlap_rejected_back_to_back_allowed(self):
        index = ReservationIndex()
        index.add(self.make(1, 0.0, 600.0))
        with pytest.raises(SchedulingError):
            index.add(self.make(2, 300.0, 600.0))
        index.add(self.make(3, 600.0, 600.0))
        # A different device is independent.
        index.add(self.make(4, 300.0, 600.0, serial="dev1"))

    def test_blocked_for_respects_owner(self):
        index = ReservationIndex()
        index.add(self.make(1, 0.0, 600.0, username="alice"))
        assert index.blocked_for("node1", "dev0", 100.0, owner="bob")
        assert not index.blocked_for("node1", "dev0", 100.0, owner="alice")
        assert not index.blocked_for("node1", "dev0", 700.0, owner="bob")

    def test_index_rejects_non_positive_durations(self):
        # The neighbour-only overlap check relies on strictly positive
        # intervals, so the index enforces it even when used directly.
        index = ReservationIndex()
        with pytest.raises(SchedulingError):
            index.add(self.make(1, 10.0, 0.0))
        with pytest.raises(SchedulingError):
            index.add(self.make(2, 10.0, -5.0))
        assert len(index) == 0

    def test_remove(self):
        index = ReservationIndex()
        index.add(self.make(1, 0.0, 600.0))
        assert index.remove(1)
        assert not index.remove(1)
        assert index.active("node1", "dev0", 100.0) is None
        index.add(self.make(2, 100.0, 100.0))
        assert len(index) == 1


class TestConstraintQueue:
    def test_fifo_order_and_buckets(self):
        queue = ConstraintQueue()
        free = make_job(name="free")
        pinned = make_job(name="pinned", vantage_point="node1", device_serial="dev0")
        vp_only = make_job(name="vp", vantage_point="node1")
        for job in (free, pinned, vp_only):
            queue.push(job)
        assert [j.spec.name for j in queue.jobs()] == ["free", "pinned", "vp"]
        assert queue.bucket_sizes() == {
            (None, None): 1,
            ("node1", "dev0"): 1,
            ("node1", None): 1,
        }
        assert queue.remove(pinned)
        assert not queue.remove(pinned)
        assert len(queue) == 2 and free in queue and pinned not in queue


class TestBatchDispatch:
    @pytest.fixture
    def scheduler(self) -> JobScheduler:
        scheduler = JobScheduler()
        for vp in ("node1", "node2"):
            for serial in ("dev0", "dev1"):
                scheduler.slots.register(vp, serial)
        return scheduler

    def test_batch_fills_all_free_devices(self, scheduler):
        jobs = [scheduler.submit(make_job(name=f"j{i}"), now=0.0) for i in range(6)]
        assignments = scheduler.dispatch_batch(now=0.0)
        assert len(assignments) == 4  # one job per device, no more
        assert {(a.vantage_point, a.device_serial) for a in assignments} == {
            ("node1", "dev0"),
            ("node1", "dev1"),
            ("node2", "dev0"),
            ("node2", "dev1"),
        }
        assert all(a.job.status is JobStatus.RUNNING for a in assignments)
        assert scheduler.queue_length() == 2
        assert scheduler.assignments_made == 4
        assert scheduler.batches_dispatched == 1
        # Until something is released, another tick assigns nothing.
        assert scheduler.dispatch_batch(now=0.0) == []
        jobs[0].mark_completed(1.0, None)
        scheduler.release(jobs[0])
        follow_up = scheduler.dispatch_batch(now=1.0)
        assert [a.job.spec.name for a in follow_up] == ["j4"]

    def test_batch_respects_max_assignments(self, scheduler):
        for i in range(6):
            scheduler.submit(make_job(name=f"j{i}"), now=0.0)
        assert len(scheduler.dispatch_batch(now=0.0, max_assignments=2)) == 2

    def test_batch_matches_seed_loop_on_mixed_workload(self):
        def build():
            scheduler = JobScheduler()
            for vp in ("node1", "node2", "node3"):
                for serial in ("dev0", "dev1", "dev2"):
                    scheduler.slots.register(vp, serial)
            for i in range(25):
                kwargs = {}
                if i % 3 == 0:
                    kwargs["vantage_point"] = f"node{(i % 4) + 1}"  # node4 never satisfiable
                if i % 7 == 0:
                    kwargs["device_serial"] = f"dev{i % 3}"
                scheduler.submit(
                    make_job(name=f"j{i}", owner=f"owner{i % 3}", **kwargs), now=0.0
                )
            scheduler.reserve_session("owner0", "node1", "dev0", start_s=0.0, duration_s=600.0)
            scheduler.reserve_session("owner1", "node2", "dev2", start_s=0.0, duration_s=600.0)
            return scheduler

        expected = reference_fifo_assignments(build(), now=10.0)
        batch = build().dispatch_batch(now=10.0)
        assert [(a.job.spec.name, a.vantage_point, a.device_serial) for a in batch] == expected
        assert expected  # the workload must actually dispatch something

    def test_reservation_blocks_other_owners_but_not_holder(self, scheduler):
        scheduler.reserve_session("alice", "node1", "dev0", start_s=0.0, duration_s=600.0)
        bob = scheduler.submit(make_job(name="bob", owner="bob", vantage_point="node1", device_serial="dev0"), now=0.0)
        alice = scheduler.submit(make_job(name="alice", owner="alice", vantage_point="node1", device_serial="dev0"), now=0.0)
        assignments = scheduler.dispatch_batch(now=100.0)
        assert [a.job.spec.name for a in assignments] == ["alice"]
        assert bob.status is JobStatus.QUEUED
        # After the reservation expires the blocked job dispatches.
        alice.mark_completed(700.0, None)
        scheduler.release(alice)
        assert [a.job.spec.name for a in scheduler.dispatch_batch(now=700.0)] == ["bob"]

    def test_low_cpu_constraint_filters_slots(self, scheduler):
        scheduler.submit(
            make_job(name="picky", require_low_controller_cpu=True, max_controller_cpu_percent=50.0),
            now=0.0,
        )
        cpu = {"node1": 90.0, "node2": 10.0}
        assignments = scheduler.dispatch_batch(now=0.0, controller_cpu=lambda vp: cpu[vp])
        assert [(a.vantage_point) for a in assignments] == ["node2"]

    def test_dead_bucket_skip_does_not_starve_other_jobs(self, scheduler):
        # Fill node1 completely, then queue many node1-constrained jobs ahead
        # of an unconstrained one: the node1 bucket dies for the tick but the
        # unconstrained job must still dispatch to node2.
        blockers = [
            scheduler.submit(make_job(name=f"b{i}", vantage_point="node1"), now=0.0)
            for i in range(2)
        ]
        scheduler.dispatch_batch(now=0.0)
        assert all(job.status is JobStatus.RUNNING for job in blockers)
        for i in range(5):
            scheduler.submit(make_job(name=f"queued{i}", vantage_point="node1"), now=0.0)
        free = scheduler.submit(make_job(name="free"), now=0.0)
        assignments = scheduler.dispatch_batch(now=0.0)
        assert [a.job.spec.name for a in assignments] == ["free"]
        assert free.assigned_vantage_point == "node2"

    def test_priority_policy_dispatches_high_priority_first(self):
        scheduler = JobScheduler(policy="priority")
        scheduler.slots.register("node1", "dev0")
        scheduler.submit(make_job(name="low", priority=0), now=0.0)
        scheduler.submit(make_job(name="high", priority=9), now=0.0)
        assignments = scheduler.dispatch_batch(now=0.0)
        assert [a.job.spec.name for a in assignments] == ["high"]

    def test_fair_share_policy_spreads_devices_across_owners(self):
        scheduler = JobScheduler(policy="fair-share")
        for serial in ("dev0", "dev1"):
            scheduler.slots.register("node1", serial)
        for i in range(3):
            scheduler.submit(make_job(name=f"a{i}", owner="alice"), now=0.0)
        scheduler.submit(make_job(name="b0", owner="bob"), now=0.0)
        assignments = scheduler.dispatch_batch(now=0.0)
        assert sorted(a.job.spec.name for a in assignments) == ["a0", "b0"]

    def test_set_policy_by_name(self, scheduler):
        assert scheduler.policy.name == "fifo"
        scheduler.set_policy("fair-share")
        assert scheduler.policy.name == "fair-share"

    def test_one_assignment_takes_the_first_free_slot(self, scheduler):
        job = scheduler.submit(make_job(name="solo"), now=0.0)
        scheduler.submit(make_job(name="next"), now=0.0)
        (assignment,) = scheduler.dispatch_batch(now=0.0, max_assignments=1)
        assert assignment.job is job
        assert (assignment.vantage_point, assignment.device_serial) == ("node1", "dev0")


class TestCancelAndRelease:
    @pytest.fixture
    def scheduler(self) -> JobScheduler:
        scheduler = JobScheduler()
        scheduler.slots.register("node1", "dev0")
        return scheduler

    def test_cancel_running_job_releases_its_device(self, scheduler):
        job = scheduler.submit(make_job(name="runner"), now=0.0)
        scheduler.dispatch_batch(now=0.0)
        assert job.status is JobStatus.RUNNING
        assert scheduler.slots.is_busy("node1", "dev0")
        scheduler.cancel(job.job_id)
        assert job.status is JobStatus.CANCELLED
        assert not scheduler.slots.is_busy("node1", "dev0")
        # The freed device immediately serves the next job.
        follow_up = scheduler.submit(make_job(name="next"), now=1.0)
        assert [a.job for a in scheduler.dispatch_batch(now=1.0)] == [follow_up]

    def test_cancel_queued_job(self, scheduler):
        job = scheduler.submit(make_job(), now=0.0)
        scheduler.cancel(job.job_id)
        assert scheduler.queue_length() == 0
        assert scheduler.dispatch_batch(now=0.0) == []

    def test_release_uses_job_assignment_not_a_scan(self, scheduler):
        job = scheduler.submit(make_job(), now=0.0)
        scheduler.dispatch_batch(now=0.0)
        job.mark_completed(1.0, None)
        scheduler.release(job)
        assert not scheduler.slots.is_busy("node1", "dev0")
        # Releasing twice (or releasing a never-assigned job) is harmless.
        scheduler.release(job)
        scheduler.release(make_job())

    def test_requeue_restores_fifo_position(self):
        scheduler = JobScheduler()
        scheduler.slots.register("node1", "dev0")
        scheduler.slots.register("node1", "dev1")
        a = scheduler.submit(make_job(name="a"), now=0.0)
        b = scheduler.submit(make_job(name="b"), now=0.0)
        scheduler.dispatch_batch(now=0.0)  # a -> dev0, b -> dev1
        scheduler.requeue(b)
        late = scheduler.submit(make_job(name="late"), now=1.0)
        # The requeued job keeps its place ahead of the newer submission...
        assert [j.spec.name for j in scheduler.queue.jobs()] == ["b", "late"]
        # ...and dispatches first when only one device is free.
        assignments = scheduler.dispatch_batch(now=1.0)
        assert [x.job.spec.name for x in assignments] == ["b"]
        assert late.status is JobStatus.QUEUED

    @pytest.mark.parametrize(
        "exit_by, cancelled",
        [("release", False), ("release", True), ("requeue", False)],
        ids=["release", "release-after-cancel", "requeue"],
    )
    def test_every_exit_gives_back_the_whole_family(self, exit_by, cancelled, record_bus):
        """The hold table: extra slots recorded when execution begins leave
        with the primary one, whichever exit the execution takes."""
        bus = EventBus()
        recorded = record_bus(bus)
        scheduler = JobScheduler(event_bus=bus)
        for serial in ("dev0", "dev1", "dev2"):
            scheduler.slots.register("node1", serial)
        job = scheduler.submit(make_job(name="family"), now=0.0)
        scheduler.assign(job, "node1", "dev0", now=0.0)
        scheduler.begin_execution(job, (("node1", "dev1"), ("node1", "dev2")))
        assert scheduler.slots.free_count == 0
        if cancelled:
            scheduler.cancel(job.job_id)
            # Still executing: the cancel gives nothing back.
            assert scheduler.slots.free_count == 0 and scheduler.is_executing(job.job_id)
        free_when_announced = []
        bus.subscribe(
            "dispatch.released",
            lambda record: free_when_announced.append(scheduler.slots.free_count),
        )
        getattr(scheduler, exit_by)(job)
        assert scheduler.slots.free_count == 3
        assert not scheduler.is_executing(job.job_id)
        assert scheduler.running_by_owner() == {}
        # Announced once, for the primary slot, when the whole family is free.
        assert free_when_announced == [3]
        assert recorded("dispatch.released")[0].payload["device_serial"] == "dev0"
        assert (job in scheduler.queue) == (exit_by == "requeue")
        # Every freed slot serves new work.
        for index in range(3):
            scheduler.submit(make_job(name=f"next{index}"), now=1.0)
        assert len(scheduler.dispatch_batch(now=1.0)) == 3

    def test_fair_share_running_counts_follow_lifecycle(self, scheduler):
        job = scheduler.submit(make_job(owner="alice"), now=0.0)
        scheduler.dispatch_batch(now=0.0)
        assert scheduler.running_by_owner() == {"alice": 1}
        job.mark_completed(1.0, None)
        scheduler.release(job)
        assert scheduler.running_by_owner() == {}


class TestDispatchEvents:
    def test_scheduler_publishes_structured_records(self, record_bus):
        bus = EventBus()
        recorded = record_bus(bus)
        scheduler = JobScheduler(policy="fifo", event_bus=bus)
        scheduler.slots.register("node1", "dev0")
        job = scheduler.submit(make_job(name="observed"), now=0.0)
        scheduler.dispatch_batch(now=0.0)
        assigned = recorded("dispatch.assigned")
        assert len(assigned) == 1
        assert assigned[0].payload["job"] == "observed"
        assert assigned[0].payload["vantage_point"] == "node1"
        assert assigned[0].payload["policy"] == "fifo"
        batches = recorded("dispatch.batch")
        assert batches[-1].payload["assigned"] == 1
        job.mark_completed(1.0, None)
        scheduler.release(job)
        assert recorded("dispatch.released")[0].payload["job_id"] == job.job_id

    def test_subscription_callbacks_fire(self):
        bus = EventBus()
        seen = []
        bus.subscribe("dispatch.assigned", lambda record: seen.append(record.payload["job"]))
        scheduler = JobScheduler(event_bus=bus)
        scheduler.slots.register("node1", "dev0")
        scheduler.submit(make_job(name="first"), now=0.0)
        scheduler.dispatch_batch(now=0.0)
        assert seen == ["first"]


class TestServerIntegration:
    def test_server_publishes_dispatch_events(self, platform, record_bus):
        server = platform.access_server
        recorded = record_bus(server.events)
        job = server.submit_job(
            platform.experimenter,
            JobSpec(name="observed", owner="experimenter", run=lambda ctx: "ok"),
        )
        server.run_pending_jobs()
        assert job.status is JobStatus.COMPLETED
        assigned = recorded("dispatch.assigned")
        assert [record.payload["job_id"] for record in assigned] == [job.job_id]
        assert recorded("dispatch.released")

    def test_auto_dispatch_runs_jobs_without_polling(self, platform):
        server = platform.access_server
        server.enable_auto_dispatch()
        assert server.status()["auto_dispatch"] is True
        job = server.submit_job(
            platform.experimenter,
            JobSpec(name="auto", owner="experimenter", run=lambda ctx: "done"),
        )
        assert job.status is JobStatus.QUEUED
        platform.run_for(0.1)  # the submission scheduled a dispatch tick at `now`
        assert job.status is JobStatus.COMPLETED
        assert job.result == "done"

    def test_auto_dispatch_handles_time_advancing_jobs(self, platform):
        server = platform.access_server
        server.enable_auto_dispatch()

        def measure(ctx):
            ctx.api.power_monitor()
            ctx.api.set_voltage(3.85)
            trace = ctx.api.measure(ctx.api.list_devices()[0], duration=5.0)
            return trace.median_current_ma()

        job = server.submit_job(
            platform.experimenter, JobSpec(name="measure", owner="experimenter", run=measure)
        )
        platform.run_for(10.0)
        assert job.status is JobStatus.COMPLETED
        assert job.result > 0

    def test_auto_dispatch_poll_interval_retries_blocked_jobs(self, platform):
        server = platform.access_server
        server.reserve_session(
            platform.experimenter, "node1", "node1-dev00", start_s=0.0, duration_s=60.0
        )
        server.enable_auto_dispatch(poll_interval_s=10.0)
        blocked = server.submit_job(
            platform.admin, JobSpec(name="blocked", owner="admin", run=lambda ctx: "ok")
        )
        platform.run_for(5.0)
        assert blocked.status is JobStatus.QUEUED  # reservation held by experimenter
        platform.run_for(120.0)  # reservation expires; a poll tick picks the job up
        assert blocked.status is JobStatus.COMPLETED

    def test_disable_auto_dispatch(self, platform):
        server = platform.access_server
        server.enable_auto_dispatch()
        server.disable_auto_dispatch()
        job = server.submit_job(
            platform.experimenter,
            JobSpec(name="manual", owner="experimenter", run=lambda ctx: "ok"),
        )
        platform.run_for(1.0)
        assert job.status is JobStatus.QUEUED

    def test_policy_selectable_at_every_layer(self):
        from repro.accessserver.server import AccessServer
        from repro.cli import build_parser
        from repro.core.platform import build_default_platform
        from repro.simulation.entity import SimulationContext

        # JobSpec carries the per-job priority input.
        assert JobSpec(name="j", owner="o", run=lambda ctx: None, priority=3.0).priority == 3.0
        # AccessServer constructor.
        server = AccessServer(SimulationContext(seed=1), scheduling_policy="priority")
        assert server.scheduling_policy.name == "priority"
        server.set_scheduling_policy("fair-share")
        assert server.status()["scheduling_policy"] == "fair-share"
        # BatteryLabPlatform / build_default_platform.
        platform = build_default_platform(
            seed=2, browsers=("chrome",), scheduling_policy="fair-share"
        )
        assert platform.access_server.scheduling_policy.name == "fair-share"
        platform.set_scheduling_policy("fifo")
        assert platform.access_server.scheduling_policy.name == "fifo"
        # CLI flag.
        args = build_parser().parse_args(["--scheduling-policy", "priority", "quickstart"])
        assert args.scheduling_policy == "priority"

    def test_priority_wins_when_devices_are_scarce(self, platform):
        server = platform.access_server
        server.set_scheduling_policy("priority")
        order = []

        def tracked(name):
            def run(ctx):
                order.append(name)
                return name

            return run

        for name, priority in [("low", 0.0), ("urgent", 9.0), ("mid", 5.0)]:
            server.submit_job(
                platform.experimenter,
                JobSpec(name=name, owner="experimenter", run=tracked(name), priority=priority),
            )
        server.run_pending_jobs()
        assert order == ["urgent", "mid", "low"]

    def test_wave_execution_bills_execution_time_not_wave_wait(self):
        # Two devices, two measuring jobs assigned in one wave: the second
        # job's duration must cover its own execution only, not the time the
        # first job spent advancing the simulated clock.
        platform = build_default_platform(seed=3, browsers=("chrome",), device_count=2)
        server = platform.access_server

        def measure(ctx):
            ctx.api.power_monitor()
            ctx.api.set_voltage(3.85)
            ctx.api.measure(ctx.device_serial, duration=60.0)
            ctx.api.power_monitor()
            return ctx.device_serial

        jobs = [
            server.submit_job(
                platform.experimenter,
                JobSpec(name=f"wave-{i}", owner="experimenter", run=measure),
            )
            for i in range(2)
        ]
        server.run_pending_jobs()
        assert all(job.status is JobStatus.COMPLETED for job in jobs)
        assert jobs[0].duration_s == pytest.approx(60.0, abs=1.0)
        assert jobs[1].duration_s == pytest.approx(60.0, abs=1.0)

    def test_job_cancelled_mid_wave_is_not_executed(self):
        platform = build_default_platform(seed=4, browsers=("chrome",), device_count=2)
        server = platform.access_server
        ran = []
        victim_id = {}

        def canceller(ctx):
            server.scheduler.cancel(victim_id["id"])
            ran.append("canceller")
            return "ok"

        first = server.submit_job(
            platform.experimenter, JobSpec(name="canceller", owner="experimenter", run=canceller)
        )
        victim = server.submit_job(
            platform.experimenter,
            JobSpec(name="victim", owner="experimenter", run=lambda ctx: ran.append("victim")),
        )
        victim_id["id"] = victim.job_id
        executed = server.run_pending_jobs()
        assert first.status is JobStatus.COMPLETED
        assert victim.status is JobStatus.CANCELLED
        assert ran == ["canceller"]
        assert executed == [first]
        assert not server.scheduler.slots.is_busy("node1", "node1-dev01")

    def test_auto_dispatch_continues_past_per_tick_cap(self, platform):
        server = platform.access_server
        server.enable_auto_dispatch()  # no poll interval
        jobs = [
            server.submit_job(
                platform.experimenter,
                JobSpec(name=f"capped{i}", owner="experimenter", run=lambda ctx: "ok"),
            )
            for i in range(250)
        ]
        platform.run_for(1.0)
        assert all(job.status is JobStatus.COMPLETED for job in jobs)

    def test_wave_revalidates_reservations_at_execution_time(self, record_bus):
        # Both jobs are assigned at t=0 when dev01 is unreserved; job1's
        # payload advances the clock into admin's reservation window, so
        # job2 must be requeued instead of running on the reserved device.
        platform = build_default_platform(seed=6, browsers=("chrome",), device_count=2)
        server = platform.access_server
        recorded = record_bus(server.events)
        server.reserve_session(
            platform.admin, "node1", "node1-dev01", start_s=50.0, duration_s=200.0
        )

        def slow(ctx):
            ctx.api.power_monitor()
            ctx.api.set_voltage(3.85)
            ctx.api.measure(ctx.device_serial, duration=100.0)
            ctx.api.power_monitor()
            return "done"

        first = server.submit_job(
            platform.experimenter, JobSpec(name="slow", owner="experimenter", run=slow)
        )
        second = server.submit_job(
            platform.experimenter,
            JobSpec(
                name="blocked",
                owner="experimenter",
                run=lambda ctx: "ran",
                constraints=JobConstraints(device_serial="node1-dev01"),
            ),
        )
        executed = server.run_pending_jobs()
        assert first.status is JobStatus.COMPLETED
        assert second.status is JobStatus.QUEUED  # requeued, not run under the reservation
        assert executed == [first]
        assert not server.scheduler.slots.is_busy("node1", "node1-dev01")
        assert recorded("dispatch.requeued")
        # Once the reservation lapses the job runs normally.
        platform.run_for(300.0)
        server.run_pending_jobs()
        assert second.status is JobStatus.COMPLETED

    def test_submission_tick_preempts_distant_poll(self, platform):
        server = platform.access_server
        server.reserve_session(
            platform.experimenter, "node1", "node1-dev00", start_s=0.0, duration_s=30.0
        )
        server.enable_auto_dispatch(poll_interval_s=600.0)
        blocked = server.submit_job(
            platform.admin, JobSpec(name="blocked", owner="admin", run=lambda ctx: "ok")
        )
        platform.run_for(1.0)  # tick ran; a poll retry now sits ~600 s out
        assert blocked.status is JobStatus.QUEUED
        runnable = server.submit_job(
            platform.experimenter,
            JobSpec(name="runnable", owner="experimenter", run=lambda ctx: "ok"),
        )
        platform.run_for(1.0)  # the new submission must not wait for the poll
        assert runnable.status is JobStatus.COMPLETED

    def test_cancel_during_payload_keeps_device_until_payload_ends(self, platform):
        # A payload that cancels its own job mid-execution: the device must
        # stay busy while the payload runs (no second job sneaks on), the
        # run must not crash, and the slot frees once the payload returns.
        server = platform.access_server
        server.enable_auto_dispatch()
        observed = {}
        job_box = {}

        def self_cancelling(ctx):
            server.scheduler.cancel(job_box["job"].job_id)
            observed["busy_during_payload"] = server.scheduler.slots.is_busy(
                "node1", "node1-dev00"
            )
            ctx.api.power_monitor()  # keep doing work after the cancel
            return "finished anyway"

        job_box["job"] = server.submit_job(
            platform.experimenter,
            JobSpec(name="self-cancel", owner="experimenter", run=self_cancelling),
        )
        rival = server.submit_job(
            platform.experimenter,
            JobSpec(name="rival", owner="experimenter", run=lambda ctx: "ok"),
        )
        platform.run_for(1.0)
        assert observed["busy_during_payload"] is True
        assert job_box["job"].status is JobStatus.CANCELLED
        assert job_box["job"].result is None  # cancelled jobs record no result
        assert rival.status is JobStatus.COMPLETED
        assert not server.scheduler.slots.is_busy("node1", "node1-dev00")

    @pytest.mark.parametrize("cancelled", [False, True], ids=["running", "cancelled"])
    def test_push_settle_gives_the_hold_back_bills_and_journals(self, platform, cancelled):
        """Push settle's column of the exit matrix (agent report and lease
        expiry are in ``test_agent_pull.py``)."""
        server = platform.access_server
        backend = InMemoryBackend()
        server.enable_persistence(backend)
        ledger = server.accounts.enable_credit_system(initial_grant_device_hours=10.0)
        seen = {}

        def hold_for_an_hour(ctx):
            if cancelled:
                server.scheduler.cancel(held.job_id)
            platform.context.clock.advance(3600.0)  # one device-hour
            seen["mid_payload"] = check_device_hold_conservation(server)
            seen["busy"] = server.scheduler.slots.is_busy("node1", ctx.device_serial)

        held = server.submit_job(
            platform.experimenter,
            JobSpec(name="held", owner="experimenter", run=hold_for_an_hour, timeout_s=7200.0),
        )
        journaled = len(backend.read_journal())
        assert server.run_pending_jobs() == [held]
        # In flight, cancelled or not, the payload keeps its device.
        assert seen["busy"] and seen["mid_payload"].ok, seen["mid_payload"].details
        after = check_device_hold_conservation(server, drained=True)
        assert after.ok, after.details
        assert held.status is (JobStatus.CANCELLED if cancelled else JobStatus.COMPLETED)
        assert [r["kind"] for r in backend.read_journal()[journaled:]] == (
            ["job.assigned", "job.cancelled", "credit.txn"]
            if cancelled
            else ["job.assigned", "credit.txn", "job.finished"]
        )
        assert ledger.balance("experimenter") == pytest.approx(9.0)
        follow_up = server.submit_job(
            platform.experimenter,
            JobSpec(name="next", owner="experimenter", run=lambda ctx: "ok"),
        )
        assert server.run_pending_jobs() == [follow_up]
        assert follow_up.status is JobStatus.COMPLETED

    def test_auto_dispatch_wakes_at_reservation_end_without_poll(self, platform):
        server = platform.access_server
        server.reserve_session(
            platform.experimenter, "node1", "node1-dev00", start_s=0.0, duration_s=120.0
        )
        server.enable_auto_dispatch()  # note: no poll interval
        blocked = server.submit_job(
            platform.admin, JobSpec(name="blocked", owner="admin", run=lambda ctx: "ok")
        )
        platform.run_for(60.0)
        assert blocked.status is JobStatus.QUEUED
        platform.run_for(100.0)  # crosses the reservation's end at t=120
        assert blocked.status is JobStatus.COMPLETED

    def test_cancelled_mid_payload_job_still_consumes_credits(self, platform):
        # Self-cancelling right after dispatch must not evade usage charges:
        # the device was occupied for the payload's whole runtime.
        server = platform.access_server
        ledger = server.accounts.enable_credit_system(initial_grant_device_hours=10.0)
        box = {}

        def self_cancel_then_measure(ctx):
            server.scheduler.cancel(box["job"].job_id)
            ctx.api.power_monitor()
            ctx.api.set_voltage(3.85)
            ctx.api.controller.monitor.set_sample_rate(20.0)  # billing follows the hold
            ctx.api.measure(ctx.device_serial, duration=3600.0)  # one device-hour
            ctx.api.power_monitor()
            return "evaded?"

        box["job"] = server.submit_job(
            platform.experimenter,
            JobSpec(
                name="evader", owner="experimenter", run=self_cancel_then_measure, timeout_s=7200.0
            ),
        )
        server.run_pending_jobs()
        assert box["job"].status is JobStatus.CANCELLED
        assert ledger.balance("experimenter") == pytest.approx(9.0, abs=0.01)

    def test_reservation_end_wakeup_beats_a_long_poll(self, platform):
        server = platform.access_server
        server.reserve_session(
            platform.experimenter, "node1", "node1-dev00", start_s=0.0, duration_s=60.0
        )
        server.enable_auto_dispatch(poll_interval_s=3600.0)
        blocked = server.submit_job(
            platform.admin, JobSpec(name="blocked", owner="admin", run=lambda ctx: "ok")
        )
        platform.run_for(30.0)
        assert blocked.status is JobStatus.QUEUED
        platform.run_for(60.0)  # crosses the reservation end at t=60, well before the poll
        assert blocked.status is JobStatus.COMPLETED

    def test_cancelled_reservation_triggers_immediate_retry(self, platform):
        server = platform.access_server
        reservation = server.reserve_session(
            platform.experimenter, "node1", "node1-dev00", start_s=0.0, duration_s=1000.0
        )
        server.enable_auto_dispatch()  # no poll; wake-up was set for t=1000
        blocked = server.submit_job(
            platform.admin, JobSpec(name="blocked", owner="admin", run=lambda ctx: "ok")
        )
        platform.run_for(10.0)
        assert blocked.status is JobStatus.QUEUED
        server.scheduler.cancel_reservation(reservation.reservation_id)
        platform.run_for(10.0)  # well before the reservation's original end
        assert blocked.status is JobStatus.COMPLETED

    def test_sequence_map_stays_bounded(self):
        scheduler = JobScheduler()
        scheduler.slots.register("node1", "dev0")
        for index in range(20):
            job = scheduler.submit(make_job(name=f"churn{index}"), now=float(index))
            scheduler.dispatch_batch(now=float(index))
            if index % 4 == 0:
                scheduler.cancel(job.job_id)
            else:
                job.mark_completed(float(index), None)
                scheduler.release(job)
        assert scheduler.queue_length() == 0
        assert scheduler.queue._seq_by_job == {}

    def test_cli_dispatch_bench_command(self, capsys):
        from repro.cli import main

        assert main(["dispatch-bench", "--devices", "6", "--jobs", "20", "--vantage-points", "3"]) == 0
        output = capsys.readouterr().out
        assert "Batch dispatch throughput" in output
        assert "20" in output


class TestDrain:
    """``AccessServer.drain()``: passes of one batch until a pass is not full."""

    @pytest.fixture()
    def chrome(self):
        return build_default_platform(seed=7, browsers=("chrome",))

    def test_drain_runs_a_queue_deeper_than_one_batch(self, chrome):
        client = chrome.client()
        for index in range(250):
            client.submit_job(f"deep-{index}", "noop")
        assert len(chrome.access_server.drain()) == 250
        assert chrome.access_server.scheduler.queue_length() == 0

    def test_drain_gives_up_on_a_queue_it_cannot_run(self, chrome):
        """A job waiting for an agent is not run by more dispatch passes:
        the drain makes one, not ``DRAIN_PASSES`` of them."""
        server = chrome.access_server
        waiting = chrome.client().submit_job("for-an-agent", "noop", execution="agent")
        assert server.drain() == []
        assert sum(server.dispatch_pass_counts().values()) == 1
        assert server.scheduler.job(waiting.job_id).status is JobStatus.QUEUED

    def test_a_pass_with_no_push_job_queued_makes_no_dispatch_decision(
        self, chrome, monkeypatch
    ):
        """An idle host loop makes ~200 passes a second: one that finds no
        push job queued reaps leases, counts as empty and stops there."""
        server = chrome.access_server
        chrome.client().submit_job("for-an-agent", "noop", execution="agent")
        decisions = []
        dispatch_batch = server.scheduler.dispatch_batch

        def counted(*args, **kwargs):
            decisions.append(args)
            return dispatch_batch(*args, **kwargs)

        monkeypatch.setattr(server.scheduler, "dispatch_batch", counted)
        assert server.run_pending_jobs() == []
        assert decisions == []
        assert server.dispatch_pass_counts() == {"empty": 1, "partial": 0, "full": 0}
        chrome.client().submit_job("pushed", "noop")
        assert len(server.run_pending_jobs()) == 1
        # The pass ends on the count once its one job ran, not on a second,
        # empty decision.
        assert len(decisions) == 1

    def test_drain_warns_when_it_stops_at_its_pass_bound(self, chrome, caplog):
        """A queue that refills as fast as it runs ends the drain at its
        bound, with the last pass full and one WARNING naming the queue."""
        from repro.accessserver.server import DISPATCH_BATCH, DRAIN_PASSES

        server = chrome.access_server

        def successor(ctx):
            server.submit_job(
                chrome.experimenter,
                JobSpec(name="successor", owner="experimenter", run=successor),
            )
            return "ok"

        for index in range(DISPATCH_BATCH):
            server.submit_job(
                chrome.experimenter,
                JobSpec(name=f"refill-{index}", owner="experimenter", run=successor),
            )
        with caplog.at_level("WARNING", logger="repro.accessserver.server"):
            executed = server.drain()
        assert DRAIN_PASSES == 100
        assert len(executed) == DRAIN_PASSES * DISPATCH_BATCH
        assert server.dispatch_pass_counts()["full"] == DRAIN_PASSES
        assert server.scheduler.queue_length() > 0
        warnings = [
            record
            for record in caplog.records
            if record.name == "repro.accessserver.server"
            and record.levelname == "WARNING"
        ]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert f"after {DRAIN_PASSES} full" in message
        assert f"{server.scheduler.queue_length()} job(s) still queued" in message


class TestSerialPass:
    """A pass admits, runs and settles each assignment in turn, in
    assignment order: two fresh fleets given the same jobs write the same
    journal bytes, publish the same events and leave the same balances,
    whether every payload completes or one raises."""

    @staticmethod
    def _run(state_dir, fail_index):
        from repro.core.platform import add_vantage_point
        from repro.device.profiles import SAMSUNG_J7_DUO

        platform = build_default_platform(seed=31, browsers=("chrome",), device_count=3)
        add_vantage_point(
            platform, "node2", "Institution 1",
            device_profiles=[SAMSUNG_J7_DUO] * 3, browsers=("chrome",),
        )
        server = platform.access_server
        server.enable_persistence(str(state_dir), snapshot_every=10**9)
        server.accounts.enable_credit_system(initial_grant_device_hours=100.0)
        events = []
        server.events.subscribe(
            None, lambda record: events.append((record.topic, dict(record.payload)))
        )
        # The tracer publishes spans only to a topic subscriber; the one
        # above records them in order with everything else.
        server.events.subscribe(SPAN_TOPIC, lambda record: None)

        def hold_a_minute(ctx):
            platform.run_for(60.0)
            return "ok"

        def explode(ctx):
            raise RuntimeError("payload exploded")

        submitted = [
            server.submit_job(
                platform.experimenter,
                JobSpec(
                    name=f"serial-{index:02d}",
                    owner="experimenter",
                    run=explode if index == fail_index else hold_a_minute,
                ),
            )
            for index in range(12)
        ]
        executed = server.run_pending_jobs()
        assert [job.job_id for job in executed] == [job.job_id for job in submitted]
        assert check_device_hold_conservation(server, drained=True).ok
        for event in events:
            # A span's elapsed_s is measured wall time; all else must repeat.
            if event[0] == "trace.span":
                event[1].pop("elapsed_s", None)
        journal = (state_dir / "journal.jsonl").read_bytes()
        return executed, events, journal, server.accounts._credit_balances()

    @pytest.mark.parametrize("fail_index", [None, 2], ids=["all-complete", "one-fails"])
    def test_a_pass_repeats_its_journal_events_and_balances(self, tmp_path, fail_index):
        executed, events, journal, balances = self._run(tmp_path / "first", fail_index)
        again = self._run(tmp_path / "second", fail_index)
        assert [topic for topic, _ in events].count(SPAN_TOPIC) == 12 * 4
        assert journal
        assert (events, journal, balances) == again[1:]
        assert balances["experimenter"] < 100.0
        for index, job in enumerate(executed):
            if index == fail_index:
                assert job.status is JobStatus.FAILED
                assert "payload exploded" in job.error
            else:
                assert job.status is JobStatus.COMPLETED

    def test_each_job_settles_before_the_next_is_admitted(self):
        """One wave assigns all three devices; while a job's payload runs,
        every job before it has settled and every job after it still waits
        for its turn."""
        platform = build_default_platform(seed=31, browsers=("chrome",), device_count=3)
        server = platform.access_server
        seen = []

        def record_statuses(ctx):
            seen.append([server.scheduler.job(job.job_id).status for job in submitted])
            return "ok"

        submitted = [
            server.submit_job(
                platform.experimenter,
                JobSpec(name=f"turn-{index}", owner="experimenter", run=record_statuses),
            )
            for index in range(3)
        ]
        assert len(server.run_pending_jobs()) == 3
        done, waiting = JobStatus.COMPLETED, JobStatus.RUNNING
        assert seen == [
            [waiting, waiting, waiting],
            [done, waiting, waiting],
            [done, done, waiting],
        ]
        assert server.dispatch_pass_counts()["partial"] == 1

    def test_payloads_run_on_the_thread_that_runs_the_pass(self):
        import threading

        platform = build_default_platform(seed=31, browsers=("chrome",), device_count=3)
        server = platform.access_server
        threads = []

        def record_thread(ctx):
            threads.append(threading.get_ident())
            return "ok"

        for index in range(5):
            server.submit_job(
                platform.experimenter,
                JobSpec(name=f"inline-{index}", owner="experimenter", run=record_thread),
            )
        assert len(server.run_pending_jobs()) == 5
        assert threads == [threading.get_ident()] * 5

    def test_a_failed_job_frees_its_device_for_the_next_wave(self):
        """On a one-device fleet each wave holds one assignment: the failing
        first job settles and gives the device back within the same pass."""
        platform = build_default_platform(seed=31, browsers=("chrome",), device_count=1)
        server = platform.access_server

        def explode(ctx):
            raise RuntimeError("payload exploded")

        first = server.submit_job(
            platform.experimenter, JobSpec(name="fails", owner="experimenter", run=explode)
        )
        second = server.submit_job(
            platform.experimenter,
            JobSpec(name="follows", owner="experimenter", run=lambda ctx: "ok"),
        )
        executed = server.run_pending_jobs()
        assert [job.job_id for job in executed] == [first.job_id, second.job_id]
        assert first.status is JobStatus.FAILED
        assert "payload exploded" in first.error
        assert second.status is JobStatus.COMPLETED
        assert check_device_hold_conservation(server, drained=True).ok

    def test_admitted_execution_captures_payload_error(self):
        from repro.accessserver.executor import AdmittedExecution

        class _Spec:
            @staticmethod
            def run(ctx):
                raise ValueError("boom")

        class _Job:
            spec = _Spec()

        class _Assignment:
            job = _Job()

        admitted = AdmittedExecution(
            assignment=_Assignment(), ctx=None, trace_at_admit=None, execution_started_at=0.0
        )
        admitted.run_payload()
        assert isinstance(admitted.error, ValueError)
        assert admitted.result is None
