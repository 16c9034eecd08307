"""Job table, queue, device slots, reservations and approvals — the scheduler.

The access server "will dispatch queued jobs based on experimenter
constraints, e.g., target device, connectivity, or network location, and
BatteryLab constraints, e.g., one job at the time per device"
(Section 3.1).  Jobs additionally wait for "no other test running
(required) and low CPU utilization (optional)" (Section 4.2).

:class:`JobScheduler` is the one owner of that decision and of the state
it reads: the job table, the approval queue, and the indexes of
:mod:`repro.accessserver.dispatch` (free slots per vantage point,
reservations per device, the queue bucketed by constraint).  A dispatch
tick, :meth:`JobScheduler.dispatch_batch`, computes a maximal set of
``(job, slot)`` assignments in the order of a pluggable
:class:`~repro.accessserver.policies.SchedulingPolicy` (``"fifo"`` — the
default — ``"priority"``, ``"fair-share"``, ...) and publishes structured
``dispatch.*`` records on an :class:`~repro.simulation.events.EventBus`.
:class:`SchedulingError` and :class:`SessionReservation` are re-exported
from :mod:`repro.accessserver.dispatch`.

With the FIFO policy a batch makes exactly the assignments a restart-from-
head rescan (find the first placeable job, assign it, rescan) would make:
assignments only ever consume free slots, so a job that was not placeable
earlier in the pass cannot become placeable later within the same tick.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.accessserver.dispatch import (
    Assignment,
    BucketKey,
    ConstraintQueue,
    DeviceSlot,
    DeviceSlotIndex,
    ReservationIndex,
    SchedulingError,
    SessionReservation,
)
from repro.accessserver.jobs import Job, JobStatus
from repro.accessserver.policies import DispatchStats, SchedulingPolicy, create_policy
from repro.simulation.events import EventBus

__all__ = [
    "JobScheduler",
    "SchedulingError",
    "SessionReservation",
]


class JobScheduler:
    """Keeps the jobs and decides what can run where.

    The scheduler does not execute jobs itself: the access server asks for
    a maximal assignment set via :meth:`dispatch_batch` and gives each hold
    back via :meth:`release` or :meth:`requeue`.

    Parameters
    ----------
    policy:
        Scheduling policy instance or registered name; defaults to FIFO.
    event_bus:
        Optional :class:`~repro.simulation.events.EventBus` that receives
        ``dispatch.assigned``, ``dispatch.released``, ``dispatch.requeued``,
        ``dispatch.cancelled`` and ``dispatch.batch`` records.
    reservation_admission:
        ``"ignore"`` (default) places a job on any slot whose *current*
        reservation state allows it; ``"defer"`` additionally skips slots
        whose next upcoming reservation (held by someone else) starts
        before the job's ``timeout_s`` could elapse, so a long job is never
        parked in front of an imminent interactive session.
    """

    ADMISSION_MODES = ("ignore", "defer")

    def __init__(
        self,
        policy: Union[str, SchedulingPolicy] = "fifo",
        event_bus: Optional[EventBus] = None,
        reservation_admission: str = "ignore",
    ) -> None:
        if reservation_admission not in self.ADMISSION_MODES:
            raise SchedulingError(
                f"unknown reservation admission mode {reservation_admission!r}; "
                f"available: {', '.join(self.ADMISSION_MODES)}"
            )
        self.reservation_admission = reservation_admission
        self.policy = create_policy(policy)
        self.slots = DeviceSlotIndex()
        self.queue = ConstraintQueue()
        self.reservations = ReservationIndex()
        self.next_reservation_id = 1
        #: Pipeline changes awaiting an administrator, in submission order.
        #: A job leaves on approval or cancellation, so every entry is
        #: ``PENDING_APPROVAL``.
        self.awaiting_approval: Dict[int, Job] = {}
        self.batches_dispatched = 0
        self.assignments_made = 0
        self._event_bus = event_bus
        #: The access server's record sink (``AccessServer.record``), set by
        #: the server: it is handed the journal record of each assignment,
        #: requeue, cancellation and reservation cancellation.
        self.record: Optional[Callable[..., None]] = None
        # Every retained job, in id order by construction: ids are handed
        # out increasing, so insertion order is id order until one arrives
        # below the last (recovery's queue order, a job re-homed from another
        # lane) — jobs() then re-sorts the table once, not on every read.
        self._all_jobs: Dict[int, Job] = {}
        self._last_job_id = 0
        self._out_of_order = False
        self._running_by_owner: Dict[str, int] = {}
        # The hold table: job id -> the slots its execution holds beyond the
        # primary one recorded on the job itself.  Membership is the
        # "executing" mark; release() gives the whole family back.
        self._executing: Dict[int, Tuple[Tuple[str, str], ...]] = {}
        self._credit_balance_provider: Optional[Callable[[], Dict[str, float]]] = None

    # -- configuration --------------------------------------------------------------
    def set_policy(self, policy: Union[str, SchedulingPolicy]) -> SchedulingPolicy:
        """Swap the scheduling policy; takes effect from the next tick."""
        self.policy = create_policy(policy)
        return self.policy

    def set_credit_balance_provider(
        self, provider: Optional[Callable[[], Dict[str, float]]]
    ) -> None:
        """Feed per-owner credit balances into each tick's :class:`DispatchStats`.

        The access server wires this when the credit system comes on; the
        ``credit`` scheduling policy consumes the balances as fair-share
        weights.  ``None`` disconnects (stats revert to empty balances).
        """
        self._credit_balance_provider = provider

    def running_by_owner(self) -> Dict[str, int]:
        return dict(self._running_by_owner)

    # -- the job table ----------------------------------------------------------------
    def submit(self, job: Job, now: float) -> Job:
        """Admit a new job: queued, or awaiting approval if it is a pipeline change."""
        job.submitted_at = now
        self.restore_job(job, queued=True)
        return job

    def restore_job(self, job: Job, queued: bool) -> None:
        """Re-admit a journaled job without touching its timestamps or id.

        A ``PENDING_APPROVAL`` job joins the approval queue.  ``queued=True``
        pushes a ``QUEUED`` job at the tail of the FIFO queue, so the
        recovery code re-inserts jobs in their original first-enqueue order
        to reproduce the pre-crash queue exactly.
        """
        if job.job_id > self._last_job_id:
            self._last_job_id = job.job_id
        elif job.job_id not in self._all_jobs:
            self._out_of_order = True
        self._all_jobs[job.job_id] = job
        if job.status is JobStatus.PENDING_APPROVAL:
            self.awaiting_approval[job.job_id] = job
        elif queued and job.status is JobStatus.QUEUED:
            self.queue.push(job)

    def enqueue_approved(self, job: Job) -> None:
        """Move a job that was awaiting approval into the queue."""
        del self.awaiting_approval[job.job_id]
        job.status = JobStatus.QUEUED
        self.queue.push(job)

    def cancel(self, job_id: int) -> Job:
        """Cancel a waiting or running job; cancelling it again changes nothing.

        The job leaves the queue or the approval queue.  A running job's
        device is freed — unless its payload is executing: the payload or
        agent still uses the devices, and whoever ends the execution gives
        them back.
        """
        job = self.job(job_id)
        if job.status is JobStatus.CANCELLED:
            return job
        was_running = job.status is JobStatus.RUNNING
        job.mark_cancelled()
        self.awaiting_approval.pop(job_id, None)
        self.queue.remove(job)
        self.queue.forget(job)  # cancellation is terminal; drop the retained sequence
        if job_id not in self._executing:
            self.release(job)
        if self.record is not None:
            self.record("job.cancelled", {"job_id": job_id}, job_id)
        self._emit(
            "dispatch.cancelled",
            job_id=job_id,
            job=job.spec.name,
            owner=job.spec.owner,
            was_running=was_running,
        )
        return job

    def job(self, job_id: int) -> Job:
        try:
            return self._all_jobs[job_id]
        except KeyError:
            raise SchedulingError(f"unknown job id {job_id}") from None

    def job_count(self) -> int:
        """Every job the scheduler retains, in any status."""
        return len(self._all_jobs)

    def jobs(self, status: Optional[JobStatus] = None) -> List[Job]:
        """The retained jobs in id order (optionally only those in ``status``)."""
        if self._out_of_order:
            self._all_jobs = dict(sorted(self._all_jobs.items()))
            self._out_of_order = False
        jobs = self._all_jobs.values()
        if status is None:
            return list(jobs)
        return [job for job in jobs if job.status is status]

    def queue_length(self) -> int:
        return len(self.queue)

    # -- dispatch decisions -----------------------------------------------------------
    def dispatch_batch(
        self,
        now: float,
        controller_cpu: Optional[Callable[[str], float]] = None,
        max_assignments: Optional[int] = None,
    ) -> List[Assignment]:
        """Assign a maximal set of queued push jobs to free devices in one tick.

        Push jobs are tried in policy order (agent jobs wait in their own
        plane for a daemon); each assignment consumes its slot immediately,
        so one-job-per-device holds within the batch.  A bucket
        whose constrained slot subset has no free slot left is skipped for
        the remainder of the tick.  The optional ``controller_cpu`` maps a
        vantage-point name to its current CPU utilisation, so the "low CPU
        utilization (optional)" constraint can be honoured.  Every returned
        assignment's job is RUNNING on its slot; the caller executes them
        and calls :meth:`release` as each finishes.
        """
        assignments: List[Assignment] = []
        if controller_cpu is not None:
            # Read each vantage point's CPU once a tick.
            read_cpu, cpu_by_vantage_point = controller_cpu, {}

            def controller_cpu(vantage_point: str) -> float:
                cpu = cpu_by_vantage_point.get(vantage_point)
                if cpu is None:
                    cpu = cpu_by_vantage_point[vantage_point] = read_cpu(vantage_point)
                return cpu

        dead_buckets: Set[BucketKey] = set()
        for job in self.policy.order(self.queue.jobs("push"), self._stats(now)):
            if max_assignments is not None and len(assignments) >= max_assignments:
                break
            if self.slots.free_count == 0:
                break
            bucket = ConstraintQueue.bucket_key(job)
            if bucket in dead_buckets:
                continue
            slot = next(self.free_slots(job, now, controller_cpu), None)
            if slot is None:
                # No free slot at all in the job's constraint pair is
                # owner-independent: the whole bucket is dead for this tick.
                # (Free slots that reservations or CPU filtered for this job
                # may still suit the next one.)
                if next(self.slots.iter_free(*bucket), None) is None:
                    dead_buckets.add(bucket)
                    # Once every bucket still holding queued push jobs is
                    # dead, nothing later in the policy order can dispatch.
                    if all(key in dead_buckets for key in self.queue.bucket_keys("push")):
                        break
                continue
            self.assign(job, slot.vantage_point, slot.device_serial, now)
            assignments.append(
                Assignment(
                    job=job,
                    vantage_point=slot.vantage_point,
                    device_serial=slot.device_serial,
                    timestamp=now,
                )
            )
        self.batches_dispatched += 1
        self._emit(
            "dispatch.batch",
            assigned=len(assignments),
            queued=len(self.queue),
            free_slots=self.slots.free_count,
            policy=self.policy.name,
        )
        return assignments

    def free_slots(
        self,
        job: Job,
        now: float,
        controller_cpu: Optional[Callable[[str], float]] = None,
        vantage_point: Optional[str] = None,
    ) -> Iterator[DeviceSlot]:
        """The free slots ``job`` may start on now, in slot order: the one slot
        matcher of push dispatch and the agent plane.

        That is the free slots of the job's constraint pair — narrowed to an
        agent's binding ``vantage_point``, if given — that :meth:`eligible`
        accepts.  Callers stop iterating before they take a slot.
        """
        constraints = job.spec.constraints
        target = constraints.vantage_point
        if vantage_point is not None:
            if target is not None and target != vantage_point:
                return
            target = vantage_point
        for slot in self.slots.iter_free(target, constraints.device_serial):
            if self.eligible(job, slot.vantage_point, slot.device_serial, now, controller_cpu):
                yield slot

    def eligible(
        self,
        job: Job,
        vantage_point: str,
        device_serial: str,
        now: float,
        controller_cpu: Optional[Callable[[str], float]] = None,
    ) -> bool:
        """Whether ``job`` may run on this slot now: no one else's session
        reservation (under ``"defer"``, none before its timeout could elapse)
        and, if the job asks, a controller CPU low enough.

        Executors also re-check an assignment with it at the (possibly
        advanced) execution time.
        """
        if self.reservations.blocked_for(vantage_point, device_serial, now, job.spec.owner):
            return False
        if self._deferred_by_upcoming_reservation(job, vantage_point, device_serial, now):
            return False
        constraints = job.spec.constraints
        if constraints.require_low_controller_cpu and controller_cpu is not None:
            if controller_cpu(vantage_point) > constraints.max_controller_cpu_percent:
                return False
        return True

    # -- assignment lifecycle ---------------------------------------------------------
    def assign(self, job: Job, vantage_point: str, device_serial: str, now: float) -> None:
        """Bind ``job`` to a free slot and mark it running."""
        self.slots.mark_busy(vantage_point, device_serial, job.job_id)
        self.queue.remove(job)
        job.mark_running(now, vantage_point, device_serial)
        owner = job.spec.owner
        self._running_by_owner[owner] = self._running_by_owner.get(owner, 0) + 1
        self.assignments_made += 1
        if self.record is not None:
            self.record(
                "job.assigned",
                {
                    "job_id": job.job_id,
                    "vantage_point": vantage_point,
                    "device_serial": device_serial,
                    "timestamp": now,
                },
                job.job_id,
            )
        self._emit(
            "dispatch.assigned",
            job_id=job.job_id,
            job=job.spec.name,
            owner=owner,
            vantage_point=vantage_point,
            device_serial=device_serial,
            policy=self.policy.name,
        )

    def begin_execution(
        self, job: Job, extra_slots: Tuple[Tuple[str, str], ...] = ()
    ) -> None:
        """Record what the execution starting now holds on top of its slot.

        ``extra_slots`` (the children of a multi-device agent claim) are
        marked busy for the job here.  From now until :meth:`release` or
        :meth:`requeue` the job is *executing*: cancelling it must not free
        anything — the payload or agent is still physically using the
        devices; whoever ends the execution gives them back.
        """
        for vantage_point, device_serial in extra_slots:
            self.slots.mark_busy(vantage_point, device_serial, job.job_id)
        self._executing[job.job_id] = extra_slots

    def is_executing(self, job_id: int) -> bool:
        """Whether the job's payload (or agent lease) is still in flight —
        true even after a cancellation made the job terminal."""
        return job_id in self._executing

    def release(self, job: Job, forget: bool = True) -> None:
        """Give back everything ``job`` holds — the one exit from a device hold.

        Clears the executing mark, frees the extra slots recorded by
        :meth:`begin_execution` and then the primary slot (O(1) via the
        job's own assignment), so ``dispatch.released`` — which names only
        the primary — is published once every slot of the family is free.
        Releasing a job that holds nothing is harmless.

        ``forget=False`` is used internally by :meth:`requeue`, which needs
        the job's queue sequence number to survive the release.
        """
        if forget:
            self.queue.forget(job)
        for vantage_point, device_serial in self._executing.pop(job.job_id, ()):
            self.slots.mark_free(vantage_point, device_serial)
        vantage_point = job.assigned_vantage_point
        device_serial = job.assigned_device
        if vantage_point is None or device_serial is None:
            return
        slot = self.slots.slot(vantage_point, device_serial)
        if slot is None or slot.busy_job_id != job.job_id:
            return
        self.slots.mark_free(vantage_point, device_serial)
        owner = job.spec.owner
        remaining = self._running_by_owner.get(owner, 0) - 1
        if remaining > 0:
            self._running_by_owner[owner] = remaining
        else:
            self._running_by_owner.pop(owner, None)
        self._emit(
            "dispatch.released",
            job_id=job.job_id,
            job=job.spec.name,
            owner=owner,
            vantage_point=vantage_point,
            device_serial=device_serial,
        )

    def requeue(self, job: Job) -> None:
        """Undo an assignment that will not run to its end on this hold.

        Gives back every slot (see :meth:`release`) and puts the job back in
        the queue — at its original FIFO position — so a later tick
        re-evaluates it against the then-current reservations and controller
        load.  A lapsed wave admission and an expired agent lease both end
        here, as crash recovery's in-flight requeue does on replay.
        """
        vantage_point = job.assigned_vantage_point
        device_serial = job.assigned_device
        self.release(job, forget=False)
        job.mark_requeued()
        self.queue.push(job, preserve_position=True)
        if self.record is not None:
            self.record("job.requeued", {"job_id": job.job_id}, job.job_id)
        self._emit(
            "dispatch.requeued",
            job_id=job.job_id,
            job=job.spec.name,
            owner=job.spec.owner,
            vantage_point=vantage_point,
            device_serial=device_serial,
        )

    # -- timed sessions -----------------------------------------------------------------
    def reserve_session(
        self,
        username: str,
        vantage_point: str,
        device_serial: str,
        start_s: float,
        duration_s: float,
    ) -> SessionReservation:
        """Reserve an interactive time slot; overlapping reservations are rejected
        (the id is spent either way)."""
        reservation_id = self.next_reservation_id
        self.next_reservation_id += 1
        reservation = SessionReservation(
            reservation_id=reservation_id,
            username=username,
            vantage_point=vantage_point,
            device_serial=device_serial,
            start_s=start_s,
            duration_s=duration_s,
        )
        self.reservations.add(reservation)
        return reservation

    def cancel_reservation(self, reservation_id: int) -> bool:
        """Remove a session reservation, announcing it on the event bus.

        The ``dispatch.reservation_cancelled`` record lets event-driven
        dispatchers retry jobs that were blocked by the reservation instead
        of sleeping until its original end time.
        """
        removed = self.reservations.remove(reservation_id)
        if removed:
            if self.record is not None:
                self.record("reservation.cancelled", {"reservation_id": reservation_id})
            self._emit("dispatch.reservation_cancelled", reservation_id=reservation_id)
        return removed

    def restore_reservation(self, reservation: SessionReservation) -> None:
        """Re-add a journaled reservation, keeping the id allocator ahead of it."""
        self.reservations.add(reservation)
        self.claim_reservation_id(reservation.reservation_id)

    def claim_reservation_id(self, reservation_id: int) -> None:
        """Fast-forward the id allocator past a recovered reservation id."""
        self.next_reservation_id = max(self.next_reservation_id, reservation_id + 1)

    # -- internals --------------------------------------------------------------------
    def _stats(self, now: float) -> DispatchStats:
        balances: Dict[str, float] = {}
        if self._credit_balance_provider is not None:
            balances = dict(self._credit_balance_provider())
        return DispatchStats(
            now=now,
            running_by_owner=dict(self._running_by_owner),
            credit_balance_by_owner=balances,
        )

    def _deferred_by_upcoming_reservation(
        self, job: Job, vantage_point: str, device_serial: str, now: float
    ) -> bool:
        """In ``"defer"`` mode, true when the job's timeout collides with a
        reservation that starts later but before the timeout could elapse."""
        if self.reservation_admission != "defer":
            return False
        upcoming = self.reservations.next_blocking_start(
            vantage_point, device_serial, now, job.spec.owner
        )
        return upcoming is not None and upcoming < now + job.spec.timeout_s

    def _emit(self, topic: str, **payload: object) -> None:
        if self._event_bus is not None:
            self._event_bus.publish(topic, **payload)
