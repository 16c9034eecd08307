"""Job queue, dispatch constraints and timed sessions — the scheduler facade.

The access server "will dispatch queued jobs based on experimenter
constraints, e.g., target device, connectivity, or network location, and
BatteryLab constraints, e.g., one job at the time per device"
(Section 3.1).  Jobs additionally wait for "no other test running
(required) and low CPU utilization (optional)" (Section 4.2).

:class:`JobScheduler` keeps that contract but delegates every dispatch
decision to the indexed :class:`~repro.accessserver.dispatch.DispatchEngine`:
free slots, reservations and the job queue live in per-vantage-point /
per-device indexes instead of flat lists, batches of assignments are
computed per tick via :meth:`JobScheduler.dispatch_batch`, and queue
ordering is a pluggable :class:`~repro.accessserver.policies.SchedulingPolicy`
(``"fifo"`` — the default and the historical behaviour — ``"priority"``
or ``"fair-share"``).  :class:`SchedulingError` and
:class:`SessionReservation` are re-exported from
:mod:`repro.accessserver.dispatch`, their new home.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.accessserver.dispatch import (
    Assignment,
    DispatchEngine,
    SchedulingError,
    SessionReservation,
)
from repro.accessserver.jobs import Job, JobStatus
from repro.accessserver.policies import SchedulingPolicy
from repro.simulation.events import EventBus

__all__ = [
    "JobScheduler",
    "SchedulingError",
    "SessionReservation",
]


class JobScheduler:
    """Keeps the job queue and decides what can run where.

    The scheduler does not execute jobs itself; the access server either
    pulls one decision at a time via :meth:`next_dispatchable` or — the
    fast path — asks for a maximal assignment set via
    :meth:`dispatch_batch`, and reports completion via :meth:`release`.

    Parameters
    ----------
    policy:
        Scheduling policy instance or registered name; defaults to FIFO.
    event_bus:
        Optional :class:`~repro.simulation.events.EventBus` that receives
        structured ``dispatch.*`` records for every assignment/release.
    reservation_admission:
        ``"ignore"`` (default) or ``"defer"``; see
        :class:`~repro.accessserver.dispatch.DispatchEngine`.
    """

    def __init__(
        self,
        policy: Union[str, SchedulingPolicy] = "fifo",
        event_bus: Optional[EventBus] = None,
        reservation_admission: str = "ignore",
    ) -> None:
        self._engine = DispatchEngine(
            policy=policy, event_bus=event_bus, reservation_admission=reservation_admission
        )
        # Every retained job, in id order by construction: ids are handed
        # out increasing, so insertion order is id order until one arrives
        # below the last (recovery's queue order, a job re-homed from another
        # lane) — jobs() then re-sorts the table once, not on every read.
        self._all_jobs: Dict[int, Job] = {}
        self._last_job_id = 0
        self._out_of_order = False
        self._next_reservation_id = 1

    # -- policy ---------------------------------------------------------------------
    @property
    def engine(self) -> DispatchEngine:
        """The underlying indexed dispatch engine."""
        return self._engine

    @property
    def policy(self) -> SchedulingPolicy:
        return self._engine.policy

    def set_policy(self, policy: Union[str, SchedulingPolicy]) -> SchedulingPolicy:
        """Swap the scheduling policy; takes effect from the next tick."""
        return self._engine.set_policy(policy)

    # -- topology -------------------------------------------------------------------
    def register_device(self, vantage_point: str, device_serial: str) -> None:
        self._engine.slots.register(vantage_point, device_serial)

    def registered_devices(self) -> List[str]:
        return self._engine.slots.keys()

    def device_count(self) -> int:
        """Number of registered device slots — the maximum width one
        dispatch wave can reach, and therefore the natural worker-pool
        size for parallel wave execution."""
        return len(self._engine.slots.keys())

    def device_busy(self, vantage_point: str, device_serial: str) -> bool:
        return self._engine.slots.is_busy(vantage_point, device_serial)

    # -- queue management ---------------------------------------------------------------
    def submit(self, job: Job, now: float) -> Job:
        job.submitted_at = now
        self._retain(job)
        if job.status is JobStatus.QUEUED:
            self._engine.queue.push(job)
        return job

    def enqueue_approved(self, job: Job) -> None:
        """Move a job that was pending approval into the queue."""
        if job.status is not JobStatus.QUEUED:
            job.status = JobStatus.QUEUED
        self._engine.queue.push(job)
        if job.job_id not in self._all_jobs:
            self._retain(job)

    def cancel(self, job_id: int) -> None:
        """Cancel a queued or running job; a running job's device is freed."""
        job = self.job(job_id)
        job.mark_cancelled()
        self._engine.cancel(job)

    def job(self, job_id: int) -> Job:
        try:
            return self._all_jobs[job_id]
        except KeyError:
            raise SchedulingError(f"unknown job id {job_id}") from None

    def job_count(self) -> int:
        """Every job the scheduler retains, in any status."""
        return len(self._all_jobs)

    def _retain(self, job: Job) -> None:
        if job.job_id > self._last_job_id:
            self._last_job_id = job.job_id
        elif job.job_id not in self._all_jobs:
            self._out_of_order = True
        self._all_jobs[job.job_id] = job

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
        return len(self._engine.queue)

    # -- dispatch --------------------------------------------------------------------------
    def next_dispatchable(
        self,
        now: float,
        controller_cpu: Optional[Callable[[str], float]] = None,
    ) -> Optional[Tuple[Job, str, str]]:
        """Find the first queued job (in policy order) that can run right now.

        Returns ``(job, vantage_point, device_serial)`` or ``None``.  The
        optional ``controller_cpu`` callable maps a vantage-point name to its
        current CPU utilisation so that the "low CPU utilization (optional)"
        constraint can be honoured.
        """
        return self._engine.next_dispatchable(now, controller_cpu=controller_cpu)

    def dispatch_batch(
        self,
        now: float,
        controller_cpu: Optional[Callable[[str], float]] = None,
        max_assignments: Optional[int] = None,
    ) -> List[Assignment]:
        """Assign a maximal set of queued jobs to free devices in one tick.

        Every returned :class:`~repro.accessserver.dispatch.Assignment`'s job
        is RUNNING on its slot when this returns; the caller executes them and
        calls :meth:`release` as each finishes.  Under the FIFO policy the
        assignment set matches what repeated :meth:`next_dispatchable` +
        :meth:`assign` calls would have produced on the same inputs.
        """
        return self._engine.dispatch_batch(
            now, controller_cpu=controller_cpu, max_assignments=max_assignments
        )

    def assign(self, job: Job, vantage_point: str, device_serial: str, now: float) -> None:
        self._engine.assign(job, vantage_point, device_serial, now)

    def release(self, job: Job) -> None:
        """Free the device ``job`` ran on — O(1) via the job's own assignment."""
        self._engine.release(job)

    # -- timed sessions -----------------------------------------------------------------------
    def reserve_session(
        self,
        username: str,
        vantage_point: str,
        device_serial: str,
        start_s: float,
        duration_s: float,
    ) -> SessionReservation:
        """Reserve an interactive time slot; overlapping reservations are rejected."""
        reservation = SessionReservation(
            reservation_id=self._allocate_reservation_id(),
            username=username,
            vantage_point=vantage_point,
            device_serial=device_serial,
            start_s=start_s,
            duration_s=duration_s,
        )
        self._engine.reservations.add(reservation)
        return reservation

    def reservations(self, active_at: Optional[float] = None) -> List[SessionReservation]:
        if active_at is None:
            return self._engine.reservations.all()
        return self._engine.reservations.active_at(active_at)

    def cancel_reservation(self, reservation_id: int) -> None:
        self._engine.cancel_reservation(reservation_id)

    def _allocate_reservation_id(self) -> int:
        reservation_id = self._next_reservation_id
        self._next_reservation_id += 1
        return reservation_id

    # -- crash recovery -----------------------------------------------------------------------
    def restore_job(self, job: Job, queued: bool) -> None:
        """Re-admit a journaled job without touching its timestamps or id.

        ``queued=True`` pushes the job at the tail of the FIFO queue, so the
        recovery code re-inserts jobs in their original first-enqueue order
        to reproduce the pre-crash queue exactly.
        """
        self._retain(job)
        if queued and job.status is JobStatus.QUEUED:
            self._engine.queue.push(job)

    def restore_reservation(self, reservation: SessionReservation) -> None:
        """Re-add a journaled reservation, keeping the id allocator ahead of it."""
        self._engine.reservations.add(reservation)
        self.claim_reservation_id(reservation.reservation_id)

    def claim_reservation_id(self, reservation_id: int) -> None:
        """Fast-forward the id allocator past a recovered reservation id."""
        if reservation_id >= self._next_reservation_id:
            self._next_reservation_id = reservation_id + 1
