"""Indexed, event-emitting batch dispatch engine.

The seed scheduler answered "what can run now?" with a linear scan over
every queued job × every device slot × every reservation, re-polled one job
at a time by the access server.  This module replaces that hot path with an
indexed pipeline sized for the ROADMAP's many-vantage-point deployments:

* :class:`DeviceSlotIndex` — per-vantage-point sorted free-slot indexes so a
  constrained job probes exactly the slots it may use, in the same
  deterministic ``(vantage_point, device_serial)`` order as the seed scan;
* :class:`ReservationIndex` — per-device interval index over
  :class:`SessionReservation` objects; the active reservation at ``now`` is
  found with one bisect instead of a scan over every reservation;
* :class:`ConstraintQueue` — FIFO job queue bucketed by the
  ``(vantage_point, device_serial)`` constraint pair, letting a dispatch
  tick skip a whole bucket once its target slots are exhausted;
* :class:`DispatchEngine` — ties the indexes to a pluggable
  :class:`~repro.accessserver.policies.SchedulingPolicy` and computes a
  maximal set of ``(job, slot)`` assignments per :meth:`DispatchEngine.dispatch_batch`
  tick, publishing structured ``dispatch.*`` records on an
  :class:`~repro.simulation.events.EventBus` as it goes.

With the FIFO policy a batch produces exactly the assignments the seed's
repeated ``next_dispatchable``/``assign`` loop would have made on the same
inputs: assignments only ever consume free slots, so a job that was not
placeable earlier in the pass cannot become placeable later within the same
tick, making the single pass equivalent to the seed's restart-from-head
rescan.  :class:`~repro.accessserver.scheduler.JobScheduler` remains the
public facade over this engine.
"""

from __future__ import annotations

import bisect
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.accessserver.jobs import Job
from repro.accessserver.policies import DispatchStats, SchedulingPolicy, create_policy
from repro.simulation.events import EventBus


class SchedulingError(RuntimeError):
    """Raised for conflicting reservations or invalid dispatch operations."""


@dataclass
class SessionReservation:
    """A reserved time slot for interactive (remote-control) use of a device."""

    reservation_id: int
    username: str
    vantage_point: str
    device_serial: str
    start_s: float
    duration_s: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def overlaps(self, other: "SessionReservation") -> bool:
        if self.vantage_point != other.vantage_point or self.device_serial != other.device_serial:
            return False
        return self.start_s < other.end_s and other.start_s < self.end_s

    def active_at(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass
class DeviceSlot:
    """One test device as the dispatcher sees it: free or running one job."""

    vantage_point: str
    device_serial: str
    busy_job_id: Optional[int] = None

    @property
    def key(self) -> str:
        return f"{self.vantage_point}/{self.device_serial}"


@dataclass(frozen=True)
class Assignment:
    """One (job, slot) pairing produced by a dispatch tick."""

    job: Job
    vantage_point: str
    device_serial: str
    timestamp: float


class DeviceSlotIndex:
    """Free/busy device slots indexed for O(log) constrained lookups.

    Free serials are kept per vantage point both as a sorted list (ordered
    iteration identical to the seed's sorted candidate scan) and as a set
    (O(1) membership for serial-constrained jobs).
    """

    def __init__(self) -> None:
        self._slots: Dict[Tuple[str, str], DeviceSlot] = {}
        self._free_sorted: Dict[str, List[str]] = {}
        self._free_sets: Dict[str, Set[str]] = {}
        self._vantage_points: List[str] = []
        self._free_count = 0

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def free_count(self) -> int:
        return self._free_count

    def register(self, vantage_point: str, device_serial: str) -> DeviceSlot:
        key = (vantage_point, device_serial)
        existing = self._slots.get(key)
        if existing is not None:
            return existing
        slot = DeviceSlot(vantage_point=vantage_point, device_serial=device_serial)
        self._slots[key] = slot
        if vantage_point not in self._free_sets:
            self._free_sets[vantage_point] = set()
            self._free_sorted[vantage_point] = []
            bisect.insort(self._vantage_points, vantage_point)
        self._add_free(vantage_point, device_serial)
        return slot

    def slot(self, vantage_point: str, device_serial: str) -> Optional[DeviceSlot]:
        return self._slots.get((vantage_point, device_serial))

    def keys(self) -> List[str]:
        """All registered slots as ``"vantage_point/serial"`` strings, sorted."""
        return sorted(slot.key for slot in self._slots.values())

    def is_busy(self, vantage_point: str, device_serial: str) -> bool:
        slot = self._slots.get((vantage_point, device_serial))
        return slot is not None and slot.busy_job_id is not None

    def mark_busy(self, vantage_point: str, device_serial: str, job_id: int) -> None:
        slot = self._require(vantage_point, device_serial)
        if slot.busy_job_id is not None:
            raise SchedulingError(
                f"device {slot.key!r} is already running job {slot.busy_job_id}; "
                "BatteryLab allows one job at a time per device"
            )
        slot.busy_job_id = job_id
        self._remove_free(vantage_point, device_serial)

    def mark_free(self, vantage_point: str, device_serial: str) -> None:
        slot = self._require(vantage_point, device_serial)
        if slot.busy_job_id is None:
            return
        slot.busy_job_id = None
        self._add_free(vantage_point, device_serial)

    def iter_free(
        self,
        vantage_point: Optional[str] = None,
        device_serial: Optional[str] = None,
    ) -> Iterator[DeviceSlot]:
        """Yield the free slots matching the constraint pair in sorted order.

        Callers must not mutate the index while iterating; the dispatch loop
        stops iterating before it assigns the slot it settled on.
        """
        if vantage_point is not None:
            vantage_points: List[str] = (
                [vantage_point] if vantage_point in self._free_sets else []
            )
        else:
            vantage_points = self._vantage_points
        for name in vantage_points:
            if device_serial is not None:
                if device_serial in self._free_sets[name]:
                    yield self._slots[(name, device_serial)]
            else:
                for serial in self._free_sorted[name]:
                    yield self._slots[(name, serial)]

    def _require(self, vantage_point: str, device_serial: str) -> DeviceSlot:
        slot = self._slots.get((vantage_point, device_serial))
        if slot is None:
            raise SchedulingError(f"unknown device slot {vantage_point + '/' + device_serial!r}")
        return slot

    def _add_free(self, vantage_point: str, device_serial: str) -> None:
        if device_serial not in self._free_sets[vantage_point]:
            self._free_sets[vantage_point].add(device_serial)
            bisect.insort(self._free_sorted[vantage_point], device_serial)
            self._free_count += 1

    def _remove_free(self, vantage_point: str, device_serial: str) -> None:
        if device_serial in self._free_sets[vantage_point]:
            self._free_sets[vantage_point].discard(device_serial)
            ordered = self._free_sorted[vantage_point]
            ordered.pop(bisect.bisect_left(ordered, device_serial))
            self._free_count -= 1


class ReservationIndex:
    """Per-device interval index over non-overlapping session reservations.

    Because :meth:`add` rejects overlaps, at most one reservation per device
    can be active at any instant, so the active one is found by bisecting
    the sorted start times — O(log r) instead of the seed's O(r) scan.
    """

    def __init__(self) -> None:
        self._intervals: Dict[Tuple[str, str], List[SessionReservation]] = {}
        self._starts: Dict[Tuple[str, str], List[float]] = {}
        self._by_id: "OrderedDict[int, SessionReservation]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._by_id)

    def add(self, reservation: SessionReservation) -> None:
        # Zero/negative-length intervals would defeat the neighbour-only
        # overlap check below, so the index itself enforces positivity.
        if reservation.duration_s <= 0:
            raise SchedulingError("reservation duration must be positive")
        key = (reservation.vantage_point, reservation.device_serial)
        starts = self._starts.setdefault(key, [])
        intervals = self._intervals.setdefault(key, [])
        index = bisect.bisect_right(starts, reservation.start_s)
        # Non-overlapping sorted intervals: only the immediate neighbours
        # can conflict with the new one.
        for neighbour in (
            intervals[index - 1] if index > 0 else None,
            intervals[index] if index < len(intervals) else None,
        ):
            if neighbour is not None and reservation.overlaps(neighbour):
                raise SchedulingError(
                    f"reservation overlaps with existing reservation "
                    f"{neighbour.reservation_id} held by {neighbour.username!r}"
                )
        starts.insert(index, reservation.start_s)
        intervals.insert(index, reservation)
        self._by_id[reservation.reservation_id] = reservation

    def remove(self, reservation_id: int) -> bool:
        reservation = self._by_id.pop(reservation_id, None)
        if reservation is None:
            return False
        key = (reservation.vantage_point, reservation.device_serial)
        intervals = self._intervals[key]
        index = bisect.bisect_left(self._starts[key], reservation.start_s)
        while intervals[index].reservation_id != reservation_id:
            index += 1
        intervals.pop(index)
        self._starts[key].pop(index)
        return True

    def active(self, vantage_point: str, device_serial: str, now: float) -> Optional[SessionReservation]:
        """The reservation covering ``now`` on this device, if any."""
        starts = self._starts.get((vantage_point, device_serial))
        if not starts:
            return None
        index = bisect.bisect_right(starts, now) - 1
        if index < 0:
            return None
        reservation = self._intervals[(vantage_point, device_serial)][index]
        return reservation if reservation.end_s > now else None

    def blocked_for(self, vantage_point: str, device_serial: str, now: float, owner: str) -> bool:
        """True when someone other than ``owner`` holds the device right now."""
        reservation = self.active(vantage_point, device_serial, now)
        return reservation is not None and reservation.username != owner

    def next_blocking_start(
        self, vantage_point: str, device_serial: str, now: float, owner: str
    ) -> Optional[float]:
        """Start time of the first reservation after ``now`` not held by ``owner``.

        Used by reservation-aware admission: a job whose timeout would still
        be running when someone else's reservation begins should not be
        placed on this device.  Reservations held by ``owner`` never block
        their own jobs.
        """
        key = (vantage_point, device_serial)
        starts = self._starts.get(key)
        if not starts:
            return None
        intervals = self._intervals[key]
        for index in range(bisect.bisect_right(starts, now), len(starts)):
            if intervals[index].username != owner:
                return intervals[index].start_s
        return None

    def all(self) -> List[SessionReservation]:
        """Every reservation, in insertion order (the seed's listing order)."""
        return list(self._by_id.values())

    def active_at(self, now: float) -> List[SessionReservation]:
        return [r for r in self._by_id.values() if r.active_at(now)]

    def earliest_active_end(self, now: float) -> Optional[float]:
        """When the first currently-active reservation ends, if any is active.

        Event-driven dispatchers use this as the wake-up time for jobs that
        are blocked only by a reservation.
        """
        best: Optional[float] = None
        for reservation in self._by_id.values():
            if reservation.active_at(now) and (best is None or reservation.end_s < best):
                best = reservation.end_s
        return best

    def earliest_relevant_end(self, now: float) -> Optional[float]:
        """End of the first reservation (active *or* upcoming) still ahead of ``now``.

        Under reservation-aware admission a job can be deferred by a
        reservation that has not started yet; such a job cannot become
        placeable before that reservation ends, so event-driven dispatchers
        wake at reservation ends rather than only at active-reservation ends.
        """
        best: Optional[float] = None
        for reservation in self._by_id.values():
            if reservation.end_s > now and (best is None or reservation.end_s < best):
                best = reservation.end_s
        return best


# A job's dispatch constraints collapse to this pair for bucketing purposes;
# connectivity/CPU constraints are slot-independent or owner-specific and
# cannot make a whole bucket dead for a tick.
BucketKey = Tuple[Optional[str], Optional[str]]


class ConstraintQueue:
    """FIFO job queue bucketed by the ``(vantage_point, device_serial)`` constraint.

    The global FIFO order lives in one insertion-ordered dict; buckets group
    jobs that compete for the same slot subset, letting a dispatch tick write
    off every job of a bucket at once when the bucket's slots are exhausted
    (an owner-independent condition) and stop scanning entirely once every
    remaining bucket is dead.

    A job can re-enter the queue with its original position preserved
    (``push(job, preserve_position=True)``) after a lapsed wave assignment;
    each job's first-enqueue sequence number is retained for that purpose.
    """

    def __init__(self) -> None:
        self._jobs: "OrderedDict[int, Job]" = OrderedDict()
        self._buckets: Dict[BucketKey, "OrderedDict[int, Job]"] = {}
        self._sequence = itertools.count()
        self._seq_by_job: Dict[int, int] = {}
        self._out_of_order = False

    @staticmethod
    def bucket_key(job: Job) -> BucketKey:
        constraints = job.spec.constraints
        return (constraints.vantage_point, constraints.device_serial)

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._jobs

    def push(self, job: Job, preserve_position: bool = False) -> None:
        if job.job_id in self._jobs:
            return
        if preserve_position and job.job_id in self._seq_by_job:
            # Re-entering mid-queue: the dict append puts it at the tail, so
            # the next snapshot must re-sort by original sequence.
            self._out_of_order = True
        else:
            self._seq_by_job[job.job_id] = next(self._sequence)
        self._jobs[job.job_id] = job
        self._buckets.setdefault(self.bucket_key(job), OrderedDict())[job.job_id] = job

    def remove(self, job: Job) -> bool:
        # The sequence number is deliberately retained so a later
        # preserve_position push restores the job's place.
        if self._jobs.pop(job.job_id, None) is None:
            return False
        bucket = self._buckets.get(self.bucket_key(job))
        if bucket is not None:
            bucket.pop(job.job_id, None)
            if not bucket:
                del self._buckets[self.bucket_key(job)]
        return True

    def forget(self, job: Job) -> None:
        """Drop a departed job's retained sequence number.

        Called when a job reaches a terminal state so the sequence map stays
        bounded by the queue's churn, not by every job ever queued.  A job
        still in the queue keeps its entry (the ordering depends on it).
        """
        if job.job_id not in self._jobs:
            self._seq_by_job.pop(job.job_id, None)

    def sequence_of(self, job_id: int) -> Optional[int]:
        """First-enqueue sequence number of a queued (or running) job.

        Running jobs retain their number until they reach a terminal state,
        so snapshots can record where an in-flight job would re-enter the
        queue if it had to be replayed after a crash.
        """
        return self._seq_by_job.get(job_id)

    def jobs(self) -> List[Job]:
        """Queue snapshot in FIFO (first-enqueue) order."""
        if self._out_of_order:
            ordered = sorted(self._jobs.values(), key=lambda job: self._seq_by_job[job.job_id])
            self._jobs = OrderedDict((job.job_id, job) for job in ordered)
            self._out_of_order = False
        return list(self._jobs.values())

    def bucket_keys(self) -> List[BucketKey]:
        """Constraint buckets with at least one queued job."""
        return list(self._buckets)

    def bucket_sizes(self) -> Dict[BucketKey, int]:
        return {key: len(bucket) for key, bucket in self._buckets.items()}


class DispatchEngine:
    """Computes batched (job, slot) assignments under a scheduling policy.

    Parameters
    ----------
    policy:
        A :class:`~repro.accessserver.policies.SchedulingPolicy` instance or
        registered name (``"fifo"``, ``"priority"``, ``"fair-share"``).
    event_bus:
        Optional :class:`~repro.simulation.events.EventBus`; when present the
        engine publishes ``dispatch.assigned``, ``dispatch.released``,
        ``dispatch.cancelled`` and ``dispatch.batch`` records.
    reservation_admission:
        ``"ignore"`` (default, the seed behaviour) places a job on any slot
        whose *current* reservation state allows it; ``"defer"`` additionally
        skips slots whose next upcoming reservation (held by someone else)
        starts before the job's ``timeout_s`` could elapse, so a long job is
        never parked in front of an imminent interactive session.
    """

    ADMISSION_MODES = ("ignore", "defer")

    def __init__(
        self,
        policy: Union[str, SchedulingPolicy] = "fifo",
        event_bus: Optional[EventBus] = None,
        reservation_admission: str = "ignore",
    ) -> None:
        self.slots = DeviceSlotIndex()
        self.queue = ConstraintQueue()
        self.reservations = ReservationIndex()
        self._policy = create_policy(policy)
        self._event_bus = event_bus
        self._running_by_owner: Dict[str, int] = {}
        # The hold table: job id -> the slots its execution holds beyond the
        # primary one recorded on the job itself.  Membership is the
        # "executing" mark; release() gives the whole family back.
        self._executing: Dict[int, Tuple[Tuple[str, str], ...]] = {}
        self._batches = 0
        self._assignments = 0
        self._reservation_admission = "ignore"
        self.reservation_admission = reservation_admission
        self._credit_balance_provider: Optional[Callable[[], Dict[str, float]]] = None

    # -- configuration ---------------------------------------------------------------
    @property
    def reservation_admission(self) -> str:
        return self._reservation_admission

    @reservation_admission.setter
    def reservation_admission(self, mode: str) -> None:
        if mode not in self.ADMISSION_MODES:
            raise SchedulingError(
                f"unknown reservation admission mode {mode!r}; "
                f"available: {', '.join(self.ADMISSION_MODES)}"
            )
        self._reservation_admission = mode

    @property
    def policy(self) -> SchedulingPolicy:
        return self._policy

    def set_policy(self, policy: Union[str, SchedulingPolicy]) -> SchedulingPolicy:
        self._policy = create_policy(policy)
        return self._policy

    def set_credit_balance_provider(
        self, provider: Optional[Callable[[], Dict[str, float]]]
    ) -> None:
        """Feed per-owner credit balances into each tick's :class:`DispatchStats`.

        The access server wires this when the credit system comes on; the
        ``credit`` scheduling policy consumes the balances as fair-share
        weights.  ``None`` disconnects (stats revert to empty balances).
        """
        self._credit_balance_provider = provider

    @property
    def event_bus(self) -> Optional[EventBus]:
        return self._event_bus

    @property
    def batches_dispatched(self) -> int:
        return self._batches

    @property
    def assignments_made(self) -> int:
        return self._assignments

    def running_by_owner(self) -> Dict[str, int]:
        return dict(self._running_by_owner)

    # -- assignment lifecycle ---------------------------------------------------------
    def assign(self, job: Job, vantage_point: str, device_serial: str, now: float) -> None:
        """Bind ``job`` to a free slot and mark it running."""
        self.slots.mark_busy(vantage_point, device_serial, job.job_id)
        self.queue.remove(job)
        job.mark_running(now, vantage_point, device_serial)
        owner = job.spec.owner
        self._running_by_owner[owner] = self._running_by_owner.get(owner, 0) + 1
        self._assignments += 1
        self._emit(
            "dispatch.assigned",
            job_id=job.job_id,
            job=job.spec.name,
            owner=owner,
            vantage_point=vantage_point,
            device_serial=device_serial,
            policy=self._policy.name,
        )

    def release(self, job: Job, forget: bool = True) -> None:
        """Give back everything ``job`` holds — the one exit from a device hold.

        Clears the executing mark, frees the extra slots recorded by
        :meth:`begin_execution` and then the primary slot (O(1) via the
        job's own assignment), so ``dispatch.released`` — which names only
        the primary — is published once every slot of the family is free.

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

    # -- dispatch decisions -----------------------------------------------------------
    def next_dispatchable(
        self,
        now: float,
        controller_cpu: Optional[Callable[[str], float]] = None,
    ) -> Optional[Tuple[Job, str, str]]:
        """First policy-ordered queued job that can run right now, if any."""
        cpu_cache: Dict[str, float] = {}
        for job in self._policy.order(self.queue.jobs(), self._stats(now)):
            if job.spec.execution != "push":
                continue
            slot, _ = self._find_slot(job, now, controller_cpu, cpu_cache)
            if slot is not None:
                return job, slot.vantage_point, slot.device_serial
        return None

    def dispatch_batch(
        self,
        now: float,
        controller_cpu: Optional[Callable[[str], float]] = None,
        max_assignments: Optional[int] = None,
    ) -> List[Assignment]:
        """Assign a maximal set of queued jobs to free slots in one tick.

        Jobs are tried in policy order; each assignment consumes its slot
        immediately, so one-job-per-device holds within the batch.  A bucket
        whose constrained slot subset has no free slot left is skipped for
        the remainder of the tick.  Returns the assignments made (the jobs
        are now RUNNING); with FIFO this set equals what the seed's repeated
        ``next_dispatchable`` + ``assign`` loop would have produced.
        """
        assignments: List[Assignment] = []
        cpu_cache: Dict[str, float] = {}
        dead_buckets: Set[BucketKey] = set()
        for job in self._policy.order(self.queue.jobs(), self._stats(now)):
            if max_assignments is not None and len(assignments) >= max_assignments:
                break
            if self.slots.free_count == 0:
                break
            if job.spec.execution != "push":
                # Agent-pull jobs wait in the queue (keeping their FIFO
                # position) until a daemon claims them; the push executor
                # must never place them.
                continue
            bucket = ConstraintQueue.bucket_key(job)
            if bucket in dead_buckets:
                continue
            slot, saw_free_slot = self._find_slot(job, now, controller_cpu, cpu_cache)
            if slot is None:
                if not saw_free_slot:
                    dead_buckets.add(bucket)
                    # Once every bucket still holding queued jobs is dead,
                    # nothing later in the policy order can dispatch either.
                    if all(key in dead_buckets for key in self.queue.bucket_keys()):
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
        self._batches += 1
        self._emit(
            "dispatch.batch",
            assigned=len(assignments),
            queued=len(self.queue),
            free_slots=self.slots.free_count,
            policy=self._policy.name,
        )
        return assignments

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
        self._emit(
            "dispatch.requeued",
            job_id=job.job_id,
            job=job.spec.name,
            owner=job.spec.owner,
            vantage_point=vantage_point,
            device_serial=device_serial,
        )

    def eligible(
        self,
        job: Job,
        vantage_point: str,
        device_serial: str,
        now: float,
        controller_cpu: Optional[Callable[[str], float]] = None,
    ) -> bool:
        """Re-check a specific (job, slot) pairing against the current state.

        Used by executors that received an assignment earlier in a wave and
        need to confirm the reservation/CPU constraints still hold at the
        (possibly advanced) execution time.
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

    def cancel_reservation(self, reservation_id: int) -> bool:
        """Remove a session reservation, announcing it on the event bus.

        The ``dispatch.reservation_cancelled`` record lets event-driven
        dispatchers retry jobs that were blocked by the reservation instead
        of sleeping until its original end time.
        """
        removed = self.reservations.remove(reservation_id)
        if removed:
            self._emit("dispatch.reservation_cancelled", reservation_id=reservation_id)
        return removed

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

    def cancel(self, job: Job) -> None:
        """Drop a job from the queue and free its slot if it was running.

        A job whose payload is currently executing keeps its device until the
        executor finishes and releases it — freeing mid-execution would let a
        second job onto a device that is still in use.
        """
        slot = (
            self.slots.slot(job.assigned_vantage_point, job.assigned_device)
            if job.assigned_vantage_point is not None and job.assigned_device is not None
            else None
        )
        was_running = slot is not None and slot.busy_job_id == job.job_id
        self.queue.remove(job)
        self.queue.forget(job)  # cancellation is terminal; drop the retained sequence
        if job.job_id not in self._executing:
            self.release(job)
        self._emit(
            "dispatch.cancelled",
            job_id=job.job_id,
            job=job.spec.name,
            owner=job.spec.owner,
            was_running=was_running,
        )

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

    def _find_slot(
        self,
        job: Job,
        now: float,
        controller_cpu: Optional[Callable[[str], float]],
        cpu_cache: Dict[str, float],
    ) -> Tuple[Optional[DeviceSlot], bool]:
        """First acceptable free slot for ``job`` plus whether any free slot matched.

        The second element distinguishes "this job's constraint bucket has no
        free slot at all" (owner-independent — the bucket is dead for this
        tick) from "slots exist but reservations/CPU filtered them for this
        particular job".
        """
        constraints = job.spec.constraints
        saw_free_slot = False
        for slot in self.slots.iter_free(constraints.vantage_point, constraints.device_serial):
            saw_free_slot = True
            if self.reservations.blocked_for(
                slot.vantage_point, slot.device_serial, now, job.spec.owner
            ):
                continue
            if self._deferred_by_upcoming_reservation(
                job, slot.vantage_point, slot.device_serial, now
            ):
                continue
            if constraints.require_low_controller_cpu and controller_cpu is not None:
                cpu = cpu_cache.get(slot.vantage_point)
                if cpu is None:
                    cpu = controller_cpu(slot.vantage_point)
                    cpu_cache[slot.vantage_point] = cpu
                if cpu > constraints.max_controller_cpu_percent:
                    continue
            return slot, True
        return None, saw_free_slot

    def _deferred_by_upcoming_reservation(
        self, job: Job, vantage_point: str, device_serial: str, now: float
    ) -> bool:
        """In ``"defer"`` mode, true when the job's timeout collides with a
        reservation that starts later but before the timeout could elapse."""
        if self._reservation_admission != "defer":
            return False
        upcoming = self.reservations.next_blocking_start(
            vantage_point, device_serial, now, job.spec.owner
        )
        return upcoming is not None and upcoming < now + job.spec.timeout_s

    def _emit(self, topic: str, **payload: object) -> None:
        if self._event_bus is not None:
            self._event_bus.publish(topic, **payload)
