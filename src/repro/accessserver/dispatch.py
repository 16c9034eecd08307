"""The indexes dispatch decides over, and the records it hands out.

"What can run now?" is answered without scanning every queued job × every
device slot × every reservation; these structures are sized for many
vantage points:

* :class:`DeviceSlotIndex` — per-vantage-point sorted free-slot indexes so a
  constrained job probes exactly the slots it may use, in deterministic
  ``(vantage_point, device_serial)`` order;
* :class:`ReservationIndex` — per-device interval index over
  :class:`SessionReservation` objects; the active reservation at ``now`` is
  found with one bisect instead of a scan over every reservation;
* :class:`ConstraintQueue` — FIFO job queue split by execution plane and
  counted by the ``(vantage_point, device_serial)`` constraint pair, so
  each plane walks only its own jobs and a dispatch tick skips a whole
  bucket once its target slots are exhausted.

:class:`~repro.accessserver.scheduler.JobScheduler` owns one of each and
makes every decision over them; it returns an :class:`Assignment` per
``(job, slot)`` pairing and raises :class:`SchedulingError`.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.accessserver.jobs import Job


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
    """FIFO job queue, split by execution plane and counted by constraint bucket.

    Each plane (a job's ``spec.execution``: ``"push"`` or ``"agent"``) keeps
    its queued jobs in one insertion-ordered dict, so a dispatch tick walks
    only push jobs and an agent poll only agent jobs.  Sequence numbers are
    global, so :meth:`jobs` with no plane merges the planes back into the
    one FIFO.  Per plane the queue counts jobs per
    ``(vantage_point, device_serial)`` constraint bucket, letting a dispatch
    tick write off every job of a bucket at once when the bucket's slots are
    exhausted (an owner-independent condition) and stop scanning entirely
    once every remaining bucket is dead.

    A job can re-enter the queue with its original position preserved
    (``push(job, preserve_position=True)``) after a lapsed assignment; each
    job's first-enqueue sequence number is retained for that purpose.
    """

    def __init__(self) -> None:
        self._planes: Dict[str, "OrderedDict[int, Job]"] = {}
        self._buckets: Dict[str, "Counter[BucketKey]"] = {}
        self._sequence = itertools.count()
        self._seq_by_job: Dict[int, int] = {}
        # Planes a preserved-position push left out of FIFO order.
        self._out_of_order: Set[str] = set()

    @staticmethod
    def bucket_key(job: Job) -> BucketKey:
        constraints = job.spec.constraints
        return (constraints.vantage_point, constraints.device_serial)

    def __len__(self) -> int:
        return sum(len(jobs) for jobs in self._planes.values())

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._planes.get(job.spec.execution, ())

    def push(self, job: Job, preserve_position: bool = False) -> None:
        plane = job.spec.execution
        jobs = self._planes.setdefault(plane, OrderedDict())
        if job.job_id in jobs:
            return
        if preserve_position and job.job_id in self._seq_by_job:
            # Re-entering mid-queue: the dict append puts it at the tail, so
            # the next read of the plane must re-sort by original sequence.
            self._out_of_order.add(plane)
        else:
            self._seq_by_job[job.job_id] = next(self._sequence)
        jobs[job.job_id] = job
        self._buckets.setdefault(plane, Counter())[self.bucket_key(job)] += 1

    def remove(self, job: Job) -> bool:
        # The sequence number is deliberately retained so a later
        # preserve_position push restores the job's place.
        plane = job.spec.execution
        jobs = self._planes.get(plane)
        if jobs is None or jobs.pop(job.job_id, None) is None:
            return False
        buckets = self._buckets[plane]
        key = self.bucket_key(job)
        buckets[key] -= 1
        if not buckets[key]:
            del buckets[key]
        return True

    def forget(self, job: Job) -> None:
        """Drop a departed job's retained sequence number.

        Called when a job reaches a terminal state so the sequence map stays
        bounded by the queue's churn, not by every job ever queued.  A job
        still in the queue keeps its entry (the ordering depends on it).
        """
        if job not in self:
            self._seq_by_job.pop(job.job_id, None)

    def sequence_of(self, job_id: int) -> Optional[int]:
        """First-enqueue sequence number of a queued (or running) job.

        Running jobs retain their number until they reach a terminal state,
        so snapshots can record where an in-flight job would re-enter the
        queue if it had to be replayed after a crash.
        """
        return self._seq_by_job.get(job_id)

    def jobs(self, execution: Optional[str] = None) -> List[Job]:
        """Queue snapshot in FIFO (first-enqueue) order: one plane's, or all merged."""
        if execution is not None:
            return list(self._plane(execution).values())
        planes = [self._plane(name).values() for name in list(self._planes)]
        return list(heapq.merge(*planes, key=lambda job: self._seq_by_job[job.job_id]))

    def plane_length(self, execution: str) -> int:
        """Queued jobs of one plane, counted without a walk."""
        return len(self._planes.get(execution, ()))

    def bucket_keys(self, execution: str) -> List[BucketKey]:
        """Constraint buckets with at least one queued job of the plane."""
        return list(self._buckets.get(execution, ()))

    def bucket_sizes(self) -> Dict[BucketKey, int]:
        """Queued jobs per constraint bucket, over both planes."""
        return dict(sum(self._buckets.values(), Counter()))

    def _plane(self, execution: str) -> "OrderedDict[int, Job]":
        jobs = self._planes.get(execution)
        if jobs is None:
            return OrderedDict()
        if execution in self._out_of_order:
            ordered = sorted(jobs.items(), key=lambda item: self._seq_by_job[item[0]])
            self._planes[execution] = jobs = OrderedDict(ordered)
            self._out_of_order.discard(execution)
        return jobs
