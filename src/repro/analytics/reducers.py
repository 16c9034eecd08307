"""Incremental reducers folding canonical records into operational views.

Each reducer is a small state machine with ``fold(record)`` — O(1) dict
updates per record, so the live tap adds negligible cost to the dispatch
hot path — and a ``view()`` producing plain, JSON-stable dicts (keys
sorted, floats rounded) so two folds of the same stream serialise to
identical bytes.

* :class:`JobLifecycleReducer` — per-job timelines (submission, first
  assignment, requeues, terminal state) aggregated into per-owner
  utilisation, per-device occupancy/failure-rate, fleet-wide job counts
  and queue-wait / run-time percentile samples.
* :class:`CreditReducer` — per-account credit burn (usage) and grants.
* :class:`ReservationReducer` — interactive-session booking counters.
* :class:`ThroughputReducer` — fleet throughput timeseries with
  configurable bucketing (base buckets at fold time, re-bucketed to any
  coarser multiple at query time).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.accessserver.jobs import JobStatus
from repro.analytics.records import (
    KIND_CREDIT_TXN,
    KIND_JOB_APPROVED,
    KIND_JOB_ASSIGNED,
    KIND_JOB_CANCELLED,
    KIND_JOB_FINISHED,
    KIND_JOB_REJECTED,
    KIND_JOB_REQUEUED,
    KIND_JOB_SUBMITTED,
    KIND_RESERVATION_CANCELLED,
    KIND_RESERVATION_CREATED,
    OpsRecord,
)


def round6(value: float) -> float:
    """Canonical float rounding for every reported value (byte stability)."""
    return round(float(value), 6)


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of pre-sorted ``samples`` (empty -> 0.0)."""
    if not samples:
        return 0.0
    rank = max(1, math.ceil(fraction * len(samples)))
    return samples[min(rank, len(samples)) - 1]


# Wire strings of the statuses the fold names; read once, because an enum
# member's ``.value`` is a descriptor call and the fold compares per record.
_PENDING_APPROVAL = JobStatus.PENDING_APPROVAL.value
_QUEUED = JobStatus.QUEUED.value
_RUNNING = JobStatus.RUNNING.value
_COMPLETED = JobStatus.COMPLETED.value
_FAILED = JobStatus.FAILED.value
_CANCELLED = JobStatus.CANCELLED.value


def distribution_view(samples: List[float]) -> Dict[str, object]:
    """Summary statistics of a sample list as a stable dict."""
    return _ordered_view(sorted(samples))


def _ordered_view(ordered: List[float]) -> Dict[str, object]:
    """:func:`distribution_view` of samples already in ascending order."""
    count = len(ordered)
    return {
        "samples": count,
        "mean_s": round6(sum(ordered) / count) if count else 0.0,
        "p50_s": round6(percentile(ordered, 0.50)),
        "p90_s": round6(percentile(ordered, 0.90)),
        "p99_s": round6(percentile(ordered, 0.99)),
        "max_s": round6(ordered[-1]) if count else 0.0,
    }


class _Samples:
    """Samples appended by the fold and read in ascending order by reports.

    A read that finds arrivals since the last one sorts the ordered prefix
    it kept plus the new tail — near-linear for timsort — into a fresh
    list and keeps that; the fold's list is never reordered under it, so a
    lock-free report beside a running fold sees a whole snapshot.
    """

    __slots__ = ("_arrived", "_ordered")

    def __init__(self) -> None:
        self._arrived: List[float] = []
        self._ordered: List[float] = []

    def append(self, sample: float) -> None:
        self._arrived.append(sample)

    def ordered(self) -> List[float]:
        ordered = self._ordered
        tail = self._arrived[len(ordered):]
        if tail:
            ordered = ordered + tail
            ordered.sort()
            self._ordered = ordered
        return ordered


@dataclass(slots=True)
class _JobTimeline:
    """What the fold has seen of one job so far."""

    owner: str = ""
    status: str = _QUEUED
    submitted_at: float = 0.0
    first_assigned_at: Optional[float] = None
    last_assigned_at: Optional[float] = None
    slot: Optional[Tuple[str, str]] = None  # (vantage_point, device_serial)
    requeues: int = 0
    rejected: bool = False


@dataclass
class _DeviceStats:
    assignments: int = 0
    requeues: int = 0
    completed: int = 0
    failed: int = 0
    busy_seconds: float = 0.0


@dataclass
class _OwnerStats:
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    device_seconds: float = 0.0
    queue_wait_s: float = 0.0


class JobLifecycleReducer:
    """Folds the job lifecycle into owner, device and fleet views."""

    def __init__(self) -> None:
        self._jobs: Dict[int, _JobTimeline] = {}
        self._owners: Dict[str, _OwnerStats] = {}
        self._devices: Dict[Tuple[str, str], _DeviceStats] = {}
        self._wait_samples = _Samples()
        self._run_samples = _Samples()
        self._requeues = 0
        # Kept as the fold moves a timeline, so job_counts() reads them
        # instead of walking every retained job.
        self._by_status: Counter = Counter()
        self._rejected = 0

    # -- folding ------------------------------------------------------------
    def fold(self, record: OpsRecord) -> None:
        handler = self._HANDLERS.get(record.kind)
        if handler is not None:
            handler(self, record)

    def _owner(self, owner: str) -> _OwnerStats:
        stats = self._owners.get(owner)
        if stats is None:
            stats = self._owners[owner] = _OwnerStats()
        return stats

    def _device(self, slot: Tuple[str, str]) -> _DeviceStats:
        stats = self._devices.get(slot)
        if stats is None:
            stats = self._devices[slot] = _DeviceStats()
        return stats

    def _set_status(self, timeline: _JobTimeline, status: str) -> None:
        """Move a tracked timeline to ``status``; the only writer of it."""
        self._by_status[timeline.status] -= 1
        self._by_status[status] += 1
        timeline.status = status

    def _on_submitted(self, record: OpsRecord) -> None:
        data = record.data
        job_id = data["job_id"]
        timeline = _JobTimeline(
            owner=str(data.get("owner", "")),
            status=str(data.get("status", _QUEUED)),
            submitted_at=float(data.get("submitted_at", record.ts)),
        )
        replaced = self._jobs.get(job_id)
        if replaced is not None:
            self._by_status[replaced.status] -= 1
            self._rejected -= replaced.rejected
        self._jobs[job_id] = timeline
        self._by_status[timeline.status] += 1
        self._owner(timeline.owner).submitted += 1

    def _on_approved(self, record: OpsRecord) -> None:
        timeline = self._jobs.get(record.data["job_id"])
        if timeline is None:
            return
        self._set_status(timeline, _QUEUED)

    def _on_assigned(self, record: OpsRecord) -> None:
        timeline = self._jobs.get(record.data["job_id"])
        if timeline is None:
            return
        vantage_point = record.data.get("vantage_point")
        device_serial = record.data.get("device_serial")
        slot = (str(vantage_point or "?"), str(device_serial or "?"))
        if timeline.first_assigned_at is None:
            timeline.first_assigned_at = record.ts
            wait = record.ts - timeline.submitted_at
            self._wait_samples.append(wait)
            self._owner(timeline.owner).queue_wait_s += wait
        timeline.last_assigned_at = record.ts
        timeline.slot = slot
        self._set_status(timeline, _RUNNING)
        self._device(slot).assignments += 1

    def _close_interval(self, timeline: _JobTimeline, end_ts: float) -> float:
        """Close an open device-occupancy interval; returns its length."""
        if timeline.slot is None or timeline.last_assigned_at is None:
            return 0.0
        busy = max(0.0, end_ts - timeline.last_assigned_at)
        self._device(timeline.slot).busy_seconds += busy
        return busy

    def _on_requeued(self, record: OpsRecord) -> None:
        timeline = self._jobs.get(record.data["job_id"])
        if timeline is None:
            return
        self._close_interval(timeline, record.ts)
        if timeline.slot is not None:
            self._device(timeline.slot).requeues += 1
        timeline.requeues += 1
        self._requeues += 1
        timeline.slot = None
        timeline.last_assigned_at = None
        self._set_status(timeline, _QUEUED)

    def _on_finished(self, record: OpsRecord) -> None:
        timeline = self._jobs.get(record.data["job_id"])
        if timeline is None:
            return
        status = str(record.data["status"])
        finished_at = float(record.data.get("finished_at", record.ts))
        busy = self._close_interval(timeline, finished_at)
        owner = self._owner(timeline.owner)
        owner.device_seconds += busy
        if timeline.last_assigned_at is not None:
            self._run_samples.append(finished_at - timeline.last_assigned_at)
        if status == _COMPLETED:
            owner.completed += 1
            if timeline.slot is not None:
                self._device(timeline.slot).completed += 1
        elif status == _FAILED:
            owner.failed += 1
            if timeline.slot is not None:
                self._device(timeline.slot).failed += 1
        self._set_status(timeline, status)
        timeline.slot = None
        timeline.last_assigned_at = None

    def _on_cancelled(self, record: OpsRecord) -> None:
        timeline = self._jobs.get(record.data["job_id"])
        if timeline is None:
            return
        busy = self._close_interval(timeline, record.ts)
        owner = self._owner(timeline.owner)
        owner.device_seconds += busy
        owner.cancelled += 1
        self._set_status(timeline, _CANCELLED)
        timeline.slot = None
        timeline.last_assigned_at = None

    def _on_rejected(self, record: OpsRecord) -> None:
        timeline = self._jobs.get(record.data["job_id"])
        if timeline is None or timeline.rejected:
            return
        timeline.rejected = True
        self._rejected += 1
        self._owner(timeline.owner).rejected += 1

    _HANDLERS = {
        KIND_JOB_SUBMITTED: _on_submitted,
        KIND_JOB_APPROVED: _on_approved,
        KIND_JOB_ASSIGNED: _on_assigned,
        KIND_JOB_REQUEUED: _on_requeued,
        KIND_JOB_FINISHED: _on_finished,
        KIND_JOB_CANCELLED: _on_cancelled,
        KIND_JOB_REJECTED: _on_rejected,
    }

    # -- views --------------------------------------------------------------
    def job_ids(self):
        return self._jobs.keys()

    def job_counts(self) -> Dict[str, int]:
        by_status = self._by_status
        submitted = len(self._jobs)
        named = {
            status: by_status[status]
            for status in (_COMPLETED, _FAILED, _CANCELLED, _RUNNING, _PENDING_APPROVAL)
        }
        return {
            "submitted": submitted,
            "completed": named[_COMPLETED],
            "failed": named[_FAILED],
            "cancelled": named[_CANCELLED],
            "rejected": self._rejected,
            "requeues": self._requeues,
            "running": named[_RUNNING],
            # Any status the fold does not name counts as queued.
            "queued": submitted - sum(named.values()),
            "pending_approval": named[_PENDING_APPROVAL],
        }

    def owner_rows(self) -> List[Dict[str, object]]:
        rows = []
        for owner in sorted(self._owners):
            stats = self._owners[owner]
            rows.append(
                {
                    "owner": owner,
                    "submitted": stats.submitted,
                    "completed": stats.completed,
                    "failed": stats.failed,
                    "cancelled": stats.cancelled,
                    "rejected": stats.rejected,
                    "device_seconds": round6(stats.device_seconds),
                    "queue_wait_s": round6(stats.queue_wait_s),
                }
            )
        return rows

    def device_rows(self, window_s: float) -> List[Dict[str, object]]:
        rows = []
        for slot in sorted(self._devices):
            stats = self._devices[slot]
            terminal = stats.completed + stats.failed
            rows.append(
                {
                    "vantage_point": slot[0],
                    "device_serial": slot[1],
                    "assignments": stats.assignments,
                    "requeues": stats.requeues,
                    "completed": stats.completed,
                    "failed": stats.failed,
                    "busy_seconds": round6(stats.busy_seconds),
                    "failure_rate": round6(stats.failed / terminal) if terminal else 0.0,
                    "occupancy": round6(stats.busy_seconds / window_s)
                    if window_s > 0
                    else 0.0,
                }
            )
        return rows

    def wait_distribution(self) -> Dict[str, object]:
        return _ordered_view(self._wait_samples.ordered())

    def run_distribution(self) -> Dict[str, object]:
        return _ordered_view(self._run_samples.ordered())


class CreditReducer:
    """Per-account credit burn (negative usage) and grants (positive)."""

    def __init__(self) -> None:
        self._burned: Dict[str, float] = {}
        self._granted: Dict[str, float] = {}

    def fold(self, record: OpsRecord) -> None:
        if record.kind != KIND_CREDIT_TXN:
            return
        account = str(record.data.get("account", ""))
        amount = float(record.data.get("amount_device_hours", 0.0))
        if amount < 0:
            self._burned[account] = self._burned.get(account, 0.0) - amount
        elif amount > 0:
            self._granted[account] = self._granted.get(account, 0.0) + amount

    def burned(self, account: str) -> float:
        return self._burned.get(account, 0.0)

    def granted(self, account: str) -> float:
        return self._granted.get(account, 0.0)

    def accounts(self) -> List[str]:
        return sorted(set(self._burned) | set(self._granted))


class ReservationReducer:
    """Interactive-session bookings: counts and device-hours reserved."""

    def __init__(self) -> None:
        self.created = 0
        self.cancelled = 0
        self.booked_device_hours = 0.0

    def fold(self, record: OpsRecord) -> None:
        if record.kind == KIND_RESERVATION_CREATED:
            self.created += 1
            self.booked_device_hours += float(record.data.get("duration_s", 0.0)) / 3600.0
        elif record.kind == KIND_RESERVATION_CANCELLED:
            self.cancelled += 1

    def view(self) -> Dict[str, object]:
        return {
            "created": self.created,
            "cancelled": self.cancelled,
            "booked_device_hours": round6(self.booked_device_hours),
        }


@dataclass
class _Bucket:
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0


class ThroughputReducer:
    """Fleet throughput bucketed at ``base_bucket_s`` resolution.

    ``timeseries(bucket_s)`` re-buckets to any coarser *multiple* of the
    base resolution (a non-multiple is rounded up, a finer size clamps to
    the base — the response's ``bucket_s`` reports what was used), so one
    fold serves every zoom level with honest bucket labels.
    """

    def __init__(self, base_bucket_s: float = 60.0) -> None:
        if base_bucket_s <= 0:
            raise ValueError("base_bucket_s must be positive")
        self.base_bucket_s = float(base_bucket_s)
        self._buckets: Dict[int, _Bucket] = {}

    def _bucket(self, ts: float) -> _Bucket:
        index = int(ts // self.base_bucket_s)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = _Bucket()
        return bucket

    def fold(self, record: OpsRecord) -> None:
        if record.kind == KIND_JOB_SUBMITTED:
            self._bucket(float(record.data.get("submitted_at", record.ts))).submitted += 1
        elif record.kind == KIND_JOB_FINISHED:
            ts = float(record.data.get("finished_at", record.ts))
            status = record.data.get("status")
            if status == _FAILED:
                self._bucket(ts).failed += 1
            else:
                self._bucket(ts).completed += 1
        elif record.kind == KIND_JOB_CANCELLED:
            self._bucket(record.ts).cancelled += 1

    def timeseries(self, bucket_s: Optional[float] = None) -> Dict[str, object]:
        size = self.base_bucket_s if bucket_s is None else float(bucket_s)
        if size < self.base_bucket_s:
            size = self.base_bucket_s  # cannot zoom below fold resolution
        else:
            # Base buckets are assigned whole; a query size that is not a
            # multiple of the base would mislabel counts near boundaries,
            # so round it up to the next multiple (reported in bucket_s).
            size = math.ceil(round(size / self.base_bucket_s, 9)) * self.base_bucket_s
        merged: Dict[int, _Bucket] = {}
        for index in sorted(self._buckets):
            start = index * self.base_bucket_s
            target = int(start // size)
            bucket = merged.setdefault(target, _Bucket())
            source = self._buckets[index]
            bucket.submitted += source.submitted
            bucket.completed += source.completed
            bucket.failed += source.failed
            bucket.cancelled += source.cancelled
        return {
            "bucket_s": round6(size),
            "buckets": [
                {
                    "start_s": round6(index * size),
                    "submitted": merged[index].submitted,
                    "completed": merged[index].completed,
                    "failed": merged[index].failed,
                    "cancelled": merged[index].cancelled,
                }
                for index in sorted(merged)
            ],
        }
