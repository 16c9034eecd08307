"""Canonical operations records, and the journal they are read from.

The analytics subsystem is an event-sourcing fold: every operational fact
it reports is derived from a stream of :class:`OpsRecord` values — one
timestamped, primitive-valued record per platform mutation.  Each comes
from one journal-vocabulary record (``kind``, ``ts``, ``data``) through
:func:`normalize_journal_record`, whichever way it arrives:

* **cold** — :class:`JournalReplaySource` reads a persistence
  :class:`~repro.accessserver.persistence.StorageBackend` (the write-ahead
  journal plus its snapshot) and normalises each journal record.  Snapshot
  compaction folds old records away, so the source first *synthesises*
  records from the snapshot's materialised state (a job row becomes its
  ``job.submitted``/``job.assigned``/``job.finished`` lifecycle at the
  timestamps the row retained) and then applies journal records with
  ``seq`` greater than the snapshot's — the same replay guard crash
  recovery uses.
* **hot** — the access server builds each mutation's record once and
  hands it to the journal and then to the live engine
  (``AccessServer.record``), so a live fold reads the very records a
  replay reads.  The event bus is not an input.

A report folded live and a report folded from a cold replay of the same
*uncompacted* journal are therefore byte-identical by construction.  Once
a checkpoint folds the journal into a snapshot, replay sees only what the
snapshot retains: totals and final timelines survive, but requeue counts,
approval latency, exact cancel times, retention-expired terminal jobs and
already-cancelled reservations do not (see DESIGN.md, "live-vs-replay
semantics").  Records that carry no operational signal (``policy.changed``,
``user.created``, account bookkeeping) normalise to ``None`` and are
skipped.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.accessserver.jobs import JobStatus
from repro.accessserver.persistence.backends import FileBackend, StorageBackend
from repro.accessserver.persistence.codec import JOB_DEFAULTS, SPEC_DEFAULTS

#: Canonical record kinds the reducers consume: the write-ahead journal's
#: vocabulary.
KIND_JOB_SUBMITTED = "job.submitted"
KIND_JOB_APPROVED = "job.approved"
KIND_JOB_ASSIGNED = "job.assigned"
KIND_JOB_REQUEUED = "job.requeued"
KIND_JOB_FINISHED = "job.finished"
KIND_JOB_CANCELLED = "job.cancelled"
KIND_JOB_REJECTED = "job.rejected"
KIND_RESERVATION_CREATED = "reservation.created"
KIND_RESERVATION_CANCELLED = "reservation.cancelled"
KIND_CREDIT_TXN = "credit.txn"


@dataclass(frozen=True)
class OpsRecord:
    """One canonical operational fact: ``(ts, kind, data)``.

    ``data`` holds only JSON primitives; a journal record and the snapshot
    row it was folded into read back as equal records where the row kept
    what the record said.
    """

    ts: float
    kind: str
    data: Dict[str, object] = field(default_factory=dict)


def _assigned_data(
    job_id, vantage_point, device_serial
) -> Dict[str, object]:
    """Canonical ``job.assigned`` payload (journal records and snapshot rows)."""
    return {
        "job_id": job_id,
        "vantage_point": vantage_point,
        "device_serial": device_serial,
    }


def _reservation_data(data: Dict[str, object]) -> Dict[str, object]:
    """Canonical ``reservation.created`` payload from a journal record or snapshot row."""
    return {
        "reservation_id": data["reservation_id"],
        "username": data.get("username", ""),
        "vantage_point": data.get("vantage_point"),
        "device_serial": data.get("device_serial"),
        "start_s": float(data.get("start_s", 0.0)),
        "duration_s": float(data.get("duration_s", 0.0)),
    }


def _credit_txn_data(data: Dict[str, object]) -> Dict[str, object]:
    """Canonical ``credit.txn`` payload from a journal record or snapshot row."""
    return {
        "account": data["account"],
        "kind": data.get("kind", ""),
        "amount_device_hours": float(data.get("amount_device_hours", 0.0)),
    }


def _job_submitted_data(job: Dict[str, object]) -> Dict[str, object]:
    """Canonical ``job.submitted`` payload from a serialized job row.

    A row spells out only what its job chose; what it leaves out is read
    from the field tables the persistence codec elides by.
    """
    spec = job.get("spec", {})
    return {
        "job_id": job["job_id"],
        "name": spec.get("name", ""),
        "owner": spec.get("owner", ""),
        "priority": float(spec.get("priority", SPEC_DEFAULTS["priority"])),
        "timeout_s": float(spec.get("timeout_s", SPEC_DEFAULTS["timeout_s"])),
        "is_pipeline_change": bool(
            spec.get("is_pipeline_change", SPEC_DEFAULTS["is_pipeline_change"])
        ),
        "status": job.get("status", JOB_DEFAULTS["status"].value),
        "submitted_at": float(job.get("submitted_at", JOB_DEFAULTS["submitted_at"])),
    }


def normalize_journal_record(record: Dict[str, object]) -> Optional[OpsRecord]:
    """One raw journal record -> its canonical form (``None`` = no signal).

    ``record`` has the ``kind``, ``ts`` and ``data`` every journal record
    is written with (its ``seq`` is not read).
    """
    kind = record["kind"]
    ts = float(record["ts"])
    data = record["data"]
    if kind == KIND_JOB_SUBMITTED:
        return OpsRecord(ts, kind, _job_submitted_data(data["job"]))
    if kind == KIND_JOB_ASSIGNED:
        return OpsRecord(
            ts,
            kind,
            _assigned_data(
                data["job_id"], data.get("vantage_point"), data.get("device_serial")
            ),
        )
    if kind == KIND_JOB_FINISHED:
        return OpsRecord(
            ts,
            kind,
            {
                "job_id": data["job_id"],
                "status": data["status"],
                "finished_at": float(data.get("finished_at") or ts),
            },
        )
    if kind in (KIND_JOB_APPROVED, KIND_JOB_REQUEUED, KIND_JOB_CANCELLED, KIND_JOB_REJECTED):
        return OpsRecord(ts, kind, {"job_id": data["job_id"]})
    if kind == KIND_RESERVATION_CREATED:
        return OpsRecord(ts, kind, _reservation_data(data))
    if kind == KIND_RESERVATION_CANCELLED:
        return OpsRecord(ts, kind, {"reservation_id": data["reservation_id"]})
    if kind == KIND_CREDIT_TXN:
        return OpsRecord(float(data.get("timestamp", ts)), kind, _credit_txn_data(data))
    # user.created, vantage_point.registered, policy.changed, credit.enabled,
    # credit.account_opened, job.rejected reasons ... — configuration and
    # bookkeeping records with no utilisation signal.
    return None


_TERMINAL = (JobStatus.COMPLETED.value, JobStatus.FAILED.value)


def synthesize_snapshot_records(snapshot: Optional[Dict[str, object]]) -> List[OpsRecord]:
    """Reconstruct canonical records from a snapshot's materialised state.

    Compaction folds journal history into the snapshot; this inverts what
    can be inverted: each job row becomes its lifecycle at the timestamps
    the row kept (requeue history and approval latency are gone — the
    documented cost of compaction), reservations become their creation
    records, and credit accounts replay their retained transaction logs.
    A cancelled row kept no cancellation time, so its record is stamped at
    the best bound the snapshot retains (``finished_at`` or submission).
    """
    if snapshot is None:
        return []
    records: List[OpsRecord] = []
    for job in snapshot.get("jobs", ()):
        submitted = _job_submitted_data(job)
        is_pipeline_change = submitted["is_pipeline_change"]
        status = submitted["status"]
        # The row's status is the *folded* status; at submission time the
        # job was either queued or awaiting approval.
        submitted["status"] = (
            JobStatus.PENDING_APPROVAL.value
            if is_pipeline_change
            else JobStatus.QUEUED.value
        )
        submitted_at = submitted["submitted_at"]
        records.append(OpsRecord(submitted_at, KIND_JOB_SUBMITTED, submitted))
        if is_pipeline_change and status != JobStatus.PENDING_APPROVAL.value:
            # The row left the approval queue before the checkpoint; the
            # snapshot kept no approval timestamp (documented compaction
            # loss), so the best bound is submission time.
            records.append(
                OpsRecord(submitted_at, KIND_JOB_APPROVED, {"job_id": job["job_id"]})
            )
        started_at = job.get("started_at")
        if started_at is not None and status in (JobStatus.RUNNING.value, *_TERMINAL):
            records.append(
                OpsRecord(
                    float(started_at),
                    KIND_JOB_ASSIGNED,
                    _assigned_data(
                        job["job_id"],
                        job.get("assigned_vantage_point"),
                        job.get("assigned_device"),
                    ),
                )
            )
        if status in _TERMINAL:
            finished_at = float(job.get("finished_at") or submitted_at)
            records.append(
                OpsRecord(
                    finished_at,
                    KIND_JOB_FINISHED,
                    {"job_id": job["job_id"], "status": status, "finished_at": finished_at},
                )
            )
        elif status == JobStatus.CANCELLED.value:
            cancelled_at = float(job.get("finished_at") or submitted_at)
            records.append(
                OpsRecord(cancelled_at, KIND_JOB_CANCELLED, {"job_id": job["job_id"]})
            )
            # A cancelled row whose error records an administrator
            # rejection was a rejected pipeline change; the journal's
            # job.rejected record was folded away but the flag survives.
            if str(job.get("error") or "").startswith("rejected"):
                records.append(
                    OpsRecord(
                        cancelled_at, KIND_JOB_REJECTED, {"job_id": job["job_id"]}
                    )
                )
    for reservation in snapshot.get("reservations", ()):
        records.append(
            OpsRecord(
                float(reservation.get("start_s", 0.0)),
                KIND_RESERVATION_CREATED,
                _reservation_data(reservation),
            )
        )
    credit = snapshot.get("credit")
    if credit is not None:
        for account in credit.get("accounts", ()):
            for txn in account.get("transactions", ()):
                data = dict(txn)
                data.setdefault("account", account.get("owner", ""))
                records.append(
                    OpsRecord(
                        float(txn.get("timestamp", 0.0)),
                        KIND_CREDIT_TXN,
                        _credit_txn_data(data),
                    )
                )
    return records


class RecordSource(abc.ABC):
    """Anything that yields canonical :class:`OpsRecord` values to fold."""

    @abc.abstractmethod
    def records(self) -> Iterator[OpsRecord]:
        """The canonical record stream, in fold order."""


class JournalReplaySource(RecordSource):
    """Cold source: snapshot synthesis + journal records past the snapshot.

    Accepts a :class:`~repro.accessserver.persistence.StorageBackend` or a
    state-directory path (which becomes a read-only ``FileBackend``).
    """

    def __init__(self, backend: Union[StorageBackend, str, Path]) -> None:
        if isinstance(backend, (str, Path)):
            backend = FileBackend(backend)
        self._backend = backend

    @property
    def backend(self) -> StorageBackend:
        return self._backend

    def records(self) -> Iterator[OpsRecord]:
        snapshot = self._backend.read_snapshot()
        for record in synthesize_snapshot_records(snapshot):
            yield record
        floor = snapshot.get("sequence", 0) if snapshot is not None else 0
        for raw in self._backend.read_journal():
            if raw.get("seq", 0) <= floor:
                continue  # already folded into the snapshot (same replay
                # guard recover_into applies)
            normalized = normalize_journal_record(raw)
            if normalized is not None:
                yield normalized
