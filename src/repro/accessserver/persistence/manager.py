"""The manager: journals the access server's records and checkpoints."""

from __future__ import annotations

import errno
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.accessserver.payloads import catalogue_epoch
from repro.accessserver.persistence.backends import SnapshotJobs, StorageBackend
from repro.accessserver.persistence.codec import PersistenceError, _encode, serialize_job
from repro.accessserver.persistence.recovery import (
    TERMINAL_STATUSES,
    RecoveryReport,
    _retained_jobs,
    build_snapshot,
)
from repro.accessserver.persistence.splice import _cut, _place, _Plan, _Run
from repro.obs.logsetup import component_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.accessserver.server import AccessServer

_LOG = component_logger("repro.accessserver.persistence")


class PersistenceManager:
    """Journals the records the access server hands it and checkpoints
    periodically.

    The server builds each mutation's record and passes it to
    :meth:`append` (see ``AccessServer.record``); the manager numbers it,
    writes it and decides when a checkpoint is due.

    Created and attached by
    :meth:`~repro.accessserver.server.AccessServer.enable_persistence`;
    not normally constructed directly.

    Parameters
    ----------
    server:
        The access server to shadow.
    backend:
        Where journal and snapshots live.
    snapshot_every:
        Write a snapshot and truncate the journal after this many journal
        records, bounding replay cost at recovery time.
    start_sequence:
        Sequence number to continue from — the recovered state's last
        applied sequence.  Sequence numbers must never restart: the
        ``seq <= snapshot.sequence`` replay guard is what keeps a journal
        left behind by a crash between snapshot write and journal truncation
        from being applied twice.
    """

    def __init__(
        self,
        server: "AccessServer",
        backend: StorageBackend,
        snapshot_every: int = 1000,
        start_sequence: int = 0,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        self._server = server
        self._backend = backend
        self._snapshot_every = snapshot_every
        self._sequence = start_sequence
        self._records_since_snapshot = 0
        self._snapshots_written = 0
        self._last_snapshot_at: Optional[float] = None
        self._attached = False
        self.last_recovery: Optional[RecoveryReport] = None
        self._checkpoint_due = snapshot_every
        # The splice index (see _plan): where each settled job's record sits
        # in the current snapshot, as runs in id order; the payload
        # catalogue it was encoded under (None: no index, the next
        # checkpoint encodes everything); the jobs the last checkpoint
        # wrote as live, and the jobs journaled since.
        self._runs: List[_Run] = []
        self._epoch: Optional[int] = None
        self._live: List[int] = []
        self._touched: Set[int] = set()
        # Telemetry, on the server's registry.
        registry = server.obs.registry
        self._m_append = registry.histogram(
            "journal_append_seconds", "Wall time of one journal append."
        ).labels()
        self._g_fsyncs = registry.gauge(
            "journal_fsyncs_total", "fsync batches flushed by the backend."
        ).labels()
        self._g_since_snapshot = registry.gauge(
            "journal_records_since_snapshot",
            "Journal records a recovery would replay.",
        ).labels()
        self._g_snapshot_age = registry.gauge(
            "snapshot_age_seconds",
            "Simulated seconds since the last checkpoint (0 before the first).",
        ).labels()
        self._m_checkpoint = registry.histogram(
            "journal_checkpoint_seconds",
            "Wall time of one checkpoint (the dispatch thread stalls for it).",
        ).labels()
        self._g_snapshot_bytes = registry.gauge(
            "journal_snapshot_bytes", "Size of the last snapshot written."
        ).labels()
        snapshot_jobs = registry.counter(
            "journal_snapshot_jobs_total",
            "Job records written to snapshots: encoded by that checkpoint, "
            "or reused from the previous snapshot byte for byte.",
            labelnames=("source",),
        )
        snapshot_bytes = registry.counter(
            "journal_snapshot_bytes_total",
            "Snapshot bytes written: encoded by that checkpoint, or spliced "
            "from the previous snapshot by a kernel copy.",
            labelnames=("source",),
        )
        self._c_checkpoint_failures = registry.counter(
            "journal_checkpoint_failures_total",
            "Checkpoints that failed with an OSError; the previous snapshot "
            "and the journal past it stay in force.",
        ).labels()
        self._g_settled_cache = registry.gauge(
            "persistence_settled_cache_entries",
            "Settled jobs whose record the splice index locates in the snapshot.",
        ).labels()
        self._c_jobs_encoded = snapshot_jobs.labels(source="encoded")
        self._c_jobs_reused = snapshot_jobs.labels(source="reused")
        self._c_bytes_encoded = snapshot_bytes.labels(source="encoded")
        self._c_bytes_spliced = snapshot_bytes.labels(source="spliced")
        registry.add_collect_hook(self._collect_metrics)

    def _collect_metrics(self) -> None:
        self._g_fsyncs.set(float(getattr(self._backend, "fsyncs", 0)))
        self._g_since_snapshot.set(float(self._records_since_snapshot))
        self._g_snapshot_bytes.set(float(getattr(self._backend, "snapshot_bytes", 0)))
        self._g_settled_cache.set(float(sum(len(run.ids) for run in self._runs)))
        if self._last_snapshot_at is not None:
            self._g_snapshot_age.set(self._server.context.now - self._last_snapshot_at)
        else:
            self._g_snapshot_age.set(0.0)

    # -- introspection ------------------------------------------------------
    @property
    def backend(self) -> StorageBackend:
        return self._backend

    @property
    def sequence(self) -> int:
        """Sequence number of the last journaled record."""
        return self._sequence

    @property
    def settled_job_ids(self) -> List[int]:
        """Ids of the settled jobs the splice index locates, ascending."""
        return [job_id for run in self._runs for job_id in run.ids]

    def settled_records(self) -> Dict[int, str]:
        """Each indexed settled job's record, read back from the current
        snapshot where the index says it lies — for tests and forensics."""
        text = self._backend.read_snapshot_text() or ""
        return {
            job_id: text[begin:end]
            for run in self._runs
            for job_id, begin, end in run.records()
        }

    @property
    def snapshots_written(self) -> int:
        return self._snapshots_written

    @property
    def records_since_snapshot(self) -> int:
        return self._records_since_snapshot

    @property
    def last_snapshot_at(self) -> Optional[float]:
        """Simulated time of the last checkpoint (``None`` before the first)."""
        return self._last_snapshot_at

    # -- lifecycle ----------------------------------------------------------
    def attach(self) -> None:
        """Become the server's journal: its records come to :meth:`append`."""
        if self._attached:
            return
        self._server._persistence = self
        self._attached = True

    def detach(self) -> None:
        """Stop journaling; the backend is left open for inspection."""
        if not self._attached:
            return
        self._server._persistence = None
        self._attached = False

    def close(self) -> None:
        """Detach and release the backend (final fsync included)."""
        self.detach()
        self._backend.close()

    def checkpoint(self) -> None:
        """Write a snapshot of the current state and truncate the journal.

        The journal is fsynced first; that failing propagates as it is (a
        record may not be durable).  A snapshot write that fails with an
        ``OSError`` (a full disk) is logged, counted in
        ``journal_checkpoint_failures_total`` and raised with the journal
        untruncated: it and whichever snapshot is on disk still hold every
        record.  The splice index is dropped — the write may have failed
        after its rename, leaving the index's offsets pointing into the
        wrong file — so the next checkpoint encodes every job once.
        """
        checkpoint_t0 = time.perf_counter()
        epoch = catalogue_epoch()
        self._backend.sync()
        try:
            plan = self._plan()
            self._backend.write_snapshot(
                build_snapshot(self._server, self._sequence, plan.entries)
            )
            self._adopt(plan, epoch)
            self._backend.reset_journal()
        except OSError as exc:
            self._runs = []
            self._epoch = None
            _LOG.error(
                "checkpoint at journal seq %d failed (%s): %s; the snapshot on "
                "disk and the journal past it still hold every record",
                self._sequence,
                errno.errorcode.get(exc.errno, exc.errno),
                exc,
            )
            self._c_checkpoint_failures.inc()
            raise
        self._records_since_snapshot = 0
        self._checkpoint_due = self._snapshot_every
        self._snapshots_written += 1
        self._last_snapshot_at = self._server.context.now
        self._m_checkpoint.observe(time.perf_counter() - checkpoint_t0)
        self._c_jobs_reused.inc(plan.reused)
        self._c_jobs_encoded.inc(plan.encoded)
        self._c_bytes_spliced.inc(plan.spliced_bytes)
        self._c_bytes_encoded.inc(plan.entries.size - plan.spliced_bytes)

    def _plan(self) -> _Plan:
        """The snapshot's ``jobs`` entries and how to index them.

        A settled job's record never changes again: it is terminal, off the
        queue and its payload is no longer running (a job cancelled
        mid-payload still logs).  So once a checkpoint has written it, later
        ones splice its bytes from the snapshot they replace, and a
        checkpoint encodes only the jobs that can have changed: those it
        wrote as live last time and those journaled since — anything else
        that changes a job journals it.  The index drops a record when that
        job is encoded again or its retention lapses (each record carries
        the date, fixed when it settled), so it never holds more than the
        snapshot does.  With no index (after attach, recovery or a failed
        checkpoint) or a changed payload catalogue — the one input to a
        record that lives outside the job — every retained job is encoded,
        once.
        """
        server = self._server
        scheduler = server.scheduler
        sequence_of = scheduler.queue.sequence_of
        is_executing = scheduler.is_executing
        if self._epoch != catalogue_epoch():
            runs: List[_Run] = []
            jobs = _retained_jobs(server)
        else:
            changed = sorted(self._touched.union(self._live))
            runs = _cut(self._runs, changed, server.context.now)
            jobs = _retained_jobs(server, map(scheduler.job, changed))
        entries = SnapshotJobs()
        notes: List[object] = []
        live: List[int] = []
        encoded = spliced_bytes = 0
        next_run = 0
        for job in jobs:
            job_id = job.job_id
            while next_run < len(runs) and runs[next_run].ids[0] < job_id:
                spliced_bytes += _place(entries, notes, runs[next_run])
                next_run += 1
            queue_seq = sequence_of(job_id)
            entries.append(_encode(serialize_job(job, queue_seq=queue_seq)))
            if (
                job.status in TERMINAL_STATUSES
                and queue_seq is None
                and not is_executing(job_id)
            ):
                notes.append((job_id, job.retention_ends_at))
            else:
                notes.append(None)
                live.append(job_id)
            encoded += 1
        for run in runs[next_run:]:
            spliced_bytes += _place(entries, notes, run)
        reused = sum(len(run.ids) for run in runs)
        return _Plan(entries, notes, live, encoded, reused, spliced_bytes)

    def _adopt(self, plan: _Plan, epoch: int) -> None:
        """Make the index describe the snapshot just written: spliced runs
        move to where they landed, adjacent newly settled records form new
        runs."""
        entries = plan.entries
        if len(entries.starts) != len(entries):
            raise PersistenceError(
                "the backend wrote the snapshot without streaming it through encode_snapshot"
            )
        runs: List[_Run] = []
        fresh: Optional[_Run] = None
        for begin, entry, note in zip(entries.starts, entries, plan.notes):
            if note is None:
                fresh = None
            elif type(note) is list:
                for run in note:
                    run.start += begin - entry.offset
                runs.extend(note)
                fresh = None
            else:
                if fresh is None:
                    fresh = _Run(begin)
                    runs.append(fresh)
                fresh.add(note[0], begin, len(entry), note[1])
        self._runs = runs
        self._epoch = epoch
        self._live = plan.live
        self._touched = set()

    # -- the journal ---------------------------------------------------------
    def append(self, record: Dict[str, object], job_id: Optional[int] = None) -> None:
        """Journal one record (``ts``, ``kind``, ``data``; about job
        ``job_id``, if any) under the next sequence number; checkpoint when
        due.

        A snapshot write that fails does not fail the caller — the record is
        durable already, and so is every earlier one — it is retried a full
        ``snapshot_every`` records later.  The journal fsync that precedes
        it does fail the caller: then the record may not be durable.
        """
        append_t0 = time.perf_counter()
        if job_id is not None:
            self._touched.add(job_id)
        self._sequence += 1
        self._backend.append({"seq": self._sequence, **record})
        self._records_since_snapshot += 1
        self._m_append.observe(time.perf_counter() - append_t0)
        if self._records_since_snapshot >= self._checkpoint_due:
            # Outside the try, so a journal fsync error fails this request;
            # checkpoint()'s own sync then finds nothing left to flush.
            self._backend.sync()
            try:
                self.checkpoint()
            except OSError:  # logged and counted by checkpoint()
                self._checkpoint_due = self._records_since_snapshot + self._snapshot_every
