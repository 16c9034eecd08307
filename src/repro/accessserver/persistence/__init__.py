"""Durable access-server state: write-ahead journal, snapshots, recovery.

The access server is the single stateful chokepoint of the platform — every
job, reservation and credit balance lives in it — yet until this package the
whole state was in-memory and a restart lost the queue.  Testflinger solves
the same problem by keeping its job queue in MongoDB; this subsystem gets
the same durability with zero external dependencies:

* **Write-ahead journal** — every state mutation that flows through the
  access server (job submission/approval/assignment/requeue/completion/
  cancellation, reservation create/cancel, credit transactions, vantage
  point registration, policy changes) is appended to a JSONL journal
  *before* the caller returns, with batched ``fsync`` so durability does not
  serialise the dispatch hot path on disk latency.
* **Snapshots + log compaction** — every ``snapshot_every`` journal records
  the :class:`PersistenceManager` writes a full state snapshot (atomic
  tmp-file + rename + directory ``fsync``) and truncates the journal,
  bounding recovery cost by the snapshot interval instead of the server's
  lifetime.  The snapshot *file* is always the whole retained state, but a
  checkpoint only *encodes* what changed: a settled job's record never
  changes again, so the manager remembers where it sits in the current
  snapshot (job id, offset, retention — no text) and hands the backend a
  ``Splice`` of those bytes, which :func:`encode_snapshot` streams
  beside the freshly encoded live and newly settled records.  The file
  backend copies a splice in the kernel.
* **Crash recovery** — :func:`recover_into` replays snapshot + journal into
  a freshly built :class:`~repro.accessserver.server.AccessServer`,
  reconstructing the scheduler's constraint-bucketed queue in its
  exact pre-crash FIFO order, the reservation interval index, the credit
  ledger (balances *and* transaction history) and the approval queue.
  Jobs that were assigned but still in flight when the crash hit are
  re-queued at their original position, so the post-recovery assignment
  sequence is identical to what an uninterrupted run would have produced.
* **Pluggable storage** — a :class:`StorageBackend` ABC with
  :class:`InMemoryBackend` (tests, benchmarks) and :class:`FileBackend`
  (the default behind ``--state-dir``).

The server records each mutation once, where it happens, through
:meth:`~repro.accessserver.server.AccessServer.record`, which hands the
record to the manager (and to live analytics): its own mutations
(submissions, approvals, completions, reservation creation), the
scheduler's assignments, requeues and cancellations through the
scheduler's ``record`` hook, and credit movements through the ledger's
observer.  The event bus is not an input: nothing published on it is
journaled.  State mutated behind the server's back — e.g. driving
``scheduler.submit`` directly — is invisible to the journal by design.
:meth:`~repro.accessserver.server.AccessServer.enable_persistence` is the
one way to attach it.

Modules, each importing only those above it:

* ``codec`` — the record shapes and the elide-at-default job codec;
* ``backends`` — ``encode_snapshot`` and the storage backends;
* ``recovery`` — ``build_snapshot`` and the replay into a fresh server;
* ``splice`` — the index of settled records in the current snapshot;
* ``manager`` — :class:`PersistenceManager`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.accessserver.persistence.backends import (
        FileBackend,
        InMemoryBackend,
        StorageBackend,
        encode_snapshot,
    )
    from repro.accessserver.persistence.codec import (
        CONSTRAINT_DEFAULTS,
        JOB_DEFAULTS,
        SPEC_DEFAULTS,
        PersistenceError,
        materialize_job,
        resolve_payload,
        serialize_job,
    )
    from repro.accessserver.persistence.manager import PersistenceManager
    from repro.accessserver.persistence.recovery import (
        TERMINAL_STATUSES,
        RecoveryReport,
        build_snapshot,
        recover_into,
    )

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "codec": (
            "CONSTRAINT_DEFAULTS",
            "JOB_DEFAULTS",
            "SPEC_DEFAULTS",
            "PersistenceError",
            "materialize_job",
            "resolve_payload",
            "serialize_job",
        ),
        "backends": ("FileBackend", "InMemoryBackend", "StorageBackend", "encode_snapshot"),
        "recovery": ("TERMINAL_STATUSES", "RecoveryReport", "build_snapshot", "recover_into"),
        "manager": ("PersistenceManager",),
    },
)
