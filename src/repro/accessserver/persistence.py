"""Durable access-server state: write-ahead journal, snapshots, recovery.

The access server is the single stateful chokepoint of the platform — every
job, reservation and credit balance lives in it — yet until this module the
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
  :class:`Splice` of those bytes, which :func:`encode_snapshot` streams
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

The manager taps the existing ``dispatch.*`` records on the server's
:class:`~repro.simulation.events.EventBus` for everything the scheduler
already announces (assignments, requeues, cancellations, reservation
cancellations) and uses explicit hooks in ``server.py`` / ``credits.py``
for the mutations that never reach the bus (submissions, approvals,
completions, reservation creation, credit movements).  State mutated behind
the server's back — e.g. driving ``scheduler.submit`` directly — is
invisible to the journal by design.
"""

from __future__ import annotations

import abc
import errno
import json
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro._appendlog import AppendLog, LogOwner
from repro._atomicfile import replace_file
from repro.accessserver.credits import CreditTransaction, TransactionKind
from repro.accessserver.dispatch import SessionReservation
from repro.accessserver.jobs import (
    Job,
    JobConstraints,
    JobSpec,
    JobStatus,
    claim_job_id,
    job_constraints,
)
from repro.accessserver.payloads import catalogue_epoch, get_payload, payload_name
from repro.obs.logsetup import component_logger
from repro.simulation.events import BusEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.accessserver.server import AccessServer

FORMAT_VERSION = 1

#: ``dispatch.*`` bus topics the persistence manager journals, mapped to
#: the journal record kind each becomes.  Single-sourced here because the
#: analytics live tap applies the *same* translation — a topic added to
#: one side but not the other would silently diverge live folds from
#: journal replays.
DISPATCH_TOPIC_KINDS: Dict[str, str] = {
    "dispatch.assigned": "job.assigned",
    "dispatch.requeued": "job.requeued",
    "dispatch.cancelled": "job.cancelled",
    "dispatch.reservation_cancelled": "reservation.cancelled",
}


class PersistenceError(RuntimeError):
    """Raised for journal/snapshot corruption or misuse of the subsystem."""


def resolve_payload(name: Optional[str]) -> Callable:
    """Look up a registered payload; unknown names get a failing stand-in."""
    payload = get_payload(name)
    if payload is not None:
        return payload

    def _unrecoverable(ctx):
        raise PersistenceError(
            f"job payload {name!r} was not registered with register_payload() "
            "before recovery; re-register the payload catalogue at boot"
        )

    return _unrecoverable


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


#: Compact JSON text of one value — what every journal line and every piece
#: of a snapshot is made of.  ASCII (``ensure_ascii``), so its length is
#: its size in bytes.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class Splice(NamedTuple):
    """``length`` bytes at ``offset`` of the snapshot being replaced: a run
    of ``jobs`` entries the new snapshot keeps byte for byte."""

    offset: int
    length: int


class SnapshotJobs(list):
    """A snapshot's ``jobs`` entries — records, record text or
    :class:`Splice` runs — that notes where its entries land.

    :func:`encode_snapshot` fills ``starts`` (the byte offset of each entry
    in the document, in order) and ``size`` (the document's length) as it
    streams, so whoever built the list learns the new layout from the list
    itself once the backend's ``write_snapshot`` returns.
    """

    __slots__ = ("starts", "size")

    def __init__(self) -> None:
        super().__init__()
        self.starts = array("q")
        self.size = 0


def encode_snapshot(snapshot: Dict[str, object]) -> Iterator[Union[str, Splice]]:
    """Stream a snapshot document as compact JSON text, piece by piece.

    The pieces concatenate to exactly
    ``json.dumps(snapshot, separators=(",", ":"))`` once every
    :class:`Splice` is replaced by the bytes it names in the snapshot the
    backend holds.  Entries of ``jobs`` that are already text are passed
    through verbatim; everything else is encoded here, one top-level value
    or one job at a time, so neither the whole job tree nor the whole
    document ever exists in memory.  The single encode path behind every
    backend's ``write_snapshot``.
    """
    jobs = snapshot.get("jobs")
    placed = jobs if isinstance(jobs, SnapshotJobs) else None
    if placed is not None:
        del placed.starts[:]
    size = 0
    opener = "{"
    for key, value in snapshot.items():
        head = opener + _encode(key) + ":"
        opener = ","
        if key != "jobs":
            piece = head + _encode(value)
            size += len(piece)
            yield piece
            continue
        separator = head + "["
        for record in value:
            size += len(separator)
            yield separator
            separator = ","
            if placed is not None:
                placed.starts.append(size)
            if isinstance(record, Splice):
                size += record.length
                yield record
            else:
                piece = record if isinstance(record, str) else _encode(record)
                size += len(piece)
                yield piece
        piece = "]" if separator == "," else separator + "]"
        size += len(piece)
        yield piece
    piece = "{}" if opener == "{" else "}"
    if placed is not None:
        placed.size = size + len(piece)
    yield piece


def _json_safe(value: object) -> object:
    """Pass JSON-serialisable values through; degrade the rest to a repr.

    ``None`` and scalars are what nearly every job returns and need no
    probe; only a container is test-encoded, because only a container can
    hide something the encoder would choke on.
    """
    if value is None or isinstance(value, (str, int, float)):
        return value
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return {"__repr__": repr(value)}


# -- the per-job record codec -------------------------------------------------
#
# One rule for every per-job record (``job.submitted``'s job, ``job.finished``,
# a snapshot's ``jobs`` entry): a field is written only when it differs from
# the default its dataclass declares.  What has no default (``job_id``,
# ``spec.name`` / ``owner`` / ``payload``) and the two fields a record is
# identified by (``status``, ``submitted_at``) always stay.  Absent therefore
# means *the default*, never "unchanged", and the readers below build their
# dataclasses from the keys a record has — the dataclass supplies the rest,
# so no default is spelled out on either side.


def _field_defaults(cls) -> Dict[str, object]:
    """``{field: default}`` for the fields of ``cls`` declared with one."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


CONSTRAINT_DEFAULTS = _field_defaults(JobConstraints)
SPEC_DEFAULTS = _field_defaults(JobSpec)
JOB_DEFAULTS = _field_defaults(Job)


def _elider(defaults: Dict[str, object]) -> Callable[[object], Dict[str, object]]:
    """The rule, bound to one field table: ``chosen(obj)`` is ``{field: value}``
    for the fields of ``obj`` that are not at their default."""
    names = tuple(defaults)
    at_default = tuple(defaults.values())
    read = attrgetter(*names)

    def chosen(obj: object) -> Dict[str, object]:
        values = read(obj)
        if values == at_default:  # the common case: nothing was chosen
            return {}
        return {
            name: value
            for name, value, default in zip(names, values, at_default)
            if value != default
        }

    return chosen


_chosen_constraints = _elider(CONSTRAINT_DEFAULTS)
_chosen_spec = _elider(SPEC_DEFAULTS)
#: The :class:`Job` fields a record carries beside its identity.
_chosen_state = _elider(
    {
        name: JOB_DEFAULTS[name]
        for name in (
            "started_at",
            "finished_at",
            "assigned_vantage_point",
            "assigned_device",
            "result",
            "error",
            "_log_lines",
        )
    }
)
#: What a ``job.finished`` record says about the job beyond its new status.
_JOB_FINISHED_KEYS = ("finished_at", "result", "error", "log_lines")
#: Assignment state that dies with the process that held it.
_IN_FLIGHT_FIELDS = ("started_at", "assigned_vantage_point", "assigned_device")


def _spelled_out(data: Dict[str, object], defaults: Dict[str, object]) -> Dict[str, object]:
    """The defaulted fields a persisted record spells out, as constructor
    keywords — the dataclass fills in whatever the record left out."""
    return {name: data[name] for name in defaults if name in data}


def serialize_spec(spec: JobSpec) -> Dict[str, object]:
    record: Dict[str, object] = {
        "name": spec.name,
        "owner": spec.owner,
        "payload": payload_name(spec.run),
        **_chosen_spec(spec),
    }
    constraints = _chosen_constraints(spec.constraints)
    if constraints:
        record["constraints"] = constraints
    return record


def deserialize_spec(data: Dict[str, object]) -> JobSpec:
    return JobSpec(
        name=data["name"],
        owner=data["owner"],
        run=resolve_payload(data.get("payload")),
        constraints=job_constraints(**data.get("constraints", {})),
        **_spelled_out(data, SPEC_DEFAULTS),
    )


def _job_state(job: Job) -> Dict[str, object]:
    """What ``job`` chose beyond its identity, in record form: a result the
    encoder can take, and the log under its public name."""
    state = _chosen_state(job)
    if "result" in state:
        state["result"] = _json_safe(state["result"])
    if "_log_lines" in state:
        state["log_lines"] = list(state.pop("_log_lines"))
    return state


def serialize_job(job: Job, queue_seq: Optional[int] = None) -> Dict[str, object]:
    record = {
        "job_id": job.job_id,
        "spec": serialize_spec(job.spec),
        "status": job.status.value,
        "submitted_at": job.submitted_at,
        **_job_state(job),
    }
    if queue_seq is not None:  # a snapshot's note on a queued job, not a field
        record["queue_seq"] = queue_seq
    return record


def _check_job_record(job: Dict[str, object], source: object) -> None:
    """Refuse a job record carrying a constraint this build does not know.

    The keys become :class:`JobConstraints` keywords; a foreign one (state
    written by a newer build) would otherwise abort recovery with a bare
    ``TypeError`` naming neither the job nor the file.
    """
    foreign = job.get("spec", {}).get("constraints", {}).keys() - CONSTRAINT_DEFAULTS.keys()
    if foreign:
        raise PersistenceError(
            f"{source}: job {job.get('job_id')} carries unknown constraint "
            f"{', '.join(map(repr, sorted(foreign)))} "
            f"(this build knows {', '.join(CONSTRAINT_DEFAULTS)})"
        )


def materialize_job(data: Dict[str, object]) -> Tuple[Job, bool]:
    """Rebuild a :class:`Job` from its journaled form.

    Returns ``(job, was_in_flight)``: a job that was RUNNING when the state
    was captured comes back QUEUED (its execution died with the old
    process) with its assignment cleared, flagged so recovery can report it.
    """
    state = _spelled_out(data, JOB_DEFAULTS)
    status = JobStatus(state.pop("status", JOB_DEFAULTS["status"]))
    was_in_flight = status is JobStatus.RUNNING
    if was_in_flight:
        status = JobStatus.QUEUED
        for name in _IN_FLIGHT_FIELDS:
            state.pop(name, None)
    job = Job(spec=deserialize_spec(data["spec"]), job_id=data["job_id"], status=status, **state)
    for line in data.get("log_lines", ()):
        job.log(line)
    claim_job_id(job.job_id)
    return job, was_in_flight


def serialize_user(user) -> Dict[str, object]:
    """Journal form of one account — the token *hash*, never the plaintext."""
    return {
        "username": user.username,
        "role": user.role.value,
        "token_hash": user.token_hash,
        "email": user.email,
        "enabled": user.enabled,
    }


def _serialize_reservation(reservation: SessionReservation) -> Dict[str, object]:
    return {
        "reservation_id": reservation.reservation_id,
        "username": reservation.username,
        "vantage_point": reservation.vantage_point,
        "device_serial": reservation.device_serial,
        "start_s": reservation.start_s,
        "duration_s": reservation.duration_s,
    }


# ---------------------------------------------------------------------------
# Storage backends
# ---------------------------------------------------------------------------


class StorageBackend(abc.ABC):
    """Where the journal and snapshots physically live.

    Implementations must make :meth:`append` durable-in-order (an append is
    never visible after a later one is lost) and :meth:`write_snapshot`
    atomic (a crash mid-snapshot leaves the previous snapshot intact).
    """

    @abc.abstractmethod
    def append(self, record: Dict[str, object]) -> None:
        """Append one journal record."""

    @abc.abstractmethod
    def sync(self) -> None:
        """Force any batched appends to stable storage."""

    @abc.abstractmethod
    def read_journal(self) -> List[Dict[str, object]]:
        """All journal records since the last reset, in append order."""

    @abc.abstractmethod
    def reset_journal(self) -> None:
        """Truncate the journal (called right after a snapshot commits)."""

    @abc.abstractmethod
    def write_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Atomically replace the snapshot with :func:`encode_snapshot`'s
        pieces, each :class:`Splice` resolved against the snapshot replaced."""

    @abc.abstractmethod
    def read_snapshot_text(self) -> Optional[str]:
        """The latest snapshot as written, or ``None`` when none was ever written."""

    def read_snapshot(self) -> Optional[Dict[str, object]]:
        """The latest snapshot, or ``None`` when none was ever written."""
        text = self.read_snapshot_text()
        return None if text is None else json.loads(text)

    def has_state(self) -> bool:
        """Whether recovery has anything to replay."""
        return self.read_snapshot() is not None or bool(self.read_journal())

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any held resources (file handles)."""


class InMemoryBackend(StorageBackend):
    """Journal and snapshot in process memory — for tests and benchmarks.

    Records are round-tripped through ``json`` so anything that would not
    survive the :class:`FileBackend` fails here too.
    """

    def __init__(self) -> None:
        self.journal: List[str] = []
        self.snapshot: Optional[str] = None
        self.appended = 0
        self.syncs = 0
        self.snapshot_bytes = 0

    def append(self, record: Dict[str, object]) -> None:
        self.journal.append(_encode(record))
        self.appended += 1

    def sync(self) -> None:
        self.syncs += 1

    def read_journal(self) -> List[Dict[str, object]]:
        return [json.loads(line) for line in self.journal]

    def reset_journal(self) -> None:
        self.journal.clear()

    def write_snapshot(self, snapshot: Dict[str, object]) -> None:
        previous = self.snapshot
        self.snapshot = "".join(
            piece if isinstance(piece, str)
            else previous[piece.offset : piece.offset + piece.length]
            for piece in encode_snapshot(snapshot)
        )
        self.snapshot_bytes = len(self.snapshot)

    def read_snapshot_text(self) -> Optional[str]:
        return self.snapshot


class FileBackend(LogOwner, StorageBackend):
    """JSONL journal + JSON snapshot under one state directory.

    The journal is an :class:`~repro._appendlog.AppendLog`: ``plan_crash``
    / ``writes`` crash-kill the server at a chosen journal append (only
    appends count, not truncations or snapshots).

    Parameters
    ----------
    state_dir:
        Directory holding ``journal.jsonl`` and ``snapshot.json``; created
        on demand.  Opening it writes nothing (a cold reader may be looking
        at a live server's directory): the owner's first append heals a torn
        journal tail, its first snapshot overwrites a stale ``.tmp``.
    fsync_every:
        ``fsync`` the journal after this many appends (1 = synchronous
        durability for every record; larger values batch the syncs, trading
        the tail of the journal on power loss for throughput).  Appends are
        always *flushed* to the OS, so an application crash alone loses
        nothing.
    """

    JOURNAL_NAME = "journal.jsonl"
    SNAPSHOT_NAME = "snapshot.json"

    def __init__(self, state_dir: Union[str, Path], fsync_every: int = 32) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.state_dir / self.JOURNAL_NAME
        self.snapshot_path = self.state_dir / self.SNAPSHOT_NAME
        self._log = AppendLog(self.journal_path, fsync_every)
        self.appended = 0
        self.snapshot_bytes = 0

    @property
    def fsyncs(self) -> int:
        return self._log.fsyncs

    @property
    def torn_records_dropped(self) -> int:
        return self._log.torn_tails_dropped

    def append(self, record: Dict[str, object]) -> None:
        self._log.append(_encode(record), record.get("kind", "record"))
        self.appended += 1

    def sync(self) -> None:
        self._log.sync()

    def read_journal(self) -> List[Dict[str, object]]:
        # The log drops a torn last line; any other bad line is corruption.
        records: List[Dict[str, object]] = []
        for number, line in enumerate(self._log.lines(), 1):
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                raise PersistenceError(
                    f"corrupt journal record at {self.journal_path}:{number}"
                ) from None
        return records

    def reset_journal(self) -> None:
        self._log.truncate()

    def write_snapshot(self, snapshot: Dict[str, object]) -> None:
        # Durable through the directory fsync before this returns: the
        # journal truncation that follows a checkpoint must not outlive the
        # snapshot it was folded into.  A splice is a byte range of the file
        # being replaced, which replace_file copies in the kernel.
        self.snapshot_bytes = replace_file(self.snapshot_path, encode_snapshot(snapshot))

    def read_snapshot_text(self) -> Optional[str]:
        if not self.snapshot_path.exists():
            return None
        return self.snapshot_path.read_text(encoding="utf-8")

    def read_snapshot(self) -> Optional[Dict[str, object]]:
        try:
            return super().read_snapshot()
        except json.JSONDecodeError as exc:
            raise PersistenceError(f"corrupt snapshot {self.snapshot_path}: {exc}") from exc

    def has_state(self) -> bool:
        return self.snapshot_path.exists() or (
            self.journal_path.exists() and self.journal_path.stat().st_size > 0
        )

    def close(self) -> None:
        self._log.close()


# ---------------------------------------------------------------------------
# Snapshot construction
# ---------------------------------------------------------------------------


TERMINAL_STATUSES = (JobStatus.COMPLETED, JobStatus.FAILED, JobStatus.CANCELLED)


def _retained_jobs(
    server: "AccessServer", jobs: Optional[Iterable[Job]] = None
) -> Iterator[Job]:
    """The jobs a snapshot keeps, of ``jobs`` (default: every job, in id order).

    Terminal jobs whose workspace retention has lapsed (the paper keeps job
    logs "for several days") are dropped, so snapshot size is bounded by
    the retention window and queue depth rather than growing with the
    server's whole lifetime.
    """
    now = server.context.now
    for job in server.scheduler.jobs() if jobs is None else jobs:
        if not (job.status in TERMINAL_STATUSES and job.workspace_expired(now)):
            yield job


def build_snapshot(
    server: "AccessServer", sequence: int, jobs: Optional[List[object]] = None
) -> Dict[str, object]:
    """Capture the server's full journaled state as one JSON document.

    ``jobs`` overrides the ``jobs`` list: the :class:`PersistenceManager`
    passes a :class:`SnapshotJobs` of record text and :class:`Splice` runs
    (see :func:`encode_snapshot`).  Left out, every retained job is
    serialised afresh and the result is a plain ``json``-able tree.
    """
    scheduler = server.scheduler
    if jobs is None:
        jobs = [
            serialize_job(job, queue_seq=scheduler.queue.sequence_of(job.job_id))
            for job in _retained_jobs(server)
        ]
    credit_state: Optional[Dict[str, object]] = None
    if server.credit_policy is not None:
        ledger = server.credit_policy.ledger
        credit_state = {
            "contribution_multiplier": ledger.contribution_multiplier,
            "initial_grant_device_hours": ledger.initial_grant_device_hours,
            "minimum_reservation_hours": server.credit_policy.minimum_reservation_hours,
            "accounts": [
                {
                    "owner": account.owner,
                    "contributes_hardware": account.contributes_hardware,
                    "balance_device_hours": account.balance_device_hours,
                    "transactions": [
                        {
                            "timestamp": txn.timestamp,
                            "account": txn.account,
                            "kind": txn.kind.value,
                            "amount_device_hours": txn.amount_device_hours,
                            "note": txn.note,
                        }
                        for txn in account.transactions
                    ],
                }
                for account in ledger.accounts()
            ],
        }
    snapshot: Dict[str, object] = {
        "format": FORMAT_VERSION,
        "sequence": sequence,
        "captured_at": server.context.now,
        "policy": scheduler.policy.name,
        "reservation_admission": scheduler.reservation_admission,
        "next_reservation_id": scheduler.next_reservation_id,
        "users": [serialize_user(server.users.get(name)) for name in server.users.usernames()],
        "idempotency": [list(record) for record in server.idempotency_records()],
        "vantage_points": [
            {
                "name": record.name,
                "institution": record.institution,
                "dns_name": record.dns_name,
                "devices": list(record.controller.list_devices()),
            }
            for record in server.vantage_points()
        ],
        "jobs": jobs,
        "pending_approval": sorted(scheduler.awaiting_approval),
        "reservations": [_serialize_reservation(r) for r in scheduler.reservations.all()],
        "credit": credit_state,
    }
    if server.shard_id is not None:
        # Shard identity rides in the snapshot so operators can tell whose
        # journal a state-dir holds — and so recovery onto an unconfigured
        # server can restore the full lane, keeping fresh ids in the
        # shard's residue class.  Omitted for single-server state so
        # historical snapshot bytes are unchanged.
        snapshot["shard_id"] = server.shard_id
        snapshot["shard_index"] = server.shard_index
        snapshot["shard_count"] = server.shard_count
    agents = server.agents.agents()
    if agents:
        # Registered edge daemons persist like user accounts; the key is
        # omitted when no agent ever registered so pre-agent snapshot
        # bytes are unchanged.
        snapshot["agents"] = [record.to_record() for record in agents]
    return snapshot


# ---------------------------------------------------------------------------
# Replay state machine
# ---------------------------------------------------------------------------


class _ReplayState:
    """Applies snapshot + journal records onto plain dicts before
    materialising them into a live server.

    ``snapshot_name`` / ``journal_name`` say where the records come from
    (a path, for a :class:`FileBackend`) in the errors a bad record raises.
    """

    def __init__(
        self, snapshot_name: object = "snapshot", journal_name: object = "journal"
    ) -> None:
        self._snapshot_name = snapshot_name
        self._journal_name = journal_name
        self.jobs: Dict[int, Dict[str, object]] = {}
        self.queue_seq: Dict[int, float] = {}
        self.reservations: Dict[int, Dict[str, object]] = {}
        self.next_reservation_id = 1
        self.policy: Optional[str] = None
        self.reservation_admission: Optional[str] = None
        self.vantage_points: Dict[str, Dict[str, object]] = {}
        self.credit: Optional[Dict[str, object]] = None
        self.users: Dict[str, Dict[str, object]] = {}
        self.idempotency: Dict[Tuple[str, str], int] = {}
        self.agents: Dict[str, Dict[str, object]] = {}
        self.sequence = 0
        self.events_replayed = 0
        self._next_seq = 0.0
        self.shard_id: Optional[str] = None
        self.shard_index = 0
        self.shard_count = 1

    def _allocate_seq(self) -> float:
        self._next_seq += 1.0
        return self._next_seq

    def load_snapshot(self, snapshot: Optional[Dict[str, object]]) -> None:
        if snapshot is None:
            return
        if snapshot.get("format") != FORMAT_VERSION:
            raise PersistenceError(
                f"unsupported snapshot format {snapshot.get('format')!r} "
                f"(expected {FORMAT_VERSION})"
            )
        self.sequence = snapshot.get("sequence", 0)
        self.shard_id = snapshot.get("shard_id")
        self.shard_index = snapshot.get("shard_index", 0)
        self.shard_count = snapshot.get("shard_count", 1)
        self.policy = snapshot.get("policy")
        self.reservation_admission = snapshot.get("reservation_admission")
        self.next_reservation_id = snapshot.get("next_reservation_id", 1)
        for vp in snapshot.get("vantage_points", ()):
            self.vantage_points[vp["name"]] = vp
        for data in snapshot.get("jobs", ()):
            _check_job_record(data, self._snapshot_name)
            self.jobs[data["job_id"]] = dict(data)
            queue_seq = data.get("queue_seq")
            if queue_seq is not None:
                self.queue_seq[data["job_id"]] = float(queue_seq)
                self._next_seq = max(self._next_seq, float(queue_seq))
        for data in snapshot.get("reservations", ()):
            self.reservations[data["reservation_id"]] = data
        for data in snapshot.get("users", ()):
            self.users[data["username"]] = dict(data)
        for data in snapshot.get("agents", ()):
            self.agents[data["agent_id"]] = dict(data)
        for owner, key, job_id in snapshot.get("idempotency", ()):
            self.idempotency[(owner, key)] = job_id
        credit = snapshot.get("credit")
        if credit is not None:
            self.credit = {
                "contribution_multiplier": credit["contribution_multiplier"],
                "initial_grant_device_hours": credit["initial_grant_device_hours"],
                "minimum_reservation_hours": credit["minimum_reservation_hours"],
                "accounts": {
                    account["owner"]: {
                        "contributes_hardware": account["contributes_hardware"],
                        "balance_device_hours": account["balance_device_hours"],
                        "transactions": list(account["transactions"]),
                    }
                    for account in credit.get("accounts", ())
                },
            }

    def apply(self, record: Dict[str, object]) -> None:
        sequence = record.get("seq", 0)
        if sequence <= self.sequence:
            return  # already folded into the snapshot
        self.sequence = sequence
        self.events_replayed += 1
        kind = record.get("kind")
        data = record.get("data", {})
        handler = getattr(self, "_apply_" + str(kind).replace(".", "_"), None)
        if handler is None:
            raise PersistenceError(f"unknown journal record kind {kind!r}")
        handler(data)

    # -- job lifecycle ------------------------------------------------------
    def _apply_job_submitted(self, data: Dict[str, object]) -> None:
        job = dict(data["job"])
        _check_job_record(job, self._journal_name)
        self.jobs[job["job_id"]] = job
        key = data.get("idempotency_key")
        if key is not None:
            self.idempotency[(job["spec"]["owner"], key)] = job["job_id"]
        if job.get("status") != JobStatus.PENDING_APPROVAL.value:
            self.queue_seq[job["job_id"]] = self._allocate_seq()

    def _apply_job_approved(self, data: Dict[str, object]) -> None:
        job_id = data["job_id"]
        job = self.jobs.get(job_id)
        if job is None:
            return
        job["status"] = JobStatus.QUEUED.value
        self.queue_seq.setdefault(job_id, self._allocate_seq())

    def _apply_job_assigned(self, data: Dict[str, object]) -> None:
        job = self.jobs.get(data["job_id"])
        if job is None:
            return
        job["status"] = JobStatus.RUNNING.value
        job["assigned_vantage_point"] = data.get("vantage_point")
        job["assigned_device"] = data.get("device_serial")
        job["started_at"] = data.get("timestamp")

    def _apply_job_requeued(self, data: Dict[str, object]) -> None:
        job = self.jobs.get(data["job_id"])
        if job is None:
            return
        job["status"] = JobStatus.QUEUED.value
        job["assigned_vantage_point"] = None
        job["assigned_device"] = None
        job["started_at"] = None

    def _apply_job_finished(self, data: Dict[str, object]) -> None:
        job = self.jobs.get(data["job_id"])
        if job is None:
            return
        job["status"] = data["status"]
        # A key the record left out is at its default, not "unchanged": it
        # leaves the folded row too.
        for key in _JOB_FINISHED_KEYS:
            if key in data:
                job[key] = data[key]
            else:
                job.pop(key, None)
        self.queue_seq.pop(data["job_id"], None)

    def _apply_job_cancelled(self, data: Dict[str, object]) -> None:
        job = self.jobs.get(data["job_id"])
        if job is None:
            return
        job["status"] = JobStatus.CANCELLED.value
        self.queue_seq.pop(data["job_id"], None)

    def _apply_job_rejected(self, data: Dict[str, object]) -> None:
        job = self.jobs.get(data["job_id"])
        if job is None:
            return
        job["error"] = data.get("error")

    # -- reservations -------------------------------------------------------
    def _apply_reservation_created(self, data: Dict[str, object]) -> None:
        self.reservations[data["reservation_id"]] = dict(data)
        self.next_reservation_id = max(self.next_reservation_id, data["reservation_id"] + 1)

    def _apply_reservation_cancelled(self, data: Dict[str, object]) -> None:
        self.reservations.pop(data["reservation_id"], None)

    # -- configuration ------------------------------------------------------
    def _apply_policy_changed(self, data: Dict[str, object]) -> None:
        self.policy = data["policy"]

    def _apply_vantage_point_registered(self, data: Dict[str, object]) -> None:
        self.vantage_points[data["name"]] = dict(data)

    def _apply_user_created(self, data: Dict[str, object]) -> None:
        self.users[data["username"]] = dict(data)

    def _apply_agent_registered(self, data: Dict[str, object]) -> None:
        self.agents[data["agent_id"]] = dict(data)

    # -- credits ------------------------------------------------------------
    def _apply_credit_enabled(self, data: Dict[str, object]) -> None:
        self.credit = {
            "contribution_multiplier": data["contribution_multiplier"],
            "initial_grant_device_hours": data["initial_grant_device_hours"],
            "minimum_reservation_hours": data["minimum_reservation_hours"],
            "accounts": {},
        }

    def _apply_credit_account_opened(self, data: Dict[str, object]) -> None:
        if self.credit is None:
            return
        self.credit["accounts"].setdefault(
            data["owner"],
            {
                "contributes_hardware": data.get("contributes_hardware", False),
                "balance_device_hours": 0.0,
                "transactions": [],
            },
        )

    def _apply_credit_txn(self, data: Dict[str, object]) -> None:
        if self.credit is None:
            return
        account = self.credit["accounts"].get(data["account"])
        if account is None:
            return
        account["balance_device_hours"] += data["amount_device_hours"]
        account["transactions"].append(dict(data))


@dataclass
class RecoveryReport:
    """What :func:`recover_into` rebuilt, for logs, tests and benchmarks."""

    snapshot_loaded: bool = False
    events_replayed: int = 0
    last_sequence: int = 0
    journaled_policy: Optional[str] = None
    journaled_admission: Optional[str] = None
    jobs_restored: int = 0
    jobs_queued: int = 0
    jobs_requeued_in_flight: int = 0
    pending_approval: int = 0
    reservations_restored: int = 0
    credit_accounts_restored: int = 0
    users_restored: int = 0
    agents_restored: int = 0
    idempotency_keys_restored: int = 0
    missing_vantage_points: List[str] = field(default_factory=list)
    missing_payloads: List[str] = field(default_factory=list)
    orphaned_jobs: List[int] = field(default_factory=list)


def recover_into(server: "AccessServer", backend: StorageBackend) -> RecoveryReport:
    """Replay a snapshot + journal into a freshly built access server.

    The server must be newly constructed (empty queue, no reservations); its
    vantage points should already be re-registered by the host — recovery
    restores *state*, not live SSH connections to controllers.  Devices of
    journaled vantage points that have not re-joined are left unregistered
    (and reported) so the dispatcher cannot assign jobs to hardware that is
    not there.
    """
    state = _ReplayState(
        snapshot_name=getattr(backend, "snapshot_path", "snapshot"),
        journal_name=getattr(backend, "journal_path", "journal"),
    )
    snapshot = backend.read_snapshot()
    state.load_snapshot(snapshot)
    for record in backend.read_journal():
        state.apply(record)

    report = RecoveryReport(
        snapshot_loaded=snapshot is not None,
        events_replayed=state.events_replayed,
        last_sequence=state.sequence,
        journaled_policy=state.policy,
        journaled_admission=state.reservation_admission,
    )
    scheduler = server.scheduler

    # Shard identity is *journaled* configuration: an unconfigured server
    # recovering a shard's state-dir adopts the full lane (before any job
    # ids are claimed, so claims land in the lane allocator) — a bare
    # ``serve``/``status`` on shard state never mints out-of-lane ids.  A
    # host that already configured a different identity keeps it; the
    # mismatch is logged, not silently overwritten.
    if state.shard_id is not None:
        if server.shard_id is None:
            server.configure_shard(
                state.shard_id,
                shard_index=state.shard_index,
                shard_count=state.shard_count,
            )
        elif server.shard_id != state.shard_id:
            server.log(
                "journaled shard identity differs; keeping this run's configuration",
                journaled=state.shard_id,
                active=server.shard_id,
            )

    # Scheduling policy and admission mode are *this run's* configuration —
    # the host (or CLI flags) chose them when constructing the server — so
    # the journaled values are reported, not restored; a mismatch is logged.
    if state.policy is not None and state.policy != scheduler.policy.name:
        server.log(
            "journaled scheduling policy differs; keeping this run's configuration",
            journaled=state.policy,
            active=scheduler.policy.name,
        )
    if (
        state.reservation_admission is not None
        and state.reservation_admission != scheduler.reservation_admission
    ):
        server.log(
            "journaled reservation admission differs; keeping this run's configuration",
            journaled=state.reservation_admission,
            active=scheduler.reservation_admission,
        )

    registered = {record.name for record in server.vantage_points()}
    for name, vp in state.vantage_points.items():
        if name in registered:
            continue
        report.missing_vantage_points.append(name)

    # Accounts are restored by hash — the journal never saw a plaintext
    # token — and overwrite same-named bootstrap accounts: the journal is
    # authoritative, exactly as for credit balances.
    for username in sorted(state.users):
        data = state.users[username]
        server.users.restore_user(
            username,
            role=data["role"],
            token_hash=data["token_hash"],
            email=data.get("email", ""),
            enabled=data.get("enabled", True),
        )
        report.users_restored += 1

    for agent_id in sorted(state.agents):
        server.agents.restore(state.agents[agent_id])
        report.agents_restored += 1

    for (owner, key), job_id in state.idempotency.items():
        if job_id in state.jobs:
            server.restore_idempotency_record(owner, key, job_id)
            report.idempotency_keys_restored += 1

    if state.credit is not None:
        if server.credit_policy is None:
            ledger = server.enable_credit_system(
                contribution_multiplier=state.credit["contribution_multiplier"],
                initial_grant_device_hours=state.credit["initial_grant_device_hours"],
                minimum_reservation_hours=state.credit["minimum_reservation_hours"],
            )
        else:
            ledger = server.credit_policy.ledger
        for owner in sorted(state.credit["accounts"]):
            account = state.credit["accounts"][owner]
            ledger.restore_account(
                owner,
                contributes_hardware=account["contributes_hardware"],
                balance_device_hours=account["balance_device_hours"],
                transactions=[
                    CreditTransaction(
                        timestamp=txn["timestamp"],
                        account=txn["account"],
                        kind=TransactionKind(txn["kind"]),
                        amount_device_hours=txn["amount_device_hours"],
                        note=txn.get("note", ""),
                    )
                    for txn in account["transactions"]
                ],
            )
            report.credit_accounts_restored += 1

    for reservation_id in sorted(state.reservations):
        data = state.reservations[reservation_id]
        scheduler.restore_reservation(
            SessionReservation(
                reservation_id=data["reservation_id"],
                username=data["username"],
                vantage_point=data["vantage_point"],
                device_serial=data["device_serial"],
                start_s=data["start_s"],
                duration_s=data["duration_s"],
            )
        )
        report.reservations_restored += 1
    scheduler.claim_reservation_id(state.next_reservation_id - 1)

    queued: List[Tuple[float, Job]] = []
    for job_id in sorted(state.jobs):
        data = state.jobs[job_id]
        job, was_in_flight = materialize_job(data)
        # materialize_job claimed the process-global allocator; a sharded
        # server additionally fast-forwards its own job-id lane.
        server.claim_job_id(job.job_id)
        payload_ref = data["spec"].get("payload")
        if get_payload(payload_ref) is None and job.status in (
            JobStatus.QUEUED,
            JobStatus.PENDING_APPROVAL,
        ):
            report.missing_payloads.append(job.spec.name)
        report.jobs_restored += 1
        if was_in_flight:
            report.jobs_requeued_in_flight += 1
        if job.status is JobStatus.QUEUED:
            seq = state.queue_seq.get(job.job_id)
            queued.append((seq if seq is not None else float("inf"), job))
            continue
        scheduler.restore_job(job, queued=False)
        if job.status is JobStatus.PENDING_APPROVAL:
            server._track_orphan(job)
            report.pending_approval += 1
    for _, job in sorted(queued, key=lambda item: item[0]):
        scheduler.restore_job(job, queued=True)
        server._track_orphan(job)
        report.jobs_queued += 1

    # Jobs pinned to a vantage point that has not re-joined can never
    # dispatch until an operator re-registers the topology; one predicate —
    # AccessServer.orphaned_jobs(), which status() keeps reporting live —
    # decides both the recovery report and the ongoing view.
    report.orphaned_jobs = [job.job_id for job in server.orphaned_jobs()]

    server.log(
        "state recovered",
        jobs=report.jobs_restored,
        queued=report.jobs_queued,
        requeued_in_flight=report.jobs_requeued_in_flight,
        reservations=report.reservations_restored,
        events_replayed=report.events_replayed,
        orphaned_jobs=report.orphaned_jobs,
        missing_vantage_points=report.missing_vantage_points,
    )
    return report


# ---------------------------------------------------------------------------
# The splice index
# ---------------------------------------------------------------------------


class _Run:
    """Settled jobs' records lying back to back in the current snapshot.

    Record ``i`` is job ``ids[i]`` (ascending); it starts ``offsets[i]``
    bytes past ``start``, one comma after the end of record ``i - 1``, and
    its retention lapses at ``expires[i]``; the last record ends at
    ``start + end``.  24 bytes a record.  A checkpoint that carries the run
    into the next snapshot moves ``start`` and nothing else; one that drops
    a record inside it, or puts one between two of its records, cuts it
    into :meth:`part`\\ s.
    """

    __slots__ = ("start", "end", "ids", "offsets", "expires", "lapses_at")

    def __init__(self, start: int) -> None:
        self.start = start
        self.end = 0
        self.ids = array("q")
        self.offsets = array("q")
        self.expires = array("d")
        self.lapses_at = float("inf")

    def add(self, job_id: int, begin: int, length: int, expires: float) -> None:
        """Append the record of ``length`` bytes at absolute offset ``begin``."""
        self.ids.append(job_id)
        self.offsets.append(begin - self.start)
        self.expires.append(expires)
        self.end = begin + length - self.start
        self.lapses_at = min(self.lapses_at, expires)

    def splice(self) -> Splice:
        begin = self.start + self.offsets[0]
        return Splice(begin, self.start + self.end - begin)

    def records(self) -> Iterator[Tuple[int, int, int]]:
        """``(job_id, begin, end)`` of each record, as absolute offsets."""
        for index, job_id in enumerate(self.ids):
            yield job_id, self.start + self.offsets[index], self.start + self._end_of(index)

    def _end_of(self, index: int) -> int:
        if index + 1 < len(self.ids):
            return self.offsets[index + 1] - 1
        return self.end

    def part(self, lo: int, hi: int) -> "_Run":
        """Records ``lo:hi`` as a run of their own, where they lie now."""
        run = _Run(self.start)
        run.ids = self.ids[lo:hi]
        run.offsets = self.offsets[lo:hi]
        run.expires = self.expires[lo:hi]
        run.end = self._end_of(hi - 1)
        run.lapses_at = min(run.expires)
        return run


def _cut(runs: List[_Run], changed: List[int], now: float) -> List[_Run]:
    """``runs`` without the records of ``changed`` jobs or lapsed
    retention, cut wherever a changed job falls between two records.

    ``changed`` is ascending.  Runs with nothing to cut come back as they
    are.
    """
    firsts = [run.ids[0] for run in runs]  # for bisection
    cuts: Dict[int, Dict[int, bool]] = {}  # run -> {record: dropped (else: cut before)}
    for job_id in changed:
        at = bisect_right(firsts, job_id) - 1
        if at < 0 or job_id > runs[at].ids[-1]:
            continue
        ids = runs[at].ids
        index = bisect_left(ids, job_id)
        cut = cuts.setdefault(at, {})
        cut[index] = cut.get(index, False) or ids[index] == job_id
    for at, run in enumerate(runs):
        if now > run.lapses_at:
            cut = cuts.setdefault(at, {})
            for index, expires in enumerate(run.expires):
                if now > expires:
                    cut[index] = True
    if not cuts:
        return runs
    kept: List[_Run] = []
    for at, run in enumerate(runs):
        cut = cuts.get(at)
        if cut is None:
            kept.append(run)
            continue
        lo = 0
        for index in sorted(cut):
            if index > lo:
                kept.append(run.part(lo, index))
            lo = index + 1 if cut[index] else index
        if lo < len(run.ids):
            kept.append(run.part(lo, len(run.ids)))
    return kept


def _place(entries: SnapshotJobs, notes: List[object], run: _Run) -> int:
    """Add ``run``'s splice to ``entries``, coalesced with the splice before
    it when their bytes are adjacent in the old snapshot too; returns the
    bytes it adds to the snapshot."""
    splice = run.splice()
    if entries and type(entries[-1]) is Splice:
        previous = entries[-1]
        if previous.offset + previous.length + 1 == splice.offset:
            entries[-1] = Splice(previous.offset, splice.offset + splice.length - previous.offset)
            notes[-1].append(run)
            return splice.length + 1  # the comma between them too
    entries.append(splice)
    notes.append([run])
    return splice.length


class _Plan(NamedTuple):
    """A checkpoint's ``jobs`` entries and what :meth:`PersistenceManager._adopt`
    needs to index them once written."""

    entries: SnapshotJobs
    #: Per entry: the runs a splice carries, ``(job id, retention end)`` of
    #: a newly settled record, or ``None`` for a live one.
    notes: List[object]
    live: List[int]  # ids of the jobs written as live
    encoded: int  # records encoded by this checkpoint
    reused: int  # records spliced from the previous snapshot
    spliced_bytes: int


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------

_LOG = component_logger("repro.accessserver.persistence")


class PersistenceManager:
    """Journals every access-server mutation and checkpoints periodically.

    Created via :func:`attach_persistence` (or the convenience
    :meth:`~repro.accessserver.server.AccessServer.enable_persistence`);
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

    BUS_TOPICS = tuple(DISPATCH_TOPIC_KINDS)

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
        # Telemetry (rides on the server's registry when present).
        obs = getattr(server, "obs", None)
        if obs is not None:
            registry = obs.registry
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
        else:
            self._m_append = None

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
        """Subscribe to the server's event bus and mutation hooks."""
        if self._attached:
            return
        for topic in self.BUS_TOPICS:
            self._server.events.subscribe(topic, self._on_bus_event)
        if self._server.credit_policy is not None:
            self._server.credit_policy.ledger.add_observer(self._on_credit_event)
        self._server._persistence = self
        self._attached = True

    def detach(self) -> None:
        """Stop journaling; the backend is left open for inspection."""
        if not self._attached:
            return
        for topic in self.BUS_TOPICS:
            self._server.events.unsubscribe(topic, self._on_bus_event)
        if self._server.credit_policy is not None:
            self._server.credit_policy.ledger.remove_observer(self._on_credit_event)
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
            if self._m_append is not None:
                self._c_checkpoint_failures.inc()
            raise
        self._records_since_snapshot = 0
        self._checkpoint_due = self._snapshot_every
        self._snapshots_written += 1
        self._last_snapshot_at = self._server.context.now
        if self._m_append is not None:
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

    # -- explicit server hooks ---------------------------------------------
    def on_job_submitted(self, job: Job, idempotency_key: Optional[str] = None) -> None:
        data: Dict[str, object] = {"job": serialize_job(job)}
        if idempotency_key is not None:
            data["idempotency_key"] = idempotency_key
        self._append("job.submitted", data, job.job_id)

    def on_user_created(self, user) -> None:
        self._append("user.created", serialize_user(user))

    def on_agent_registered(self, record) -> None:
        self._append("agent.registered", record.to_record())

    def on_job_rejected(self, job: Job) -> None:
        # The cancellation itself is journaled via the dispatch.cancelled
        # bus tap; this record carries what the tap cannot see — the
        # rejection reason recorded on the job for its owner.
        self._append("job.rejected", {"job_id": job.job_id, "error": job.error}, job.job_id)

    def on_job_approved(self, job: Job) -> None:
        self._append("job.approved", {"job_id": job.job_id}, job.job_id)

    def on_job_finished(self, job: Job) -> None:
        state = _job_state(job)
        self._append(
            "job.finished",
            {
                "job_id": job.job_id,
                "status": job.status.value,
                **{key: state[key] for key in _JOB_FINISHED_KEYS if key in state},
            },
            job.job_id,
        )

    def on_reservation_created(self, reservation: SessionReservation) -> None:
        self._append("reservation.created", _serialize_reservation(reservation))

    def on_policy_changed(self, policy_name: str) -> None:
        self._append("policy.changed", {"policy": policy_name})

    def on_vantage_point_registered(self, record) -> None:
        self._append(
            "vantage_point.registered",
            {
                "name": record.name,
                "institution": record.institution,
                "dns_name": record.dns_name,
                "devices": list(record.controller.list_devices()),
            },
        )

    def on_credit_enabled(
        self,
        contribution_multiplier: float,
        initial_grant_device_hours: float,
        minimum_reservation_hours: float,
    ) -> None:
        self._append(
            "credit.enabled",
            {
                "contribution_multiplier": contribution_multiplier,
                "initial_grant_device_hours": initial_grant_device_hours,
                "minimum_reservation_hours": minimum_reservation_hours,
            },
        )
        self._server.credit_policy.ledger.add_observer(self._on_credit_event)

    # -- bus / ledger taps --------------------------------------------------
    def _on_bus_event(self, record: BusEvent) -> None:
        payload = record.payload
        if record.topic == "dispatch.assigned":
            self._append(
                "job.assigned",
                {
                    "job_id": payload["job_id"],
                    "vantage_point": payload["vantage_point"],
                    "device_serial": payload["device_serial"],
                    "timestamp": record.timestamp,
                },
                payload["job_id"],
            )
        elif record.topic == "dispatch.requeued":
            self._append("job.requeued", {"job_id": payload["job_id"]}, payload["job_id"])
        elif record.topic == "dispatch.cancelled":
            self._append("job.cancelled", {"job_id": payload["job_id"]}, payload["job_id"])
        elif record.topic == "dispatch.reservation_cancelled":
            self._append(
                "reservation.cancelled", {"reservation_id": payload["reservation_id"]}
            )

    def _on_credit_event(self, kind: str, data: Dict[str, object]) -> None:
        if kind == "account_opened":
            self._append("credit.account_opened", dict(data))
        elif kind == "transaction":
            self._append("credit.txn", dict(data))

    # -- internals ----------------------------------------------------------
    def _append(self, kind: str, data: Dict[str, object], job_id: Optional[int] = None) -> None:
        """Journal one record (about job ``job_id``, if any); checkpoint when due.

        A snapshot write that fails does not fail the caller — the record is
        durable already, and so is every earlier one — it is retried a full
        ``snapshot_every`` records later.  The journal fsync that precedes
        it does fail the caller: then the record may not be durable.
        """
        append_t0 = time.perf_counter()
        if job_id is not None:
            self._touched.add(job_id)
        self._sequence += 1
        self._backend.append(
            {
                "seq": self._sequence,
                "ts": self._server.context.now,
                "kind": kind,
                "data": data,
            }
        )
        self._records_since_snapshot += 1
        if self._m_append is not None:
            self._m_append.observe(time.perf_counter() - append_t0)
        if self._records_since_snapshot >= self._checkpoint_due:
            # Outside the try, so a journal fsync error fails this request;
            # checkpoint()'s own sync then finds nothing left to flush.
            self._backend.sync()
            try:
                self.checkpoint()
            except OSError:  # logged and counted by checkpoint()
                self._checkpoint_due = self._records_since_snapshot + self._snapshot_every


def attach_persistence(
    server: "AccessServer",
    backend: Union[StorageBackend, str, Path],
    recover: bool = True,
    snapshot_every: int = 1000,
    fsync_every: int = 32,
) -> PersistenceManager:
    """Wire durable state onto an access server (recovering first if asked).

    ``backend`` may be a :class:`StorageBackend` instance or a state
    directory path (which becomes a :class:`FileBackend`).  When ``recover``
    is true and the backend holds state, that state is replayed into the
    server *before* journaling starts; either way an initial checkpoint is
    written so the on-disk state is immediately coherent.

    .. warning:: ``recover=False`` means "start fresh": the initial
       checkpoint overwrites whatever snapshot/journal the backend already
       held.  To keep old state untouched, point the server at a different
       backend instead.
    """
    if isinstance(backend, (str, Path)):
        backend = FileBackend(backend, fsync_every=fsync_every)
    if server.persistence is not None:
        raise PersistenceError("persistence is already attached to this server")
    report: Optional[RecoveryReport] = None
    if recover and backend.has_state():
        report = recover_into(server, backend)
    manager = PersistenceManager(
        server,
        backend,
        snapshot_every=snapshot_every,
        start_sequence=report.last_sequence if report is not None else 0,
    )
    manager.attach()
    manager.last_recovery = report
    manager.checkpoint()
    return manager
