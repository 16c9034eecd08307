"""Snapshot construction, and replaying snapshot + journal into a server."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.accessserver.credits import CreditTransaction, TransactionKind
from repro.accessserver.dispatch import SessionReservation
from repro.accessserver.jobs import Job, JobStatus
from repro.accessserver.payloads import get_payload
from repro.accessserver.persistence.backends import StorageBackend
from repro.accessserver.persistence.codec import (
    CREDIT_CONFIG,
    FORMAT_VERSION,
    _JOB_FINISHED_KEYS,
    PersistenceError,
    _check_job_record,
    materialize_job,
    serialize_job,
    serialize_user,
    serialize_vantage_point,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.accessserver.server import AccessServer

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

    ``jobs`` overrides the ``jobs`` list: the
    :class:`~repro.accessserver.persistence.manager.PersistenceManager`
    passes a :class:`~repro.accessserver.persistence.backends.SnapshotJobs`
    of record text and ``Splice`` runs (see ``encode_snapshot``).  Left
    out, every retained job is serialised afresh and the result is a plain
    ``json``-able tree.
    """
    scheduler = server.scheduler
    if jobs is None:
        jobs = [
            serialize_job(job, queue_seq=scheduler.queue.sequence_of(job.job_id))
            for job in _retained_jobs(server)
        ]
    policy = server.accounts.credit_policy
    credit_state: Optional[Dict[str, object]] = None
    if policy is not None:
        ledger = policy.ledger
        owners = (ledger, ledger, policy)  # where each CREDIT_CONFIG value lives
        credit_state = {
            **{key: getattr(owner, key) for key, owner in zip(CREDIT_CONFIG, owners)},
            "accounts": [
                {
                    "owner": account.owner,
                    "contributes_hardware": account.contributes_hardware,
                    "balance_device_hours": account.balance_device_hours,
                    "transactions": [
                        {**asdict(txn), "kind": txn.kind.value} for txn in account.transactions
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
        "vantage_points": [serialize_vantage_point(record) for record in server.accounts.vantage_points()],
        "jobs": jobs,
        "pending_approval": sorted(scheduler.awaiting_approval),
        "reservations": [asdict(r) for r in scheduler.reservations.all()],
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
    (a path, for a ``FileBackend``) in the errors a bad record raises.
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
            self._apply_credit_enabled(credit)
            for account in credit.get("accounts", ()):
                self.credit["accounts"][account["owner"]] = {
                    "contributes_hardware": account["contributes_hardware"],
                    "balance_device_hours": account["balance_device_hours"],
                    "transactions": list(account["transactions"]),
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
        self.credit = {**{key: data[key] for key in CREDIT_CONFIG}, "accounts": {}}

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
    for setting, journaled, active in (
        ("scheduling policy", state.policy, scheduler.policy.name),
        ("reservation admission", state.reservation_admission, scheduler.reservation_admission),
    ):
        if journaled is not None and journaled != active:
            server.log(
                f"journaled {setting} differs; keeping this run's configuration",
                journaled=journaled,
                active=active,
            )

    registered = {record.name for record in server.accounts.vantage_points()}
    report.missing_vantage_points = [
        name for name in state.vantage_points if name not in registered
    ]

    # Accounts are restored by hash — the journal never saw a plaintext
    # token — and overwrite same-named bootstrap accounts: the journal is
    # authoritative, exactly as for credit balances.
    for username in sorted(state.users):
        server.users.restore_user(**state.users[username])
        report.users_restored += 1

    for agent_id in sorted(state.agents):
        server.agents.restore(state.agents[agent_id])
        report.agents_restored += 1

    for (owner, key), job_id in state.idempotency.items():
        if job_id in state.jobs:
            server.restore_idempotency_record(owner, key, job_id)
            report.idempotency_keys_restored += 1

    if state.credit is not None:
        # Keeps a ledger the host enabled before recovery ran.
        ledger = server.accounts.enable_credit_system(
            **{key: state.credit[key] for key in CREDIT_CONFIG}
        )
        for owner in sorted(state.credit["accounts"]):
            account = state.credit["accounts"][owner]
            ledger.restore_account(
                owner,
                contributes_hardware=account["contributes_hardware"],
                balance_device_hours=account["balance_device_hours"],
                transactions=[
                    CreditTransaction(**{**txn, "kind": TransactionKind(txn["kind"])})
                    for txn in account["transactions"]
                ],
            )
            report.credit_accounts_restored += 1

    for reservation_id in sorted(state.reservations):
        scheduler.restore_reservation(SessionReservation(**state.reservations[reservation_id]))
        report.reservations_restored += 1
    scheduler.claim_reservation_id(state.next_reservation_id - 1)

    queued: List[Tuple[float, Job]] = []
    for job_id in sorted(state.jobs):
        data = state.jobs[job_id]
        job, was_in_flight = materialize_job(data)
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
            report.pending_approval += 1
    for _, job in sorted(queued, key=lambda item: item[0]):
        scheduler.restore_job(job, queued=True)
        report.jobs_queued += 1

    # Jobs pinned to a vantage point that has not re-joined can never
    # dispatch until an operator re-registers the topology; one predicate —
    # Accounts.orphaned_jobs(), which status() keeps reporting live —
    # decides both the recovery report and the ongoing view.
    report.orphaned_jobs = [job.job_id for job in server.accounts.orphaned_jobs()]

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
