"""The invariant catalogue: the platform's global contracts, checked.

Each check is a pure function from observable state to a
:class:`CheckResult`; a :class:`InvariantReport` aggregates them and can
raise :class:`InvariantViolation` with every failure's detail.  The
catalogue covers the contracts the rest of the test suite proves
point-wise, restated as whole-run assertions a chaos soak can run after
(or during) any scenario:

``no_lost_jobs``
    Every job the submitter was ever acked reaches a terminal status once
    the run drains — faults may fail jobs, they may never *lose* one.
``no_double_execution``
    No payload runs twice within one process epoch.  Jobs in flight when a
    process was crash-killed may legitimately re-run after recovery (the
    journal records completion *after* the payload, exactly like a real
    ``kill -9``); those re-runs are counted, not flagged.
``recovery_byte_identical``
    Recovering the same durable state twice yields byte-identical
    platforms: same queue order, same job statuses, same canonical
    analytics report.
``snapshot_equals_fresh_encode``
    A checkpoint splices settled jobs' records from the snapshot it
    replaces; the bytes that reach the backend equal a cache-free encode of
    the same state.
``credit_conservation``
    Per account, the transaction history sums exactly to the balance —
    credits are minted and burned only through recorded transactions.
``analytics_live_equals_replay``
    The live-folded analytics report equals a cold replay of the journal,
    byte for byte.
``push_seq_gap_equals_dropped``
    On a push stream, sequence-number gaps equal the ``dropped`` counts
    the gateway declared — back-pressure loses frames loudly or not at all.
``device_hold_conservation``
    Every busy device, executing mark and lease belongs to an execution
    that can still end and give it back; a drained run holds nothing.
``history_bounded``
    Every in-memory history is within its bound (trace store,
    settled-lease memory), every per-job cache holds only jobs the
    scheduler retains (snapshot splice index, analytics timelines), and a
    drained run leaves no agent subscription and no lease.
``outbox_bounded``
    Every agent outbox costs what is live: the file is within the
    compaction bound plus its pending leases, the daemon's in-memory fold
    equals a fresh replay of the file, no compaction left a temporary file
    behind, and a drained run leaves no lease pending.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "InvariantViolation",
    "CheckResult",
    "InvariantReport",
    "check_no_lost_jobs",
    "check_no_double_execution",
    "check_recovery_byte_identical",
    "check_snapshot_equals_fresh_encode",
    "check_credit_conservation",
    "check_analytics_live_equals_replay",
    "check_push_contract",
    "check_device_hold_conservation",
    "check_history_bounded",
    "check_outbox_bounded",
]

#: Statuses a drained run may leave a job in.
TERMINAL_STATUSES = frozenset({"completed", "failed", "cancelled"})


class InvariantViolation(AssertionError):
    """At least one platform contract did not hold."""


@dataclass
class CheckResult:
    """One invariant's verdict."""

    name: str
    ok: bool
    details: str = ""
    data: Dict[str, object] = field(default_factory=dict)

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"{mark}  {self.name}" + (f" — {self.details}" if self.details else "")


class InvariantReport:
    """The verdicts of one run, in catalogue order."""

    def __init__(self, checks: Optional[Iterable[CheckResult]] = None) -> None:
        self.checks: List[CheckResult] = list(checks or ())

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> List[CheckResult]:
        return [check for check in self.checks if not check.ok]

    def summary(self) -> str:
        return "\n".join(check.line() for check in self.checks)

    def raise_on_failure(self) -> None:
        if not self.ok:
            raise InvariantViolation(
                "invariant violation(s):\n"
                + "\n".join(check.line() for check in self.failures())
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "details": c.details} for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _all_jobs(servers) -> Dict[int, object]:
    jobs: Dict[int, object] = {}
    for server in servers:
        for job in server.scheduler.jobs():
            jobs[job.job_id] = job
    return jobs


def check_no_lost_jobs(servers, submitted_ids: Iterable[int]) -> CheckResult:
    """Every acked job id exists somewhere and reached a terminal status."""
    servers = list(servers)
    jobs = _all_jobs(servers)
    missing = sorted(job_id for job_id in submitted_ids if job_id not in jobs)
    stuck = sorted(
        job_id
        for job_id in submitted_ids
        if job_id in jobs and jobs[job_id].status.value not in TERMINAL_STATUSES
    )
    ok = not missing and not stuck
    details = ""
    if missing:
        details += f"{len(missing)} job(s) vanished (e.g. {missing[:5]})"
    if stuck:
        details += ("; " if details else "") + (
            f"{len(stuck)} job(s) non-terminal after drain (e.g. "
            f"{[(j, jobs[j].status.value) for j in stuck[:5]]})"
        )
    if ok:
        details = f"{len(jobs)} job(s) accounted for"
    return CheckResult("no_lost_jobs", ok, details, {"missing": missing, "stuck": stuck})


def check_no_double_execution(ledger) -> CheckResult:
    """No payload ran twice within one process epoch (see
    :class:`~repro.chaos.faults.ExecutionLedger`)."""
    doubled = ledger.double_executions()
    reruns = ledger.crash_reruns()
    ok = not doubled
    if ok:
        details = (
            f"{len(ledger.executed_jobs())} job(s) executed exactly once per epoch"
            + (f"; {reruns} legitimate crash re-run(s)" if reruns else "")
        )
    else:
        sample = sorted(doubled.items())[:5]
        details = f"{len(doubled)} job(s) double-executed within an epoch (e.g. {sample})"
    return CheckResult(
        "no_double_execution", ok, details, {"doubled": doubled, "crash_reruns": reruns}
    )


def _recovery_fingerprint(platform) -> Dict[str, object]:
    """The canonical byte-comparable state of one recovered platform."""
    from repro.analytics import AnalyticsEngine

    server = platform.access_server
    backend = server.persistence.backend
    backend.sync()
    return {
        "queue": [job.job_id for job in server.scheduler.queue.jobs()],
        "statuses": {
            job.job_id: job.status.value for job in server.scheduler.jobs()
        },
        "report": AnalyticsEngine.from_backend(backend).report_json(),
    }


def _clone_backend(backend):
    """An independent copy of a backend's durable state.

    File-backed state is copied to a fresh directory (the moral equivalent
    of restoring a disk image onto another machine); in-memory backends
    are deep-copied.
    """
    state_dir = getattr(backend, "state_dir", None)
    if state_dir is not None:
        import shutil
        import tempfile

        from repro.accessserver.persistence import FileBackend

        backend.sync()
        dest = Path(tempfile.mkdtemp(prefix="chaos-recovery-")) / "state"
        shutil.copytree(state_dir, dest)
        return FileBackend(dest)
    return copy.deepcopy(backend)


def check_recovery_byte_identical(backend, platform_factory) -> CheckResult:
    """Recover the same durable state twice; the results must be identical.

    ``platform_factory(backend)`` must build a *fresh* platform recovered
    from the given backend.  The durable state is cloned per recovery so
    neither attach (which checkpoints) can disturb the other.
    """
    first = _recovery_fingerprint(platform_factory(_clone_backend(backend)))
    second = _recovery_fingerprint(platform_factory(_clone_backend(backend)))
    ok = first == second
    if ok:
        details = (
            f"two recoveries agree on {len(first['statuses'])} job(s), "
            f"queue of {len(first['queue'])} and the analytics report"
        )
    else:
        diverged = sorted(
            key for key in first if first[key] != second[key]
        )
        details = f"recoveries diverged on {diverged}"
    return CheckResult("recovery_byte_identical", ok, details)


def check_snapshot_equals_fresh_encode(server) -> CheckResult:
    """Checkpoint now; what reached the backend must equal a fresh encode.

    The manager splices a settled job's record from the previous snapshot
    instead of encoding it again, so this is the whole-run check that
    nothing changed a settled job's record behind that index.  It writes a
    checkpoint — run it after the checks that want the journal tail as the
    run left it.
    """
    from repro.accessserver.persistence import build_snapshot

    name = "snapshot_equals_fresh_encode"
    manager = server.persistence
    if manager is None:
        return CheckResult(name, False, "persistence not enabled on this server")
    manager.checkpoint()
    backend = manager.backend
    path = getattr(backend, "snapshot_path", None)
    written = path.read_text(encoding="utf-8") if path is not None else backend.snapshot
    fresh = json.dumps(
        build_snapshot(server, manager.sequence), separators=(",", ":")
    )
    ok = written == fresh
    details = (
        f"{len(written)} snapshot byte(s) identical to a cache-free encode"
        if ok
        else f"snapshot ({len(written)} B) differs from a cache-free encode "
        f"({len(fresh)} B)"
    )
    return CheckResult(name, ok, details)


def check_credit_conservation(ledger) -> CheckResult:
    """Each account's transactions sum exactly to its balance."""
    drifting: List[tuple] = []
    accounts = 0
    for account in ledger.accounts():
        accounts += 1
        total = sum(txn.amount_device_hours for txn in account.transactions)
        if abs(total - account.balance_device_hours) > 1e-6:
            drifting.append((account.owner, total, account.balance_device_hours))
    ok = not drifting
    details = (
        f"{accounts} account(s) reconcile"
        if ok
        else f"ledger drift on {drifting[:5]}"
    )
    return CheckResult("credit_conservation", ok, details, {"drifting": drifting})


def check_analytics_live_equals_replay(server) -> CheckResult:
    """The live engine's report equals a cold journal replay, byte for byte."""
    from repro.analytics import AnalyticsEngine

    if server.analytics is None or server.persistence is None:
        return CheckResult(
            "analytics_live_equals_replay",
            False,
            "analytics or persistence not enabled on this server",
        )
    server.persistence.backend.sync()
    live = server.analytics.report_json()
    replayed = AnalyticsEngine.from_backend(server.persistence.backend).report_json()
    ok = live == replayed
    details = (
        f"{server.analytics.records_folded} record(s), reports identical"
        if ok
        else "live report differs from cold replay"
    )
    return CheckResult("analytics_live_equals_replay", ok, details)


def check_push_contract(frames: Sequence[dict]) -> CheckResult:
    """Sequence gaps on a push stream must equal the declared drops.

    ``frames`` are the wire-form push frames of *one* subscription, in
    arrival order; each carries ``seq`` and a cumulative-per-gap
    ``dropped`` count (frames following a drop window declare how many
    were shed).
    """
    gaps = 0
    declared = 0
    last_seq: Optional[int] = None
    out_of_order: List[tuple] = []
    for frame in frames:
        seq = int(frame.get("seq", 0))
        if last_seq is not None:
            if seq <= last_seq:
                out_of_order.append((last_seq, seq))
            else:
                gaps += seq - last_seq - 1
        declared += int(frame.get("dropped", 0) or 0)
        last_seq = seq
    ok = not out_of_order and gaps == declared
    if ok:
        details = f"{len(frames)} frame(s), {gaps} gap(s) all declared"
    elif out_of_order:
        details = f"sequence went backwards at {out_of_order[:3]}"
    else:
        details = f"{gaps} frame(s) missing but only {declared} declared dropped"
    return CheckResult(
        "push_seq_gap_equals_dropped",
        ok,
        details,
        {"gaps": gaps, "declared": declared},
    )


def check_device_hold_conservation(server, drained: bool = False) -> CheckResult:
    """No device is held by an execution that can no longer give it back.

    A hold is a busy slot, an executing mark or a lease.  Its job must be
    RUNNING (an agent-mode one under a lease), or terminal — cancelled
    while held — and still executing: a push payload in flight, or an
    agent lease that has not expired.  Every lease's devices are busy for
    its job, and with ``drained`` nothing is held at all.
    """
    scheduler = server.scheduler
    now = server.context.now
    jobs = {job.job_id: job for job in scheduler.jobs()}
    leases = {lease.job_id: lease for lease in server.agents.leases()}
    busy: Dict[str, int] = {}
    for key in scheduler.slots.keys():  # "vantage_point/serial"
        slot = scheduler.slots.slot(*key.split("/", 1))
        if slot.busy_job_id is not None:
            busy[key] = slot.busy_job_id

    def will_end(job_id: int) -> bool:
        job, lease = jobs.get(job_id), leases.get(job_id)
        if job is None or (job.spec.execution == "agent" and lease is None):
            return False
        if job.status.value == "running":
            return True
        return scheduler.is_executing(job_id) and (lease is None or not lease.expired(now))

    holders = set(busy.values()) | {j for j in jobs if scheduler.is_executing(j)}
    problems = [
        f"job {job_id} holds a device or an executing mark, but nothing will end it"
        for job_id in sorted(holders)
        if not will_end(job_id)
    ]
    problems += [
        f"{lease.lease_id} holds {vp}/{serial}, which is not busy for job {job_id}"
        for job_id, lease in leases.items()
        for vp, serial in lease.devices
        if busy.get(f"{vp}/{serial}") != job_id
    ]
    summary = f"{len(busy)} busy slot(s), {len(holders)} holding job(s), {len(leases)} lease(s)"
    if drained and (holders or leases):
        problems.append(f"still held after drain: {summary}")
    details = "; ".join(problems[:5]) or f"{summary}; every hold has an execution that will end it"
    return CheckResult("device_hold_conservation", not problems, details)


def check_history_bounded(server, routers=(), drained: bool = False) -> CheckResult:
    """State that outlives a job is bounded, or is that job's own record.

    ``routers`` are the :class:`~repro.api.router.ApiRouter` instances
    serving ``server`` (their agent subscriptions are counted); with
    ``drained`` no agent subscription may be open and no lease live.
    """
    from repro.accessserver.agents import SETTLED_LEASE_MEMORY

    tracer = server.obs.tracer
    sizes = {
        "trace store": (len(tracer.trace_ids()), tracer.max_traces),
        "settled-lease memory": (server.agents.settled_count(), SETTLED_LEASE_MEMORY),
    }
    problems = [
        f"{what} holds {size} record(s), bound {bound}"
        for what, (size, bound) in sizes.items()
        if size > bound
    ]
    retained = {job.job_id for job in server.scheduler.jobs()}
    per_job = {}
    if server.persistence is not None:
        per_job["snapshot splice index"] = server.persistence.settled_job_ids
    if server.analytics is not None:
        per_job["analytics timelines"] = server.analytics.tracked_job_ids()
    for what, job_ids in per_job.items():
        strays = sorted(set(job_ids) - retained)
        if strays:
            problems.append(
                f"{what} keeps {len(strays)} job(s) the scheduler dropped (e.g. {strays[:5]})"
            )
    subscriptions = sum(router.agent_subscriptions() for router in routers)
    leases = len(server.agents.leases())
    if drained and (subscriptions or leases):
        problems.append(
            f"after drain: {subscriptions} agent subscription(s), {leases} live lease(s)"
        )
    details = "; ".join(problems[:5]) or (
        ", ".join(f"{what} {size}/{bound}" for what, (size, bound) in sizes.items())
        + f"; per-job caches within {len(retained)} retained job(s)"
    )
    return CheckResult("history_bounded", not problems, details)


def check_outbox_bounded(outboxes, drained: bool = False) -> CheckResult:
    """Each :class:`~repro.agent.outbox.Outbox` holds what is live, no more.

    The file may reach the compaction bound, plus the records of its
    pending leases (compaction keeps those), plus one lease's worth (the
    settling record that crosses the bound is written before the file is
    replaced).  With ``drained`` no lease may be pending.
    """
    from repro.agent.outbox import COMPACT_BYTES, fold_records

    def lease_bytes(state) -> int:
        records = (state["claim"], *state["phases"], state["result"])
        return sum(
            len(json.dumps(record, sort_keys=True)) + 1
            for record in records
            if record is not None
        )

    problems: List[str] = []
    sizes: List[int] = []
    for outbox in outboxes:
        name = os.path.basename(outbox.path)
        size = os.path.getsize(outbox.path)
        sizes.append(size)
        replayed = fold_records(outbox.records())
        pending = outbox.pending()
        if outbox.lease_states() != replayed:
            problems.append(f"{name}: in-memory fold differs from a replay of the file")
        if outbox.size_bytes != size or outbox.pending_count != len(pending):
            problems.append(
                f"{name}: gauges read {outbox.size_bytes} B / {outbox.pending_count} "
                f"pending, the file is {size} B / {len(pending)} pending"
            )
        per_lease = {lease_id: lease_bytes(state) for lease_id, state in replayed.items()}
        bound = (
            COMPACT_BYTES
            + sum(per_lease[lease_id] for lease_id in pending)
            + max(per_lease.values(), default=0)
        )
        if size > bound:
            problems.append(f"{name}: file is {size} B, bound {bound} B")
        if os.path.exists(f"{outbox.path}.tmp"):
            problems.append(f"{name}: a compaction left {name}.tmp behind")
        if drained and pending:
            problems.append(f"{name}: after drain: {len(pending)} pending lease(s)")
    details = "; ".join(problems[:5]) or (
        f"{len(sizes)} outbox(es), largest {max(sizes, default=0)} B of "
        f"{COMPACT_BYTES} B + pending; folds equal their files"
    )
    return CheckResult("outbox_bounded", not problems, details)
