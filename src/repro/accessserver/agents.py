"""The agent plane: pull-based execution, from registration to report.

BatteryLab's vantage points are autonomous machines behind flaky
residential links (Section 3): the server cannot assume it can *push*
work into them.  :class:`AgentManager` — built with the access server, one
per server — is the server side of the inverted flow: the
:class:`AgentRecord` identities daemons register once (journaled and
snapshotted like user accounts), the :class:`AgentLease` claims that bind a
job plus its device slots to one agent for a bounded time, and every agent
operation over them, with the plane's metrics.

The plane walks only the agent jobs of the queue and has no matcher of its
own: slots come from :meth:`JobScheduler.free_slots
<repro.accessserver.scheduler.JobScheduler.free_slots>`, as for push
dispatch, so session reservations bind both planes alike.  On top it checks
what only an agent has: its vantage-point binding and connectors.

Leases are deliberately **not** journaled: a server crash mid-lease
already flips the RUNNING job back to QUEUED through the ordinary
crash-requeue path, and the lease table rebuilds empty — a report against
a lease the restarted server never heard of is simply refused, and the
agent discards its buffered result because the job re-ran elsewhere.

Exactly-once result upload therefore targets *agent* restarts: the
bounded ``settled`` map remembers recently settled lease ids so a
daemon replaying its outbox after a kill -9 gets an idempotent
``duplicate`` ack instead of a double settle.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.accessserver.auth import AuthorizationError, Permission, User
from repro.accessserver.jobs import Job, JobStatus

if TYPE_CHECKING:
    from repro.accessserver.server import AccessServer

__all__ = ["AgentError", "AgentRecord", "AgentLease", "AgentManager"]

#: How many settled lease ids the duplicate-report filter remembers.
SETTLED_LEASE_MEMORY = 1024


class AgentError(RuntimeError):
    """Raised for unknown agents/leases or conflicting claims."""


@dataclass
class AgentRecord:
    """One registered vantage-point daemon.

    ``connectors`` is the sorted tuple of device-connector types the
    daemon can run (``"fake"``, ``"noprovision"``, ``"multi"``, ...);
    ``tags`` are free-form capability labels used for matching, after
    PyExpLabSys's host-roster model.
    """

    agent_id: str
    vantage_point: Optional[str] = None
    connectors: Tuple[str, ...] = ()
    tags: Dict[str, str] = field(default_factory=dict)
    registered_at: float = 0.0

    def to_record(self) -> Dict[str, object]:
        """Stable dict form shared by the journal and snapshots."""
        return {
            "agent_id": self.agent_id,
            "vantage_point": self.vantage_point,
            "connectors": list(self.connectors),
            "tags": dict(sorted(self.tags.items())),
            "registered_at": self.registered_at,
        }

    @classmethod
    def from_record(cls, data: Dict[str, object]) -> "AgentRecord":
        return cls(
            agent_id=str(data["agent_id"]),
            vantage_point=data.get("vantage_point"),
            connectors=tuple(data.get("connectors", ())),
            tags=dict(data.get("tags", {})),
            registered_at=float(data.get("registered_at", 0.0)),
        )


@dataclass
class AgentLease:
    """A bounded-time claim of one job (and its device slots) by one agent.

    ``devices`` lists every ``(vantage_point, device_serial)`` slot the
    claim holds — one for a classic job, N for a multi-device job.  The
    first entry is the *primary* slot the job was assigned to; the rest
    are child slots held for the ``multi`` connector's children.
    """

    lease_id: str
    agent_id: str
    job_id: int
    devices: Tuple[Tuple[str, str], ...]
    ttl_s: float
    granted_at: float
    expires_at: float
    claim_elapsed_s: float = 0.0

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def renew(self, now: float) -> None:
        self.expires_at = now + self.ttl_s


class AgentManager:
    """The agent plane of one access server: registry, leases and their ops.

    Every mutation runs under the gateway's router lock, so plain dicts
    suffice; :meth:`offers` is read-only and runs lock-free (the gateway
    retries a read that tears under the lock).
    """

    def __init__(self, server: "AccessServer") -> None:
        self._server = server
        self._agents: "OrderedDict[str, AgentRecord]" = OrderedDict()
        self._leases: "OrderedDict[str, AgentLease]" = OrderedDict()
        self._lease_by_job: Dict[int, str] = {}
        self._settled: "OrderedDict[str, int]" = OrderedDict()
        self._next_lease = 1
        registry = server.obs.registry
        self._m_polls = registry.counter(
            "agent_polls_total",
            "Offer checks (agent.poll requests and offer-stream checks), by outcome.",
            labelnames=("outcome",),
        )
        self._m_claims = registry.counter(
            "agent_claims_total", "Leases granted to pulling agents."
        ).labels()
        self._m_reports = registry.counter(
            "agent_reports_total",
            "agent.report settlements, by terminal status.",
            labelnames=("status",),
        )
        self._m_lease_expired = registry.counter(
            "agent_lease_expirations_total",
            "Leases reaped after their holder went silent.",
        ).labels()
        leases = registry.gauge(
            "agent_leases_active", "Currently granted agent leases."
        ).labels()
        registry.add_collect_hook(lambda: leases.set(float(len(self._leases))))
        # Labelled children, resolved once per label value: polls and
        # reports pay a dict hit.
        self._children: Dict[Tuple[str, str], object] = {}

    # -- registry -------------------------------------------------------------
    def register(
        self,
        user: User,
        agent_id: str,
        vantage_point: Optional[str] = None,
        connectors: Optional[List[str]] = None,
        tags: Optional[Dict[str, str]] = None,
    ) -> Tuple[AgentRecord, bool]:
        """Register (or refresh) a daemon; returns ``(record, created)``.

        Re-registration is idempotent and refreshes capabilities — a daemon
        announces itself on every start, and only the *first* registration
        is journaled: like user accounts, the identity is durable while
        capability refreshes are cheap.  A named vantage point must exist;
        an agent without one serves any vantage point's devices.
        """
        server = self._server
        server.users.authorize(user, Permission.RUN_JOB)
        if vantage_point is not None:
            server.accounts.vantage_point(vantage_point)
        if not agent_id:
            raise AgentError("agent_id must be non-empty")
        record = self._agents.get(agent_id)
        created = record is None
        if record is None:
            record = AgentRecord(agent_id=agent_id, registered_at=server.context.now)
            self._agents[agent_id] = record
        record.vantage_point = vantage_point
        record.connectors = tuple(sorted(set(connectors or ())))
        record.tags = dict(tags or {})
        if created:
            server.record("agent.registered", record.to_record())
        server.log(
            "agent registered",
            agent=agent_id,
            vantage_point=vantage_point,
            connectors=list(record.connectors),
        )
        return record, created

    def restore(self, data: Dict[str, object]) -> AgentRecord:
        """Re-create a journaled/snapshotted agent during recovery."""
        record = AgentRecord.from_record(data)
        self._agents[record.agent_id] = record
        return record

    def get(self, agent_id: str) -> AgentRecord:
        record = self._agents.get(agent_id)
        if record is None:
            raise AgentError(f"unknown agent {agent_id!r}; register it first")
        return record

    def agents(self) -> List[AgentRecord]:
        return list(self._agents.values())

    # -- poll -> claim -> heartbeat -> report ----------------------------------
    def offers(self, user: User, agent_id: str, limit: int = 10) -> List[Job]:
        """Queued agent-mode jobs this agent could claim right now (FIFO order).

        Read-only — safe for the gateway's lock-free path.  Jobs held by an
        *expired* lease are offered too: the claim (a mutating op) reaps the
        lease before assigning, so a dead agent's job is re-claimable the
        moment any live agent polls.
        """
        server = self._server
        server.users.authorize(user, Permission.RUN_JOB)
        record = self.get(agent_id)
        now = server.context.now
        offers: List[Job] = []
        for job in server.scheduler.queue.jobs("agent"):
            if len(offers) >= limit:
                break
            if job.status is JobStatus.QUEUED and self._slots_for(job, record, now):
                offers.append(job)
        for lease in list(self._leases.values()):
            if len(offers) >= limit:
                break
            if lease.expired(now):
                job = server.scheduler.job(lease.job_id)
                if job.status is JobStatus.RUNNING and self._slots_for(job, record, now):
                    offers.append(job)
        if server.obs.registry.enabled:
            self._child(self._m_polls, "offered" if offers else "empty").inc()
        return offers

    def claim(
        self, user: User, agent_id: str, job_id: int, ttl_s: float = 30.0
    ) -> Tuple[AgentLease, Job]:
        """Atomically lease one job — and *all* its device slots — to an agent.

        Multi-device jobs (``constraints.device_count > 1``) are
        all-or-nothing: either every slot is free and the whole family is
        marked busy under one lease, or the claim fails having touched
        nothing.  The primary slot goes through the scheduler's
        ``assign`` (same ``dispatch.assigned`` record as push dispatch);
        the child slots join the scheduler's hold for the job.

        A repeated claim by the agent already holding the job's lease is
        answered with that lease: a client that resent its claim after the
        connection dropped on the way back gets what the first copy won.
        """
        started = time.perf_counter()
        server = self._server
        server.users.authorize(user, Permission.RUN_JOB)
        if ttl_s <= 0:
            raise AgentError("lease ttl_s must be positive")
        self.expire_leases()
        record = self.get(agent_id)
        scheduler = server.scheduler
        job = scheduler.job(job_id)
        if job.spec.execution != "agent":
            raise AgentError(
                f"job {job_id} is push-dispatched; only execution='agent' "
                "jobs can be claimed"
            )
        if job.status is not JobStatus.QUEUED:
            held = self._leases.get(self._lease_by_job.get(job_id, ""))
            if held is not None and held.agent_id == agent_id:
                return held, job
            raise AgentError(f"job {job_id} is {job.status.value}, not claimable")
        now = server.context.now
        devices = self._slots_for(job, record, now)
        if not devices:
            raise AgentError(
                f"agent {agent_id!r} does not match job {job_id} (connector, "
                "vantage point, reservation or free-device constraints)"
            )
        scheduler.assign(job, devices[0][0], devices[0][1], now)
        job.mark_execution_started(now)
        scheduler.begin_execution(job, tuple(devices[1:]))
        lease = self.grant(
            agent_id, job_id, devices, ttl_s, now,
            claim_elapsed_s=time.perf_counter() - started,
        )
        if server.obs.registry.enabled:
            self._m_claims.inc()
        server.log(
            "job leased",
            job_id=job_id,
            agent=agent_id,
            lease=lease.lease_id,
            devices=len(devices),
        )
        return lease, job

    def heartbeat(self, lease_id: str, agent_id: str) -> AgentLease:
        """Renew ``agent_id``'s lease for another TTL; expired leases are gone for good."""
        self.expire_leases()
        lease = self._owned_lease(lease_id, agent_id)
        if lease is None:
            raise AgentError(f"unknown or expired lease {lease_id!r}")
        lease.renew(self._server.context.now)
        return lease

    def report(
        self,
        lease_id: str,
        agent_id: str,
        status: str,
        result: object = None,
        error: Optional[str] = None,
        children: Optional[List[Dict[str, object]]] = None,
    ) -> Tuple[Job, bool]:
        """Settle a leased job from its agent's report; idempotent on retry.

        Returns ``(job, duplicate)``.  A report against a lease that
        already settled — the agent crashed after upload but before
        recording the server's ack — answers the same job with
        ``duplicate=True`` and changes nothing, which is the exactly-once
        contract the daemon's outbox replay relies on.  Child results of a
        multi-device job are published as ``dispatch.child_result`` records
        *before* the terminal transition, so they roll up into the
        parent's ``job.watch`` stream ahead of its end frame.
        """
        settle_t0 = time.perf_counter()
        server = self._server
        self.expire_leases()
        lease = self._owned_lease(lease_id, agent_id)
        if lease is None:
            settled_job = self._settled.get(lease_id)
            if settled_job is not None:
                return server.scheduler.job(settled_job), True
            raise AgentError(
                f"unknown or expired lease {lease_id!r}; the job was "
                "requeued and the result must be discarded"
            )
        job = server.scheduler.job(lease.job_id)
        now = server.context.now
        for child in children or []:
            server.events.publish(
                "dispatch.child_result",
                job_id=job.job_id,
                device_serial=child.get("device_serial"),
                status=child.get("status"),
                output=child.get("output", ""),
                owner=job.spec.owner,
            )
        failure = None if status == "completed" else (error or "agent reported failure")
        server._finish_execution(job, lease.granted_at, result, failure)
        self.settle(lease_id)
        settle_elapsed = time.perf_counter() - settle_t0
        if server.obs.registry.enabled:
            self._child(self._m_reports, job.status.value).inc()
        tracer = server.obs.tracer
        if tracer.enabled:
            # Imported here: server.py loads this module before repro.obs.
            from repro.obs.trace import AGENT_PHASES

            tracer.record_lifecycles([(
                AGENT_PHASES,
                job.job_id,
                lease.granted_at,
                now,
                lease.claim_elapsed_s,
                now - lease.granted_at,
                settle_elapsed,
                job.status is JobStatus.FAILED,
                lease.agent_id,
                len(lease.devices),
                job.status.value,
            )])
        server._schedule_dispatch_tick()
        return job, False

    def expire_leases(self) -> int:
        """Reap expired leases and give back everything they held, unbilled.

        Every dispatch pass, claim, heartbeat and report reaps first.  A job
        still RUNNING is requeued at its *original* FIFO position through
        ``JobScheduler.requeue`` — the record a lapsed wave admission emits
        and crash recovery's in-flight requeue mirrors, so the journal
        cannot tell a lease expiry from any other requeue.  A job cancelled
        while the agent held it stays cancelled; its devices are simply
        released.
        """
        if not self._leases:
            return 0
        server = self._server
        now = server.context.now
        expired = [lease for lease in self._leases.values() if lease.expired(now)]
        for lease in expired:
            self._release(lease.lease_id)
            job = server.scheduler.job(lease.job_id)
            if job.status is JobStatus.RUNNING:
                server.scheduler.requeue(job)
            else:
                server.scheduler.release(job)
            server._schedule_dispatch_tick()
            if server.obs.registry.enabled:
                self._m_lease_expired.inc()
            server.log(
                "agent lease expired",
                lease=lease.lease_id,
                agent=lease.agent_id,
                job_id=lease.job_id,
            )
        return len(expired)

    # -- the lease table ------------------------------------------------------
    def grant(
        self,
        agent_id: str,
        job_id: int,
        devices: List[Tuple[str, str]],
        ttl_s: float,
        now: float,
        claim_elapsed_s: float = 0.0,
    ) -> AgentLease:
        if job_id in self._lease_by_job:
            raise AgentError(
                f"job {job_id} is already leased ({self._lease_by_job[job_id]})"
            )
        if not devices:
            raise AgentError("a lease must hold at least one device slot")
        lease = AgentLease(
            lease_id=f"lease-{self._next_lease}",
            agent_id=agent_id,
            job_id=job_id,
            devices=tuple(devices),
            ttl_s=ttl_s,
            granted_at=now,
            expires_at=now + ttl_s,
            claim_elapsed_s=claim_elapsed_s,
        )
        self._next_lease += 1
        self._leases[lease.lease_id] = lease
        self._lease_by_job[job_id] = lease.lease_id
        return lease

    def leases(self) -> List[AgentLease]:
        return list(self._leases.values())

    def settle(self, lease_id: str) -> Optional[AgentLease]:
        """Drop a lease after a successful report, remembering its id."""
        lease = self._release(lease_id)
        if lease is not None:
            self._settled[lease_id] = lease.job_id
            while len(self._settled) > SETTLED_LEASE_MEMORY:
                self._settled.popitem(last=False)
        return lease

    def settled_count(self) -> int:
        """Settled lease ids currently remembered (≤ ``SETTLED_LEASE_MEMORY``)."""
        return len(self._settled)

    def settled_job(self, lease_id: str) -> Optional[int]:
        """Job id a recently settled lease reported for, if remembered."""
        return self._settled.get(lease_id)

    def held_devices(self) -> Dict[Tuple[str, str], str]:
        """``(vantage_point, serial) -> agent_id`` for every leased slot."""
        held: Dict[Tuple[str, str], str] = {}
        for lease in self._leases.values():
            for device in lease.devices:
                held[device] = lease.agent_id
        return held

    # -- internals ------------------------------------------------------------
    def _slots_for(self, job: Job, record: AgentRecord, now: float) -> List[Tuple[str, str]]:
        """The ``device_count`` slots ``record`` could claim ``job`` on now, or none.

        A job whose lease just expired counts its still-busy slots as free
        when they pass the same checks: poll is read-only and may not reap
        the lease itself; the claim path reaps it first.
        """
        constraints = job.spec.constraints
        if constraints.connector is not None and constraints.connector not in record.connectors:
            return []
        need = constraints.device_count
        if need > 1 and "multi" not in record.connectors:
            return []
        scheduler = self._server.scheduler
        cpu = self._server._controller_cpu
        bound = record.vantage_point
        slots: List[Tuple[str, str]] = []
        lease_id = self._lease_by_job.get(job.job_id)
        lease = self._leases.get(lease_id) if lease_id is not None else None
        if lease is not None and lease.expired(now):
            slots = [
                (vantage_point, serial)
                for vantage_point, serial in lease.devices
                if bound in (None, vantage_point)
                and scheduler.eligible(job, vantage_point, serial, now, cpu)
            ]
        for slot in scheduler.free_slots(job, now, cpu, vantage_point=bound):
            if len(slots) >= need:
                break
            slots.append((slot.vantage_point, slot.device_serial))
        return slots[:need] if len(slots) >= need else []

    def _owned_lease(self, lease_id: str, agent_id: str) -> Optional[AgentLease]:
        """The live lease ``lease_id`` if ``agent_id`` holds it; checked
        before anything about the lease changes."""
        lease = self._leases.get(lease_id)
        if lease is not None and lease.agent_id != agent_id:
            raise AuthorizationError(f"lease {lease_id!r} belongs to {lease.agent_id!r}")
        return lease

    def _release(self, lease_id: str) -> Optional[AgentLease]:
        """Drop a lease without marking it settled (expiry)."""
        lease = self._leases.pop(lease_id, None)
        if lease is not None:
            self._lease_by_job.pop(lease.job_id, None)
        return lease

    def _child(self, family, value: str):
        child = self._children.get((family.name, value))
        if child is None:
            child = self._children[family.name, value] = family.labels(value)
        return child
