"""Agent registry and lease table for pull-based execution.

BatteryLab's vantage points are autonomous machines behind flaky
residential links (Section 3): the server cannot assume it can *push*
work into them.  This module holds the server-side state for the
inverted flow — :class:`AgentRecord` identities that daemons register
once (journaled and snapshotted like user accounts), and
:class:`AgentLease` claims that bind a job plus its device slots to one
agent for a bounded time.  Leases are deliberately **not** journaled: a
server crash mid-lease already flips the RUNNING job back to QUEUED
through the ordinary crash-requeue path, and the lease table rebuilds
empty — a report against a lease the restarted server never heard of is
simply refused, and the agent discards its buffered result because the
job re-ran elsewhere.

Exactly-once result upload therefore targets *agent* restarts: the
bounded ``settled`` map remembers recently settled lease ids so a
daemon replaying its outbox after a kill -9 gets an idempotent
``duplicate`` ack instead of a double settle.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
    """Registry + lease table; pure in-memory domain state, no wire types.

    The access server owns one instance and funnels every mutation
    through it under the gateway's router lock, so plain dicts suffice.
    """

    def __init__(self) -> None:
        self._agents: "OrderedDict[str, AgentRecord]" = OrderedDict()
        self._leases: "OrderedDict[str, AgentLease]" = OrderedDict()
        self._lease_by_job: Dict[int, str] = {}
        self._settled: "OrderedDict[str, int]" = OrderedDict()
        self._next_lease = 1

    # -- registry -------------------------------------------------------------
    def register(
        self,
        agent_id: str,
        now: float,
        vantage_point: Optional[str] = None,
        connectors: Optional[List[str]] = None,
        tags: Optional[Dict[str, str]] = None,
    ) -> Tuple[AgentRecord, bool]:
        """Register (or re-register) a daemon; returns ``(record, created)``.

        Re-registration is idempotent and refreshes capabilities — a
        daemon announces itself on every start, and only the *first*
        registration is journaled by the caller.
        """
        if not agent_id:
            raise AgentError("agent_id must be non-empty")
        record = self._agents.get(agent_id)
        created = record is None
        if record is None:
            record = AgentRecord(agent_id=agent_id, registered_at=now)
            self._agents[agent_id] = record
        record.vantage_point = vantage_point
        record.connectors = tuple(sorted(set(connectors or ())))
        record.tags = dict(tags or {})
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

    # -- leases ---------------------------------------------------------------
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

    def lease(self, lease_id: str) -> Optional[AgentLease]:
        return self._leases.get(lease_id)

    def lease_for_job(self, job_id: int) -> Optional[AgentLease]:
        lease_id = self._lease_by_job.get(job_id)
        return self._leases.get(lease_id) if lease_id is not None else None

    def leases(self) -> List[AgentLease]:
        return list(self._leases.values())

    def renew(self, lease_id: str, now: float) -> AgentLease:
        lease = self._leases.get(lease_id)
        if lease is None:
            raise AgentError(f"unknown or expired lease {lease_id!r}")
        lease.renew(now)
        return lease

    def release(self, lease_id: str) -> Optional[AgentLease]:
        """Drop a lease without marking it settled (expiry / cancellation)."""
        lease = self._leases.pop(lease_id, None)
        if lease is not None:
            self._lease_by_job.pop(lease.job_id, None)
        return lease

    def settle(self, lease_id: str) -> Optional[AgentLease]:
        """Drop a lease after a successful report, remembering its id."""
        lease = self.release(lease_id)
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

    def expired(self, now: float) -> List[AgentLease]:
        return [lease for lease in self._leases.values() if lease.expired(now)]

    def held_devices(self) -> Dict[Tuple[str, str], str]:
        """``(vantage_point, serial) -> agent_id`` for every leased slot."""
        held: Dict[Tuple[str, str], str] = {}
        for lease in self._leases.values():
            for device in lease.devices:
                held[device] = lease.agent_id
        return held
