"""Deterministic placement for the federation router.

Three mechanisms cooperate to keep every job operation routable without a
shared database:

* **Job-id lanes.**  The job-id space is partitioned by residue class:
  shard *k* of *N* mints ids ``k+1, k+1+N, k+1+2N, ...`` (see
  :func:`repro.accessserver.jobs.shard_job_id_allocator`), so
  :func:`lane_of_job` recovers the owning lane from the id alone —
  ``job.status``/``job.cancel``/``job.results``/``job.watch`` route with
  zero lookups and the property survives router restarts for free.

* **Rendezvous hashing.**  Initial placement of keys that carry no lane
  (new submissions, vantage-point registrations, credit accounts) uses
  highest-random-weight hashing over the *eligible* shard ids
  (:func:`rendezvous_shard`): every router instance picks the same shard
  for the same key, and removing a shard only moves the keys that lived
  on it.

* **Learned directories.**  :class:`PlacementDirectory` records where
  vantage points (and their device serials) actually live and which shard
  served each ``(owner, idempotency_key)`` submission.  Directories are
  *sticky*: entries survive a shard draining or detaching, so a resubmit
  with the same idempotency key and a constraint pinned to a re-attached
  shard's hardware keep landing where the original state lives —
  rendezvous answers only when no directory entry exists yet.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import Dict, List, Optional, Tuple

__all__ = [
    "PlacementDirectory",
    "ShardState",
    "lane_of_job",
    "rendezvous_shard",
]


class ShardState(Enum):
    """Drain state machine: ``active`` → ``draining`` → ``detached``.

    ``ACTIVE`` shards take new placements; ``DRAINING`` shards take no new
    placements but keep serving reads, watches and their in-flight jobs
    until those settle; ``DETACHED`` shards are gone from the scatter set
    entirely (a restarted process re-attaches under the same shard id via
    ``shard.add`` and recovers from its journal).
    """

    ACTIVE = "active"
    DRAINING = "draining"
    DETACHED = "detached"


def lane_of_job(job_id: int, lane_count: int) -> int:
    """The lane (shard index) whose allocator minted ``job_id``."""
    if lane_count < 1:
        raise ValueError(f"lane_count must be positive, got {lane_count!r}")
    if job_id < 1:
        raise ValueError(f"job ids start at 1, got {job_id!r}")
    return (job_id - 1) % lane_count


def _weight(shard_id: str, key: str) -> bytes:
    return hashlib.sha256(f"{shard_id}|{key}".encode("utf-8")).digest()


def rendezvous_shard(key: str, shard_ids: List[str]) -> str:
    """Highest-random-weight choice of one shard for ``key``.

    Deterministic across processes (SHA-256, no process seed) and minimally
    disruptive: dropping a shard from ``shard_ids`` only remaps the keys
    that shard was winning.
    """
    if not shard_ids:
        raise ValueError("rendezvous_shard needs at least one candidate shard")
    return max(shard_ids, key=lambda shard_id: (_weight(shard_id, key), shard_id))


class PlacementDirectory:
    """Learned placement state shared by every routing decision.

    Mutations happen only on the router thread holding the gateway's
    exclusive lock (placement is consulted by mutating ops), so plain
    dicts suffice — no lock of its own.
    """

    def __init__(self) -> None:
        #: vantage-point name -> shard id (learned at attach and register).
        self.vantage_points: Dict[str, str] = {}
        #: device serial -> shard id (learned from controller inventories).
        self.devices: Dict[str, str] = {}
        #: (owner, idempotency_key) -> shard id of the original submission.
        self.submissions: Dict[Tuple[str, str], str] = {}
        #: agent id -> shard id it registered with (its leases live there).
        self.agents: Dict[str, str] = {}

    def learn_shard(self, shard_id: str, server) -> None:
        """Record every vantage point and device ``server`` currently hosts."""
        for record in server.accounts.vantage_points():
            self.vantage_points[record.name] = shard_id
            for serial in record.controller.list_devices():
                self.devices[serial] = shard_id

    def forget_vantage_points(self, shard_id: str) -> None:
        """Drop a shard's hardware entries (it detached *without* intending
        to come back; re-attach simply re-learns them)."""
        self.vantage_points = {
            name: home
            for name, home in self.vantage_points.items()
            if home != shard_id
        }
        self.devices = {
            serial: home
            for serial, home in self.devices.items()
            if home != shard_id
        }

    def shard_for_constraints(
        self, vantage_point: Optional[str], device_serial: Optional[str]
    ) -> Optional[str]:
        """The shard hosting the constrained hardware, if any is named."""
        if vantage_point is not None:
            return self.vantage_points.get(vantage_point)
        if device_serial is not None:
            return self.devices.get(device_serial)
        return None

    def shard_for_submission(
        self, owner: str, idempotency_key: Optional[str]
    ) -> Optional[str]:
        if idempotency_key is None:
            return None
        return self.submissions.get((owner, idempotency_key))

    def record_submission(
        self, owner: str, idempotency_key: Optional[str], shard_id: str
    ) -> None:
        if idempotency_key is not None:
            self.submissions[(owner, idempotency_key)] = shard_id
