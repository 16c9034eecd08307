"""Transport, journal and federation injectors: where faults enter the wire.

Three injection points cover the platform's communication and durability
surfaces:

* :class:`ChaosTransport` wraps any :class:`~repro.api.client.Transport`
  (the in-process bridge or the socket-level
  :class:`~repro.api.gateway.JsonLinesTransport`) and simulates the
  network between that client and its gateway: partitions fail every
  request with the transport's own retryable error, ``drop_next`` loses a
  bounded number of requests, and a configured delay adds latency through
  a pluggable sink (wall-clock sleep for sockets, simulated-clock advance
  for in-process runs).
* :class:`CrashingBackend` wraps a persistence
  :class:`~repro.accessserver.persistence.StorageBackend` and crash-kills
  the *server* at a chosen journal append, through the same shared
  :class:`~repro.chaos.faults.CrashPlan` the agent outbox uses — the PR-9
  crash matrix generalised to any process with a journal.
* :class:`ShardPartition` isolates one federation shard from its
  scatter-gather router: while partitioned, every request the
  :class:`~repro.federation.router.FederationRouter` forwards to that
  shard fails with ``transport.failed``, exactly what a severed link
  between router and shard looks like to clients.

All injectors are heal-able and count what they did, so invariant checks
can reconcile observed failures against injected ones.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.api.client import Transport
from repro.api.errors import TransportApiError
from repro.chaos.faults import CrashPlan

__all__ = ["ChaosTransport", "CrashingBackend", "ShardPartition"]


class ChaosTransport(Transport):
    """A transport wrapper that misbehaves on command.

    Parameters
    ----------
    inner:
        The real transport to wrap.
    delay_sink:
        Where injected latency goes: a callable taking seconds.  Defaults
        to ``time.sleep`` (right for socket transports); in-process
        simulations pass the scheduler's ``run_for`` so delay burns
        simulated time instead of wall time.
    """

    def __init__(
        self,
        inner: Transport,
        delay_sink: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.inner = inner
        self._delay_sink = delay_sink if delay_sink is not None else time.sleep
        self._partitioned = False
        self._drop_next = 0
        self._delay_s = 0.0
        self.dropped_requests = 0
        self.delayed_requests = 0

    # -- chaos controls -------------------------------------------------------
    @property
    def partitioned(self) -> bool:
        return self._partitioned

    def partition(self) -> None:
        """Sever the link: every request fails until :meth:`heal`."""
        self._partitioned = True

    def heal(self) -> None:
        self._partitioned = False
        self._drop_next = 0

    def drop_next(self, count: int = 1) -> None:
        """Lose the next ``count`` requests (each fails with
        ``transport.failed``), then recover on its own."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._drop_next = count

    def delay(self, seconds: float) -> None:
        """Add fixed latency to every subsequent request (0 to clear)."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self._delay_s = seconds

    def _gate(self) -> None:
        if self._partitioned:
            self.dropped_requests += 1
            raise TransportApiError("chaos: link partitioned")
        if self._drop_next > 0:
            self._drop_next -= 1
            self.dropped_requests += 1
            raise TransportApiError("chaos: request dropped")
        if self._delay_s > 0.0:
            self.delayed_requests += 1
            self._delay_sink(self._delay_s)

    # -- Transport ------------------------------------------------------------
    @property
    def supports_reconnect(self) -> bool:  # type: ignore[override]
        return self.inner.supports_reconnect

    def send(self, request: dict) -> dict:
        self._gate()
        return self.inner.send(request)

    def send_many(self, requests: List[dict]) -> List[dict]:
        self._gate()
        return self.inner.send_many(requests)

    def recv_push(
        self, subscription_id: int, timeout_s: Optional[float] = None
    ) -> Optional[dict]:
        if self._partitioned:
            raise TransportApiError("chaos: link partitioned")
        return self.inner.recv_push(subscription_id, timeout_s)

    def close(self) -> None:
        self.inner.close()


class CrashingBackend:
    """A storage backend proxy that can kill -9 its server mid-append.

    Duck-types :class:`~repro.accessserver.persistence.StorageBackend`:
    every operation delegates to the wrapped backend, with
    :meth:`append` routed through a shared
    :class:`~repro.chaos.faults.CrashPlan`.  ``torn`` mode writes half the
    record's JSON line straight into a file backend's journal with no
    newline — the exact on-disk shape of a crash mid-``write(2)`` — and
    degrades to "nothing written" for backends with no file to tear,
    which is what losing the only dirty sector means.

    Arm it with :meth:`plan_crash` using an *absolute* append offset, or
    :meth:`plan_crash_in` relative to the appends already made — the form
    scenario events use, since they fire mid-run.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.plan = CrashPlan()

    # -- fault injection ------------------------------------------------------
    def plan_crash(self, at_write: int, mode: str = "after") -> None:
        """Crash at the ``at_write``-th append since construction (0-based)."""
        self.plan.arm(at_write, mode)

    def plan_crash_in(self, appends_from_now: int, mode: str = "after") -> None:
        """Crash ``appends_from_now`` appends from the current offset
        (0 = the very next append)."""
        if appends_from_now < 0:
            raise ValueError("appends_from_now must be non-negative")
        self.plan.arm(self.plan.writes + appends_from_now, mode)

    @property
    def writes(self) -> int:
        return self.plan.writes

    # -- StorageBackend (by delegation) ---------------------------------------
    def append(self, record) -> None:
        def _torn() -> None:
            import json as _json
            import os as _os

            path = getattr(self.inner, "journal_path", None)
            if path is None:
                return
            line = _json.dumps(record, separators=(",", ":"))
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line[: max(1, len(line) // 2)])
                handle.flush()
                _os.fsync(handle.fileno())

        self.plan.intercept(
            str(record.get("kind", "record")),
            lambda: self.inner.append(record),
            _torn,
        )

    def sync(self) -> None:
        self.inner.sync()

    def read_journal(self):
        return self.inner.read_journal()

    def reset_journal(self) -> None:
        self.inner.reset_journal()

    def write_snapshot(self, snapshot) -> None:
        self.inner.write_snapshot(snapshot)

    def read_snapshot(self):
        return self.inner.read_snapshot()

    def has_state(self) -> bool:
        return self.inner.has_state()

    def close(self) -> None:
        self.inner.close()


class _PartitionedRouter:
    """Stands in for a shard's router while the link to it is severed.

    ``handle`` / ``handle_deferred`` — all the federation router uses on
    the request path — fail with the transport's retryable error; every other
    attribute (subscription bookkeeping, cancel fan-out) passes through so
    control-plane cleanup still works, as it would for a router process
    that is alive but unreachable.
    """

    def __init__(self, real, owner: "ShardPartition") -> None:
        self._real = real
        self._owner = owner

    def handle(self, *args, **kwargs):
        self._owner.dropped_requests += 1
        raise TransportApiError("chaos: shard partitioned")

    handle_deferred = handle

    def __getattr__(self, name):
        return getattr(self._real, name)


class ShardPartition:
    """Sever (and later heal) the router↔shard link of one federation shard."""

    def __init__(self, shard) -> None:
        self.shard = shard
        self._real_router = shard.router
        self.dropped_requests = 0

    @property
    def partitioned(self) -> bool:
        return isinstance(self.shard.router, _PartitionedRouter)

    def partition(self) -> None:
        if not self.partitioned:
            self.shard.router = _PartitionedRouter(self._real_router, self)

    def heal(self) -> None:
        self.shard.router = self._real_router
