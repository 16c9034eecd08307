"""Transport and federation injectors: where faults enter the wire.

Two injection points cover the platform's communication surfaces (a
durable log needs no wrapper: both journals crash-kill their owner at a
chosen append through their own ``plan_crash``):

* :class:`ChaosTransport` wraps any :class:`~repro.api.client.Transport`
  (the in-process bridge or the socket-level
  :class:`~repro.api.gateway.JsonLinesTransport`) and simulates the
  network between that client and its gateway: partitions fail every
  request with the transport's own retryable error, ``drop_next`` loses a
  bounded number of requests, and a configured delay adds latency through
  a pluggable sink (wall-clock sleep for sockets, simulated-clock advance
  for in-process runs).
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

__all__ = ["ChaosTransport", "ShardPartition"]


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

    @property
    def connects(self) -> int:  # type: ignore[override]
        return self.inner.connects

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


class _PartitionedRouter:
    """Stands in for a shard's router while the link to it is severed.

    ``handle`` — all the federation router uses on the request path —
    fails with the transport's retryable error; every other
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
