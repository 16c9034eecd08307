"""The one operation table of the Platform API, and what follows from it.

Every operation the platform serves is one :class:`Op` row of :data:`OPS`.
Nothing else enumerates the operation set; what needs it derives it from
the rows:

* :class:`~repro.api.router.ApiRouter` binds every row except the
  ``admin`` ones to its ``_op_<name>`` method;
* :class:`~repro.federation.router.FederationRouter` binds every row to a
  route picked by the row's federation ``mode``;
* :class:`~repro.api.client.BatteryLabClient` takes the envelope version
  an operation needs from the row's ``min_version``.

Adding an operation is one row here plus its handler(s): a router that is
missing one refuses to be constructed, naming the operation.

The federation ``mode`` says how N shards serve the operation (it is also
the ``mode`` label of ``federation_requests_total``):

``scatter``
    Fanned out to every attached shard and folded into one response — by
    ``repro.federation.merge.<merge>`` (stored by *name* and looked up when
    called, so the fold stays patchable), or by the route itself.
``routed``
    One deterministic target shard answers; its response is returned
    verbatim.
``broadcast``
    Applied on every shard: the resource is federation-global.
``stream``
    Opens a long-lived push stream behind a federated subscription id.
``admin``
    Served by the federation router itself (shard membership is router
    state); a standalone server does not route these.

:class:`OpRouter` is the half of a router that does not depend on what is
behind it: the entry points, the envelope gates every request passes before
its handler runs, and the error envelope any failure becomes.

Part of the edge set (DESIGN.md, "Import layering") — the client imports
this module, so it imports only the schemas, the errors and the
standard-library-only ``accessserver.auth``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.accessserver.auth import Permission, User
from repro.api.errors import (
    UnknownOperationApiError,
    ValidationApiError,
    VersionApiError,
    map_exception,
)
from repro.api.schemas import (
    API_VERSION,
    API_VERSION_V2,
    SUPPORTED_VERSIONS,
    ApiRequest,
    response_wire,
)


@dataclass(frozen=True)
class Op:
    """One operation: how to guard it and how a federation serves it."""

    name: str
    permission: Optional[Permission]
    mode: str
    merge: Optional[str] = None
    min_version: str = API_VERSION_V2
    authenticate: bool = True
    streaming: bool = False
    read_only: bool = False
    # Read-only but may *park* (long-poll): ``handle`` blocks its caller
    # until the parked request completes, so it must never run inline on
    # the gateway's selector loop; ``handle_deferred`` parks it instead.
    blocking: bool = False

    @property
    def handler_suffix(self) -> str:
        """``vantage-point.register`` → ``vantage_point_register``."""
        return self.name.replace(".", "_").replace("-", "_")


# One row per line reads as the table it is.
# fmt: off
_V1 = API_VERSION
_TABLE = (
    # -- v1: the frozen nine ---------------------------------------------------------
    Op("job.submit", Permission.CREATE_JOB, "routed", min_version=_V1),
    Op("job.status", Permission.VIEW_RESULTS, "routed", min_version=_V1, read_only=True),
    Op("job.list", Permission.VIEW_RESULTS, "scatter", "merge_job_list", min_version=_V1, read_only=True),
    Op("job.cancel", Permission.EDIT_JOB, "routed", min_version=_V1),
    Op("job.results", Permission.VIEW_RESULTS, "routed", min_version=_V1, read_only=True),
    Op("session.reserve", Permission.REMOTE_CONTROL, "routed", min_version=_V1),
    Op("credits.balance", Permission.VIEW_RESULTS, "routed", min_version=_V1, read_only=True),
    Op("fleet.list", Permission.VIEW_RESULTS, "scatter", "merge_fleet", min_version=_V1, read_only=True),
    Op("server.status", Permission.VIEW_RESULTS, "scatter", "merge_status", min_version=_V1, read_only=True),
    # -- v2: sessions ----------------------------------------------------------------
    Op("auth.login", None, "routed", authenticate=False),
    Op("auth.logout", None, "routed"),
    # -- v2: admin control plane -----------------------------------------------------
    Op("vantage-point.register", Permission.MANAGE_VANTAGE_POINTS, "routed"),
    Op("approvals.list", Permission.APPROVE_PIPELINE, "scatter", "merge_approvals", read_only=True),
    Op("job.approve", Permission.APPROVE_PIPELINE, "routed"),
    Op("job.reject", Permission.APPROVE_PIPELINE, "routed"),
    Op("credits.grant", Permission.MANAGE_CREDITS, "routed"),
    Op("user.create", Permission.MANAGE_USERS, "broadcast"),
    # -- v2: operations analytics, observability -------------------------------------
    Op("analytics.report", Permission.VIEW_RESULTS, "scatter", "merge_report", read_only=True),
    Op("analytics.timeseries", Permission.VIEW_RESULTS, "scatter", "merge_timeseries", read_only=True),
    Op("obs.metrics", Permission.VIEW_RESULTS, "scatter", read_only=True),
    Op("obs.trace", Permission.VIEW_RESULTS, "scatter", read_only=True),
    # -- v2: streaming ---------------------------------------------------------------
    Op("job.watch", Permission.VIEW_RESULTS, "stream", streaming=True),
    Op("events.subscribe", Permission.VIEW_RESULTS, "stream", streaming=True),
    Op("subscription.cancel", Permission.VIEW_RESULTS, "routed"),
    # -- v2: agent-pull execution ----------------------------------------------------
    Op("agent.register", Permission.RUN_JOB, "routed"),
    Op("agent.poll", Permission.RUN_JOB, "routed", read_only=True, blocking=True),
    Op("agent.claim", Permission.RUN_JOB, "routed"),
    Op("agent.heartbeat", Permission.RUN_JOB, "routed"),
    Op("agent.report", Permission.RUN_JOB, "routed"),
    # -- v2: federation membership (``admin``: the federation router only) -----------
    Op("shard.list", Permission.MANAGE_VANTAGE_POINTS, "admin", read_only=True),
    Op("shard.add", Permission.MANAGE_VANTAGE_POINTS, "admin"),
    Op("shard.drain", Permission.MANAGE_VANTAGE_POINTS, "admin"),
    Op("shard.remove", Permission.MANAGE_VANTAGE_POINTS, "admin"),
)
# fmt: on

#: The table, by operation name.
OPS: Dict[str, Op] = {op.name: op for op in _TABLE}


@dataclass
class RequestContext:
    """One request past the gates: what a handler of either router may need."""

    op: Op
    #: The wire form as received; the federation forwards it verbatim.
    request: dict
    envelope: ApiRequest
    push: Optional[Callable[[dict], None]]
    owner_token: Optional[object]
    secure: bool
    # What a parked request needs to answer later, from another thread.
    complete: Optional[Callable[[dict], None]]
    started: float
    trace_id: Optional[str] = None
    user: Optional[User] = None

    def ok(self, payload: Optional[dict]) -> dict:
        """The success envelope answering this request; ``payload`` is wire
        already, and the envelope holds it by reference."""
        return response_wire(self.envelope.version, self.envelope.request_id, payload)


class OpRouter:
    """Entry points and envelope gates shared by every router.

    A subclass binds the table once with :meth:`_bind` and implements
    ``_serve(ctx, handler)``, which returns the response envelope — or
    ``None`` for a request that parked.
    """

    _ops: Dict[str, Tuple[Op, Callable]]

    def _bind(
        self, rows: Iterable[Op], handler_for: Callable[[Op], Optional[Callable]]
    ) -> None:
        self._ops = {}
        for op in rows:
            handler = handler_for(op)
            if handler is None:
                raise NotImplementedError(
                    f"{type(self).__name__} has no handler for operation {op.name!r}"
                )
            self._ops[op.name] = (op, handler)

    def _row(self, op_name: object) -> Optional[Op]:
        bound = self._ops.get(op_name) if isinstance(op_name, str) else None
        return None if bound is None else bound[0]

    def is_read_only(self, op_name: object) -> bool:
        """Whether ``op_name`` never mutates access-server state.

        The gateway uses this to let read-only operations run without the
        exclusive router lock (they tolerate running concurrently with a
        mutating op; see DESIGN.md's optimistic-read contract).  Unknown
        operations classify as mutating — the safe default.
        """
        op = self._row(op_name)
        return op is not None and op.read_only

    def is_blocking(self, op_name: object) -> bool:
        """Whether ``op_name`` may park (long-poll).

        :meth:`handle` blocks its caller for the length of the park, so the
        gateway never runs such an op inline on its selector loop and
        dispatches it through :meth:`handle_deferred` instead.
        """
        op = self._row(op_name)
        return op is not None and op.blocking

    def operations(self, version: str = API_VERSION) -> Dict[str, Optional[Permission]]:
        """The routable operation names (for ``version``) and their permissions.

        Defaults to the v1 table — the frozen compatibility surface; pass
        :data:`~repro.api.schemas.API_VERSION_V2` for the full v2 set.
        """
        return {
            name: op.permission
            for name, (op, _) in self._ops.items()
            if op.min_version <= version
        }

    # -- entry points -------------------------------------------------------
    def handle(
        self,
        request: dict,
        push: Optional[Callable[[dict], None]] = None,
        owner: Optional[object] = None,
        secure: bool = True,
    ) -> dict:
        """Execute one wire-form request and return the wire-form response.

        Never raises: every failure becomes an error envelope with a stable
        code, which is what lets remote transports stay dumb pipes.

        Parameters
        ----------
        push:
            Transport-provided frame sink enabling the streaming operations;
            ``None`` means the transport cannot carry pushes and streaming
            ops fail with ``request.invalid``.
        owner:
            Opaque token grouping this request's subscriptions (the gateway
            passes the connection); ``cancel_owner`` with the same token
            tears them down.
        secure:
            Whether the transport satisfies the paper's HTTPS-only mandate;
            authentication is refused otherwise.

        A request that parks (``agent.poll`` with ``wait_s`` and no work)
        blocks the calling thread until it is completed; transports that
        must not block use :meth:`handle_deferred`.
        """
        return self._handle(request, push, owner, secure, None)

    def handle_deferred(
        self,
        request: dict,
        complete: Callable[[dict], None],
        push: Optional[Callable[[dict], None]] = None,
        owner: Optional[object] = None,
        secure: bool = True,
    ) -> Optional[dict]:
        """:meth:`handle` for transports that must not block.

        Returns the response envelope, or ``None`` when the request parked:
        its envelope is then passed to ``complete`` exactly once, later and
        from whichever thread completes it (possibly before this call has
        returned).
        """
        return self._handle(request, push, owner, secure, complete)

    def _handle(
        self,
        request: dict,
        push: Optional[Callable[[dict], None]],
        owner: Optional[object],
        secure: bool,
        complete: Optional[Callable[[dict], None]],
    ) -> Optional[dict]:
        request_id = request.get("request_id") if isinstance(request, dict) else 0
        if not isinstance(request_id, int) or isinstance(request_id, bool):
            request_id = 0
        version = API_VERSION
        started = time.perf_counter()
        label = "<invalid>"
        ctx: Optional[RequestContext] = None
        try:
            envelope = ApiRequest.from_wire(request)
            if envelope.version not in SUPPORTED_VERSIONS:
                raise VersionApiError(
                    f"API version {envelope.version!r} is not supported",
                    details={"supported_versions": list(SUPPORTED_VERSIONS)},
                )
            version = envelope.version
            op, handler = self._ops.get(envelope.op, (None, None))
            # Telemetry is labelled from the table, never from the wire: a
            # client cannot mint a series per op string it makes up.
            label = "<unknown>" if op is None else op.name
            self._on_lookup(label, op)
            if op is None:
                raise UnknownOperationApiError(
                    f"unknown operation {envelope.op!r}",
                    details={"operations": sorted(self._ops)},
                )
            if op.min_version > envelope.version:
                raise VersionApiError(
                    f"operation {op.name!r} requires API version "
                    f"{op.min_version}; negotiate a v2 envelope",
                    details={"operation": op.name, "min_version": op.min_version},
                )
            if op.streaming and push is None:
                raise ValidationApiError(
                    "this transport cannot carry server pushes; use a streaming-"
                    "capable transport (gateway connection or in-process client)"
                )
            ctx = RequestContext(
                op=op,
                request=request,
                envelope=envelope,
                push=push if op.streaming else None,
                owner_token=owner,
                secure=secure,
                complete=complete,
                started=started,
                trace_id=envelope.trace_id,
            )
            return self._serve(ctx, handler)
        except Exception as exc:  # noqa: BLE001 - boundary translation
            error = map_exception(exc)
            self._on_error(label, time.perf_counter() - started, ctx)
            return response_wire(version, request_id, error=error.to_wire())

    def _on_lookup(self, label: str, op: Optional[Op]) -> None:
        """Hook: the table was asked for the request's op (``None``: unknown)."""

    def _on_error(
        self, label: str, elapsed_s: float, ctx: Optional[RequestContext]
    ) -> None:
        """Hook: the request is about to be answered with an error envelope."""
