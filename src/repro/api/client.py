"""The BatteryLab client SDK — the sanctioned way into the platform.

:class:`BatteryLabClient` wraps the versioned request/response protocol
behind typed Python methods: every call builds an
:class:`~repro.api.schemas.ApiRequest`, ships it through a
:class:`Transport`, and either returns the parsed response DTO or raises
the typed :class:`~repro.api.errors.ApiError` the server sent back.  The
same client code drives a local simulation (via
:class:`InProcessTransport`) or a remote access server (via
:class:`~repro.api.gateway.JsonLinesTransport`, optionally over TLS) —
transports are dumb byte pipes, all semantics live in the envelopes.

Platform API v2 adds three capabilities on top of the v1 surface:

* **Sessions** — :meth:`BatteryLabClient.login` exchanges the account
  credentials for a short-lived bearer token; subsequent requests carry
  only the session token (and auto-re-login once when it expires).
* **Streaming** — :meth:`BatteryLabClient.watch_job` and
  :meth:`BatteryLabClient.events` return iterators over server-pushed
  :class:`~repro.api.schemas.ApiPush` frames, replacing ``job.status``
  polling loops entirely.
* **Admin control plane** — :meth:`register_vantage_point`,
  :meth:`approvals`, :meth:`approve_job` / :meth:`reject_job`,
  :meth:`grant_credits` and :meth:`create_user` let an administrator run
  the platform fully remotely.

Job payloads are *named*: a Python callable cannot cross a JSON wire, so
``submit_job`` takes the name of a payload registered server-side with
:func:`repro.accessserver.payloads.register_payload`.  As a local-use
convenience, passing a callable auto-registers it in the (process-global)
payload catalogue and submits its name — which works against in-process
and same-process gateway servers, and fails loudly with
``request.invalid`` against a genuinely remote server whose catalogue does
not have it.
"""

from __future__ import annotations

import abc
import json
import uuid
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.api.errors import (
    ApiError,
    SessionApiError,
    TransportApiError,
    error_from_wire,
)
from repro.api.ops import OPS
from repro.api.schemas import (
    API_VERSION,
    API_VERSION_V2,
    PUSH_FRAME_END,
    AgentLeaseView,
    AgentPollView,
    AgentReportView,
    AgentView,
    AnalyticsReportView,
    AnalyticsTimeseriesView,
    ApiPush,
    ApiRequest,
    ApiResponse,
    AuthCredentials,
    CreditView,
    FleetView,
    JobConstraintsV1,
    JobResultsView,
    JobView,
    ObsMetricsView,
    ObsTraceView,
    ReservationView,
    SessionView,
    StatusView,
    SubscriptionAck,
    UserView,
    VantagePointView,
)


class Transport(abc.ABC):
    """Moves one wire-form request dict to a router and returns the response."""

    #: True for transports that may transparently *resend* a request after a
    #: connection drop (see ``JsonLinesTransport``).  A resent ``job.submit``
    #: whose first copy already reached the server would double-queue, so the
    #: client attaches an idempotency key to submissions on such transports.
    supports_reconnect = False

    #: Connections opened so far.  A subscription lives only as long as the
    #: connection it was opened on, so a change here means it is gone.
    connects = 0

    @abc.abstractmethod
    def send(self, request: dict) -> dict:
        """Deliver ``request`` and return the wire-form response envelope."""

    def send_many(self, requests: List[dict]) -> List[dict]:
        """Deliver a batch of requests; responses in request order.

        The default implementation sends sequentially — correct for any
        transport.  Transports with a real wire override this to *pipeline*
        the batch (one write, N reads), amortizing per-request round trips;
        see :meth:`repro.api.gateway.JsonLinesTransport.send_many`.
        """
        return [self.send(request) for request in requests]

    def recv_push(
        self, subscription_id: int, timeout_s: Optional[float] = None
    ) -> Optional[dict]:
        """Next buffered push frame for ``subscription_id``.

        Returns ``None`` when no frame is available and the transport cannot
        wait for one (an in-process bridge would deadlock the thread that
        must also advance the simulation).  Waiting transports (sockets)
        block instead, raising :class:`~repro.api.errors.TransportApiError`
        on timeout or a dead connection rather than returning ``None``; a
        timeout's error carries ``details["timeout_s"]`` and leaves the
        connection up.
        """
        raise TransportApiError("this transport does not support streaming")

    def close(self) -> None:
        """Release transport resources (sockets); idempotent."""


class InProcessTransport(Transport):
    """Calls an :class:`~repro.api.router.ApiRouter` in the same process.

    Every envelope still goes through a full JSON ``dumps``/``loads`` round
    trip, so anything that would break on a real wire breaks identically
    here — the local simulation cannot accidentally rely on passing live
    Python objects through the API.

    Push frames are buffered per subscription as the simulation produces
    them; iteration drains the buffer without blocking (the caller advances
    the simulation — e.g. ``platform.run_queue()`` — between drains).
    """

    def __init__(self, router) -> None:
        self._router = router
        self._push_buffers: Dict[int, deque] = {}

    def send(self, request: dict) -> dict:
        try:
            wire_request = json.loads(json.dumps(request))
        except (TypeError, ValueError) as exc:
            raise TransportApiError(f"request is not JSON-serializable: {exc}") from None
        response = self._router.handle(wire_request, push=self._on_push, owner=self)
        # The call is over, so whatever it changed is in place: the point at
        # which the gateway releases router_lock, and the same duty.
        self._router.push_offers()
        return json.loads(json.dumps(response))

    def _on_push(self, frame: dict) -> None:
        wire_frame = json.loads(json.dumps(frame))
        subscription_id = wire_frame.get("subscription_id", 0)
        self._push_buffers.setdefault(subscription_id, deque()).append(wire_frame)

    def recv_push(
        self, subscription_id: int, timeout_s: Optional[float] = None
    ) -> Optional[dict]:
        buffered = self._push_buffers.get(subscription_id)
        if buffered:
            return buffered.popleft()
        return None

    def close(self) -> None:
        if hasattr(self._router, "cancel_owner"):
            self._router.cancel_owner(self)
        self._push_buffers.clear()


class PushStream:
    """Iterator over one subscription's server-pushed frames.

    On a blocking transport (the socket gateway) iteration waits for each
    frame; on the in-process transport it drains what the simulation has
    produced so far and stops — advance the simulation and iterate again.
    Frames are :class:`~repro.api.schemas.ApiPush` instances.
    """

    def __init__(
        self,
        client: "BatteryLabClient",
        subscription_id: int,
        timeout_s: Optional[float] = None,
    ) -> None:
        self._client = client
        self.subscription_id = subscription_id
        self._timeout_s = timeout_s
        self.done = False

    def __iter__(self) -> "PushStream":
        return self

    def __next__(self) -> ApiPush:
        if self.done:
            raise StopIteration
        raw = self._client.transport.recv_push(
            self.subscription_id, timeout_s=self._timeout_s
        )
        if raw is None:
            raise StopIteration  # non-blocking transport drained for now
        frame = ApiPush.from_wire(raw)
        if frame.frame == PUSH_FRAME_END:
            self.done = True
            self._on_end(frame)
        return frame

    def _on_end(self, frame: ApiPush) -> None:  # pragma: no cover - hook
        pass

    def close(self) -> None:
        """Cancel the subscription server-side; safe to call repeatedly."""
        if self.done:
            return
        self.done = True
        try:
            self._client.cancel_subscription(self.subscription_id)
        except ApiError:
            pass  # server already dropped it (connection death, shutdown)


class JobWatch(PushStream):
    """``job.watch`` stream: ``dispatch.*`` frames, then one ``end`` frame.

    ``initial`` is the job's state when the subscription was opened;
    ``final`` is populated from the ``end`` frame once the job terminates.
    Iterating yields every frame *including* the terminal one, so consumers
    observe completion in-band instead of polling ``job.status``.
    """

    def __init__(
        self,
        client: "BatteryLabClient",
        subscription_id: int,
        initial: Optional[JobView],
        timeout_s: Optional[float] = None,
    ) -> None:
        super().__init__(client, subscription_id, timeout_s)
        self.initial = initial
        self.final: Optional[JobView] = None

    def _on_end(self, frame: ApiPush) -> None:
        job_wire = frame.payload.get("job")
        if isinstance(job_wire, dict):
            self.final = JobView.from_wire(job_wire)

    def wait(self) -> JobView:
        """Consume frames until the job terminates; returns the final view."""
        for _ in self:
            pass
        if self.final is None:
            raise TransportApiError(
                f"job watch {self.subscription_id} ended without a final job view"
            )
        return self.final


class PipelineResult:
    """Deferred result of one pipelined call; populated by ``flush()``."""

    __slots__ = ("_decoder", "_value", "_error", "done")

    def __init__(self, decoder: Callable[[dict], object]) -> None:
        self._decoder = decoder
        self._value: object = None
        self._error: Optional[ApiError] = None
        self.done = False

    def _resolve(self, response: "ApiResponse") -> None:
        self.done = True
        if not response.ok:
            self._error = error_from_wire(response.error or {})
            return
        try:
            self._value = self._decoder(response.payload or {})
        except ApiError as exc:  # pragma: no cover - defensive decode
            self._error = exc

    def result(self) -> object:
        """The decoded value; raises the call's typed error if it failed."""
        if not self.done:
            raise TransportApiError("pipeline not flushed yet")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def error(self) -> Optional[ApiError]:
        return self._error


class ClientPipeline:
    """Stage several calls, ship them as one pipelined batch.

    Obtained from :meth:`BatteryLabClient.pipeline`.  Each staged call
    returns a :class:`PipelineResult` immediately; :meth:`flush` sends the
    whole batch through :meth:`Transport.send_many` (one write + N ordered
    reads on the socket transport), resolves every result, and returns the
    decoded values in staging order — raising the first call's typed error
    if any call failed.  Callers that want per-call errors inspect the
    :class:`PipelineResult` handles instead of the return value.

    Pipelined calls do not auto-re-login on an expired session (the batch
    is already on the wire); long-running drivers should flush reasonably
    sized batches.
    """

    def __init__(self, client: "BatteryLabClient") -> None:
        self._client = client
        self._staged: List[tuple] = []  # (op, payload, version, PipelineResult)

    def __len__(self) -> int:
        return len(self._staged)

    def call(
        self,
        op: str,
        payload: Optional[dict] = None,
        version: Optional[str] = None,
        decoder: Callable[[dict], object] = lambda wire: wire,
    ) -> PipelineResult:
        """Stage one raw operation; ``decoder`` maps the response payload."""
        pending = PipelineResult(decoder)
        self._staged.append((op, payload or {}, version, pending))
        return pending

    # -- typed helpers (the hot read/submit paths) ---------------------------
    def job_status(self, job_id: int) -> PipelineResult:
        return self.call("job.status", {"job_id": job_id}, decoder=JobView.from_wire)

    def server_status(self, version: Optional[str] = None) -> PipelineResult:
        return self.call("server.status", {}, version, decoder=StatusView.from_wire)

    def credits_balance(self, owner: Optional[str] = None) -> PipelineResult:
        return self.call(
            "credits.balance", {"owner": owner}, decoder=CreditView.from_wire
        )

    def fleet(self) -> PipelineResult:
        return self.call("fleet.list", decoder=FleetView.from_wire)

    def submit_job(self, name: str, payload: str, **kwargs) -> PipelineResult:
        """Stage a ``job.submit``; ``payload`` must be a registered name."""
        constraints = JobConstraintsV1(
            vantage_point=kwargs.get("vantage_point"),
            device_serial=kwargs.get("device_serial"),
            connectivity=kwargs.get("connectivity"),
        )
        body = {
            "name": name,
            "payload": payload,
            "owner": kwargs.get("owner"),
            "description": kwargs.get("description", ""),
            "priority": kwargs.get("priority", 0.0),
            "timeout_s": kwargs.get("timeout_s", 3600.0),
            "is_pipeline_change": kwargs.get("is_pipeline_change", False),
            "log_retention_days": kwargs.get("log_retention_days", 7.0),
            "constraints": constraints.to_wire(),
        }
        return self.call("job.submit", body, decoder=JobView.from_wire)

    def flush(self) -> List[object]:
        """Send the staged batch; returns decoded values in staging order."""
        if not self._staged:
            return []
        staged, self._staged = self._staged, []
        requests = []
        ids = []
        for op, payload, version, _pending in staged:
            requests.append(
                self._client._build_request(op, payload, version).to_wire()
            )
            ids.append(self._client._request_id)
        raw_responses = self._client.transport.send_many(requests)
        if len(raw_responses) != len(staged):
            raise TransportApiError(
                f"pipeline sent {len(staged)} requests but got "
                f"{len(raw_responses)} responses"
            )
        for raw, request_id, (_op, _payload, _version, pending) in zip(
            raw_responses, ids, staged
        ):
            response = ApiResponse.from_wire(raw)
            if response.request_id not in (0, request_id):
                raise TransportApiError(
                    f"response for request {response.request_id} arrived while "
                    f"waiting for {request_id}"
                )
            pending._resolve(response)
        return [pending.result() for _op, _payload, _version, pending in staged]


@dataclass
class JobPage:
    """One ``job.list`` window plus the pre-window total (v2 pagination)."""

    jobs: List[JobView]
    total: int
    offset: int = 0
    limit: Optional[int] = None


class BatteryLabClient:
    """Typed client bound to one user's credentials.

    Parameters
    ----------
    transport:
        Where requests go: :class:`InProcessTransport` for a local
        simulation, :class:`~repro.api.gateway.JsonLinesTransport` for a
        remote gateway (plaintext or TLS).
    username / token:
        Account credentials.  Sent with every request until
        :meth:`login` upgrades the client to a bearer session.
    version:
        Protocol version to claim for the v1 surface; v2-only operations
        always negotiate ``"2.0"`` envelopes.  Servers reject unsupported
        versions with ``request.version_unsupported``.
    """

    def __init__(
        self,
        transport: Transport,
        username: str,
        token: str,
        version: str = API_VERSION,
    ) -> None:
        self._transport = transport
        self._auth = AuthCredentials(username=username, token=token)
        self._version = version
        self._request_id = 0
        self._session_token: Optional[str] = None
        self._session_ttl_s: Optional[float] = None

    @property
    def username(self) -> str:
        return self._auth.username

    @property
    def transport(self) -> Transport:
        return self._transport

    @property
    def session_active(self) -> bool:
        return self._session_token is not None

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "BatteryLabClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing -----------------------------------------------------------
    def _call(
        self, op: str, payload: Optional[dict] = None, version: Optional[str] = None
    ) -> dict:
        try:
            return self._call_once(op, payload, version)
        except SessionApiError:
            if self._session_token is None:
                raise
            # The session lapsed mid-conversation; we still hold account
            # credentials, so re-login once and retry transparently.
            self._session_token = None
            self.login(ttl_s=self._session_ttl_s)
            return self._call_once(op, payload, version)

    def _build_request(
        self, op: str, payload: Optional[dict], version: Optional[str]
    ) -> ApiRequest:
        self._request_id += 1
        if version is None:
            row = OPS.get(op)
            if self._session_token:
                version = API_VERSION_V2  # a bearer session is a v2 envelope field
            elif row is not None and row.min_version != API_VERSION:
                version = row.min_version  # the operation postdates the v1 surface
            else:
                version = self._version
        return ApiRequest(
            op=op,
            version=version,
            auth=None if self._session_token else self._auth,
            payload=payload or {},
            request_id=self._request_id,
            session=self._session_token,
        )

    def _call_once(
        self, op: str, payload: Optional[dict], version: Optional[str] = None
    ) -> dict:
        request = self._build_request(op, payload, version)
        raw = self._transport.send(request.to_wire())
        response = ApiResponse.from_wire(raw)
        if response.request_id not in (0, self._request_id):
            raise TransportApiError(
                f"response for request {response.request_id} arrived while "
                f"waiting for {self._request_id}"
            )
        if not response.ok:
            raise error_from_wire(response.error or {})
        return response.payload or {}

    def pipeline(self) -> ClientPipeline:
        """Stage multiple calls and ship them as one pipelined batch.

        On the socket transport the batch goes out in a single write and
        the gateway answers in order — the per-request round trip is paid
        once per batch instead of once per call::

            pipe = client.pipeline()
            handles = [pipe.job_status(job_id) for job_id in ids]
            views = pipe.flush()          # or handles[i].result()
        """
        return ClientPipeline(self)

    # -- sessions (v2) ------------------------------------------------------
    def login(self, ttl_s: Optional[float] = None) -> SessionView:
        """Exchange account credentials for a short-lived bearer session.

        Every subsequent request carries only the session token.  The
        client re-logs-in transparently (once per call) when the session
        expires, so long-running drivers never see ``auth.session_expired``.
        """
        self._session_token = None
        payload = {} if ttl_s is None else {"ttl_s": ttl_s}
        wire = self._call_once("auth.login", payload)
        view = SessionView.from_wire(wire)
        self._session_token = view.session_token
        self._session_ttl_s = ttl_s
        return view

    def logout(self) -> bool:
        """Revoke the active session; true when the server dropped it.

        Best-effort by design: a session the server already dropped
        (expired, revoked elsewhere) reports ``False`` instead of raising —
        logout is a teardown path and must not crash cleanup code.
        """
        if self._session_token is None:
            return False
        try:
            wire = self._call_once("auth.logout", {})
        except SessionApiError:
            self._session_token = None
            return False
        self._session_token = None
        return bool(wire.get("revoked", False))

    # -- jobs ---------------------------------------------------------------
    def submit_job(
        self,
        name: str,
        payload: Union[str, Callable],
        *,
        owner: Optional[str] = None,
        description: str = "",
        priority: float = 0.0,
        timeout_s: float = 3600.0,
        is_pipeline_change: bool = False,
        log_retention_days: float = 7.0,
        vantage_point: Optional[str] = None,
        device_serial: Optional[str] = None,
        connectivity: Optional[str] = None,
        require_low_controller_cpu: bool = False,
        max_controller_cpu_percent: float = 50.0,
        idempotency_key: Optional[str] = None,
        device_count: int = 1,
        connector: Optional[str] = None,
        execution: str = "push",
    ) -> JobView:
        """Submit one job; returns its :class:`~repro.api.schemas.JobView`.

        ``payload`` is the server-side payload catalogue name; a callable is
        auto-registered under ``client/<username>/<name>`` first (local-use
        convenience, see the module docstring).  ``idempotency_key`` (v2)
        makes retrying this exact call safe: the server returns the original
        job instead of enqueueing a duplicate.

        On a reconnecting transport a v2 submission without an explicit key
        gets a generated one: the transport may transparently resend the
        request after a gateway drop (drain, rolling restart), and without
        a key a resend whose first copy already landed would double-submit.
        The key is journaled server-side, so the guarantee survives a
        restart-with-recovery between the two sends.
        """
        if (
            idempotency_key is None
            and self._transport.supports_reconnect
            and (self._session_token is not None or self._version == API_VERSION_V2)
        ):
            idempotency_key = uuid.uuid4().hex
        payload_name = self._resolve_payload_name(name, payload)
        constraints = JobConstraintsV1(
            vantage_point=vantage_point,
            device_serial=device_serial,
            connectivity=connectivity,
            require_low_controller_cpu=require_low_controller_cpu,
            max_controller_cpu_percent=max_controller_cpu_percent,
            device_count=device_count,
            connector=connector,
        )
        body = {
            "name": name,
            "payload": payload_name,
            "owner": owner,
            "description": description,
            "priority": priority,
            "timeout_s": timeout_s,
            "is_pipeline_change": is_pipeline_change,
            "log_retention_days": log_retention_days,
            "constraints": constraints.to_wire(),
        }
        version = None
        if idempotency_key is not None:
            body["idempotency_key"] = idempotency_key
            version = API_VERSION_V2
        if execution != "push":
            # Agent-pull is a v2 concept; the field is elided otherwise so
            # v1 servers and goldens never see it.
            body["execution"] = execution
            version = API_VERSION_V2
        wire = self._call("job.submit", body, version)
        return JobView.from_wire(wire)

    def _resolve_payload_name(self, job_name: str, payload: Union[str, Callable]) -> str:
        if isinstance(payload, str):
            return payload
        if not callable(payload):
            raise TransportApiError(
                f"payload must be a registered name or a callable, got {payload!r}"
            )
        from repro.accessserver.payloads import payload_name, register_payload

        existing = payload_name(payload)
        if existing is not None:
            return existing
        generated = f"client/{self.username}/{job_name}"
        register_payload(generated, payload)
        return generated

    def job_status(self, job_id: int) -> JobView:
        return JobView.from_wire(self._call("job.status", {"job_id": job_id}))

    def list_jobs(self, status: Optional[str] = None) -> List[JobView]:
        wire = self._call("job.list", {"status": status})
        return [JobView.from_wire(item) for item in wire.get("jobs", [])]

    def job_page(
        self,
        status: Optional[str] = None,
        owner: Optional[str] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> JobPage:
        """One ``job.list`` page (v2): filtered, windowed, with the total."""
        body: dict = {"status": status}
        if owner is not None:
            body["owner"] = owner
        if limit is not None:
            body["limit"] = limit
        if offset:
            body["offset"] = offset
        wire = self._call("job.list", body, API_VERSION_V2)
        return JobPage(
            jobs=[JobView.from_wire(item) for item in wire.get("jobs", [])],
            total=wire.get("total", 0),
            offset=wire.get("offset", 0),
            limit=wire.get("limit"),
        )

    def cancel_job(self, job_id: int) -> JobView:
        return JobView.from_wire(self._call("job.cancel", {"job_id": job_id}))

    def job_results(self, job_id: int) -> JobResultsView:
        return JobResultsView.from_wire(self._call("job.results", {"job_id": job_id}))

    # -- streaming (v2) -----------------------------------------------------
    def watch_job(self, job_id: int, timeout_s: Optional[float] = None) -> JobWatch:
        """Subscribe to one job's ``dispatch.*`` events until it terminates.

        Returns a :class:`JobWatch` iterator — the replacement for every
        ``while status != "completed"`` polling loop.  ``watch.wait()``
        consumes the stream and returns the final job view.
        """
        wire = self._call("job.watch", {"job_id": job_id})
        ack = SubscriptionAck.from_wire(wire)
        return JobWatch(self, ack.subscription_id, ack.job, timeout_s=timeout_s)

    def events(
        self, topic_prefix: str = "dispatch.", timeout_s: Optional[float] = None
    ) -> PushStream:
        """Subscribe to the server's event bus by topic prefix (v2).

        The returned :class:`PushStream` yields one
        :class:`~repro.api.schemas.ApiPush` per matching bus record; call
        ``close()`` to cancel the subscription.
        """
        wire = self._call("events.subscribe", {"topic_prefix": topic_prefix})
        ack = SubscriptionAck.from_wire(wire)
        return PushStream(self, ack.subscription_id, timeout_s=timeout_s)

    def cancel_subscription(self, subscription_id: int) -> bool:
        wire = self._call("subscription.cancel", {"subscription_id": subscription_id})
        return bool(wire.get("cancelled", False))

    # -- agent-pull execution (v2) --------------------------------------------
    def agent_register(
        self,
        agent_id: str,
        vantage_point: Optional[str] = None,
        connectors: Optional[List[str]] = None,
        tags: Optional[Dict[str, str]] = None,
    ) -> AgentView:
        """Register (or refresh) an edge daemon's identity (v2, idempotent)."""
        wire = self._call(
            "agent.register",
            {
                "agent_id": agent_id,
                "vantage_point": vantage_point,
                "connectors": list(connectors or []),
                "tags": dict(tags or {}),
            },
        )
        return AgentView.from_wire(wire)

    def agent_subscribe(self, agent_id: str, limit: int = 10) -> PushStream:
        """Wait for work: a stream of ``offer`` frames for ``agent_id`` (v2).

        Each frame's payload is an :class:`AgentPollView`.  After a frame
        the stream stays quiet until the agent's next :meth:`agent_claim`
        or :meth:`agent_poll`; offers queued before the subscription are
        only seen by a poll, so subscribe first, then poll once.
        """
        wire = self._call("agent.subscribe", {"agent_id": agent_id, "limit": limit})
        return PushStream(self, SubscriptionAck.from_wire(wire).subscription_id)

    def agent_poll(self, agent_id: str, limit: int = 10) -> AgentPollView:
        """The jobs ``agent_id`` could claim now (v2); never waits."""
        wire = self._call("agent.poll", {"agent_id": agent_id, "limit": limit})
        return AgentPollView.from_wire(wire)

    def agent_claim(
        self, agent_id: str, job_id: int, ttl_s: float = 30.0
    ) -> AgentLeaseView:
        """Atomically claim one offered job and all its device slots (v2)."""
        wire = self._call(
            "agent.claim", {"agent_id": agent_id, "job_id": job_id, "ttl_s": ttl_s}
        )
        return AgentLeaseView.from_wire(wire)

    def agent_heartbeat(self, lease_id: str, agent_id: str) -> AgentLeaseView:
        """Renew a lease before its TTL lapses (v2)."""
        wire = self._call(
            "agent.heartbeat", {"lease_id": lease_id, "agent_id": agent_id}
        )
        return AgentLeaseView.from_wire(wire)

    def agent_report(
        self,
        lease_id: str,
        agent_id: str,
        status: str,
        result: object = None,
        error: Optional[str] = None,
        children: Optional[List[dict]] = None,
    ) -> AgentReportView:
        """Upload a claimed job's terminal outcome (v2, idempotent on retry)."""
        body: dict = {
            "lease_id": lease_id,
            "agent_id": agent_id,
            "status": status,
            "children": list(children or []),
        }
        if result is not None:
            body["result"] = result
        if error is not None:
            body["error"] = error
        wire = self._call("agent.report", body)
        return AgentReportView.from_wire(wire)

    # -- admin control plane (v2) -------------------------------------------
    def register_vantage_point(
        self,
        name: str,
        institution: str,
        contact_email: str = "",
        public_address: str = "",
        device_count: int = 1,
        device_profile: str = "samsung-j7-duo",
    ) -> VantagePointView:
        """Admit a new member vantage point entirely over the wire (admin)."""
        wire = self._call(
            "vantage-point.register",
            {
                "name": name,
                "institution": institution,
                "contact_email": contact_email,
                "public_address": public_address,
                "device_count": device_count,
                "device_profile": device_profile,
            },
        )
        return VantagePointView.from_wire(wire)

    def approvals(self) -> List[JobView]:
        """Pipeline changes waiting for administrator approval."""
        wire = self._call("approvals.list")
        return [JobView.from_wire(item) for item in wire.get("jobs", [])]

    def approve_job(self, job_id: int) -> JobView:
        return JobView.from_wire(self._call("job.approve", {"job_id": job_id}))

    def reject_job(self, job_id: int, reason: str = "") -> JobView:
        return JobView.from_wire(
            self._call("job.reject", {"job_id": job_id, "reason": reason})
        )

    def grant_credits(
        self, owner: str, amount_device_hours: float, note: str = ""
    ) -> CreditView:
        wire = self._call(
            "credits.grant",
            {"owner": owner, "amount_device_hours": amount_device_hours, "note": note},
        )
        return CreditView.from_wire(wire)

    def create_user(
        self, username: str, role: str, token: str, email: str = ""
    ) -> UserView:
        wire = self._call(
            "user.create",
            {"username": username, "role": role, "token": token, "email": email},
        )
        return UserView.from_wire(wire)

    # -- operations analytics (v2) ------------------------------------------
    def analytics_report(self, owner: Optional[str] = None) -> AnalyticsReportView:
        """The platform's materialised operations report (v2).

        Per-owner utilisation and credit burn, queue-wait / run-time
        percentiles, per-device occupancy and failure rate — folded from
        the server's event-sourced record stream.  ``owner`` narrows the
        owners table to one account.
        """
        body: dict = {}
        if owner is not None:
            body["owner"] = owner
        wire = self._call("analytics.report", body)
        return AnalyticsReportView.from_wire(wire)

    def analytics_timeseries(self, bucket_s: float = 60.0) -> AnalyticsTimeseriesView:
        """Fleet throughput over time, bucketed at ``bucket_s`` (v2)."""
        wire = self._call("analytics.timeseries", {"bucket_s": bucket_s})
        return AnalyticsTimeseriesView.from_wire(wire)

    # -- observability (v2) --------------------------------------------------
    def obs_metrics(self, prefix: Optional[str] = None) -> ObsMetricsView:
        """Snapshot of the platform's metrics registry (v2).

        ``prefix`` narrows the snapshot to metric families whose name
        starts with it (e.g. ``"gateway_"``).  Render the result as
        Prometheus-style text with
        :func:`repro.obs.render_snapshot` on :meth:`ObsMetricsView.to_snapshot`.
        """
        body: dict = {}
        if prefix is not None:
            body["prefix"] = prefix
        wire = self._call("obs.metrics", body)
        return ObsMetricsView.from_wire(wire)

    def obs_trace(
        self, trace_id: Optional[str] = None, job_id: Optional[int] = None
    ) -> ObsTraceView:
        """Fetch one trace's finished spans (v2).

        Identify the trace either directly (``trace_id``) or by the job it
        followed (``job_id``); one of the two is required.
        """
        body: dict = {}
        if trace_id is not None:
            body["trace_id"] = trace_id
        if job_id is not None:
            body["job_id"] = job_id
        wire = self._call("obs.trace", body)
        return ObsTraceView.from_wire(wire)

    # -- sessions, credits, fleet, status -----------------------------------
    def reserve_session(
        self,
        vantage_point: str,
        device_serial: str,
        start_s: float,
        duration_s: float,
    ) -> ReservationView:
        wire = self._call(
            "session.reserve",
            {
                "vantage_point": vantage_point,
                "device_serial": device_serial,
                "start_s": start_s,
                "duration_s": duration_s,
            },
        )
        return ReservationView.from_wire(wire)

    def credits_balance(self, owner: Optional[str] = None) -> CreditView:
        return CreditView.from_wire(self._call("credits.balance", {"owner": owner}))

    def fleet(self) -> FleetView:
        return FleetView.from_wire(self._call("fleet.list"))

    def server_status(self, version: Optional[str] = None) -> StatusView:
        """Platform-wide status; pass ``version="2.0"`` for the v2 extras
        (write-ahead-journal health in ``StatusView.journal``)."""
        return StatusView.from_wire(self._call("server.status", {}, version))


def in_process_client(server, username: str, token: str) -> BatteryLabClient:
    """A client driving ``server`` (an :class:`AccessServer`) in-process."""
    from repro.api.router import ApiRouter

    return BatteryLabClient(InProcessTransport(ApiRouter(server)), username, token)
