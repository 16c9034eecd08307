"""Operation routing for the Platform API (v1 request/response + v2).

:class:`ApiRouter` is the server side of the API: it receives a wire-form
request envelope (a plain dict, however it travelled), authenticates the
caller against the access server's :class:`~repro.accessserver.auth.UserRegistry`
— either per-request credentials (v1) or a bearer session token minted by
``auth.login`` (v2) — enforces the per-operation permission from the same
role matrix that guards the web console, executes the handler against
:class:`~repro.accessserver.server.AccessServer`, and returns a wire-form
response envelope.  All domain exceptions are translated to the typed
taxonomy of :mod:`repro.api.errors` at this boundary — a transport never
sees a raw ``JobError`` or ``ValueError``.

Which operations exist — and each one's permission, minimum version and
flags — is declared once, in :data:`repro.api.ops.OPS`; the entry points
and the envelope gates a request crosses before its handler are
:class:`~repro.api.ops.OpRouter`'s, shared with the federation router.
This module is the handlers (``_op_<name>``, bound to the rows at
construction) and what they need: authentication, subscriptions, offer
pushes, telemetry.  The tables below document each operation's DTOs.

The v1 operations (unchanged, still served to ``"1.0"`` envelopes):

=================== =========================== ======================= ==================
operation           permission                  request DTO             response DTO
=================== =========================== ======================= ==================
``job.submit``      ``create_job``              ``SubmitJobRequest``    ``JobView``
``job.status``      ``view_results``            ``JobRef``              ``JobView``
``job.list``        ``view_results``            ``JobListRequest``      ``{"jobs": [JobView], "total": N}``
``job.cancel``      ``edit_job``                ``JobRef``              ``JobView``
``job.results``     ``view_results``            ``JobRef``              ``JobResultsView``
``session.reserve`` ``remote_control``          ``ReserveSessionRequest`` ``ReservationView``
``credits.balance`` ``view_results``            ``CreditQuery``         ``CreditView``
``fleet.list``      ``view_results``            (none)                  ``FleetView``
``server.status``   ``view_results``            (none)                  ``StatusView``
=================== =========================== ======================= ==================

The v2 operations (rejected on ``"1.0"`` envelopes with
``request.version_unsupported``):

========================== =========================== ================================ ==================
operation                  permission                  request DTO                      response DTO
========================== =========================== ================================ ==================
``auth.login``             (envelope credentials)      ``LoginRequest``                 ``SessionView``
``auth.logout``            (any authenticated)         (none)                           ``LogoutView``
``vantage-point.register`` ``manage_vantage_points``   ``RegisterVantagePointRequest``  ``VantagePointView``
``approvals.list``         ``approve_pipeline``        (none)                           ``{"jobs": [JobView]}``
``job.approve``            ``approve_pipeline``        ``JobRef``                       ``JobView``
``job.reject``             ``approve_pipeline``        ``JobRef`` (+ ``reason``)        ``JobView``
``credits.grant``          ``manage_credits``          ``GrantCreditsRequest``          ``CreditView``
``user.create``            ``manage_users``            ``CreateUserRequest``            ``UserView``
``job.watch``              ``view_results``            ``WatchJobRequest``              ``SubscriptionAck`` + pushes
``agent.subscribe``        ``run_job``                 ``AgentPollRequest``             ``SubscriptionAck`` + ``offer`` pushes
``events.subscribe``       ``view_results``            ``EventsSubscribeRequest``       ``SubscriptionAck`` + pushes
``subscription.cancel``    ``view_results``            ``SubscriptionRef``              ``{"cancelled": bool}``
``analytics.report``       ``view_results``            ``AnalyticsReportRequest``       ``AnalyticsReportView``
``analytics.timeseries``   ``view_results``            ``AnalyticsTimeseriesRequest``   ``AnalyticsTimeseriesView``
``obs.metrics``            ``view_results``            ``ObsMetricsRequest``            ``ObsMetricsView``
``obs.trace``              ``view_results``            ``ObsTraceRequest``              ``ObsTraceView``
========================== =========================== ================================ ==================

**Telemetry.**  When the server carries an :class:`~repro.obs.Observability`
(the default), every handled request lands in the
``api_op_latency_seconds{op}`` histogram and ``api_requests_total{op,outcome}``
counter, and *mutating* operations (plus any request whose envelope already
carries a ``trace_id``) get a ``router.<op>`` span — read-only hot-path ops
pay only the two metric updates so the gateway's peak-read throughput is
unaffected.  The ``job.submit`` handler binds the created job to the
request's trace, which is what stitches the later admit/run/settle spans
into one job-lifecycle trace.

Ownership rules: ``job.results`` and ``job.cancel`` are restricted to the
job's owner (or an admin); ``job.submit`` with an explicit ``owner`` other
than the caller requires the admin role; ``credits.balance`` for another
owner requires the admin role.

**Streaming.**  ``job.watch`` and ``events.subscribe`` are long-lived: the
transport supplies a ``push`` callable and the router bridges the server's
``dispatch.*`` :class:`~repro.simulation.events.EventBus` records into
:class:`~repro.api.schemas.ApiPush` frames delivered through it.  A
``job.watch`` subscription ends itself with a ``frame="end"`` push (final
``JobView`` included) once the job reaches a terminal state.  Subscriptions
are tied to the ``owner`` token the transport passes (the gateway uses the
connection); :meth:`ApiRouter.cancel_owner` tears them down when the
connection dies, and a push that raises (dead socket) closes its
subscription instead of propagating into the dispatch pipeline.

**Offers.**  ``agent.subscribe`` is how an agent waits for work: no bus
record is forwarded, but when a burst of mutations may have made a job
claimable, :meth:`ApiRouter.push_offers` pushes one ``offer`` frame
(an :class:`~repro.api.schemas.AgentPollView`) to each armed agent
subscription with work.  The frame disarms the subscription until that
agent's next ``agent.claim`` or ``agent.poll``: at most one offer frame is
in flight per subscription (DESIGN.md, *Offer push*).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.accessserver.auth import Role, User
from repro.accessserver.jobs import JobSpec, JobStatus
from repro.accessserver.payloads import get_payload, payload_name
from repro.api.errors import (
    AuthenticationApiError,
    NotFoundApiError,
    PermissionApiError,
    ValidationApiError,
    VersionApiError,
)
from repro.api.ops import OPS, OpRouter, RequestContext
from repro.api.schemas import (
    API_VERSION_V2,
    PUSH_FRAME_END,
    PUSH_FRAME_EVENT,
    PUSH_FRAME_OFFER,
    AgentClaimRequest,
    AgentHeartbeatRequest,
    AgentLeaseView,
    AgentPollRequest,
    AgentPollView,
    AgentRegisterRequest,
    AgentReportRequest,
    AgentReportView,
    AgentView,
    AnalyticsReportRequest,
    AnalyticsReportView,
    AnalyticsTimeseriesRequest,
    AnalyticsTimeseriesView,
    ApiPush,
    ApiRequest,
    CreateUserRequest,
    CreditQuery,
    CreditView,
    DeviceView,
    EventsSubscribeRequest,
    FleetView,
    GrantCreditsRequest,
    JobListRequest,
    JobOfferView,
    JobRef,
    JobResultsView,
    JobView,
    JournalHealthView,
    LoginRequest,
    LogoutView,
    ObsMetricsRequest,
    ObsMetricsView,
    ObsTraceRequest,
    ObsTraceView,
    RegisterVantagePointRequest,
    ReservationView,
    ReserveSessionRequest,
    SessionView,
    SpanView,
    StatusView,
    SubmitJobRequest,
    SubscriptionAck,
    SubscriptionRef,
    UserView,
    VantagePointView,
    WatchJobRequest,
)
from repro.obs import SPAN_TOPIC, component_logger, log_slow_op

#: Job states a ``job.watch`` subscription terminates on.
_TERMINAL_STATUSES = (JobStatus.COMPLETED, JobStatus.FAILED, JobStatus.CANCELLED)

#: Bus topics that can make a job claimable for an agent: new or newly
#: approved work, a job back in the queue, a device or a reserved slot set
#: free.
_OFFER_TOPICS = (
    "job.submitted",
    "job.approved",
    "dispatch.requeued",
    "dispatch.released",
    "dispatch.reservation_cancelled",
)


def job_list_query(
    payload: dict,
) -> Tuple[JobListRequest, Optional[JobStatus], slice]:
    """Validate a ``job.list`` payload: the request, its status filter, its page.

    The one paging rule of ``job.list``: a standalone server slices its
    id-ordered list with the returned ``slice``, and a federation asks each
    shard for that list's head up to ``page.stop`` and windows the merge
    with the same slice, so the two cannot answer a request differently.
    """
    request = JobListRequest.from_wire(payload)
    status: Optional[JobStatus] = None
    if request.status is not None:
        try:
            status = JobStatus(request.status)
        except ValueError:
            raise ValidationApiError(
                f"unknown job status {request.status!r}",
                details={"statuses": [s.value for s in JobStatus]},
            ) from None
    if request.offset < 0:
        raise ValidationApiError("offset must be non-negative")
    if request.limit is not None and request.limit < 0:
        raise ValidationApiError("limit must be non-negative")
    stop = None if request.limit is None else request.offset + request.limit
    return request, status, slice(request.offset, stop)


def _push_safe(value: object) -> object:
    """Bus payload values are primitive by convention; degrade stragglers."""
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


class _Subscription:
    """One live push stream: bridged from the server's event bus, or (with
    ``offers_for``) fed offer frames by :meth:`ApiRouter.push_offers`."""

    def __init__(
        self,
        router: "ApiRouter",
        subscription_id: int,
        owner_token: Optional[object],
        username: str,
        push: Callable[[dict], None],
        topic_prefix: Optional[str] = None,
        job_id: Optional[int] = None,
        offers_for: Optional[Tuple[User, AgentPollRequest]] = None,
    ) -> None:
        self.router = router
        self.subscription_id = subscription_id
        self.owner_token = owner_token
        self.username = username
        self.push = push
        self.topic_prefix = topic_prefix
        self.job_id = job_id
        self.offers_for = offers_for
        # An offer stream holds at most one frame in flight: the frame
        # disarms it, the agent's next claim or poll re-arms it.
        self.armed = True
        self.seq = 0
        self.closed = False
        # Set by the router when this stream's prefix matches trace.span —
        # its presence switches span bus publishing on for the tracer.
        self.trace_interest = False

    def _frame(self, frame: str, topic: Optional[str], timestamp: float, payload: dict) -> dict:
        self.seq += 1
        return ApiPush(
            subscription_id=self.subscription_id,
            frame=frame,
            seq=self.seq,
            topic=topic,
            timestamp=timestamp,
            payload=payload,
        ).to_wire()

    def deliver(self, record) -> None:
        """Bus callback: filter, frame and push one record."""
        if self.closed:
            return
        if self.job_id is not None:
            if record.payload.get("job_id") != self.job_id:
                return
            if not record.topic.startswith("dispatch."):
                return
        elif self.topic_prefix is not None and not record.topic.startswith(
            self.topic_prefix
        ):
            return
        # Sanitising the payload costs a json.dumps per value; at 1k+
        # subscribers the same record is delivered 1k+ times, so memoise
        # the wire-safe payload on the record itself (first deliverer pays).
        payload = record.wire_payload
        if payload is None:
            payload = {key: _push_safe(value) for key, value in record.payload.items()}
            object.__setattr__(record, "wire_payload", payload)  # BusEvent is frozen
        self._send(self._frame(PUSH_FRAME_EVENT, record.topic, record.timestamp, payload))
        if self.closed or self.job_id is None:
            return
        try:
            job = self.router.server.scheduler.job(self.job_id)
        except Exception:  # job evicted; nothing further to watch
            self.router.cancel_subscription(self.subscription_id)
            return
        if job.status in _TERMINAL_STATUSES:
            self.end(job)

    def end(self, job) -> None:
        """Terminal ``job.watch`` frame carrying the final job view."""
        if self.closed:
            return
        self._send(
            self._frame(
                PUSH_FRAME_END,
                None,
                job.finished_at if job.finished_at is not None else 0.0,
                {"job": JobView.from_job(job).to_wire()},
            )
        )
        self.router.cancel_subscription(self.subscription_id)

    def offer(self, jobs) -> None:
        """One ``offer`` frame; the stream stays quiet until re-armed."""
        self.armed = False
        self._send(
            self._frame(
                PUSH_FRAME_OFFER,
                None,
                self.router.server.context.now,
                AgentPollView(
                    offers=[self.router._offer_view(job) for job in jobs]
                ).to_wire(),
            )
        )

    def _send(self, frame: dict) -> None:
        try:
            self.push(frame)
        except Exception:
            # A dead transport must never propagate into the dispatch
            # pipeline that published the event; drop the subscription.
            self.router.cancel_subscription(self.subscription_id)


class ApiRouter(OpRouter):
    """Serves the operation table (:mod:`repro.api.ops`) against one server."""

    def __init__(self, server) -> None:
        self._server = server
        self._subscriptions: Dict[int, _Subscription] = {}
        self._bus_callbacks: Dict[int, Callable] = {}
        # The agent.subscribe streams; the bus tap (installed with the first)
        # raises ``_offers_dirty`` for ``push_offers`` to lower.
        self._agent_subscriptions: Dict[int, _Subscription] = {}
        self._offers_dirty = False
        self._offer_tap_installed = False
        self._subscriptions_lock = threading.Lock()
        self._analytics_replay_lock = threading.Lock()
        self._next_subscription_id = 1
        self._log = component_logger("repro.api.router")
        # Telemetry: metric children are resolved once per (op, outcome)
        # and cached — the hot path pays a dict hit, an observe and an inc.
        self._obs = getattr(server, "obs", None)
        self._op_metrics: Dict[Tuple[str, str], tuple] = {}
        if self._obs is not None:
            registry = self._obs.registry
            self._op_latency = registry.histogram(
                "api_op_latency_seconds",
                "Router handling latency per operation",
                labelnames=("op",),
            )
            self._op_requests = registry.counter(
                "api_requests_total",
                "API requests by operation and outcome",
                labelnames=("op", "outcome"),
            )
            self._m_offer_frames = registry.counter(
                "agent_offer_frames_total",
                "offer frames pushed to agent.subscribe streams.",
            ).labels()
            subscriptions = registry.gauge(
                "api_agent_subscriptions", "Open agent.subscribe streams."
            ).labels()
            registry.add_collect_hook(
                lambda: subscriptions.set(float(len(self._agent_subscriptions)))
            )
        else:
            self._op_latency = None
            self._op_requests = None
        self._bind(
            (op for op in OPS.values() if op.mode != "admin"),
            lambda op: getattr(self, "_op_" + op.handler_suffix, None),
        )

    @property
    def server(self):
        return self._server

    # -- behind the gates -----------------------------------------------------
    def _serve(
        self, ctx: RequestContext, handler: Callable[[RequestContext, dict], dict]
    ) -> dict:
        op, envelope = ctx.op, ctx.envelope
        obs = self._obs
        traced = None
        if obs is not None and obs.tracer.enabled and (
            not op.read_only or envelope.trace_id is not None
        ):
            # Mutating ops (and anything the caller explicitly traced)
            # get a router span; read-only hot-path ops pay metrics only.
            traced = obs.tracer.begin_request(envelope.trace_id, op.name)
            ctx.trace_id = traced.trace_id
        try:
            if op.authenticate:
                ctx.user = self._authenticate(envelope, ctx.secure)
                if op.permission is not None:
                    self._server.users.authorize(ctx.user, op.permission)
            payload = handler(ctx, envelope.payload)
        except Exception:
            if traced is not None:
                obs.tracer.end_request(traced, False)
            raise
        if traced is not None:
            obs.tracer.end_request(traced, True)
        response = ctx.ok(payload)
        self._observe_request(
            op.name, "ok", time.perf_counter() - ctx.started, ctx.trace_id
        )
        return response

    def _on_error(
        self, label: str, elapsed_s: float, ctx: Optional[RequestContext]
    ) -> None:
        self._observe_request(
            label, "error", elapsed_s, None if ctx is None else ctx.trace_id
        )

    def _observe_request(
        self,
        op_name: str,
        outcome: str,
        elapsed_s: float,
        trace_id: Optional[str],
    ) -> None:
        obs = self._obs
        if obs is None or not obs.registry.enabled:
            return
        key = (op_name, outcome)
        children = self._op_metrics.get(key)
        if children is None:
            children = (
                self._op_latency.labels(op_name),
                self._op_requests.labels(op_name, outcome),
            )
            self._op_metrics[key] = children
        children[0].observe(elapsed_s)
        children[1].inc()
        if elapsed_s >= obs.slow_op_threshold_s:
            log_slow_op(
                self._log, op_name, elapsed_s, obs.slow_op_threshold_s, trace_id
            )

    def _authenticate(self, envelope: ApiRequest, secure: bool) -> User:
        if envelope.session is not None:
            if envelope.version != API_VERSION_V2:
                raise VersionApiError(
                    "bearer session tokens require API version 2.0",
                    details={"version": envelope.version},
                )
            return self._server.sessions.resolve(
                self._server.users,
                envelope.session,
                self._server.context.now,
                over_https=secure,
            )
        if envelope.auth is None:
            raise AuthenticationApiError(
                "operation requires credentials", details={"op": envelope.op}
            )
        return self._server.users.authenticate(
            envelope.auth.username, envelope.auth.token, over_https=secure
        )

    # -- streaming plumbing --------------------------------------------------
    def _open_subscription(
        self,
        ctx: RequestContext,
        topic_prefix: Optional[str] = None,
        job_id: Optional[int] = None,
        offers_for: Optional[AgentPollRequest] = None,
    ) -> _Subscription:
        with self._subscriptions_lock:
            subscription_id = self._next_subscription_id
            self._next_subscription_id += 1
            subscription = _Subscription(
                self,
                subscription_id,
                ctx.owner_token,
                ctx.user.username,
                ctx.push,
                topic_prefix=topic_prefix,
                job_id=job_id,
                offers_for=None if offers_for is None else (ctx.user, offers_for),
            )
            self._subscriptions[subscription_id] = subscription
            if offers_for is None:
                self._bus_callbacks[subscription_id] = subscription.deliver
            else:
                self._agent_subscriptions[subscription_id] = subscription
            # Spans are only published on the bus while a stream that can
            # receive them is open; tell the tracer one just appeared.
            if (
                self._obs is not None
                and topic_prefix is not None
                and SPAN_TOPIC.startswith(topic_prefix)
            ):
                subscription.trace_interest = True
                self._obs.tracer.stream_interest += 1
        if offers_for is None:
            self._server.events.subscribe(None, subscription.deliver)
        elif not self._offer_tap_installed:
            # Offer streams are fed by push_offers, not by the bus: only
            # the tap that tells push_offers when to look is on it.
            self._offer_tap_installed = True
            for topic in _OFFER_TOPICS:
                self._server.events.subscribe(topic, self._on_offer_event)
        return subscription

    def cancel_subscription(self, subscription_id: int) -> bool:
        """Close one subscription; true when it was live."""
        with self._subscriptions_lock:
            subscription = self._subscriptions.pop(subscription_id, None)
            self._agent_subscriptions.pop(subscription_id, None)
            callback = self._bus_callbacks.pop(subscription_id, None)
            if (
                subscription is not None
                and subscription.trace_interest
                and self._obs is not None
            ):
                self._obs.tracer.stream_interest -= 1
        if subscription is None:
            return False
        subscription.closed = True
        if callback is not None:
            self._server.events.unsubscribe(None, callback)
        return True

    def cancel_owner(self, owner: Optional[object]) -> int:
        """Close every subscription opened under ``owner`` (connection died)."""
        with self._subscriptions_lock:
            doomed = [
                sub_id
                for sub_id, sub in self._subscriptions.items()
                if sub.owner_token is owner
            ]
        return sum(1 for sub_id in doomed if self.cancel_subscription(sub_id))

    def close_all_subscriptions(self) -> int:
        """Close every live subscription (gateway shutdown)."""
        with self._subscriptions_lock:
            doomed = list(self._subscriptions)
        return sum(1 for sub_id in doomed if self.cancel_subscription(sub_id))

    # -- offer pushes ---------------------------------------------------------
    def _on_offer_event(self, record) -> None:
        """Bus tap: a mutation in progress may have created an offer."""
        if not self._agent_subscriptions or self._offers_dirty:
            return
        if (
            record.topic.startswith("job.")
            and self._job(record.payload["job_id"]).spec.execution != "agent"
        ):
            return  # push-plane jobs are never offered to agents
        self._offers_dirty = True

    def push_offers(self) -> int:
        """Push an ``offer`` frame to every armed agent subscription that
        has work now; returns how many were pushed.

        The bus tap only raises a flag: the state is whole again when the
        mutation that published ends, and that is when its transport calls
        this — the gateway as it releases ``router_lock`` (requests and
        host-loop ticks alike), the in-process transport after each call.
        So offers are computed at most once per mutating request or tick,
        however many events it published, and not at all when none of them
        could have created an offer.
        """
        if not self._offers_dirty:
            return 0
        self._offers_dirty = False
        with self._subscriptions_lock:
            armed = [sub for sub in self._agent_subscriptions.values() if sub.armed]
        pushed = 0
        for sub in armed:
            user, request = sub.offers_for
            try:
                offers = self._server.agent_offers(
                    user, request.agent_id, limit=request.limit
                )
            except Exception:  # noqa: BLE001 - must not reach the mutation that woke us
                # Quiet until re-armed; the agent's next poll meets the error.
                self._log.exception("offer check for an agent subscription failed")
                sub.armed = False
                continue
            if offers:
                sub.offer(offers)
                pushed += 1
        if pushed and self._obs is not None and self._obs.registry.enabled:
            self._m_offer_frames.inc(float(pushed))
        return pushed

    def _arm_offers(self, agent_id: str) -> None:
        """The agent claimed or polled: its streams may offer again."""
        if not self._agent_subscriptions:
            return
        with self._subscriptions_lock:
            subs = list(self._agent_subscriptions.values())
        for sub in subs:
            if sub.offers_for[1].agent_id == agent_id:
                sub.armed = True

    def agent_subscriptions(self) -> int:
        with self._subscriptions_lock:
            return len(self._agent_subscriptions)

    def active_subscriptions(self) -> List[int]:
        with self._subscriptions_lock:
            return sorted(self._subscriptions)

    # -- helpers ------------------------------------------------------------
    def _job(self, job_id: int):
        return self._server.scheduler.job(job_id)

    def _require_owner_or_admin(self, user: User, owner: str, action: str) -> None:
        if user.username != owner and user.role is not Role.ADMIN:
            raise PermissionApiError(
                f"only {owner!r} or an admin may {action}",
                details={"owner": owner, "caller": user.username},
            )

    def _vantage_point_view(self, record) -> VantagePointView:
        scheduler = self._server.scheduler
        held = self._server.agents.held_devices()
        return VantagePointView(
            name=record.name,
            institution=record.institution,
            dns_name=record.dns_name,
            approved=record.approved,
            devices=[
                DeviceView(
                    serial=serial,
                    busy=scheduler.slots.is_busy(record.name, serial),
                    held_by=held.get((record.name, serial)),
                )
                for serial in record.controller.list_devices()
            ],
        )

    # -- v1 handlers ---------------------------------------------------------
    def _op_job_submit(self, ctx: RequestContext, payload: dict) -> dict:
        request = SubmitJobRequest.from_wire(payload)
        owner = request.owner or ctx.user.username
        self._require_owner_or_admin(ctx.user, owner, "submit jobs owned by them")
        run = get_payload(request.payload)
        if run is None:
            raise ValidationApiError(
                f"unknown payload {request.payload!r}; register it server-side "
                "with register_payload() first",
                details={"payload": request.payload},
            )
        if request.execution not in ("push", "agent"):
            raise ValidationApiError(
                f"unknown execution mode {request.execution!r}",
                details={"execution_modes": ["push", "agent"]},
            )
        spec = JobSpec(
            name=request.name,
            owner=owner,
            run=run,
            description=request.description,
            constraints=request.constraints.to_domain(),
            priority=request.priority,
            timeout_s=request.timeout_s,
            is_pipeline_change=request.is_pipeline_change,
            log_retention_days=request.log_retention_days,
            execution=request.execution,
        )
        job = self._server.submit_job(
            ctx.user,
            spec,
            idempotency_key=request.idempotency_key,
            trace_id=ctx.trace_id,
        )
        return JobView.from_job(job).to_wire()

    def _op_job_status(self, ctx: RequestContext, payload: dict) -> dict:
        ref = JobRef.from_wire(payload)
        return JobView.from_job(self._job(ref.job_id)).to_wire()

    def _op_job_list(self, ctx: RequestContext, payload: dict) -> dict:
        request, status, page = job_list_query(payload)
        jobs = self._server.scheduler.jobs(status)
        if request.owner is not None:
            jobs = [job for job in jobs if job.spec.owner == request.owner]
        return {
            "jobs": [JobView.from_job(job).to_wire() for job in jobs[page]],
            "total": len(jobs),
            "offset": request.offset,
            "limit": request.limit,
        }

    def _op_job_cancel(self, ctx: RequestContext, payload: dict) -> dict:
        ref = JobRef.from_wire(payload)
        job = self._job(ref.job_id)
        self._require_owner_or_admin(ctx.user, job.spec.owner, "cancel this job")
        self._server.scheduler.cancel(ref.job_id)
        return JobView.from_job(job).to_wire()

    def _op_job_results(self, ctx: RequestContext, payload: dict) -> dict:
        ref = JobRef.from_wire(payload)
        job = self._job(ref.job_id)
        self._require_owner_or_admin(ctx.user, job.spec.owner, "read its results")
        return JobResultsView.from_job(job).to_wire()

    def _op_session_reserve(self, ctx: RequestContext, payload: dict) -> dict:
        request = ReserveSessionRequest.from_wire(payload)
        reservation = self._server.reserve_session(
            ctx.user,
            request.vantage_point,
            request.device_serial,
            request.start_s,
            request.duration_s,
        )
        return ReservationView.from_reservation(reservation).to_wire()

    def _op_credits_balance(self, ctx: RequestContext, payload: dict) -> dict:
        request = CreditQuery.from_wire(payload)
        owner = request.owner or ctx.user.username
        self._require_owner_or_admin(ctx.user, owner, "read their balance")
        policy = self._server.accounts.credit_policy
        if policy is None:
            raise NotFoundApiError("the credit system is not enabled on this server")
        return CreditView.from_account(policy.ledger.account(owner)).to_wire()

    def _op_fleet_list(self, ctx: RequestContext, payload: dict) -> dict:
        vantage_points = [
            self._vantage_point_view(record)
            for record in self._server.accounts.vantage_points()
        ]
        return FleetView(vantage_points=vantage_points).to_wire()

    def _op_server_status(self, ctx: RequestContext, payload: dict) -> dict:
        status = self._server.status()
        # Journal health and shard identity are v2 additions: a strict
        # pre-v2 client parsing StatusView would reject the unknown fields,
        # so v1 envelopes keep their exact historical wire form.
        version = ctx.envelope.version
        journal = status.get("journal") if version == API_VERSION_V2 else None
        shard_id = status.get("shard_id") if version == API_VERSION_V2 else None
        return StatusView(
            journal=JournalHealthView(**journal) if journal is not None else None,
            shard_id=shard_id,
            api_version=version,
            vantage_points=status["vantage_points"],
            users=status["users"],
            queued_jobs=status["queued_jobs"],
            pending_approval=status["pending_approval"],
            scheduling_policy=status["scheduling_policy"],
            reservation_admission=status["reservation_admission"],
            auto_dispatch=status["auto_dispatch"],
            persistence=status["persistence"],
            certificate_serial=status["certificate_serial"],
            orphaned_jobs=status.get("orphaned_jobs", []),
            orphaned_vantage_points=status.get("orphaned_vantage_points", []),
        ).to_wire()

    # -- v2 handlers: sessions ----------------------------------------------
    def _op_auth_login(self, ctx: RequestContext, payload: dict) -> dict:
        # auth.login is the one op that authenticates inside its handler:
        # the envelope's account credentials are exchanged for a session.
        request = LoginRequest.from_wire(payload)
        auth = ctx.envelope.auth
        if ctx.envelope.session is not None:
            raise ValidationApiError(
                "auth.login takes account credentials, not a session token"
            )
        if auth is None:
            raise AuthenticationApiError(
                "auth.login requires account credentials in the envelope"
            )
        session_token, session = self._server.sessions.login(
            self._server.users,
            auth.username,
            auth.token,
            self._server.context.now,
            ttl_s=request.ttl_s,
            over_https=ctx.secure,
        )
        user = self._server.users.get(session.username)
        return SessionView(
            session_token=session_token,
            username=session.username,
            role=user.role.value,
            issued_at=session.issued_at,
            expires_at=session.expires_at,
        ).to_wire()

    def _op_auth_logout(self, ctx: RequestContext, payload: dict) -> dict:
        if ctx.envelope.session is None:
            raise ValidationApiError(
                "auth.logout revokes the presenting session; authenticate "
                "with a session token"
            )
        revoked = self._server.sessions.revoke(ctx.envelope.session)
        return LogoutView(revoked=revoked).to_wire()

    # -- v2 handlers: admin control plane ------------------------------------
    def _op_vantage_point_register(self, ctx: RequestContext, payload: dict) -> dict:
        request = RegisterVantagePointRequest.from_wire(payload)
        if request.device_count < 1:
            raise ValidationApiError("device_count must be at least 1")
        # Check the name before assembling hardware: simulated entities are
        # registered by hostname, so a duplicate would fail mid-assembly
        # with an unhelpful validation error instead of a conflict.
        from repro.api.errors import ConflictApiError

        if any(
            record.name == request.name for record in self._server.accounts.vantage_points()
        ):
            raise ConflictApiError(
                f"a vantage point named {request.name!r} is already registered",
                details={"name": request.name},
            )
        from repro.core.platform import assemble_vantage_point, device_profile_by_name

        try:
            profile = device_profile_by_name(request.device_profile)
        except KeyError as exc:
            raise ValidationApiError(str(exc)) from None
        assembled = assemble_vantage_point(
            self._server.context,
            node_identifier=request.name,
            institution=request.institution,
            contact_email=request.contact_email or None,
            public_address=request.public_address or None,
            device_profiles=[profile] * request.device_count,
            browsers=("chrome",),
            install_video=False,
        )
        record = self._server.accounts.register_vantage_point(
            assembled.controller, assembled.request
        )
        return self._vantage_point_view(record).to_wire()

    def _op_approvals_list(self, ctx: RequestContext, payload: dict) -> dict:
        jobs = self._server.pending_approval()
        return {"jobs": [JobView.from_job(job).to_wire() for job in jobs]}

    def _op_job_approve(self, ctx: RequestContext, payload: dict) -> dict:
        ref = JobRef.from_wire(payload)
        job = self._job(ref.job_id)
        self._server.approve_job(ctx.user, job)
        return JobView.from_job(job).to_wire()

    def _op_job_reject(self, ctx: RequestContext, payload: dict) -> dict:
        reason = payload.pop("reason", "")
        if not isinstance(reason, str):
            raise ValidationApiError("reason must be a string")
        ref = JobRef.from_wire(payload)
        job = self._job(ref.job_id)
        self._server.reject_job(ctx.user, job, reason=reason)
        return JobView.from_job(job).to_wire()

    def _op_credits_grant(self, ctx: RequestContext, payload: dict) -> dict:
        request = GrantCreditsRequest.from_wire(payload)
        if self._server.accounts.credit_policy is None:
            raise NotFoundApiError("the credit system is not enabled on this server")
        account = self._server.accounts.grant_credits(
            ctx.user, request.owner, request.amount_device_hours, note=request.note
        )
        return CreditView.from_account(account).to_wire()

    def _op_user_create(self, ctx: RequestContext, payload: dict) -> dict:
        request = CreateUserRequest.from_wire(payload)
        try:
            role = Role(request.role)
        except ValueError:
            raise ValidationApiError(
                f"unknown role {request.role!r}",
                details={"roles": [role.value for role in Role]},
            ) from None
        user = self._server.accounts.create_user(
            ctx.user, request.username, role, request.token, email=request.email
        )
        return UserView(
            username=user.username,
            role=user.role.value,
            email=user.email,
            enabled=user.enabled,
        ).to_wire()

    # -- v2 handlers: operations analytics -----------------------------------
    def _analytics_engine(self):
        """The engine the analytics ops read: the live fold, else cold replay.

        A server with analytics enabled serves its incrementally folded
        views; otherwise a persistence-backed server gets a cold replay of
        its own journal per request (correct but O(journal)); a server with
        neither has no record stream to fold and reports not-found.
        """
        engine = self._server.analytics
        if engine is not None:
            return engine
        if self._server.persistence is not None:
            from repro.analytics import AnalyticsEngine

            backend = self._server.persistence.backend
            # Cold replay syncs the journal backend; analytics ops run
            # without the exclusive router lock, so two concurrent reports
            # must not race the flush.
            with self._analytics_replay_lock:
                backend.sync()
                return AnalyticsEngine.from_backend(backend)
        raise NotFoundApiError(
            "analytics is not enabled on this server and no journal is "
            "attached to replay; call AccessServer.enable_analytics()"
        )

    def _op_analytics_report(self, ctx: RequestContext, payload: dict) -> dict:
        request = AnalyticsReportRequest.from_wire(payload)
        # Fleet-wide aggregates (queue percentiles, device health) are
        # operational state like server.status, but the per-owner rows
        # carry credit burn — the same data credits.balance restricts to
        # the owner or an admin, so the owners table follows that rule.
        owner = request.owner
        if ctx.user.role is not Role.ADMIN:
            if owner is not None and owner != ctx.user.username:
                raise PermissionApiError(
                    f"only {owner!r} or an admin may read their usage row",
                    details={"owner": owner, "caller": ctx.user.username},
                )
            owner = ctx.user.username
        # The view omits the timeseries (analytics.timeseries serves it),
        # so skip materialising it.
        report = self._analytics_engine().report(include_throughput=False)
        return AnalyticsReportView.from_report(report, owner=owner).to_wire()

    def _op_analytics_timeseries(self, ctx: RequestContext, payload: dict) -> dict:
        request = AnalyticsTimeseriesRequest.from_wire(payload)
        if request.bucket_s <= 0:
            raise ValidationApiError("bucket_s must be positive")
        timeseries = self._analytics_engine().timeseries(request.bucket_s)
        return AnalyticsTimeseriesView.from_timeseries(timeseries).to_wire()

    # -- v2 handlers: observability -------------------------------------------
    def _require_obs(self):
        if self._obs is None:
            raise NotFoundApiError(
                "telemetry is not enabled on this server; the access server "
                "carries no Observability instance"
            )
        return self._obs

    def _op_obs_metrics(self, ctx: RequestContext, payload: dict) -> dict:
        request = ObsMetricsRequest.from_wire(payload)
        obs = self._require_obs()
        return ObsMetricsView.from_snapshot(
            obs.registry.snapshot(), prefix=request.prefix
        ).to_wire()

    def _op_obs_trace(self, ctx: RequestContext, payload: dict) -> dict:
        request = ObsTraceRequest.from_wire(payload)
        obs = self._require_obs()
        if request.trace_id is None and request.job_id is None:
            raise ValidationApiError("obs.trace needs a trace_id or a job_id")
        trace_id = request.trace_id
        if trace_id is None:
            trace_id = obs.tracer.trace_id_for_job(request.job_id)
            if trace_id is None:
                raise NotFoundApiError(
                    f"no trace recorded for job {request.job_id}",
                    details={"job_id": request.job_id},
                )
        spans = obs.tracer.trace(trace_id)
        if not spans:
            raise NotFoundApiError(
                f"unknown trace {trace_id!r} (evicted or never recorded)",
                details={"trace_id": trace_id},
            )
        return ObsTraceView(
            trace_id=trace_id,
            spans=[SpanView.from_span(span) for span in spans],
            job_id=request.job_id,
        ).to_wire()

    # -- v2 handlers: streaming ----------------------------------------------
    def _op_job_watch(self, ctx: RequestContext, payload: dict) -> dict:
        request = WatchJobRequest.from_wire(payload)
        job = self._job(request.job_id)  # not-found before subscribing
        subscription = self._open_subscription(ctx, job_id=request.job_id)
        ack = SubscriptionAck(
            subscription_id=subscription.subscription_id, job=JobView.from_job(job)
        ).to_wire()
        if job.status in _TERMINAL_STATUSES:
            # Nothing left to stream: end immediately so the watcher's
            # iterator terminates instead of waiting for events that will
            # never come.
            subscription.end(job)
        return ack

    def _op_events_subscribe(self, ctx: RequestContext, payload: dict) -> dict:
        request = EventsSubscribeRequest.from_wire(payload)
        if not request.topic_prefix:
            raise ValidationApiError("topic_prefix must be non-empty")
        subscription = self._open_subscription(ctx, topic_prefix=request.topic_prefix)
        return SubscriptionAck(subscription_id=subscription.subscription_id).to_wire()

    def _op_subscription_cancel(self, ctx: RequestContext, payload: dict) -> dict:
        ref = SubscriptionRef.from_wire(payload)
        with self._subscriptions_lock:
            subscription = self._subscriptions.get(ref.subscription_id)
        if subscription is not None and subscription.username != ctx.user.username:
            if ctx.user.role is not Role.ADMIN:
                raise PermissionApiError(
                    "only the subscriber or an admin may cancel a subscription"
                )
        return {"cancelled": self.cancel_subscription(ref.subscription_id)}

    # -- v2 handlers: agent-pull execution ------------------------------------
    def _offer_view(self, job) -> JobOfferView:
        constraints = job.spec.constraints
        return JobOfferView(
            job_id=job.job_id,
            name=job.spec.name,
            owner=job.spec.owner,
            priority=job.spec.priority,
            device_count=constraints.device_count,
            connector=constraints.connector,
            vantage_point=constraints.vantage_point,
        )

    def _op_agent_register(self, ctx: RequestContext, payload: dict) -> dict:
        request = AgentRegisterRequest.from_wire(payload)
        for key, value in request.tags.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValidationApiError("tags must map strings to strings")
        record, created = self._server.agents.register(
            ctx.user,
            request.agent_id,
            vantage_point=request.vantage_point,
            connectors=request.connectors,
            tags=request.tags,
        )
        return AgentView.from_record(record, created=created).to_wire()

    @staticmethod
    def _agent_poll_request(payload: dict) -> AgentPollRequest:
        request = AgentPollRequest.from_wire(payload)
        if request.limit < 1:
            raise ValidationApiError("limit must be at least 1")
        return request

    def _op_agent_subscribe(self, ctx: RequestContext, payload: dict) -> dict:
        request = self._agent_poll_request(payload)
        self._server.agents.get(request.agent_id)  # not-found before subscribing
        subscription = self._open_subscription(ctx, offers_for=request)
        return SubscriptionAck(subscription_id=subscription.subscription_id).to_wire()

    def _op_agent_poll(self, ctx: RequestContext, payload: dict) -> dict:
        request = self._agent_poll_request(payload)
        # Arm-then-check: a submit racing this (lock-free) check is either
        # seen by it or finds the agent's stream armed and is pushed there.
        self._arm_offers(request.agent_id)
        offers = self._server.agent_offers(
            ctx.user, request.agent_id, limit=request.limit
        )
        return AgentPollView(
            offers=[self._offer_view(job) for job in offers]
        ).to_wire()

    def _op_agent_claim(self, ctx: RequestContext, payload: dict) -> dict:
        request = AgentClaimRequest.from_wire(payload)
        self._arm_offers(request.agent_id)
        lease, job = self._server.agent_claim(
            ctx.user, request.agent_id, request.job_id, ttl_s=request.ttl_s
        )
        return AgentLeaseView.from_lease(
            lease, job=job, payload=payload_name(job.spec.run)
        ).to_wire()

    def _op_agent_heartbeat(self, ctx: RequestContext, payload: dict) -> dict:
        request = AgentHeartbeatRequest.from_wire(payload)
        lease = self._server.agents.heartbeat(request.lease_id, request.agent_id)
        job = self._server.scheduler.job(lease.job_id)
        return AgentLeaseView.from_lease(
            lease, job=job, payload=payload_name(job.spec.run)
        ).to_wire()

    def _op_agent_report(self, ctx: RequestContext, payload: dict) -> dict:
        request = AgentReportRequest.from_wire(payload)
        if request.status not in ("completed", "failed"):
            raise ValidationApiError(
                f"report status must be 'completed' or 'failed', "
                f"not {request.status!r}"
            )
        job, duplicate = self._server.agent_report(
            request.lease_id,
            request.agent_id,
            request.status,
            result=request.result,
            error=request.error,
            children=[
                {
                    "device_serial": child.device_serial,
                    "status": child.status,
                    "vantage_point": child.vantage_point,
                    "output": child.output or "",
                }
                for child in request.children
            ],
        )
        return AgentReportView(
            job=JobView.from_job(job), duplicate=duplicate
        ).to_wire()
