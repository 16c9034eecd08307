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
construction) and what they need: authentication, subscriptions, parked
polls, telemetry.  The tables below document each operation's DTOs.

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
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
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

#: Server-side ceiling on an ``agent.poll`` long-poll.  A parked poll holds
#: no thread — only a registry entry and its connection's place in the
#: response order — but an agent that went away silently would hold those
#: until its deadline, so the server bounds the requested ``wait_s``.
MAX_POLL_WAIT_S = 30.0

#: Bus topics that can turn an empty ``agent.poll`` into an offer: new or
#: newly approved work, a job back in the queue, a device or a reserved
#: slot set free.
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


@dataclass
class _ParkedPoll:
    """One parked ``agent.poll``: a registered request, not a thread.

    It is answered exactly once — by the re-check after a mutation that
    announced work, by its deadline, or by a cancel — through
    ``ctx.complete`` (the transport's callback) or, for a caller blocked in
    :meth:`ApiRouter.handle`, through ``done``.
    """

    poll_id: int
    ctx: RequestContext
    agent_id: str
    limit: int
    parked_at: float  # time.monotonic()
    deadline: float
    done: Optional[threading.Event]
    response: Optional[dict] = None


class _Subscription:
    """One live push stream bridged from the server's event bus."""

    def __init__(
        self,
        router: "ApiRouter",
        subscription_id: int,
        owner_token: Optional[object],
        username: str,
        push: Callable[[dict], None],
        topic_prefix: Optional[str] = None,
        job_id: Optional[int] = None,
    ) -> None:
        self.router = router
        self.subscription_id = subscription_id
        self.owner_token = owner_token
        self.username = username
        self.push = push
        self.topic_prefix = topic_prefix
        self.job_id = job_id
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
        # The parking registry: every agent.poll waiting for work, whatever
        # transport carried it.  ``_polls_dirty`` is raised by the bus tap
        # (installed at the first park) when a mutation may have created an
        # offer; ``recheck_parked_polls`` lowers it.
        self._parked_polls: Dict[int, _ParkedPoll] = {}
        self._next_poll_id = 1
        self._polls_dirty = False
        self._poll_tap_installed = False
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
            self._g_parked_polls = registry.gauge(
                "api_parked_polls", "agent.poll requests parked waiting for work."
            ).labels()
            completions = registry.counter(
                "agent_poll_completions_total",
                "Parked agent.poll requests answered, by what answered them.",
                labelnames=("reason",),
            )
            self._m_poll_completions = {
                reason: completions.labels(reason=reason)
                for reason in ("work", "deadline", "cancelled")
            }
            self._m_poll_park = registry.histogram(
                "agent_poll_park_seconds",
                "Wall time an agent.poll spent parked before it was answered.",
            ).labels()
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
    ) -> Optional[dict]:
        op, envelope = ctx.op, ctx.envelope
        obs = self._obs
        span = None
        if obs is not None and obs.tracer.enabled and (
            not op.read_only or envelope.trace_id is not None
        ):
            # Mutating ops (and anything the caller explicitly traced)
            # get a router span; read-only hot-path ops pay metrics only.
            span = obs.tracer.start_span(
                f"router.{op.name}", trace_id=envelope.trace_id, op=op.name
            )
            ctx.trace_id = span.trace_id
        try:
            if op.authenticate:
                ctx.user = self._authenticate(envelope, ctx.secure)
                if op.permission is not None:
                    self._server.users.authorize(ctx.user, op.permission)
            payload = handler(ctx, envelope.payload)
        except Exception:
            if span is not None:
                obs.tracer.end_span(span, status="error")
            raise
        if span is not None:
            obs.tracer.end_span(span)
        if op.blocking and isinstance(payload, _ParkedPoll):
            # Parked: whoever completes the poll builds its envelope
            # and counts the request (see _finish_poll).
            return self._await_poll(payload) if ctx.complete is None else None
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
        # Blocking ops (long-polls) spend their wait parked by design; the
        # slow-op health warning is for ops that should have been fast.
        if elapsed_s >= obs.slow_op_threshold_s and not self.is_blocking(op_name):
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
            )
            self._subscriptions[subscription_id] = subscription
            callback = subscription.deliver
            self._bus_callbacks[subscription_id] = callback
            # Spans are only published on the bus while a stream that can
            # receive them is open; tell the tracer one just appeared.
            if (
                self._obs is not None
                and topic_prefix is not None
                and SPAN_TOPIC.startswith(topic_prefix)
            ):
                subscription.trace_interest = True
                self._obs.tracer.stream_interest += 1
        self._server.events.subscribe(None, callback)
        return subscription

    def cancel_subscription(self, subscription_id: int) -> bool:
        """Close one subscription; true when it was live."""
        with self._subscriptions_lock:
            subscription = self._subscriptions.pop(subscription_id, None)
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
        """Close every subscription opened under ``owner`` (connection died).

        Its parked polls are cancelled too: nothing of a dead connection
        stays registered.
        """
        with self._subscriptions_lock:
            doomed = [
                sub_id
                for sub_id, sub in self._subscriptions.items()
                if sub.owner_token is owner
            ]
            polls = [
                poll
                for poll in self._parked_polls.values()
                if poll.ctx.owner_token is owner
            ]
        for poll in polls:
            self._finish_poll(poll, "cancelled")
        return sum(1 for sub_id in doomed if self.cancel_subscription(sub_id))

    def close_all_subscriptions(self) -> int:
        """Close every live subscription (gateway shutdown).

        Also cancels every parked ``agent.poll`` so shutdown never waits
        out a long-poll; the return value stays the subscription count.
        """
        self.cancel_parked_polls()
        with self._subscriptions_lock:
            doomed = list(self._subscriptions)
        return sum(1 for sub_id in doomed if self.cancel_subscription(sub_id))

    # -- parked long-polls ----------------------------------------------------
    def _park_poll(
        self, ctx: RequestContext, request: AgentPollRequest, wait_s: float
    ) -> _ParkedPoll:
        """Register a poll *before* its check, so no announcement is missed.

        A mutation that lands after this raises ``_polls_dirty`` and the
        poll is re-checked when that mutation ends; one that landed before
        is already visible to the check the caller runs next.
        """
        now = time.monotonic()
        with self._subscriptions_lock:
            if not self._poll_tap_installed:
                self._poll_tap_installed = True
                for topic in _OFFER_TOPICS:
                    self._server.events.subscribe(topic, self._on_offer_event)
            poll = _ParkedPoll(
                self._next_poll_id,
                ctx,
                request.agent_id,
                request.limit,
                parked_at=now,
                deadline=now + wait_s,
                done=threading.Event() if ctx.complete is None else None,
            )
            self._next_poll_id += 1
            self._parked_polls[poll.poll_id] = poll
        if self._obs is not None:
            self._g_parked_polls.inc()
        return poll

    def _unpark_poll(self, poll: _ParkedPoll) -> bool:
        """Take ``poll`` off the registry; true for the one caller that did,
        which is thereby the one that answers it."""
        with self._subscriptions_lock:
            if self._parked_polls.pop(poll.poll_id, None) is None:
                return False
        if self._obs is not None:
            self._g_parked_polls.dec()
        return True

    def _on_offer_event(self, record) -> None:
        """Bus tap: a mutation in progress may have created an offer."""
        if not self._parked_polls or self._polls_dirty:
            return
        if (
            record.topic.startswith("job.")
            and self._job(record.payload["job_id"]).spec.execution != "agent"
        ):
            return  # push-plane jobs are never offered to agents
        self._polls_dirty = True

    def recheck_parked_polls(self) -> int:
        """Answer every parked poll that has work now; returns how many.

        The bus tap only raises a flag: the state is whole again when the
        mutation that published ends, and that is when its transport calls
        this — the gateway as it releases ``router_lock`` (requests and
        host-loop ticks alike), the in-process transport after each call.
        So a poll is re-checked at most once per mutating request or tick,
        however many events it published, and not at all when none of them
        could have created an offer.
        """
        if not self._polls_dirty:
            return 0
        self._polls_dirty = False
        with self._subscriptions_lock:
            parked = list(self._parked_polls.values())
        answered = 0
        for poll in parked:
            try:
                offers = self._server.agent_offers(
                    poll.ctx.user, poll.agent_id, limit=poll.limit
                )
            except Exception:  # noqa: BLE001 - must not reach the mutation that woke us
                # Answered empty; the agent's next poll meets the error in line.
                self._log.exception("re-check of a parked agent.poll failed")
                answered += self._finish_poll(poll, "cancelled")
                continue
            if offers:
                answered += self._finish_poll(poll, "work", offers)
        return answered

    def expire_parked_polls(self) -> Optional[float]:
        """Answer (empty) every poll whose deadline has passed.

        Returns the seconds until the next deadline, ``None`` when nothing
        is parked.  The gateway's selector loop calls this once per turn
        and sleeps no longer than the answer — the one timer all parked
        polls share.
        """
        if not self._parked_polls:
            return None
        with self._subscriptions_lock:
            parked = list(self._parked_polls.values())
        now = time.monotonic()
        nearest: Optional[float] = None
        for poll in parked:
            if poll.deadline <= now:
                self._finish_poll(poll, "deadline")
            elif nearest is None or poll.deadline < nearest:
                nearest = poll.deadline
        return None if nearest is None else nearest - now

    def cancel_parked_polls(self) -> int:
        """Answer (empty) every parked ``agent.poll`` now (shutdown, shard drain)."""
        with self._subscriptions_lock:
            parked = list(self._parked_polls.values())
        return sum(self._finish_poll(poll, "cancelled") for poll in parked)

    def parked_polls(self) -> int:
        with self._subscriptions_lock:
            return len(self._parked_polls)

    def _finish_poll(self, poll: _ParkedPoll, reason: str, offers=()) -> bool:
        """Answer a parked poll; false when someone else already has."""
        if not self._unpark_poll(poll):
            return False
        ctx = poll.ctx
        obs = self._obs
        if obs is not None and obs.registry.enabled:
            self._m_poll_completions[reason].inc()
            self._m_poll_park.observe(time.monotonic() - poll.parked_at)
        self._observe_request(
            "agent.poll", "ok", time.perf_counter() - ctx.started, ctx.trace_id
        )
        poll.response = ctx.ok(
            AgentPollView(offers=[self._offer_view(job) for job in offers]).to_wire()
        )
        if poll.done is not None:
            poll.done.set()
        else:
            try:
                ctx.complete(poll.response)
            except Exception:  # noqa: BLE001
                # A dead transport must never propagate into the mutation
                # (or the loop turn) that answered its poll.
                self._log.exception("parked agent.poll completion failed")
        return True

    def _await_poll(self, poll: _ParkedPoll) -> dict:
        """Block a :meth:`handle` caller on its parked poll's completion."""
        if not poll.done.wait(poll.deadline - time.monotonic()):
            # Its own deadline: the blocked caller is its own timer.  Losing
            # the race to a concurrent completion is fine — that one's
            # ``done`` is moments away.
            self._finish_poll(poll, "deadline")
            poll.done.wait()
        return poll.response

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
        """The engine the analytics ops read: live tap, else cold replay.

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

    def _op_agent_poll(self, ctx: RequestContext, payload: dict):
        request = AgentPollRequest.from_wire(payload)
        if request.limit < 1:
            raise ValidationApiError("limit must be at least 1")
        wait_s = min(max(request.wait_s, 0.0), MAX_POLL_WAIT_S)
        # Register-then-check: a long-poll goes on the registry first, so a
        # submit racing this (lock-free) check is either seen by it or
        # finds the poll registered and re-checks it.
        poll = self._park_poll(ctx, request, wait_s) if wait_s > 0.0 else None
        try:
            offers = self._server.agent_offers(
                ctx.user, request.agent_id, limit=request.limit
            )
        except Exception:
            if poll is not None and not self._unpark_poll(poll):
                return poll  # answered meanwhile; that answer stands
            raise
        if poll is not None and (not offers or not self._unpark_poll(poll)):
            return poll  # parked — or answered meanwhile, which is the same
        return AgentPollView(
            offers=[self._offer_view(job) for job in offers]
        ).to_wire()

    def _op_agent_claim(self, ctx: RequestContext, payload: dict) -> dict:
        request = AgentClaimRequest.from_wire(payload)
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
