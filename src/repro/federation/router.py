"""Scatter-gather federation router speaking unmodified Platform API v2.

:class:`FederationRouter` fronts N access-server shards behind the exact
duck-type surface :class:`~repro.api.gateway.ApiGateway` drives an
:class:`~repro.api.router.ApiRouter` with — ``handle`` / ``is_read_only`` /
``cancel_owner`` / ``close_all_subscriptions`` / ``operations`` / a
``server`` exposing ``.obs`` — so the stock gateway, the stock client and
every existing wire test run against a federation without modification.

Which operation is served how is not decided here: every row of the
operation table (:data:`repro.api.ops.OPS`) names its federation *mode*,
and the router binds each row to a route at construction — its own
``_fed_<name>`` method where the operation needs one, else the generic
route of its mode.  What each mode means across N shards:

* **routed** — one deterministic target shard, response returned
  *verbatim* (same bytes a standalone server would produce).  A job
  reference routes by the job-id *lane* (``(job_id - 1) % N``; see
  :mod:`repro.federation.placement`); new work places by sticky
  idempotency key, then hardware-constraint directory, then rendezvous
  hash over the active shards; reservations, hardware and agents follow
  the directory; a credit account follows a rendezvous of its owner over
  the (fixed) lane set so it lives on exactly one shard.
* **scatter** — fanned out to every attached shard and merged with the
  deterministic fold in :mod:`repro.federation.merge` the row names
  (pagination is applied *after* the global id-sort; metrics gain a
  per-shard ``shard`` label; a trace id is answered by the first shard
  that knows the trace).
* **broadcast** — applied to every shard because the resource is
  federation-global (a login collapses the per-shard tokens behind one
  federated bearer token).
* **stream** — an event subscription opens one leg per attached shard and
  multiplexes them behind a single federated subscription id; the
  federated ``seq`` advances by each leg frame's ``dropped + 1``, so the
  PR-5 back-pressure contract (seq gap == dropped) holds across the
  merge.  A job watch is one leg on the job's lane, re-tagged.
* **admin** — the ``shard.*`` rows drive the drain state machine
  (``active`` → ``draining`` → ``detached``); they live in the router
  because shard membership *is* router state.  They — and the cancel of
  a federated stream — are the only requests the router authenticates
  itself.

The envelope gates (known operation, supported and sufficient version, a
push-capable transport for a stream) are :class:`~repro.api.ops.OpRouter`'s,
shared with :class:`~repro.api.router.ApiRouter`; authentication of every
forwarded request stays on the shard that serves it, so no request is
token-hashed twice.

A single-lane federation passes every non-admin request that clears the
gates through verbatim — a federation of one is byte-identical to a
standalone server.
"""

from __future__ import annotations

import threading
import uuid
from typing import Callable, Dict, List, Optional, Tuple

from repro.accessserver.auth import Role, User
from repro.api.errors import (
    AuthenticationApiError,
    ConflictApiError,
    NotFoundApiError,
    PermissionApiError,
    SessionApiError,
    VersionApiError,
)
from repro.api.ops import OPS, Op, OpRouter, RequestContext
from repro.api.schemas import (
    API_VERSION_V2,
    PUSH_FRAME_END,
    ObsMetricsView,
    ShardListView,
    ShardRef,
    ShardView,
    SubscriptionAck,
    SubscriptionRef,
)
from repro.federation import merge as fed_merge
from repro.federation.placement import (
    PlacementDirectory,
    ShardState,
    lane_of_job,
    rendezvous_shard,
)
from repro.federation.shard import FederationShard
from repro.obs import Observability

__all__ = ["FederationRouter"]


class _RouterCore:
    """What the gateway sees behind ``router.server``: telemetry only."""

    def __init__(self, obs: Observability) -> None:
        self.obs = obs


class _FedSession:
    """One federated login: the per-shard bearer tokens behind one token."""

    __slots__ = ("username", "tokens")

    def __init__(self, username: str, tokens: Dict[str, str]) -> None:
        self.username = username
        self.tokens = tokens


class _FedSubscription:
    """One federated push stream multiplexing per-shard legs.

    ``seq`` is the federated cursor: every leg frame advances it by the
    frame's ``dropped + 1``, so a consumer summing ``dropped`` over the
    frames it received can reconcile against the federated seq exactly as
    it would against a single server's.
    """

    __slots__ = (
        "router",
        "fed_id",
        "owner_token",
        "username",
        "push",
        "watch",
        "legs",
        "seq",
        "lock",
        "closed",
    )

    def __init__(
        self,
        router: "FederationRouter",
        fed_id: int,
        owner_token: Optional[object],
        username: str,
        push: Callable[[dict], None],
        watch: bool = False,
    ) -> None:
        self.router = router
        self.fed_id = fed_id
        self.owner_token = owner_token
        self.username = username
        self.push = push
        self.watch = watch
        #: shard id -> that shard's subscription id for our leg.
        self.legs: Dict[str, int] = {}
        self.seq = 0
        self.lock = threading.Lock()
        self.closed = False

    def leg_push(self, shard_id: str) -> Callable[[dict], None]:
        def _push(frame: dict) -> None:
            self.router._forward_frame(self, shard_id, frame)

        return _push


class FederationRouter(OpRouter):
    """N shards behind one ApiRouter-shaped endpoint.

    Parameters
    ----------
    shards:
        The lane-ordered shard set (index ``k`` must hold lane ``k``).
        The lane count is fixed for the federation's lifetime — job-id
        residue classes cannot be renumbered once ids are minted.
    shard_factory:
        Optional ``(shard_id, index, lane_count) -> FederationShard``
        used by ``shard.add`` to rebuild a detached shard (recovering
        from its journal) during a rolling restart.
    """

    def __init__(
        self,
        shards: List[FederationShard],
        shard_factory: Optional[Callable[[str, int, int], FederationShard]] = None,
    ) -> None:
        if not shards:
            raise ValueError("a federation needs at least one shard")
        for index, shard in enumerate(shards):
            if shard.index != index:
                raise ValueError(
                    f"shard {shard.shard_id!r} holds lane {shard.index}, "
                    f"but was passed at position {index}"
                )
        self._lanes: List[FederationShard] = list(shards)
        self._lane_count = len(shards)
        self._shard_factory = shard_factory
        self._directory = PlacementDirectory()
        for shard in self._lanes:
            self._directory.learn_shard(shard.shard_id, shard.server)
        self._sessions: Dict[str, _FedSession] = {}
        self._subscriptions: Dict[int, _FedSubscription] = {}
        self._subscriptions_lock = threading.Lock()
        self._next_subscription_id = 1
        self.obs = Observability()
        self._core = _RouterCore(self.obs)
        self._requests_total = self.obs.registry.counter(
            "federation_requests_total",
            "Federated API requests by operation and serving mode",
            labelnames=("op", "mode"),
        )
        self._bind(OPS.values(), self._route_for)

    def _route_for(self, op: Op) -> Optional[Callable[[RequestContext], object]]:
        """The op's own ``_fed_<name>`` route, else the generic one of its mode."""
        route = getattr(self, "_fed_" + op.handler_suffix, None)
        if route is None and op.mode == "routed":
            route = self._route_to_job
        if route is None and op.merge is not None:
            route = self._scatter
        return route

    # -- ApiRouter duck-type surface -----------------------------------------
    @property
    def server(self):
        return self._core

    @property
    def shards(self) -> List[FederationShard]:
        return list(self._lanes)

    def cancel_owner(self, owner: Optional[object]) -> int:
        with self._subscriptions_lock:
            doomed = [
                fed_id
                for fed_id, sub in self._subscriptions.items()
                if sub.owner_token is owner
            ]
        cancelled = sum(
            1 for fed_id in doomed if self._cancel_fed_subscription(fed_id)
        )
        # Pass-through subscriptions were opened directly on a shard router
        # under the same owner token; tear those down too.
        for shard in self._attached():
            cancelled += shard.router.cancel_owner(owner)
        return cancelled

    def close_all_subscriptions(self) -> int:
        with self._subscriptions_lock:
            doomed = list(self._subscriptions)
        closed = sum(
            1 for fed_id in doomed if self._cancel_fed_subscription(fed_id)
        )
        for shard in self._attached():
            closed += shard.router.close_all_subscriptions()
        return closed

    def active_subscriptions(self) -> List[int]:
        with self._subscriptions_lock:
            fed = set(self._subscriptions)
        for shard in self._attached():
            fed.update(shard.router.active_subscriptions())
        return sorted(fed)

    # A shard-routed agent.poll parks on its home shard's registry; the
    # transport-facing calls fan out to every attached shard.
    def parked_polls(self) -> int:
        return sum(shard.router.parked_polls() for shard in self._attached())

    def recheck_parked_polls(self) -> int:
        return sum(shard.router.recheck_parked_polls() for shard in self._attached())

    def expire_parked_polls(self) -> Optional[float]:
        waits = [shard.router.expire_parked_polls() for shard in self._attached()]
        return min((wait for wait in waits if wait is not None), default=None)

    # -- shard bookkeeping ----------------------------------------------------
    def _attached(self) -> List[FederationShard]:
        """Shards still participating (active or draining), lane order."""
        return [s for s in self._lanes if s.state is not ShardState.DETACHED]

    def _scatter_set(self) -> List[FederationShard]:
        """Attached shards in sorted-shard-id order (the merge order)."""
        return sorted(self._attached(), key=lambda s: s.shard_id)

    def _active(self) -> List[FederationShard]:
        return [s for s in self._lanes if s.state is ShardState.ACTIVE]

    def _shard_by_id(self, shard_id: str) -> Optional[FederationShard]:
        for shard in self._lanes:
            if shard.shard_id == shard_id:
                return shard
        return None

    def _lane_shard(self, job_id: int) -> FederationShard:
        shard = self._lanes[lane_of_job(job_id, self._lane_count)]
        if shard.state is ShardState.DETACHED:
            raise ConflictApiError(
                f"job {job_id} lives on shard {shard.shard_id!r}, which is "
                "detached; re-attach it with shard.add",
                details={"job_id": job_id, "shard_id": shard.shard_id},
            )
        return shard

    def _reference_shard(self) -> FederationShard:
        attached = self._scatter_set()
        if not attached:
            raise ConflictApiError("every shard of this federation is detached")
        return attached[0]

    # -- session fan-out ------------------------------------------------------
    def _request_for_shard(self, request: dict, shard_id: str) -> dict:
        """Rewrite the envelope's federated bearer token to the shard's own.

        Unknown tokens pass through untouched: either the caller holds a
        raw shard token from a pass-through era (the shard resolves it) or
        the token is stale (the shard answers ``auth.session_expired`` and
        the client re-logins, which re-broadcasts).  A *known* federated
        session missing this shard's token — the shard restarted and its
        in-memory sessions died — is forwarded stale on purpose for the
        same re-login effect.
        """
        session = request.get("session")
        if isinstance(session, str):
            fed = self._sessions.get(session)
            if fed is not None:
                token = fed.tokens.get(shard_id)
                if token is not None:
                    rewritten = dict(request)
                    rewritten["session"] = token
                    return rewritten
        return request

    def _caller_username(self, ctx: RequestContext) -> str:
        envelope = ctx.envelope
        if envelope.auth is not None:
            return envelope.auth.username
        if envelope.session is not None:
            fed = self._sessions.get(envelope.session)
            if fed is not None:
                return fed.username
            for shard in self._scatter_set():
                try:
                    session = shard.server.sessions.resolve(
                        envelope.session, shard.server.context.now
                    )
                    return session.username
                except Exception:
                    continue
        return ""

    def _authorize(self, ctx: RequestContext) -> User:
        """Authenticate and authorize an op the federation serves itself,
        against the reference shard."""
        envelope = ctx.envelope
        shard = self._reference_shard()
        server = shard.server
        if envelope.session is not None:
            if envelope.version != API_VERSION_V2:
                raise VersionApiError(
                    "bearer session tokens require API version 2.0",
                    details={"version": envelope.version},
                )
            token = envelope.session
            fed = self._sessions.get(token)
            if fed is not None:
                token = fed.tokens.get(shard.shard_id)
                if token is None:
                    raise SessionApiError(
                        f"shard {shard.shard_id!r} restarted since this "
                        "session was issued; log in again"
                    )
            user = server.sessions.resolve(
                token, server.context.now, over_https=ctx.secure
            )
        elif envelope.auth is None:
            raise AuthenticationApiError(
                "operation requires credentials", details={"op": envelope.op}
            )
        else:
            user = server.users.authenticate(
                envelope.auth.username, envelope.auth.token, over_https=ctx.secure
            )
        server.users.authorize(user, ctx.op.permission)
        return user

    # -- behind the gates ------------------------------------------------------
    def _on_lookup(self, label: str, op: Optional[Op]) -> None:
        if not self.obs.registry.enabled:
            return
        if op is None:
            mode = "rejected"
        elif self._lane_count == 1 and op.mode != "admin":
            mode = "passthrough"
        else:
            mode = op.mode
        self._requests_total.labels(label, mode).inc()

    def _serve(
        self, ctx: RequestContext, route: Callable[[RequestContext], object]
    ) -> Optional[dict]:
        if ctx.op.mode == "admin":
            self._authorize(ctx)
            return ctx.ok(route(ctx))
        attached = self._scatter_set()
        if not attached:
            raise ConflictApiError("every shard of this federation is detached")
        if self._lane_count == 1:
            # Federation of one: the shard's response *is* the federated
            # response, byte for byte — including streams.  Only the true
            # single-lane case qualifies — a multi-lane federation drained
            # down to one shard must keep routing so detached lanes answer
            # ``resource.conflict`` ("re-attach me"), not a false not-found.
            return self._forward(
                ctx,
                attached[0],
                push=ctx.push,
                owner=ctx.owner_token,
                complete=ctx.complete,
            )
        return route(ctx)

    # -- forwarding helpers ----------------------------------------------------
    def _forward(
        self,
        ctx: RequestContext,
        shard: FederationShard,
        request: Optional[dict] = None,
        push: Optional[Callable[[dict], None]] = None,
        owner: Optional[object] = None,
        complete: Optional[Callable[[dict], None]] = None,
    ) -> Optional[dict]:
        """One shard leg: ``ctx``'s request (or ``request``, a rewrite of it)
        handled by ``shard``'s own router, which authenticates it."""
        request = self._request_for_shard(request or ctx.request, shard.shard_id)
        if complete is not None:
            return shard.router.handle_deferred(
                request, complete, push=push, owner=owner, secure=ctx.secure
            )
        return shard.router.handle(
            request, push=push, owner=owner, secure=ctx.secure
        )

    def _scatter_responses(
        self, ctx: RequestContext, request: Optional[dict] = None
    ) -> List[Tuple[str, dict]]:
        return [
            (shard.shard_id, self._forward(ctx, shard, request))
            for shard in self._scatter_set()
        ]

    def _job_shard(self, ctx: RequestContext) -> Optional[FederationShard]:
        """The lane that minted the payload's ``job_id``; ``None`` for a
        malformed ref, which the reference shard then rejects exactly as a
        standalone server would."""
        job_id = ctx.envelope.payload.get("job_id")
        if isinstance(job_id, int) and not isinstance(job_id, bool) and job_id >= 1:
            return self._lane_shard(job_id)
        return None

    # -- scattered reads -------------------------------------------------------
    def _scatter(
        self,
        ctx: RequestContext,
        request: Optional[dict] = None,
        fold: Optional[Callable[..., dict]] = None,
        **fold_args: object,
    ) -> dict:
        """Fan out to every attached shard and fold the payloads into one.

        Without a ``fold`` of the route's own, it is the
        :mod:`repro.federation.merge` function the op's row names — read off
        the module per call, so a wrapper installed there is the one run.
        """
        responses = self._scatter_responses(ctx, request)
        for _, response in responses:
            if not response.get("ok"):
                return response
        payloads = [(shard_id, resp["payload"]) for shard_id, resp in responses]
        if fold is None:
            fold = getattr(fed_merge, ctx.op.merge)
        return ctx.ok(fold(payloads, **fold_args))

    def _fed_job_list(self, ctx: RequestContext) -> dict:
        # Pagination must window the *merged* id-ordered list, so the
        # shards are asked for their full filtered sets.
        payload = ctx.envelope.payload
        scattered = dict(ctx.request)
        scattered["payload"] = {
            key: value
            for key, value in payload.items()
            if key not in ("offset", "limit")
        }
        return self._scatter(
            ctx,
            scattered,
            offset=payload.get("offset", 0),
            limit=payload.get("limit"),
        )

    def _fed_server_status(self, ctx: RequestContext) -> dict:
        return self._scatter(ctx, api_version=ctx.envelope.version)

    def _fed_obs_metrics(self, ctx: RequestContext) -> dict:
        from repro.obs.metrics import merge_snapshots

        def fold(payloads: List[Tuple[str, dict]]) -> dict:
            snapshots = {
                shard_id: ObsMetricsView.from_wire(payload).to_snapshot()
                for shard_id, payload in payloads
            }
            merged = merge_snapshots(
                snapshots, extra=self.obs.registry.snapshot(), label="shard"
            )
            return ObsMetricsView.from_snapshot(
                merged, prefix=ctx.envelope.payload.get("prefix")
            ).to_wire()

        return self._scatter(ctx, fold=fold)

    def _fed_obs_trace(self, ctx: RequestContext) -> dict:
        shard = self._job_shard(ctx)
        if shard is not None:
            return self._forward(ctx, shard)
        # Trace ids are globally unique (uuid-based): the one shard that
        # recorded the trace answers; every miss is a not-found.
        responses = self._scatter_responses(ctx)
        for _, response in responses:
            if response.get("ok"):
                return response
        return responses[0][1]

    # -- routed job ops --------------------------------------------------------
    def _route_to_job(self, ctx: RequestContext) -> dict:
        return self._forward(ctx, self._job_shard(ctx) or self._reference_shard())

    def _fed_job_submit(self, ctx: RequestContext) -> dict:
        payload = ctx.envelope.payload
        constraints = payload.get("constraints")
        constraints = constraints if isinstance(constraints, dict) else {}
        vantage_point = constraints.get("vantage_point")
        device_serial = constraints.get("device_serial")
        idempotency_key = payload.get("idempotency_key")
        if not isinstance(idempotency_key, str):
            idempotency_key = None
        owner = payload.get("owner")
        if not isinstance(owner, str) or not owner:
            owner = self._caller_username(ctx)
        target: Optional[FederationShard] = None
        sticky = self._directory.shard_for_submission(owner, idempotency_key)
        if sticky is not None:
            # A resubmission must reach the shard holding the original
            # job, even mid-drain — that is the whole point of the key.
            target = self._shard_by_id(sticky)
            if target is not None and target.state is ShardState.DETACHED:
                raise ConflictApiError(
                    f"the original submission lives on detached shard "
                    f"{sticky!r}; re-attach it with shard.add",
                    details={"shard_id": sticky},
                )
        if target is None:
            home = self._directory.shard_for_constraints(
                vantage_point if isinstance(vantage_point, str) else None,
                device_serial if isinstance(device_serial, str) else None,
            )
            if home is not None:
                shard = self._shard_by_id(home)
                if shard is not None and shard.state is ShardState.ACTIVE:
                    target = shard
                elif shard is not None:
                    raise ConflictApiError(
                        f"the constrained hardware lives on shard "
                        f"{home!r}, which is {shard.state.value} and not "
                        "taking new jobs",
                        details={"shard_id": home, "state": shard.state.value},
                    )
        if target is None:
            active = self._active()
            if not active:
                raise ConflictApiError(
                    "no active shard is taking new jobs; re-attach or wait "
                    "for a drain to finish"
                )
            key = None
            for candidate in (vantage_point, device_serial, owner):
                if isinstance(candidate, str) and candidate:
                    key = candidate
                    break
            chosen = rendezvous_shard(key or "", [s.shard_id for s in active])
            target = self._shard_by_id(chosen)
        response = self._forward(ctx, target)
        if response.get("ok"):
            self._directory.record_submission(
                owner, idempotency_key, target.shard_id
            )
        return response

    def _fed_session_reserve(self, ctx: RequestContext) -> dict:
        vantage_point = ctx.envelope.payload.get("vantage_point")
        home = None
        if isinstance(vantage_point, str):
            home = self._directory.vantage_points.get(vantage_point)
        if home is None:
            return self._forward(ctx, self._reference_shard())
        shard = self._shard_by_id(home)
        if shard is None or shard.state is ShardState.DETACHED:
            raise ConflictApiError(
                f"vantage point {vantage_point!r} lives on a detached shard",
                details={"vantage_point": vantage_point, "shard_id": home},
            )
        return self._forward(ctx, shard)

    def _fed_vantage_point_register(self, ctx: RequestContext) -> dict:
        name = ctx.envelope.payload.get("name")
        if isinstance(name, str) and name in self._directory.vantage_points:
            # Conflict-check federation-wide before placing: rendezvous
            # would otherwise happily register a duplicate name on a
            # different shard.
            raise ConflictApiError(
                f"a vantage point named {name!r} is already registered",
                details={"name": name},
            )
        active = self._active()
        if not active:
            raise ConflictApiError("no active shard can take new hardware")
        chosen = rendezvous_shard(
            name if isinstance(name, str) else "",
            [s.shard_id for s in active],
        )
        shard = self._shard_by_id(chosen)
        response = self._forward(ctx, shard)
        if response.get("ok"):
            self._directory.learn_shard(shard.shard_id, shard.server)
        return response

    def _route_credits(self, ctx: RequestContext) -> dict:
        owner = ctx.envelope.payload.get("owner")
        if not isinstance(owner, str) or not owner:
            owner = self._caller_username(ctx)
        # Rendezvous over the *full* lane set: an account's home shard must
        # not move when another shard drains, or balances would appear to
        # reset.  A detached home refuses rather than silently re-homing.
        home_id = rendezvous_shard(owner, [s.shard_id for s in self._lanes])
        shard = self._shard_by_id(home_id)
        if shard.state is ShardState.DETACHED:
            raise ConflictApiError(
                f"the credit account for {owner!r} lives on detached shard "
                f"{home_id!r}; re-attach it with shard.add",
                details={"owner": owner, "shard_id": home_id},
            )
        return self._forward(ctx, shard)

    _fed_credits_balance = _fed_credits_grant = _route_credits

    # -- routed agent ops ------------------------------------------------------
    def _fed_agent_register(self, ctx: RequestContext) -> dict:
        """Place an agent on one shard and remember the choice.

        A vantage-point binding pins the agent to the shard hosting that
        hardware (its jobs can only be claimable there); otherwise a
        re-registration goes home to its learned shard, and a brand-new
        unbound agent is placed by rendezvous over the active shards.
        """
        agent_id = ctx.envelope.payload.get("agent_id")
        agent_id = agent_id if isinstance(agent_id, str) else ""
        vantage_point = ctx.envelope.payload.get("vantage_point")
        home = self._directory.agents.get(agent_id)
        if isinstance(vantage_point, str):
            vp_home = self._directory.vantage_points.get(vantage_point)
            if vp_home is not None:
                home = vp_home
        target: Optional[FederationShard] = None
        if home is not None:
            target = self._shard_by_id(home)
            if target is not None and target.state is ShardState.DETACHED:
                raise ConflictApiError(
                    f"agent {agent_id!r} belongs on detached shard "
                    f"{home!r}; re-attach it with shard.add",
                    details={"agent_id": agent_id, "shard_id": home},
                )
        if target is None:
            active = self._active()
            if not active:
                raise ConflictApiError("no active shard can take new agents")
            target = self._shard_by_id(
                rendezvous_shard(agent_id, [s.shard_id for s in active])
            )
        response = self._forward(ctx, target)
        if response.get("ok"):
            self._directory.agents[agent_id] = target.shard_id
        return response

    def _route_agent(self, ctx: RequestContext) -> Optional[dict]:
        """Route to the agent's home shard: leases are shard-local state, so
        everything an agent does after registering must keep landing on the
        shard that granted them.  The owner token and ``complete`` ride
        along for ``agent.poll``: a poll the shard parks is cancelled with
        its connection and answers through ``complete``."""
        agent_id = ctx.envelope.payload.get("agent_id")
        home = (
            self._directory.agents.get(agent_id)
            if isinstance(agent_id, str)
            else None
        )
        if home is None:
            # Unknown agent: the reference shard emits the standalone
            # "unknown agent ...; register it first" not-found.
            return self._forward(ctx, self._reference_shard())
        shard = self._shard_by_id(home)
        if shard is None or shard.state is ShardState.DETACHED:
            raise ConflictApiError(
                f"agent {agent_id!r} belongs on detached shard {home!r}; "
                "re-attach it with shard.add",
                details={"agent_id": agent_id, "shard_id": home},
            )
        return self._forward(
            ctx, shard, owner=ctx.owner_token, complete=ctx.complete
        )

    _fed_agent_poll = _fed_agent_claim = _route_agent
    _fed_agent_heartbeat = _fed_agent_report = _route_agent

    # -- broadcast ops ---------------------------------------------------------
    def _fed_auth_login(self, ctx: RequestContext) -> dict:
        responses = self._scatter_responses(ctx)
        tokens: Dict[str, str] = {}
        home_response: Optional[dict] = None
        for shard_id, response in responses:
            if response.get("ok"):
                tokens[shard_id] = response["payload"]["session_token"]
                if home_response is None:
                    home_response = response
        if home_response is None:
            return responses[0][1]
        username = str(home_response["payload"].get("username", ""))
        fed_token = uuid.uuid4().hex
        self._sessions[fed_token] = _FedSession(username, tokens)
        merged = dict(home_response)
        merged_payload = dict(home_response["payload"])
        merged_payload["session_token"] = fed_token
        merged["payload"] = merged_payload
        return merged

    def _fed_auth_logout(self, ctx: RequestContext) -> dict:
        session = ctx.envelope.session
        fed = self._sessions.pop(session, None) if session is not None else None
        if fed is None:
            # Not a federated token: let the reference shard produce the
            # standalone behaviour (including the revoked=false case).
            return self._forward(ctx, self._reference_shard())
        revoked = False
        for shard in self._scatter_set():
            token = fed.tokens.get(shard.shard_id)
            if token is None:
                continue
            rewritten = dict(ctx.request)
            rewritten["session"] = token
            response = shard.router.handle(rewritten, secure=ctx.secure)
            if response.get("ok") and response["payload"].get("revoked"):
                revoked = True
        return ctx.ok({"revoked": revoked})

    def _fed_user_create(self, ctx: RequestContext) -> dict:
        """Create the account on every shard so credentials work fleet-wide.

        Succeeds if at least one shard accepted; shards answering
        ``resource.conflict`` already hold the account (a retry after a
        partial failure), which is the idempotent outcome we want.
        """
        responses = self._scatter_responses(ctx)
        for _, response in responses:
            if response.get("ok"):
                return response
        return responses[0][1]

    # -- streams ---------------------------------------------------------------
    def _new_fed_subscription(
        self,
        owner: Optional[object],
        username: str,
        push: Callable[[dict], None],
        watch: bool,
    ) -> _FedSubscription:
        with self._subscriptions_lock:
            fed_id = self._next_subscription_id
            self._next_subscription_id += 1
            sub = _FedSubscription(self, fed_id, owner, username, push, watch=watch)
            self._subscriptions[fed_id] = sub
        return sub

    def _forward_frame(
        self, sub: _FedSubscription, shard_id: str, frame: dict
    ) -> None:
        deliver_failed = False
        ended = False
        with sub.lock:
            if sub.closed:
                return
            dropped = frame.get("dropped", 0)
            sub.seq += dropped + 1
            out = dict(frame)
            out["subscription_id"] = sub.fed_id
            out["seq"] = sub.seq
            try:
                sub.push(out)
            except Exception:
                deliver_failed = True
            else:
                if sub.watch and frame.get("frame") == PUSH_FRAME_END:
                    # The shard already closed its own leg after the end
                    # frame; only the federated bookkeeping remains.
                    ended = True
                    sub.closed = True
        if deliver_failed:
            self._cancel_fed_subscription(sub.fed_id)
        elif ended:
            with self._subscriptions_lock:
                self._subscriptions.pop(sub.fed_id, None)

    def _cancel_fed_subscription(self, fed_id: int) -> bool:
        with self._subscriptions_lock:
            sub = self._subscriptions.pop(fed_id, None)
        if sub is None:
            return False
        with sub.lock:
            sub.closed = True
            legs = dict(sub.legs)
            sub.legs.clear()
        for shard_id, leg_id in legs.items():
            shard = self._shard_by_id(shard_id)
            if shard is not None:
                shard.router.cancel_subscription(leg_id)
        return True

    def _drop_shard_legs(self, shard_id: str) -> None:
        """Forget a detaching shard's legs (its router closes them itself)."""
        with self._subscriptions_lock:
            subs = list(self._subscriptions.values())
        for sub in subs:
            with sub.lock:
                sub.legs.pop(shard_id, None)

    def _fed_job_watch(self, ctx: RequestContext) -> dict:
        shard = self._job_shard(ctx)
        if shard is None:
            # A malformed ref cannot open a stream; the push rides along so
            # the shard's own gates let the request reach the validation
            # error a standalone server would emit.
            return self._forward(ctx, self._reference_shard(), push=ctx.push)
        sub = self._new_fed_subscription(
            ctx.owner_token, self._caller_username(ctx), ctx.push, watch=True
        )
        response = self._forward(
            ctx, shard, push=sub.leg_push(shard.shard_id), owner=sub
        )
        if not response.get("ok"):
            self._cancel_fed_subscription(sub.fed_id)
            return response
        leg_id = response["payload"]["subscription_id"]
        still_open = True
        with sub.lock:
            if sub.closed:
                # Terminal job: the end frame arrived inside handle().
                still_open = False
            else:
                sub.legs[shard.shard_id] = leg_id
        if not still_open:
            with self._subscriptions_lock:
                self._subscriptions.pop(sub.fed_id, None)
        rewritten = dict(response)
        rewritten_payload = dict(response["payload"])
        rewritten_payload["subscription_id"] = sub.fed_id
        rewritten["payload"] = rewritten_payload
        return rewritten

    def _fed_events_subscribe(self, ctx: RequestContext) -> dict:
        sub = self._new_fed_subscription(
            ctx.owner_token, self._caller_username(ctx), ctx.push, watch=False
        )
        opened: List[Tuple[FederationShard, int]] = []
        for shard in self._scatter_set():
            response = self._forward(
                ctx, shard, push=sub.leg_push(shard.shard_id), owner=sub
            )
            if not response.get("ok"):
                self._cancel_fed_subscription(sub.fed_id)
                return response
            opened.append((shard, response["payload"]["subscription_id"]))
        with sub.lock:
            for shard, leg_id in opened:
                sub.legs[shard.shard_id] = leg_id
        return ctx.ok(SubscriptionAck(subscription_id=sub.fed_id).to_wire())

    def _fed_subscription_cancel(self, ctx: RequestContext) -> dict:
        ref = SubscriptionRef.from_wire(ctx.envelope.payload)
        with self._subscriptions_lock:
            sub = self._subscriptions.get(ref.subscription_id)
        if sub is None:
            # Not federated: a pass-through-era shard subscription, or
            # simply unknown — the shards decide, with their own checks.
            responses = self._scatter_responses(ctx)
            for _, response in responses:
                if response.get("ok") and response["payload"].get("cancelled"):
                    return response
            return responses[0][1]
        user = self._authorize(ctx)
        if sub.username != user.username and user.role is not Role.ADMIN:
            raise PermissionApiError(
                "only the subscriber or an admin may cancel a subscription"
            )
        cancelled = self._cancel_fed_subscription(ref.subscription_id)
        return ctx.ok({"cancelled": cancelled})

    # -- shard admin plane -----------------------------------------------------
    def _shard_view(self, shard: FederationShard) -> ShardView:
        vantage_points = sorted(
            name
            for name, home in self._directory.vantage_points.items()
            if home == shard.shard_id
        )
        queued = running = pending = 0
        if shard.state is not ShardState.DETACHED:
            from repro.accessserver.jobs import JobStatus

            server = shard.server
            queued = server.scheduler.queue_length()
            running = len(server.scheduler.jobs(JobStatus.RUNNING))
            pending = len(server.pending_approval())
        return ShardView(
            shard_id=shard.shard_id,
            state=shard.state.value,
            vantage_points=vantage_points,
            queued_jobs=queued,
            running_jobs=running,
            pending_approval=pending,
        )

    def _fed_shard_list(self, ctx: RequestContext) -> dict:
        shards = sorted(self._lanes, key=lambda s: s.shard_id)
        return ShardListView(
            shards=[self._shard_view(shard) for shard in shards]
        ).to_wire()

    def _fed_shard_drain(self, ctx: RequestContext) -> dict:
        ref = ShardRef.from_wire(ctx.envelope.payload)
        shard = self._shard_by_id(ref.shard_id)
        if shard is None:
            raise NotFoundApiError(
                f"unknown shard {ref.shard_id!r}",
                details={"shards": [s.shard_id for s in self._lanes]},
            )
        if shard.state is ShardState.DETACHED:
            raise ConflictApiError(
                f"shard {ref.shard_id!r} is detached; nothing to drain"
            )
        if len(self._attached()) == 1:
            raise ConflictApiError(
                "refusing to drain the last attached shard; the federation "
                "would serve nothing"
            )
        # Draining: new placements stop immediately (the placement paths
        # only consider ACTIVE shards), then the in-flight work settles so
        # watches receive their end frames before any detach.  Parked
        # agent long-polls are woken now — a drain must not sit behind a
        # poll deadline (watches stay open; they get their end frames).
        shard.state = ShardState.DRAINING
        shard.router.cancel_parked_polls()
        shard.settle()
        shard.sync()
        return self._shard_view(shard).to_wire()

    def _fed_shard_remove(self, ctx: RequestContext) -> dict:
        ref = ShardRef.from_wire(ctx.envelope.payload)
        shard = self._shard_by_id(ref.shard_id)
        if shard is None:
            raise NotFoundApiError(f"unknown shard {ref.shard_id!r}")
        if shard.state is ShardState.ACTIVE:
            raise ConflictApiError(
                f"shard {ref.shard_id!r} is still active; drain it first "
                "(shard.drain) so in-flight jobs settle",
                details={"shard_id": ref.shard_id},
            )
        if shard.state is ShardState.DETACHED:
            raise ConflictApiError(f"shard {ref.shard_id!r} is already detached")
        shard.sync()
        shard.router.close_all_subscriptions()
        self._drop_shard_legs(shard.shard_id)
        shard.state = ShardState.DETACHED
        # Directory entries survive on purpose: the shard's hardware and
        # sticky submissions still *belong* to its lane, and a re-attach
        # under the same id finds them waiting.
        return self._shard_view(shard).to_wire()

    def _fed_shard_add(self, ctx: RequestContext) -> dict:
        ref = ShardRef.from_wire(ctx.envelope.payload)
        shard = self._shard_by_id(ref.shard_id)
        if shard is None:
            raise ConflictApiError(
                f"unknown shard {ref.shard_id!r}: the lane space is fixed at "
                "federation creation; shard.add re-attaches a detached lane",
                details={"shards": [s.shard_id for s in self._lanes]},
            )
        if shard.state is not ShardState.DETACHED:
            raise ConflictApiError(
                f"shard {ref.shard_id!r} is already attached "
                f"({shard.state.value})"
            )
        if self._shard_factory is None:
            raise ConflictApiError(
                "this federation has no shard factory configured; restart "
                "the router with one to support wire-driven re-attach"
            )
        rebuilt = self._shard_factory(ref.shard_id, shard.index, self._lane_count)
        if rebuilt.shard_id != ref.shard_id or rebuilt.index != shard.index:
            raise ConflictApiError(
                "shard factory returned a shard for the wrong lane",
                details={
                    "expected": {"shard_id": ref.shard_id, "index": shard.index},
                    "got": {"shard_id": rebuilt.shard_id, "index": rebuilt.index},
                },
            )
        rebuilt.state = ShardState.ACTIVE
        self._lanes[shard.index] = rebuilt
        self._directory.learn_shard(rebuilt.shard_id, rebuilt.server)
        return self._shard_view(rebuilt).to_wire()
