"""Versioned request/response DTOs for Platform API v1.

Every object that crosses the API boundary — requests, views, the
request/response envelopes themselves — is a :class:`WireModel` dataclass
with strict ``to_wire()`` / ``from_wire()`` JSON round-tripping:

* ``to_wire()`` produces a dict containing only JSON primitives, lists and
  nested dicts, suitable for ``json.dumps`` with no custom encoder;
* ``from_wire()`` validates the payload *strictly*: unknown keys are
  rejected, required keys must be present, and every value is type-checked
  against the field annotation (the only coercion allowed is int → float).
  Fields with defaults may be omitted, which is what makes *adding* a field
  a compatible change within v1.

:data:`API_VERSION` travels in every envelope.  A server rejects versions
outside :data:`SUPPORTED_VERSIONS` with ``request.version_unsupported``, so
an incompatible client fails loudly at the first call instead of
misinterpreting payloads.  The golden tests in
``tests/test_api_schemas.py`` pin the exact wire form of every DTO; a
change that breaks them is a v1 compatibility break and needs a version
bump instead.

**Platform API v2** extends the same envelopes rather than replacing them:

* version negotiation — a request claims ``"1.0"`` or ``"2.0"``; responses
  echo the negotiated version, and v2-only operations (the admin control
  plane, streaming subscriptions, bearer sessions) are rejected on v1
  envelopes with ``request.version_unsupported``;
* v2-only envelope fields (``session`` on :class:`ApiRequest`, pagination
  on :class:`JobListRequest`, ``idempotency_key`` on
  :class:`SubmitJobRequest`) are *elided from the wire at their defaults*
  (``_ELIDE_WHEN_DEFAULT``), which is what keeps every v1 golden wire form
  byte-identical while still being parseable by the same DTO classes;
* server-pushed frames — :class:`ApiPush` carries streamed
  ``dispatch.*`` events and terminal ``job.watch`` frames, discriminated
  from responses by its always-present ``kind: "push"`` marker.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.errors import ValidationApiError

#: The v1 protocol version — still the default a bare client claims.
API_VERSION = "1.0"

#: The v2 protocol version: admin control plane, sessions, streaming.
API_VERSION_V2 = "2.0"

#: Newest version this server implements.
LATEST_API_VERSION = API_VERSION_V2

#: Versions this server accepts in request envelopes.
SUPPORTED_VERSIONS = ("1.0", "2.0")

#: Discriminator value marking a server-pushed frame (vs. a response).
PUSH_KIND = "push"

#: ``ApiPush.frame`` types: a streamed event, the terminal frame a
#: ``job.watch`` subscription ends with (carrying the final ``JobView``),
#: and the work an ``agent.subscribe`` stream offers (an ``AgentPollView``).
PUSH_FRAME_EVENT = "event"
PUSH_FRAME_END = "end"
PUSH_FRAME_OFFER = "offer"


def _is_optional(hint) -> bool:
    return typing.get_origin(hint) is typing.Union and type(None) in typing.get_args(hint)


def _strip_optional(hint):
    if not _is_optional(hint):
        return hint
    args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if len(args) != 1:
        raise TypeError(f"unsupported union type {hint!r}")
    return args[0]


def _wire_value(value):
    if isinstance(value, WireModel):
        return value.to_wire()
    if isinstance(value, (list, tuple)):
        return [_wire_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _wire_value(item) for key, item in value.items()}
    return value


def response_wire(
    version: str, request_id: int, payload: object = None, error: Optional[dict] = None
) -> Dict[str, object]:
    """The response envelope, built once: :class:`ApiResponse`'s wire form.

    A handler returns wire, so ``payload`` is wrapped by reference, not
    walked again; only an error's free-form ``details`` are.  The keys and
    their order are ``ApiResponse.to_wire()``'s.
    """
    return {
        "ok": error is None,
        "version": version,
        "request_id": request_id,
        "payload": payload,
        "error": None if error is None else _wire_value(error),
    }


def json_safe(value) -> bool:
    """Whether ``value`` survives a ``json.dumps``/``loads`` round trip."""
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


def _field_default(f: dataclasses.Field):
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return f.default_factory()  # type: ignore[misc]
    return dataclasses.MISSING


def _compile_checker(hint):
    """Build a ``check(name, value) -> converted`` closure for one annotation.

    Supports the types wire models are built from: primitives, ``Optional``,
    ``List``, nested :class:`WireModel` subclasses, and the free-form
    ``object`` / ``dict`` escape hatches used by envelopes.  A mismatch
    raises :class:`ValidationApiError` naming the field.  The ``typing``
    introspection runs here, once per field when a class's codec is
    compiled, not on the per-call path.
    """
    if _is_optional(hint):
        inner = _compile_checker(_strip_optional(hint))

        def check_optional(name, value):
            if value is None:
                return None
            return inner(name, value)

        return check_optional
    origin = typing.get_origin(hint)
    if origin in (list, typing.List):
        (item_hint,) = typing.get_args(hint)
        item_check = _compile_checker(item_hint)

        def check_list(name, value):
            if not isinstance(value, list):
                raise ValidationApiError(
                    f"field {name!r} must be a list", details={"field": name}
                )
            return [item_check(f"{name}[{i}]", item) for i, item in enumerate(value)]

        return check_list
    if isinstance(hint, type) and issubclass(hint, WireModel):

        def check_model(name, value):
            if isinstance(value, hint):
                return value
            if not isinstance(value, dict):
                raise ValidationApiError(
                    f"field {name!r} must be an object", details={"field": name}
                )
            return hint.from_wire(value)

        return check_model
    if hint is object:
        return lambda name, value: value
    if hint in (dict, Dict):

        def check_dict(name, value):
            if not isinstance(value, dict):
                raise ValidationApiError(
                    f"field {name!r} must be an object", details={"field": name}
                )
            return value

        return check_dict
    if hint is float:

        def check_float(name, value):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationApiError(
                    f"field {name!r} must be a number", details={"field": name}
                )
            return float(value)

        return check_float
    if hint is int:

        def check_int(name, value):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationApiError(
                    f"field {name!r} must be an integer", details={"field": name}
                )
            return value

        return check_int
    if hint is bool:

        def check_bool(name, value):
            if not isinstance(value, bool):
                raise ValidationApiError(
                    f"field {name!r} must be a boolean", details={"field": name}
                )
            return value

        return check_bool
    if hint is str:

        def check_str(name, value):
            if not isinstance(value, str):
                raise ValidationApiError(
                    f"field {name!r} must be a string", details={"field": name}
                )
            return value

        return check_str

    def check_unsupported(name, value):
        raise TypeError(f"unsupported wire field type {hint!r} for {name!r}")

    return check_unsupported


def _compile_encoder(hint):
    """How ``to_wire`` encodes one field's (non-``None``) value.

    ``None`` copies it as is, and is returned only for the primitives;
    ``list`` copies a ``List`` of primitives; a nested model encodes itself;
    anything else — the free-form ``object`` / ``dict`` fields — is walked
    by :func:`_wire_value`.
    """
    hint = _strip_optional(hint)
    if hint in (str, int, float, bool):
        return None
    if typing.get_origin(hint) in (list, typing.List):
        (item_hint,) = typing.get_args(hint)
        item = _compile_encoder(item_hint)
        return list if item is None else lambda value: [item(v) for v in value]
    if isinstance(hint, type) and issubclass(hint, WireModel):
        return hint.to_wire
    return _wire_value


class _WireCodec:
    """Per-class compiled wire schema: one tuple walk per call, no ``typing``."""

    __slots__ = ("known", "to_wire_plan", "from_wire_plan")

    def __init__(self, cls):
        hints = cls._hints()
        elide = set(cls._ELIDE_WHEN_DEFAULT)
        fields = dataclasses.fields(cls)
        self.known = frozenset(f.name for f in fields)
        # (name, elide_default | MISSING, encoder | None) — MISSING means
        # "always emit", a None encoder "copy as is".
        self.to_wire_plan = tuple(
            (
                f.name,
                _field_default(f) if f.name in elide else dataclasses.MISSING,
                _compile_encoder(hints[f.name]),
            )
            for f in fields
        )
        # (name, checker, required)
        self.from_wire_plan = tuple(
            (
                f.name,
                _compile_checker(hints[f.name]),
                f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING,  # type: ignore[misc]
            )
            for f in fields
        )


class WireModel:
    """Base class giving every DTO strict ``to_wire`` / ``from_wire``.

    Subclasses are plain dataclasses; the wire form is derived from the
    dataclass fields and their type annotations, so the dataclass *is* the
    schema.

    ``_ELIDE_WHEN_DEFAULT`` names fields that are *omitted* from
    ``to_wire()`` while they hold their default value.  This is the v2
    extension mechanism: a field added to a v1 DTO under this rule leaves
    every pre-existing wire form byte-identical (``from_wire`` already
    tolerates omitted defaulted fields), so v1 golden tests keep passing
    while v2 clients can set — and see — the new field.
    """

    _ELIDE_WHEN_DEFAULT: tuple = ()

    @classmethod
    def _hints(cls) -> Dict[str, object]:
        cached = cls.__dict__.get("_hints_cache")
        if cached is None:
            cached = typing.get_type_hints(cls)
            cls._hints_cache = cached
        return cached

    @classmethod
    def _codec(cls) -> _WireCodec:
        # Cached on the concrete class (cls.__dict__, not attribute lookup,
        # so subclasses never inherit a parent's compiled plan).
        codec = cls.__dict__.get("_codec_cache")
        if codec is None:
            codec = _WireCodec(cls)
            cls._codec_cache = codec
        return codec

    def to_wire(self) -> Dict[str, object]:
        wire: Dict[str, object] = {}
        missing = dataclasses.MISSING
        for name, elide_default, encode in self._codec().to_wire_plan:
            value = getattr(self, name)
            if elide_default is not missing and value == elide_default:
                continue
            wire[name] = value if encode is None or value is None else encode(value)
        return wire

    @classmethod
    def from_wire(cls, data: Dict[str, object]) -> "WireModel":
        if not isinstance(data, dict):
            raise ValidationApiError(
                f"{cls.__name__} payload must be an object",
                details={"schema": cls.__name__},
            )
        codec = cls._codec()
        if not data.keys() <= codec.known:
            unknown = sorted(set(data) - codec.known)
            raise ValidationApiError(
                f"{cls.__name__} does not accept field(s) {', '.join(map(repr, unknown))}",
                details={"schema": cls.__name__, "unknown_fields": unknown},
            )
        kwargs = {}
        for name, check, required in codec.from_wire_plan:
            if name in data:
                kwargs[name] = check(name, data[name])
            elif required:
                raise ValidationApiError(
                    f"{cls.__name__} is missing required field {name!r}",
                    details={"schema": cls.__name__, "missing_field": name},
                )
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Job DTOs
# ---------------------------------------------------------------------------


@dataclass
class JobConstraintsV1(WireModel):
    """Wire form of :class:`repro.accessserver.jobs.JobConstraints`.

    ``device_count`` / ``connector`` (v2, agent-pull) are elided at their
    defaults so every v1 golden wire form stays byte-identical.
    """

    _ELIDE_WHEN_DEFAULT = ("device_count", "connector")

    vantage_point: Optional[str] = None
    device_serial: Optional[str] = None
    connectivity: Optional[str] = None
    require_low_controller_cpu: bool = False
    max_controller_cpu_percent: float = 50.0
    device_count: int = 1
    connector: Optional[str] = None

    def to_domain(self):
        from repro.accessserver.jobs import job_constraints

        return job_constraints(
            vantage_point=self.vantage_point,
            device_serial=self.device_serial,
            connectivity=self.connectivity,
            require_low_controller_cpu=self.require_low_controller_cpu,
            max_controller_cpu_percent=self.max_controller_cpu_percent,
            device_count=self.device_count,
            connector=self.connector,
        )

    @classmethod
    def from_domain(cls, constraints) -> "JobConstraintsV1":
        return cls(
            vantage_point=constraints.vantage_point,
            device_serial=constraints.device_serial,
            connectivity=constraints.connectivity,
            require_low_controller_cpu=constraints.require_low_controller_cpu,
            max_controller_cpu_percent=constraints.max_controller_cpu_percent,
            device_count=constraints.device_count,
            connector=constraints.connector,
        )


@dataclass
class SubmitJobRequest(WireModel):
    """``job.submit`` request: everything needed to create one job.

    ``payload`` names a callable registered server-side with
    :func:`repro.accessserver.payloads.register_payload` — Python
    callables cannot cross a JSON wire, so the payload catalogue is the
    remote-able contract (exactly as journaled jobs already work).
    ``owner`` defaults to the authenticated user; submitting on behalf of
    someone else requires the admin role.

    ``idempotency_key`` (v2) makes retries safe over flaky transports:
    resubmitting the same ``(owner, key)`` pair returns the original job's
    view instead of enqueueing a duplicate.  ``execution`` (v2) selects
    push (server executor) or ``"agent"`` (queued until a daemon claims
    it; subscribed agents are offered it on their push stream).  Both
    are elided from the wire at their defaults, so v1 clients and goldens
    are untouched.
    """

    _ELIDE_WHEN_DEFAULT = ("idempotency_key", "execution")

    name: str
    payload: str
    owner: Optional[str] = None
    description: str = ""
    priority: float = 0.0
    timeout_s: float = 3600.0
    is_pipeline_change: bool = False
    log_retention_days: float = 7.0
    constraints: JobConstraintsV1 = field(default_factory=JobConstraintsV1)
    idempotency_key: Optional[str] = None
    execution: str = "push"


@dataclass
class JobView(WireModel):
    """``job.submit`` / ``job.status`` response: one job's public state."""

    job_id: int
    name: str
    owner: str
    status: str
    priority: float = 0.0
    timeout_s: float = 3600.0
    is_pipeline_change: bool = False
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    vantage_point: Optional[str] = None
    device_serial: Optional[str] = None
    error: Optional[str] = None

    @classmethod
    def from_job(cls, job) -> "JobView":
        return cls(
            job_id=job.job_id,
            name=job.spec.name,
            owner=job.spec.owner,
            status=job.status.value,
            priority=job.spec.priority,
            timeout_s=job.spec.timeout_s,
            is_pipeline_change=job.spec.is_pipeline_change,
            submitted_at=job.submitted_at,
            started_at=job.started_at,
            finished_at=job.finished_at,
            vantage_point=job.assigned_vantage_point,
            device_serial=job.assigned_device,
            error=job.error,
        )


@dataclass
class JobResultsView(WireModel):
    """``job.results`` response: outcome, logs and workspace inventory.

    ``result`` carries the payload's return value when it is JSON-safe
    (dicts of numbers, row lists, strings, ...); otherwise it is ``None``
    and ``result_repr`` still shows what the payload produced.
    """

    job_id: int
    status: str
    result: object = None
    result_repr: Optional[str] = None
    error: Optional[str] = None
    log_lines: List[str] = field(default_factory=list)
    artifact_names: List[str] = field(default_factory=list)

    @classmethod
    def from_job(cls, job) -> "JobResultsView":
        result = job.result if json_safe(job.result) else None
        return cls(
            job_id=job.job_id,
            status=job.status.value,
            result=result,
            result_repr=repr(job.result) if job.result is not None else None,
            error=job.error,
            log_lines=list(job.log_lines),
            artifact_names=job.artifact_names(),
        )


@dataclass
class JobRef(WireModel):
    """``job.status`` / ``job.cancel`` / ``job.results`` request: one job id."""

    job_id: int


@dataclass
class JobListRequest(WireModel):
    """``job.list`` request; ``status`` optionally filters by state name.

    v2 adds owner filtering and pagination so a fleet-scale queue is never
    shipped whole: ``limit``/``offset`` window the (id-ordered) result and
    the response reports the pre-window ``total``.  All three fields are
    elided at their defaults, keeping the v1 wire form intact.
    """

    _ELIDE_WHEN_DEFAULT = ("owner", "limit", "offset")

    status: Optional[str] = None
    owner: Optional[str] = None
    limit: Optional[int] = None
    offset: int = 0


# ---------------------------------------------------------------------------
# Sessions, credits, fleet, status
# ---------------------------------------------------------------------------


@dataclass
class ReserveSessionRequest(WireModel):
    """``session.reserve`` request: a timed interactive slot on one device."""

    vantage_point: str
    device_serial: str
    start_s: float
    duration_s: float


@dataclass
class ReservationView(WireModel):
    """``session.reserve`` response: the booked slot."""

    reservation_id: int
    username: str
    vantage_point: str
    device_serial: str
    start_s: float
    duration_s: float
    end_s: float

    @classmethod
    def from_reservation(cls, reservation) -> "ReservationView":
        return cls(
            reservation_id=reservation.reservation_id,
            username=reservation.username,
            vantage_point=reservation.vantage_point,
            device_serial=reservation.device_serial,
            start_s=reservation.start_s,
            duration_s=reservation.duration_s,
            end_s=reservation.start_s + reservation.duration_s,
        )


@dataclass
class CreditView(WireModel):
    """``credits.balance`` response: one account's standing."""

    owner: str
    balance_device_hours: float
    contributes_hardware: bool = False
    transaction_count: int = 0

    @classmethod
    def from_account(cls, account) -> "CreditView":
        return cls(
            owner=account.owner,
            balance_device_hours=account.balance_device_hours,
            contributes_hardware=account.contributes_hardware,
            transaction_count=len(account.transactions),
        )


@dataclass
class CreditQuery(WireModel):
    """``credits.balance`` request; admins may name another ``owner``."""

    owner: Optional[str] = None


@dataclass
class DeviceView(WireModel):
    """One test device slot as seen by the dispatcher.

    ``held_by`` (v2, elided when unset) names the agent whose lease holds
    this slot, so ``fleet`` output distinguishes agent-held devices from
    push-dispatched ones.
    """

    _ELIDE_WHEN_DEFAULT = ("held_by",)

    serial: str
    busy: bool = False
    held_by: Optional[str] = None


@dataclass
class VantagePointView(WireModel):
    """One registered vantage point and its device inventory."""

    name: str
    institution: str
    dns_name: str
    approved: bool = True
    devices: List[DeviceView] = field(default_factory=list)


@dataclass
class FleetView(WireModel):
    """``fleet.list`` response: every vantage point with live busy flags."""

    vantage_points: List[VantagePointView] = field(default_factory=list)

    def device_serials(self) -> List[str]:
        return [d.serial for vp in self.vantage_points for d in vp.devices]


@dataclass
class JournalHealthView(WireModel):
    """Write-ahead journal health inside ``server.status`` (v2 addition).

    ``records`` is the journal's lifetime sequence number;
    ``records_since_snapshot`` is the replay cost a crash right now would
    pay, and ``last_snapshot_at`` (simulated time) shows compaction lag —
    the remote operator's view of the durability subsystem.
    """

    records: int = 0
    records_since_snapshot: int = 0
    snapshots_written: int = 0
    last_snapshot_at: Optional[float] = None


@dataclass
class StatusView(WireModel):
    """``server.status`` response: platform-wide operational state.

    ``orphaned_jobs`` lists queued/pending job ids pinned to a vantage
    point that is *not currently registered* — after crash recovery these
    are the journaled jobs waiting for an operator to re-register the
    topology (``orphaned_vantage_points`` names what is missing).

    ``journal`` (v2 addition, elided when persistence is off) surfaces the
    write-ahead journal's health so operators can watch compaction lag
    remotely.

    ``shard_id`` (v2 addition, elided for the historical single-server
    deployment) names which federation shard answered — a status routed
    through the federation router reports the merged fleet and elides it.
    """

    _ELIDE_WHEN_DEFAULT = ("journal", "shard_id")

    api_version: str
    vantage_points: List[str] = field(default_factory=list)
    users: List[str] = field(default_factory=list)
    queued_jobs: int = 0
    pending_approval: int = 0
    scheduling_policy: str = "fifo"
    reservation_admission: str = "ignore"
    auto_dispatch: bool = False
    persistence: bool = False
    certificate_serial: Optional[int] = None
    orphaned_jobs: List[int] = field(default_factory=list)
    orphaned_vantage_points: List[str] = field(default_factory=list)
    journal: Optional[JournalHealthView] = None
    shard_id: Optional[str] = None


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


@dataclass
class AuthCredentials(WireModel):
    """Per-request credentials; the gateway is stateless by design."""

    username: str
    token: str


@dataclass
class ApiRequest(WireModel):
    """The request envelope every transport carries.

    v2 requests may replace the per-request ``auth`` credentials with a
    bearer ``session`` token obtained from ``auth.login``.  ``trace_id``
    lets a caller supply its own trace identifier so spans recorded across
    several calls correlate; the server mints one otherwise.  Both fields
    are elided when unset, so the v1 wire form is unchanged.
    """

    _ELIDE_WHEN_DEFAULT = ("session", "trace_id")

    op: str
    version: str = API_VERSION
    auth: Optional[AuthCredentials] = None
    payload: dict = field(default_factory=dict)
    request_id: int = 0
    session: Optional[str] = None
    trace_id: Optional[str] = None


@dataclass
class ApiResponse(WireModel):
    """The response envelope: exactly one of ``payload`` / ``error`` is set."""

    ok: bool
    version: str = API_VERSION
    request_id: int = 0
    payload: Optional[dict] = None
    error: Optional[dict] = None


# ---------------------------------------------------------------------------
# Platform API v2: sessions, admin control plane, streaming
# ---------------------------------------------------------------------------


@dataclass
class LoginRequest(WireModel):
    """``auth.login`` request; credentials ride in the envelope's ``auth``."""

    ttl_s: Optional[float] = None


@dataclass
class SessionView(WireModel):
    """``auth.login`` response: the bearer token, shown exactly once."""

    session_token: str
    username: str
    role: str
    issued_at: float
    expires_at: float


@dataclass
class LogoutView(WireModel):
    """``auth.logout`` response; ``revoked`` is false for unknown sessions."""

    revoked: bool


@dataclass
class RegisterVantagePointRequest(WireModel):
    """``vantage-point.register``: admit a new member node over the wire.

    The access server assembles and provisions the (simulated) controller,
    devices and power meter exactly as the in-process join procedure does
    (Section 3.4); ``device_profile`` names a built-in hardware profile.
    """

    name: str
    institution: str
    contact_email: str = ""
    public_address: str = ""
    device_count: int = 1
    device_profile: str = "samsung-j7-duo"


@dataclass
class GrantCreditsRequest(WireModel):
    """``credits.grant``: administrative balance adjustment (device-hours)."""

    owner: str
    amount_device_hours: float
    note: str = ""


@dataclass
class CreateUserRequest(WireModel):
    """``user.create``: open a platform account remotely (admin only)."""

    username: str
    role: str
    token: str
    email: str = ""


@dataclass
class UserView(WireModel):
    """``user.create`` response: the account as the platform sees it."""

    username: str
    role: str
    email: str = ""
    enabled: bool = True


@dataclass
class WatchJobRequest(WireModel):
    """``job.watch``: subscribe to one job's ``dispatch.*`` events."""

    job_id: int


@dataclass
class EventsSubscribeRequest(WireModel):
    """``events.subscribe``: subscribe to bus events by topic prefix."""

    topic_prefix: str = "dispatch."


@dataclass
class SubscriptionRef(WireModel):
    """``subscription.cancel`` request: one subscription id."""

    subscription_id: int


@dataclass
class SubscriptionAck(WireModel):
    """Streaming-op response: the id pushes will carry, plus — for
    ``job.watch`` — the job's state at subscription time."""

    subscription_id: int
    job: Optional[JobView] = None


@dataclass
class ApiPush(WireModel):
    """A server-pushed frame, multiplexed between responses on the wire.

    ``kind`` is always ``"push"`` so a streaming client can discriminate
    frames before strict parsing; responses never carry a ``kind`` key.
    ``seq`` increases per subscription, letting consumers detect gaps.
    ``frame`` is :data:`PUSH_FRAME_EVENT` for streamed bus events (``topic``
    and ``payload`` mirror the :class:`~repro.simulation.events.BusEvent`),
    :data:`PUSH_FRAME_END` when a ``job.watch`` reaches a terminal state
    (``payload["job"]`` holds the final :class:`JobView` wire form), or
    :data:`PUSH_FRAME_OFFER` on an ``agent.subscribe`` stream (the payload
    is an :class:`AgentPollView`).

    ``dropped`` is the slow-consumer back-pressure counter: when the
    gateway's bounded per-connection push queue overflows, event frames
    are discarded (oldest first; terminal ``end`` frames never drop) and
    the next delivered frame of the same subscription carries how many
    were lost — under the usual evict-oldest path that equals its ``seq``
    gap.  Elided at 0, so well-behaved consumers never see the field.
    """

    subscription_id: int
    frame: str = PUSH_FRAME_EVENT
    seq: int = 0
    topic: Optional[str] = None
    timestamp: float = 0.0
    payload: dict = field(default_factory=dict)
    kind: str = PUSH_KIND
    version: str = API_VERSION_V2
    dropped: int = 0

    _ELIDE_WHEN_DEFAULT = ("dropped",)


# ---------------------------------------------------------------------------
# Platform API v2: operations analytics
# ---------------------------------------------------------------------------


@dataclass
class AnalyticsReportRequest(WireModel):
    """``analytics.report`` request; ``owner`` narrows the owners table."""

    owner: Optional[str] = None


@dataclass
class PercentileStatsView(WireModel):
    """Distribution summary (nearest-rank percentiles) for a duration set."""

    samples: int = 0
    mean_s: float = 0.0
    p50_s: float = 0.0
    p90_s: float = 0.0
    p99_s: float = 0.0
    max_s: float = 0.0

    @classmethod
    def from_stats(cls, stats: dict) -> "PercentileStatsView":
        return cls(**stats)


@dataclass
class JobCountsView(WireModel):
    """Fleet-wide job lifecycle counters (terminal + current backlog)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    requeues: int = 0
    running: int = 0
    queued: int = 0
    pending_approval: int = 0


@dataclass
class OwnerUsageView(WireModel):
    """One owner's utilisation and credit movement."""

    owner: str
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    device_seconds: float = 0.0
    queue_wait_s: float = 0.0
    credits_burned_device_hours: float = 0.0
    credits_granted_device_hours: float = 0.0


@dataclass
class DeviceUsageView(WireModel):
    """One device slot's occupancy and health over the report window."""

    vantage_point: str
    device_serial: str
    assignments: int = 0
    requeues: int = 0
    completed: int = 0
    failed: int = 0
    busy_seconds: float = 0.0
    failure_rate: float = 0.0
    occupancy: float = 0.0


@dataclass
class ReservationStatsView(WireModel):
    """Interactive-session booking counters."""

    created: int = 0
    cancelled: int = 0
    booked_device_hours: float = 0.0


@dataclass
class AnalyticsReportView(WireModel):
    """``analytics.report`` response: the materialised operations report.

    Derived deterministically from the platform's event-sourced record
    stream — the identical report is produced whether the server folded
    events live or cold-replayed its write-ahead journal.
    """

    records_folded: int = 0
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None
    jobs: JobCountsView = field(default_factory=JobCountsView)
    owners: List[OwnerUsageView] = field(default_factory=list)
    queue_wait: PercentileStatsView = field(default_factory=PercentileStatsView)
    run_time: PercentileStatsView = field(default_factory=PercentileStatsView)
    devices: List[DeviceUsageView] = field(default_factory=list)
    reservations: ReservationStatsView = field(default_factory=ReservationStatsView)

    @classmethod
    def from_report(
        cls, report: dict, owner: Optional[str] = None
    ) -> "AnalyticsReportView":
        """Build the wire view from an engine ``report()`` dict."""
        owners = [
            OwnerUsageView(**row)
            for row in report.get("owners", [])
            if owner is None or row.get("owner") == owner
        ]
        window = report.get("window", {})
        return cls(
            records_folded=report.get("records_folded", 0),
            first_ts=window.get("first_ts"),
            last_ts=window.get("last_ts"),
            jobs=JobCountsView(**report.get("jobs", {})),
            owners=owners,
            queue_wait=PercentileStatsView.from_stats(report.get("queue_wait", {})),
            run_time=PercentileStatsView.from_stats(report.get("run_time", {})),
            devices=[DeviceUsageView(**row) for row in report.get("devices", [])],
            reservations=ReservationStatsView(**report.get("reservations", {})),
        )


@dataclass
class AnalyticsTimeseriesRequest(WireModel):
    """``analytics.timeseries`` request: desired bucket width in seconds."""

    bucket_s: float = 60.0


@dataclass
class TimeseriesBucketView(WireModel):
    """One throughput bucket: job flow counters in ``[start_s, start_s+bucket_s)``."""

    start_s: float
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0


@dataclass
class AnalyticsTimeseriesView(WireModel):
    """``analytics.timeseries`` response: fleet throughput over time."""

    bucket_s: float = 60.0
    buckets: List[TimeseriesBucketView] = field(default_factory=list)

    @classmethod
    def from_timeseries(cls, timeseries: dict) -> "AnalyticsTimeseriesView":
        return cls(
            bucket_s=timeseries.get("bucket_s", 60.0),
            buckets=[
                TimeseriesBucketView(**bucket)
                for bucket in timeseries.get("buckets", [])
            ],
        )


# ---------------------------------------------------------------------------
# Platform API v2: observability (obs.metrics / obs.trace)
# ---------------------------------------------------------------------------


@dataclass
class ObsMetricsRequest(WireModel):
    """``obs.metrics`` request; ``prefix`` narrows to one metric namespace
    (e.g. ``"gateway_"``) so dashboards fetch only what they chart."""

    prefix: Optional[str] = None


@dataclass
class MetricSampleView(WireModel):
    """One counter or gauge child: metric name, label set, current value."""

    name: str
    value: float = 0.0
    labels: dict = field(default_factory=dict)


@dataclass
class HistogramSampleView(WireModel):
    """One histogram child: per-bucket counts plus running sum/count.

    ``counts`` has ``len(bounds) + 1`` entries — the final entry is the
    implicit overflow (+Inf) bucket, mirroring the in-process layout.
    """

    name: str
    count: int = 0
    sum: float = 0.0
    bounds: List[float] = field(default_factory=list)
    counts: List[int] = field(default_factory=list)
    labels: dict = field(default_factory=dict)


@dataclass
class ObsMetricsView(WireModel):
    """``obs.metrics`` response: one full registry snapshot.

    ``generated_at`` is simulated time (aligned with journal and bus
    records); ``enabled`` reports whether telemetry was live when the
    snapshot was taken — a dark registry still answers, with stale values.
    """

    generated_at: float = 0.0
    enabled: bool = True
    counters: List[MetricSampleView] = field(default_factory=list)
    gauges: List[MetricSampleView] = field(default_factory=list)
    histograms: List[HistogramSampleView] = field(default_factory=list)

    @classmethod
    def from_snapshot(
        cls, snapshot: dict, prefix: Optional[str] = None
    ) -> "ObsMetricsView":
        """Build the wire view from :meth:`MetricsRegistry.snapshot`."""

        def keep(sample: dict) -> bool:
            return prefix is None or sample["name"].startswith(prefix)

        return cls(
            generated_at=snapshot.get("generated_at", 0.0),
            enabled=snapshot.get("enabled", True),
            counters=[
                MetricSampleView(**s) for s in snapshot.get("counters", []) if keep(s)
            ],
            gauges=[
                MetricSampleView(**s) for s in snapshot.get("gauges", []) if keep(s)
            ],
            histograms=[
                HistogramSampleView(**s)
                for s in snapshot.get("histograms", [])
                if keep(s)
            ],
        )

    def to_snapshot(self) -> dict:
        """The primitive snapshot shape, for text rendering client-side
        (:func:`repro.obs.render_snapshot`)."""
        return {
            "generated_at": self.generated_at,
            "enabled": self.enabled,
            "counters": [
                {"name": s.name, "labels": s.labels, "value": s.value}
                for s in self.counters
            ],
            "gauges": [
                {"name": s.name, "labels": s.labels, "value": s.value}
                for s in self.gauges
            ],
            "histograms": [
                {
                    "name": s.name,
                    "labels": s.labels,
                    "count": s.count,
                    "sum": s.sum,
                    "bounds": s.bounds,
                    "counts": s.counts,
                }
                for s in self.histograms
            ],
        }


@dataclass
class ObsTraceRequest(WireModel):
    """``obs.trace`` request: look a trace up by its id or by a job id."""

    trace_id: Optional[str] = None
    job_id: Optional[int] = None


@dataclass
class SpanView(WireModel):
    """One recorded span of a trace (matches the ``trace.span`` bus record)."""

    trace_id: str
    span_id: str
    name: str
    start: float = 0.0
    end: float = 0.0
    elapsed_s: float = 0.0
    status: str = "ok"
    parent_id: Optional[str] = None
    attrs: dict = field(default_factory=dict)

    @classmethod
    def from_span(cls, span) -> "SpanView":
        return cls(
            trace_id=span.trace_id,
            span_id=span.span_id,
            name=span.name,
            start=span.start,
            end=span.end if span.end is not None else span.start,
            elapsed_s=span.elapsed_s if span.elapsed_s is not None else 0.0,
            status=span.status,
            parent_id=span.parent_id,
            attrs=dict(span.attrs),
        )


@dataclass
class ObsTraceView(WireModel):
    """``obs.trace`` response: every retained span of one trace, in
    recording order (submit → admit → run → settle for a job trace)."""

    trace_id: str
    spans: List[SpanView] = field(default_factory=list)
    job_id: Optional[int] = None


# ---------------------------------------------------------------------------
# Federation admin plane (shard.list / shard.add / shard.drain / shard.remove)
# ---------------------------------------------------------------------------


@dataclass
class ShardRef(WireModel):
    """``shard.add`` / ``shard.drain`` / ``shard.remove`` request: one shard."""

    shard_id: str


@dataclass
class ShardView(WireModel):
    """One federation shard as the router sees it.

    ``state`` is the drain state machine's position: ``active`` (taking new
    placements), ``draining`` (no new placements; in-flight jobs settling)
    or ``detached`` (removed; its directory entries are retained so a
    restarted shard re-attaches under the same name).
    """

    shard_id: str
    state: str = "active"
    vantage_points: List[str] = field(default_factory=list)
    queued_jobs: int = 0
    running_jobs: int = 0
    pending_approval: int = 0


@dataclass
class ShardListView(WireModel):
    """``shard.list`` response: every shard in deterministic id order."""

    shards: List[ShardView] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Platform API v2: agent-pull execution
# (agent.register / agent.poll / agent.claim / agent.heartbeat / agent.report)
# ---------------------------------------------------------------------------


@dataclass
class AgentRegisterRequest(WireModel):
    """``agent.register``: a vantage-point daemon announces itself.

    Idempotent — daemons re-register on every start to refresh their
    connector inventory and tags; only the first registration is journaled.
    """

    agent_id: str
    vantage_point: Optional[str] = None
    connectors: List[str] = field(default_factory=list)
    tags: dict = field(default_factory=dict)


@dataclass
class AgentView(WireModel):
    """``agent.register`` response: the registry's view of one daemon."""

    agent_id: str
    vantage_point: Optional[str] = None
    connectors: List[str] = field(default_factory=list)
    tags: dict = field(default_factory=dict)
    registered_at: float = 0.0
    created: bool = False

    @classmethod
    def from_record(cls, record, created: bool = False) -> "AgentView":
        return cls(
            agent_id=record.agent_id,
            vantage_point=record.vantage_point,
            connectors=list(record.connectors),
            tags=dict(sorted(record.tags.items())),
            registered_at=record.registered_at,
            created=created,
        )


@dataclass
class AgentPollRequest(WireModel):
    """``agent.poll`` and ``agent.subscribe``: the jobs ``agent_id`` could claim.

    ``agent.poll`` answers at once with what is claimable now.  An agent
    waits for work on an ``agent.subscribe`` stream instead, whose
    ``offer`` frames carry the same :class:`AgentPollView`; either request
    re-arms the stream after a frame (see DESIGN.md, *Offer push*).
    """

    agent_id: str
    limit: int = 10


@dataclass
class JobOfferView(WireModel):
    """One claimable job inside an ``agent.poll`` response."""

    job_id: int
    name: str
    owner: str
    priority: float = 0.0
    device_count: int = 1
    connector: Optional[str] = None
    vantage_point: Optional[str] = None


@dataclass
class AgentPollView(WireModel):
    """``agent.poll`` response and ``offer`` frame payload: claimable jobs
    in dispatch order."""

    offers: List[JobOfferView] = field(default_factory=list)


@dataclass
class AgentClaimRequest(WireModel):
    """``agent.claim``: atomically claim one offered job and its devices.

    Multi-device jobs claim all ``device_count`` slots or fail with
    ``agent.claim_conflict`` — never a partial hold.
    """

    agent_id: str
    job_id: int
    ttl_s: float = 30.0


@dataclass
class DeviceAssignmentView(WireModel):
    """One ``(vantage_point, device_serial)`` slot held by a lease."""

    vantage_point: str
    device_serial: str


@dataclass
class AgentLeaseView(WireModel):
    """``agent.claim`` / ``agent.heartbeat`` response: the live lease.

    ``devices[0]`` is the primary slot the job is assigned to; the rest
    are child slots reserved for the ``multi`` connector's children.
    """

    lease_id: str
    agent_id: str
    job_id: int
    devices: List[DeviceAssignmentView] = field(default_factory=list)
    ttl_s: float = 30.0
    expires_at: float = 0.0
    payload: Optional[str] = None
    job_name: str = ""
    owner: str = ""
    timeout_s: float = 3600.0

    @classmethod
    def from_lease(cls, lease, job=None, payload: Optional[str] = None) -> "AgentLeaseView":
        return cls(
            lease_id=lease.lease_id,
            agent_id=lease.agent_id,
            job_id=lease.job_id,
            devices=[
                DeviceAssignmentView(vantage_point=vp, device_serial=serial)
                for vp, serial in lease.devices
            ],
            ttl_s=lease.ttl_s,
            expires_at=lease.expires_at,
            payload=payload,
            job_name=job.spec.name if job is not None else "",
            owner=job.spec.owner if job is not None else "",
            timeout_s=job.spec.timeout_s if job is not None else 3600.0,
        )


@dataclass
class AgentHeartbeatRequest(WireModel):
    """``agent.heartbeat``: renew a lease before its TTL lapses.

    ``agent_id`` rides along so a federation router can route the renewal
    to the shard that granted the lease.
    """

    lease_id: str
    agent_id: str


@dataclass
class ChildResultView(WireModel):
    """One child device's outcome inside a multi-device report."""

    device_serial: str
    status: str
    vantage_point: Optional[str] = None
    output: Optional[str] = None


@dataclass
class AgentReportRequest(WireModel):
    """``agent.report``: upload a claimed job's terminal outcome.

    Reports are idempotent: re-reporting a recently settled lease returns
    the finished job with ``duplicate`` set instead of double-settling —
    this is what makes the daemon's journal-backed outbox exactly-once.
    """

    lease_id: str
    agent_id: str
    status: str
    result: object = None
    error: Optional[str] = None
    children: List[ChildResultView] = field(default_factory=list)


@dataclass
class AgentReportView(WireModel):
    """``agent.report`` response; ``duplicate`` (elided when false) marks
    an idempotent replay of an already-settled report."""

    _ELIDE_WHEN_DEFAULT = ("duplicate",)

    job: JobView
    duplicate: bool = False
