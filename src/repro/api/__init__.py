"""Platform API v1 — the versioned public face of BatteryLab.

The paper's core promise is *remote* access to battery-measurement
hardware; this package is the stable surface that makes the access server
remote-able.  Consumers never poke :class:`~repro.accessserver.server.AccessServer`
directly any more — they speak typed requests and responses through a
:class:`~repro.api.client.BatteryLabClient`:

* :mod:`repro.api.schemas` — versioned dataclass DTOs with strict
  ``to_wire()``/``from_wire()`` JSON round-tripping and ``API_VERSION``
  negotiation;
* :mod:`repro.api.errors` — the typed error taxonomy with stable
  machine-readable codes;
* :mod:`repro.api.ops` — the one operation table (name, permission,
  version, federation mode) and the envelope gates every router shares;
* :mod:`repro.api.router` — the table's handlers against one access
  server, with per-operation auth against the existing role matrix;
* :mod:`repro.api.client` — the client SDK and the transport abstraction;
* :mod:`repro.api.gateway` — a JSON-lines socket gateway plus its client
  transport, so the same client code drives a local simulation or a
  remote server.

Quickstart::

    from repro import build_default_platform

    platform = build_default_platform(seed=7)
    client = platform.client()                    # in-process transport
    view = client.submit_job("smoke", "noop")     # registered payload name
    platform.run_queue()
    print(client.job_results(view.job_id).status)
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.api.client import (
        BatteryLabClient,
        ClientPipeline,
        InProcessTransport,
        JobPage,
        JobWatch,
        PipelineResult,
        PushStream,
        Transport,
        in_process_client,
    )
    from repro.api.errors import (
        ALL_ERROR_CODES,
        ApiError,
        AuthenticationApiError,
        ConflictApiError,
        CreditApiError,
        ERROR_CODES,
        InternalApiError,
        NotFoundApiError,
        PermissionApiError,
        SessionApiError,
        TransportApiError,
        UnknownOperationApiError,
        V2_ERROR_CODES,
        ValidationApiError,
        VersionApiError,
        error_from_wire,
        map_exception,
    )
    from repro.api.gateway import ApiGateway, JsonLinesTransport
    from repro.api.ops import OPS, Op, RequestContext
    from repro.api.router import ApiRouter
    from repro.api.schemas import (
        API_VERSION,
        API_VERSION_V2,
        LATEST_API_VERSION,
        PUSH_FRAME_END,
        PUSH_FRAME_EVENT,
        PUSH_KIND,
        SUPPORTED_VERSIONS,
        AnalyticsReportRequest,
        AnalyticsReportView,
        AnalyticsTimeseriesRequest,
        AnalyticsTimeseriesView,
        ApiPush,
        ApiRequest,
        ApiResponse,
        AuthCredentials,
        CreateUserRequest,
        CreditQuery,
        CreditView,
        DeviceView,
        EventsSubscribeRequest,
        FleetView,
        GrantCreditsRequest,
        JobConstraintsV1,
        JobListRequest,
        JobRef,
        DeviceUsageView,
        JobCountsView,
        JobResultsView,
        JobView,
        JournalHealthView,
        LoginRequest,
        OwnerUsageView,
        PercentileStatsView,
        ReservationStatsView,
        TimeseriesBucketView,
        LogoutView,
        RegisterVantagePointRequest,
        ReservationView,
        ReserveSessionRequest,
        SessionView,
        StatusView,
        SubmitJobRequest,
        SubscriptionAck,
        SubscriptionRef,
        UserView,
        VantagePointView,
        WatchJobRequest,
        WireModel,
    )

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "client": (
            "BatteryLabClient",
            "ClientPipeline",
            "InProcessTransport",
            "JobPage",
            "JobWatch",
            "PipelineResult",
            "PushStream",
            "Transport",
            "in_process_client",
        ),
        "errors": (
            "ALL_ERROR_CODES",
            "ApiError",
            "AuthenticationApiError",
            "ConflictApiError",
            "CreditApiError",
            "ERROR_CODES",
            "InternalApiError",
            "NotFoundApiError",
            "PermissionApiError",
            "SessionApiError",
            "TransportApiError",
            "UnknownOperationApiError",
            "V2_ERROR_CODES",
            "ValidationApiError",
            "VersionApiError",
            "error_from_wire",
            "map_exception",
        ),
        "gateway": ("ApiGateway", "JsonLinesTransport"),
        "ops": ("OPS", "Op", "RequestContext"),
        "router": ("ApiRouter",),
        "schemas": (
            "API_VERSION",
            "API_VERSION_V2",
            "LATEST_API_VERSION",
            "PUSH_FRAME_END",
            "PUSH_FRAME_EVENT",
            "PUSH_KIND",
            "SUPPORTED_VERSIONS",
            "AnalyticsReportRequest",
            "AnalyticsReportView",
            "AnalyticsTimeseriesRequest",
            "AnalyticsTimeseriesView",
            "ApiPush",
            "ApiRequest",
            "ApiResponse",
            "AuthCredentials",
            "CreateUserRequest",
            "CreditQuery",
            "CreditView",
            "DeviceView",
            "EventsSubscribeRequest",
            "FleetView",
            "GrantCreditsRequest",
            "JobConstraintsV1",
            "JobListRequest",
            "JobRef",
            "DeviceUsageView",
            "JobCountsView",
            "JobResultsView",
            "JobView",
            "JournalHealthView",
            "LoginRequest",
            "OwnerUsageView",
            "PercentileStatsView",
            "ReservationStatsView",
            "TimeseriesBucketView",
            "LogoutView",
            "RegisterVantagePointRequest",
            "ReservationView",
            "ReserveSessionRequest",
            "SessionView",
            "StatusView",
            "SubmitJobRequest",
            "SubscriptionAck",
            "SubscriptionRef",
            "UserView",
            "VantagePointView",
            "WatchJobRequest",
            "WireModel",
        ),
    },
)
