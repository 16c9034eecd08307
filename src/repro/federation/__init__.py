"""Horizontally sharded access servers behind a scatter-gather router.

The federation layer (PR 8) lets one BatteryLab deployment outgrow a
single access-server process without touching the wire protocol: N
shards — each a complete platform with its own state directory,
write-ahead journal, gateway-compatible router and telemetry — sit
behind a :class:`FederationRouter` that speaks unmodified Platform API
v2.  Existing clients, goldens and streaming consumers work against a
federation exactly as they do against one server.

Modules:

* :mod:`repro.federation.placement` — job-id lanes, rendezvous hashing
  and the learned placement directory (sticky idempotency keys,
  hardware homes).
* :mod:`repro.federation.shard` — :class:`FederationShard` plus the
  ``build_shard`` / ``build_federation_shards`` assembly helpers that
  wire a shard's lane allocator in before journal recovery.
* :mod:`repro.federation.merge` — deterministic folds for scattered
  reads (``fleet.list``, ``job.list``, ``server.status``, analytics,
  metrics).
* :mod:`repro.federation.router` — the :class:`FederationRouter`
  itself: routing, scatter-gather, federated sessions, merged push
  streams and the ``shard.*`` admin plane (drain → detach → re-attach).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.federation.merge import (
        merge_approvals,
        merge_fleet,
        merge_job_list,
        merge_report,
        merge_status,
        merge_timeseries,
    )
    from repro.federation.placement import (
        PlacementDirectory,
        ShardState,
        lane_of_job,
        rendezvous_shard,
    )
    from repro.federation.router import FederationRouter
    from repro.federation.shard import (
        FederationShard,
        build_federation_shards,
        build_shard,
    )

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "merge": (
            "merge_approvals",
            "merge_fleet",
            "merge_job_list",
            "merge_report",
            "merge_status",
            "merge_timeseries",
        ),
        "placement": (
            "PlacementDirectory",
            "ShardState",
            "lane_of_job",
            "rendezvous_shard",
        ),
        "router": ("FederationRouter",),
        "shard": ("FederationShard", "build_federation_shards", "build_shard"),
    },
)
