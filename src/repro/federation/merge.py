"""Deterministic merges for scattered read responses.

Every function here takes the *wire payloads* the shards returned — the
exact dicts an :class:`~repro.api.router.ApiRouter` produced — and folds
them into one payload of the same schema.  Three rules keep the merged
views honest and byte-stable:

* **Stable order.**  Wherever a single server guarantees an order
  (``job.list`` by id, analytics owners by name, devices by
  ``(vantage_point, serial)``), the merge re-establishes that order over
  the union, keyed only on the data — never on shard arrival order.
* **Counters add, windows extend.**  Counts and durations sum; report
  windows take the min/max of the shard windows; gauges that are really
  fleet facts (``queued_jobs``) sum.
* **Percentiles merge by weight.**  Exact fleet percentiles would need
  the raw samples, which the shards deliberately do not ship; the merged
  ``p50/p90/p99`` are the sample-count-weighted average of the shard
  percentiles — deterministic, exact when shards see similar
  distributions, and clearly documented as an estimate in DESIGN.md.
  ``max`` and ``samples`` are exact.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Dict, List, Optional, Tuple

__all__ = [
    "merge_approvals",
    "merge_fleet",
    "merge_job_list",
    "merge_report",
    "merge_status",
    "merge_timeseries",
]

#: Shard payloads tagged with their shard id, in sorted-shard-id order.
TaggedPayloads = List[Tuple[str, dict]]


def _round6(value: float) -> float:
    return round(float(value), 6)


def merge_fleet(payloads: TaggedPayloads) -> dict:
    """Union of the shards' ``fleet.list`` views, sorted by vantage point."""
    vantage_points = []
    for _, payload in payloads:
        vantage_points.extend(payload.get("vantage_points", []))
    vantage_points.sort(key=lambda vp: vp.get("name", ""))
    return {"vantage_points": vantage_points}


def merge_job_list(
    payloads: TaggedPayloads, offset: int = 0, limit: Optional[int] = None
) -> dict:
    """Global ``job.list``: the id-ordered union, windowed after the merge.

    Each shard answers with the id-ordered head of its filtered set, up to
    ``offset + limit`` jobs (all of them when ``limit`` is ``None``): no
    job past that head can land in the page, because every job before it
    on the same shard sorts ahead of it globally.  The heads merge by id
    and ``[offset, offset + limit)`` of the merge is the page a single
    server holding every job would have returned; ``total`` sums the
    shards' pre-window totals.
    """
    heads = [payload.get("jobs", []) for _, payload in payloads]
    merged = heapq.merge(*heads, key=lambda job: job.get("job_id", 0))
    stop = None if limit is None else offset + limit
    return {
        "jobs": list(islice(merged, offset, stop)),
        "total": sum(payload.get("total", 0) for _, payload in payloads),
        "offset": offset,
        "limit": limit,
    }


def merge_approvals(payloads: TaggedPayloads) -> dict:
    """Union of the shards' approval queues, id-ordered."""
    jobs = []
    for _, payload in payloads:
        jobs.extend(payload.get("jobs", []))
    jobs.sort(key=lambda job: job.get("job_id", 0))
    return {"jobs": jobs}


def merge_status(payloads: TaggedPayloads, api_version: str) -> dict:
    """Fleet-wide ``server.status``: sums, unions, merged journal health.

    The merged view describes the federation, not any one process, so
    ``shard_id`` is absent (a directly-addressed shard reports its own)
    and ``certificate_serial`` is ``None`` — each shard serves its own
    certificate and a single serial would be a lie.  Policy fields take
    the first shard's value; :class:`~repro.federation.router.FederationRouter`
    deploys homogeneous policies.  ``auto_dispatch``/``persistence`` are
    true only when true on *every* shard — the conservative reading for
    an operator deciding whether the fleet self-drives or survives a
    crash.
    """
    first = payloads[0][1]
    vantage_points: List[str] = []
    users: set = set()
    orphaned_jobs: List[int] = []
    orphaned_vps: set = set()
    queued = pending = 0
    auto_dispatch = True
    persistence = True
    journal_records = journal_since = journal_snapshots = 0
    journal_last: Optional[float] = None
    any_journal = False
    for _, payload in payloads:
        vantage_points.extend(payload.get("vantage_points", []))
        users.update(payload.get("users", []))
        queued += payload.get("queued_jobs", 0)
        pending += payload.get("pending_approval", 0)
        auto_dispatch = auto_dispatch and payload.get("auto_dispatch", False)
        persistence = persistence and payload.get("persistence", False)
        orphaned_jobs.extend(payload.get("orphaned_jobs", []))
        orphaned_vps.update(payload.get("orphaned_vantage_points", []))
        journal = payload.get("journal")
        if journal is not None:
            any_journal = True
            journal_records += journal.get("records", 0)
            journal_since += journal.get("records_since_snapshot", 0)
            journal_snapshots += journal.get("snapshots_written", 0)
            last = journal.get("last_snapshot_at")
            if last is not None:
                journal_last = last if journal_last is None else max(journal_last, last)
    merged = {
        "api_version": api_version,
        "vantage_points": sorted(vantage_points),
        "users": sorted(users),
        "queued_jobs": queued,
        "pending_approval": pending,
        "scheduling_policy": first.get("scheduling_policy", "fifo"),
        "reservation_admission": first.get("reservation_admission", "ignore"),
        "auto_dispatch": auto_dispatch,
        "persistence": persistence,
        "certificate_serial": None,
        "orphaned_jobs": sorted(orphaned_jobs),
        "orphaned_vantage_points": sorted(orphaned_vps),
    }
    if any_journal:
        merged["journal"] = {
            "records": journal_records,
            "records_since_snapshot": journal_since,
            "snapshots_written": journal_snapshots,
            "last_snapshot_at": journal_last,
        }
    return merged


def _merge_percentiles(stats_list: List[dict]) -> dict:
    samples = sum(stats.get("samples", 0) for stats in stats_list)
    merged = {
        "samples": samples,
        "mean_s": 0.0,
        "p50_s": 0.0,
        "p90_s": 0.0,
        "p99_s": 0.0,
        "max_s": 0.0,
    }
    if samples == 0:
        return merged
    for key in ("mean_s", "p50_s", "p90_s", "p99_s"):
        weighted = sum(
            stats.get(key, 0.0) * stats.get("samples", 0) for stats in stats_list
        )
        merged[key] = _round6(weighted / samples)
    merged["max_s"] = _round6(max(stats.get("max_s", 0.0) for stats in stats_list))
    return merged


def merge_report(payloads: TaggedPayloads) -> dict:
    """Fold the shards' ``analytics.report`` views into a fleet report.

    Owner rows merge by owner name (an owner may burn credits on several
    shards), device rows concatenate (hardware is shard-unique) and both
    re-sort on their single-server keys.  The result is a pure function
    of the shard reports, so a merged live report equals a merged
    cold-replay report whenever the per-shard live/replay invariant holds.
    """
    reports = [payload for _, payload in payloads]
    first_ts = [r.get("first_ts") for r in reports if r.get("first_ts") is not None]
    last_ts = [r.get("last_ts") for r in reports if r.get("last_ts") is not None]
    jobs: Dict[str, int] = {}
    for report in reports:
        for key, value in report.get("jobs", {}).items():
            jobs[key] = jobs.get(key, 0) + value
    owners: Dict[str, dict] = {}
    for report in reports:
        for row in report.get("owners", []):
            name = row.get("owner", "")
            merged_row = owners.setdefault(name, {"owner": name})
            for key, value in row.items():
                if key == "owner":
                    continue
                if isinstance(value, float):
                    merged_row[key] = _round6(merged_row.get(key, 0.0) + value)
                else:
                    merged_row[key] = merged_row.get(key, 0) + value
    devices = []
    for report in reports:
        devices.extend(report.get("devices", []))
    devices.sort(key=lambda row: (row.get("vantage_point", ""), row.get("device_serial", "")))
    reservations: Dict[str, float] = {"created": 0, "cancelled": 0, "booked_device_hours": 0.0}
    for report in reports:
        row = report.get("reservations", {})
        reservations["created"] += row.get("created", 0)
        reservations["cancelled"] += row.get("cancelled", 0)
        reservations["booked_device_hours"] = _round6(
            reservations["booked_device_hours"] + row.get("booked_device_hours", 0.0)
        )
    return {
        "records_folded": sum(r.get("records_folded", 0) for r in reports),
        "first_ts": min(first_ts) if first_ts else None,
        "last_ts": max(last_ts) if last_ts else None,
        "jobs": jobs,
        "owners": [owners[name] for name in sorted(owners)],
        "queue_wait": _merge_percentiles([r.get("queue_wait", {}) for r in reports]),
        "run_time": _merge_percentiles([r.get("run_time", {}) for r in reports]),
        "devices": devices,
        "reservations": reservations,
    }


def merge_timeseries(payloads: TaggedPayloads) -> dict:
    """Sum the shards' throughput buckets on their (shared) time grid."""
    bucket_s = payloads[0][1].get("bucket_s", 60.0) if payloads else 60.0
    buckets: Dict[float, Dict[str, object]] = {}
    for _, payload in payloads:
        for bucket in payload.get("buckets", []):
            start = bucket.get("start_s", 0.0)
            merged = buckets.setdefault(start, {"start_s": start})
            for key, value in bucket.items():
                if key == "start_s":
                    continue
                merged[key] = merged.get(key, 0) + value
    return {
        "bucket_s": bucket_s,
        "buckets": [buckets[start] for start in sorted(buckets)],
    }
