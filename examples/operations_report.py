#!/usr/bin/env python3
"""Operations report: event-sourced analytics over a shared-fleet workload.

BatteryLab is a *shared* platform, so its operators care about questions
the job API alone cannot answer: who is using the fleet, how long do jobs
wait, which devices are hot or flaky, how fast are credits burning.  This
example drives a multi-tenant workload and then answers those questions
three equivalent ways:

1. **Live** — the access server's analytics engine folds every bus record
   incrementally; ``client.analytics_report()`` (Platform API v2) reads
   the materialised views.
2. **Cold replay** — ``AnalyticsEngine.from_backend(state_dir)`` replays
   the write-ahead journal with *no server at all* and produces the
   byte-identical report (the event-sourcing guarantee).
3. **Timeseries** — ``client.analytics_timeseries()`` re-buckets fleet
   throughput to any zoom level.

Run it with ``python examples/operations_report.py``.
"""

import tempfile

from repro import build_default_platform
from repro.accessserver.payloads import register_payload
from repro.analysis.tables import format_table
from repro.analytics import AnalyticsEngine
from repro.core.platform import add_vantage_point


@register_payload("ops-demo/measure")
def measure_payload(ctx):
    device = ctx.api.list_devices()[0]
    if not ctx.api.controller.power_socket.is_on:
        ctx.api.power_monitor()
    ctx.api.set_voltage(3.85)
    trace = ctx.api.measure(device, duration=120.0, label="ops-demo")
    return {"median_ma": round(trace.median_current_ma(), 1)}


@register_payload("ops-demo/flaky")
def flaky_payload(ctx):
    raise RuntimeError("simulated harness fault")


def main() -> None:
    state_dir = tempfile.mkdtemp(prefix="batterylab-ops-")
    platform = build_default_platform(
        seed=42, browsers=("chrome",), state_dir=state_dir
    )
    server = platform.access_server
    add_vantage_point(
        platform, "node2", "Example University", browsers=("chrome",), install_video=False
    )
    server.accounts.enable_credit_system(initial_grant_device_hours=8.0)

    admin = platform.client(username="admin")
    alice = admin.create_user("alice", "experimenter", "alice-token")
    bob = admin.create_user("bob", "experimenter", "bob-token")
    print(f"accounts: {alice.username}, {bob.username}")

    # A multi-tenant workload: two experimenters, a flaky job, a queue that
    # outnumbers the devices (so jobs genuinely wait), and a reservation.
    alice_client = platform.client(username="alice", token="alice-token")
    bob_client = platform.client(username="bob", token="bob-token")
    for index in range(4):
        alice_client.submit_job(f"alice-sweep-{index}", "ops-demo/measure")
    for index in range(3):
        bob_client.submit_job(f"bob-sweep-{index}", "ops-demo/measure")
    bob_client.submit_job("bob-flaky", "ops-demo/flaky")
    admin.reserve_session("node1", "node1-dev00", start_s=7200.0, duration_s=1800.0)
    platform.run_queue()

    # 1. Live report over the Platform API.  The per-owner rows carry
    # credit burn, so the full owners table needs the admin role —
    # experimenters see fleet aggregates plus their own row only.
    view = admin.analytics_report()
    print()
    print(
        format_table(
            [
                {
                    "owner": row.owner,
                    "submitted": row.submitted,
                    "completed": row.completed,
                    "failed": row.failed,
                    "device_s": round(row.device_seconds, 1),
                    "wait_s": round(row.queue_wait_s, 1),
                    "burned_dh": round(row.credits_burned_device_hours, 3),
                }
                for row in view.owners
            ],
            title="Owners — utilisation and credit burn (live analytics.report)",
        )
    )
    print()
    print(
        format_table(
            [
                {
                    "vantage_point": row.vantage_point,
                    "device": row.device_serial,
                    "assignments": row.assignments,
                    "failed": row.failed,
                    "failure_rate": round(row.failure_rate, 3),
                    "occupancy": round(row.occupancy, 3),
                }
                for row in view.devices
            ],
            title="Devices — occupancy and failure rate",
        )
    )
    print()
    print(
        f"queue wait p50/p90: {view.queue_wait.p50_s:.1f}/"
        f"{view.queue_wait.p90_s:.1f} s over {view.queue_wait.samples} dispatches"
    )

    # 2. Cold replay: the same report from the journal alone — no server.
    server.persistence.backend.sync()
    replayed = AnalyticsEngine.from_backend(state_dir)
    live_report = server.analytics.report()
    assert replayed.report() == live_report, "replay must equal the live fold"
    print(
        f"cold replay of {replayed.records_folded} journal records "
        "reproduced the live report exactly"
    )

    # 3. Fleet throughput, re-bucketed to five simulated minutes (fleet
    # aggregates need no special role — alice's client works).
    series = alice_client.analytics_timeseries(bucket_s=300.0)
    print()
    print(
        format_table(
            [
                {
                    "start_s": bucket.start_s,
                    "submitted": bucket.submitted,
                    "completed": bucket.completed,
                    "failed": bucket.failed,
                }
                for bucket in series.buckets
            ],
            title="Fleet throughput (300 s buckets, analytics.timeseries)",
        )
    )


if __name__ == "__main__":
    main()
