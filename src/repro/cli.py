"""Command-line interface for the BatteryLab reproduction.

A thin wrapper around the experiment drivers so a downstream user can
regenerate any of the paper's tables and figures without writing Python::

    batterylab-repro quickstart
    batterylab-repro figure2 --duration 120
    batterylab-repro figure3 --repetitions 3
    batterylab-repro figure5
    batterylab-repro table2
    batterylab-repro figure6
    batterylab-repro sysperf
    batterylab-repro locations
    batterylab-repro dispatch-bench --devices 100 --jobs 1000

Platform-operations subcommands drive the access server exclusively
through the Platform API client SDK (:mod:`repro.api`) — the same typed
request/response layer a remote experimenter would use::

    batterylab-repro --state-dir ./state submit --name nightly --payload noop
    batterylab-repro --state-dir ./state status
    batterylab-repro --state-dir ./state cancel --job-id 3
    batterylab-repro --state-dir ./state fleet

Platform API v2 adds the admin control plane and streaming — approvals,
credit grants, remote vantage-point registration, live ``dispatch.*``
event streaming instead of status polling, and a TLS gateway server::

    batterylab-repro --state-dir ./state watch --job-id 3
    batterylab-repro --state-dir ./state approve --job-id 3
    batterylab-repro --state-dir ./state reject --job-id 3 --reason "unsafe"
    batterylab-repro --state-dir ./state grant --owner alice --amount 5
    batterylab-repro --state-dir ./state register-vp --name node2 --institution "Example University"
    batterylab-repro --state-dir ./state serve --tls --cert-dir ./state/tls

Horizontal scale-out (``repro.federation``) serves N sharded access
servers behind one scatter-gather router that speaks the same wire
protocol — or one process as a single shard of a larger deployment::

    batterylab-repro federate --shards 2 --state-root ./state --tls --cert-dir ./state/tls
    batterylab-repro serve --shard-id shard-0 --shard-index 0 --shard-count 2

The ``report`` subcommand folds the platform's event-sourced records
(``repro.analytics``) into an operations report — owner utilisation and
credit burn, queue-wait/run-time percentiles, per-device occupancy and
failure rates — either by cold-replaying a ``--state-dir`` journal or by
querying a live gateway::

    batterylab-repro --state-dir ./state report --bucket-s 300
    batterylab-repro report --gateway 127.0.0.1:8443

The ``metrics`` subcommand renders the platform's telemetry registry
(``repro.obs``) as Prometheus-style text — counters, gauges and latency
histograms from the gateway loop, dispatcher, executor and journal —
again either locally or from a live gateway::

    batterylab-repro --state-dir ./state metrics
    batterylab-repro metrics --gateway 127.0.0.1:8443 --prefix gateway_

``--log-level DEBUG`` turns on structured component logging
(``repro.api.gateway``, ``repro.accessserver.server``, ...) with trace IDs
on the records.

Each command prints the reproduced rows as an aligned table.  ``--seed``
controls the simulation seed so runs are reproducible, and
``--scheduling-policy`` selects the dispatch queue ordering
(``fifo``/``priority``/``fair-share``/``deadline``) for the commands that
go through the job scheduler: ``quickstart`` and ``dispatch-bench``.  The
figure/table commands replay the paper's single-experimenter workloads and
always use the default FIFO ordering.

``--state-dir DIR`` makes the access server durable: every job,
reservation and credit mutation is journaled under ``DIR`` and a later run
pointed at the same directory recovers the queue before doing anything
else (``--no-persistence`` opts back out).  ``--reservation-admission
defer`` keeps jobs off devices whose next interactive reservation would
start before the job's timeout elapses.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

# Only the two light leaves the parser takes its ``choices`` from load with
# this module; each command imports its own machinery, so ``repro agent`` and
# the ``--gateway`` clients never load the platform (DESIGN.md, "Import
# layering").
from repro.accessserver.dispatch import DispatchEngine
from repro.accessserver.policies import policy_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batterylab-repro",
        description="Regenerate the BatteryLab paper's evaluation on the emulated platform.",
    )
    parser.add_argument("--seed", type=int, default=7, help="simulation seed (default: 7)")
    parser.add_argument(
        "--scheduling-policy",
        choices=policy_names(),
        default="fifo",
        help="dispatch queue ordering for quickstart/dispatch-bench (default: fifo)",
    )
    parser.add_argument(
        "--reservation-admission",
        choices=list(DispatchEngine.ADMISSION_MODES),
        default="ignore",
        help="whether dispatch plans around upcoming session reservations: "
        "'defer' keeps a job off a device whose next reservation starts "
        "before the job's timeout elapses (default: ignore)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="for quickstart and the API subcommands (submit/status/cancel/fleet): "
        "journal access-server state (jobs, reservations, credits) under DIR "
        "and recover any previous run's state from it on startup (the "
        "figure/table commands build throwaway platforms and ignore this)",
    )
    parser.add_argument(
        "--no-persistence",
        action="store_true",
        help="ignore --state-dir: no recovery and no journaling",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="enable structured component logging at LEVEL "
        "(DEBUG/INFO/WARNING/ERROR); records carry trace IDs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("quickstart", help="build the platform and take a 30 s idle measurement")
    sub.add_parser("locations", help="list the built-in ProtonVPN locations (Table 2 profiles)")

    dispatch_bench = sub.add_parser(
        "dispatch-bench",
        help="measure batch dispatch throughput on a synthetic device fleet",
    )
    dispatch_bench.add_argument("--devices", type=int, default=100, help="device slots in the fleet")
    dispatch_bench.add_argument("--jobs", type=int, default=1000, help="jobs to queue")
    dispatch_bench.add_argument(
        "--vantage-points", type=int, default=10, help="vantage points the devices spread over"
    )

    figure2 = sub.add_parser("figure2", help="accuracy experiment (current CDFs)")
    figure2.add_argument("--duration", type=float, default=120.0, help="measurement length in seconds")
    figure2.add_argument("--sample-rate", type=float, default=500.0, help="monitor sampling rate in Hz")

    figure3 = sub.add_parser("figure3", help="per-browser battery discharge")
    figure3.add_argument("--repetitions", type=int, default=2)
    figure3.add_argument("--scrolls", type=int, default=10, help="scroll operations per page")

    figure5 = sub.add_parser("figure5", help="controller CPU utilisation")
    figure5.add_argument("--repetitions", type=int, default=1)

    sub.add_parser("table2", help="ProtonVPN speedtest statistics")

    figure6 = sub.add_parser("figure6", help="Brave/Chrome energy through VPN tunnels")
    figure6.add_argument("--repetitions", type=int, default=1)

    sub.add_parser("sysperf", help="controller CPU/memory/network and mirroring latency")

    submit = sub.add_parser(
        "submit",
        help="submit a job through the Platform API v1 client (payloads by registered name)",
    )
    submit.add_argument("--name", required=True, help="job name")
    submit.add_argument(
        "--payload",
        default="noop",
        help="registered payload name (see register_payload; default: noop)",
    )
    submit.add_argument("--priority", type=float, default=0.0, help="scheduling priority")
    submit.add_argument("--timeout", type=float, default=3600.0, help="job timeout in seconds")
    submit.add_argument(
        "--vantage-point", default=None, help="pin the job to one vantage point"
    )
    submit.add_argument("--device", default=None, help="pin the job to one device serial")
    submit.add_argument(
        "--execution",
        default="push",
        choices=("push", "agent"),
        help="'agent' keeps the job out of push dispatch so a pulling "
        "agent daemon claims it (default: push)",
    )
    submit.add_argument(
        "--connector",
        default=None,
        help="with --execution agent: device connector type the job needs "
        "(default: fake)",
    )
    submit.add_argument(
        "--device-count",
        type=int,
        default=1,
        help="with --execution agent: device slots the job claims "
        "all-or-nothing under one lease (default: 1)",
    )
    submit.add_argument(
        "--no-run",
        action="store_true",
        help="leave the job queued instead of draining the queue before exiting "
        "(useful with --state-dir: a later run recovers and executes it)",
    )

    status = sub.add_parser(
        "status", help="platform status via the API (queue depth, orphaned jobs, policy)"
    )
    status.add_argument(
        "--jobs", action="store_true", help="also list every known job with its state"
    )

    cancel = sub.add_parser("cancel", help="cancel a queued or running job via the API")
    cancel.add_argument("--job-id", type=int, required=True, help="id of the job to cancel")

    sub.add_parser("fleet", help="list vantage points and device slots via the API")

    watch = sub.add_parser(
        "watch",
        help="stream a job's dispatch.* events (API v2 job.watch, no polling)",
    )
    watch.add_argument("--job-id", type=int, required=True, help="id of the job to watch")

    approve = sub.add_parser(
        "approve", help="approve a pending pipeline-change job (admin, API v2)"
    )
    approve.add_argument("--job-id", type=int, required=True)

    reject = sub.add_parser(
        "reject", help="reject a pending pipeline-change job (admin, API v2)"
    )
    reject.add_argument("--job-id", type=int, required=True)
    reject.add_argument("--reason", default="", help="recorded on the job for its owner")

    grant = sub.add_parser(
        "grant", help="grant credit device-hours to an account (admin, API v2)"
    )
    grant.add_argument("--owner", required=True, help="credit account owner")
    grant.add_argument("--amount", type=float, required=True, help="device-hours to add")
    grant.add_argument("--note", default="", help="audit note on the ledger entry")

    register_vp = sub.add_parser(
        "register-vp",
        help="register a new vantage point over the API (admin, API v2)",
    )
    register_vp.add_argument("--name", required=True, help="node identifier (DNS label)")
    register_vp.add_argument("--institution", required=True)
    register_vp.add_argument("--devices", type=int, default=1, help="test device count")
    register_vp.add_argument(
        "--profile",
        default="samsung-j7-duo",
        help="built-in device hardware profile (e.g. samsung-j7-duo, google-pixel-3a)",
    )

    report = sub.add_parser(
        "report",
        help="operations report folded from the platform's event-sourced "
        "records: owner utilisation, queue waits, device health (API v2)",
    )
    report.add_argument(
        "--gateway",
        default=None,
        metavar="HOST:PORT",
        help="query a live gateway instead of replaying --state-dir locally",
    )
    report.add_argument(
        "--cert-dir",
        default=None,
        metavar="DIR",
        help="with --gateway: trust the platform wildcard material under "
        "DIR and connect over TLS (pair of 'serve --tls --cert-dir')",
    )
    report.add_argument(
        "--username",
        default="experimenter",
        help="account to query as (non-admins see fleet aggregates plus "
        "their own owner row; use admin for the full owners table)",
    )
    report.add_argument(
        "--token",
        default=None,
        help="account token (defaults to the bootstrap '<username>-token')",
    )
    report.add_argument(
        "--owner", default=None, help="narrow the owners table to one account"
    )
    report.add_argument(
        "--bucket-s",
        type=float,
        default=None,
        help="also render the fleet throughput timeseries at this bucket size",
    )

    metrics = sub.add_parser(
        "metrics",
        help="render the platform's telemetry registry as Prometheus-style "
        "text (gateway loop, dispatcher, executor, journal)",
    )
    metrics.add_argument(
        "--gateway",
        default=None,
        metavar="HOST:PORT",
        help="scrape a live gateway instead of a local --state-dir platform",
    )
    metrics.add_argument(
        "--cert-dir",
        default=None,
        metavar="DIR",
        help="with --gateway: trust the platform wildcard material under "
        "DIR and connect over TLS",
    )
    metrics.add_argument(
        "--username", default="experimenter", help="account to scrape as"
    )
    metrics.add_argument(
        "--token",
        default=None,
        help="account token (defaults to the bootstrap '<username>-token')",
    )
    metrics.add_argument(
        "--prefix",
        default=None,
        help="only families whose name starts with PREFIX (e.g. gateway_)",
    )

    agent = sub.add_parser(
        "agent",
        help="run a vantage-point agent daemon: long-poll the server for "
        "matching jobs, execute them through a device connector, report "
        "results (exactly-once via a local outbox journal)",
    )
    agent.add_argument(
        "--gateway",
        default=None,
        metavar="HOST:PORT",
        help="pull work from a live gateway instead of a local --state-dir "
        "platform",
    )
    agent.add_argument(
        "--cert-dir",
        default=None,
        metavar="DIR",
        help="with --gateway: trust the platform wildcard material under "
        "DIR and connect over TLS (pair of 'serve --tls --cert-dir')",
    )
    agent.add_argument(
        "--username",
        default="experimenter",
        help="account the agent authenticates as (needs run_job)",
    )
    agent.add_argument(
        "--token",
        default=None,
        help="account token (defaults to the bootstrap '<username>-token')",
    )
    agent.add_argument(
        "--agent-id",
        default=None,
        help="stable agent identity (default: agent-<hostname>)",
    )
    agent.add_argument(
        "--connector",
        default="fake",
        help="device connector type to execute jobs with "
        "(noprovision/fake/multi, or any registered type)",
    )
    agent.add_argument(
        "--vantage-point",
        default=None,
        help="bind the agent to one vantage point's devices",
    )
    agent.add_argument(
        "--tags",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="capability tag on the agent record (repeatable)",
    )
    agent.add_argument(
        "--outbox",
        default=None,
        metavar="FILE",
        help="journal path backing crash recovery and exactly-once uploads "
        "(default: ./<agent-id>-outbox.jsonl)",
    )
    agent.add_argument(
        "--poll-wait-s",
        type=float,
        default=2.0,
        help="server-side long-poll wait per cycle (default: 2)",
    )
    agent.add_argument(
        "--lease-ttl-s",
        type=float,
        default=30.0,
        help="claim lease TTL; renewed between connector phases (default: 30)",
    )
    agent.add_argument(
        "--once",
        action="store_true",
        help="run a single poll→claim→execute→report cycle and exit",
    )
    agent.add_argument(
        "--duration-s",
        type=float,
        default=None,
        help="stop after this many wall-clock seconds (default: run until ^C)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve the JSON-lines API gateway (optionally TLS) until interrupted",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    serve.add_argument(
        "--tls",
        action="store_true",
        help="wrap the gateway in TLS using wildcard material under --cert-dir "
        "(minted with openssl on first use); the paper mandates HTTPS-only",
    )
    serve.add_argument(
        "--cert-dir",
        default=None,
        metavar="DIR",
        help="directory holding (or receiving) wildcard.pem/wildcard.key",
    )
    serve.add_argument(
        "--duration-s",
        type=float,
        default=None,
        help="stop after this many wall-clock seconds (default: run until ^C)",
    )
    serve.add_argument(
        "--shard-id",
        default=None,
        metavar="ID",
        help="serve as one federation shard: mint job ids on the lane "
        "selected by --shard-index/--shard-count and stamp ID into "
        "journal snapshots and v2 server.status",
    )
    serve.add_argument(
        "--shard-index",
        type=int,
        default=0,
        help="this shard's lane (0-based; requires --shard-id)",
    )
    serve.add_argument(
        "--shard-count",
        type=int,
        default=1,
        help="total lanes in the federation (requires --shard-id)",
    )

    federate = sub.add_parser(
        "federate",
        help="serve N access-server shards behind one scatter-gather "
        "gateway speaking unmodified Platform API v2",
    )
    federate.add_argument(
        "--shards", type=int, default=2, help="shard count (fixes the lane space)"
    )
    federate.add_argument("--host", default="127.0.0.1")
    federate.add_argument("--port", type=int, default=0, help="0 picks a free port")
    federate.add_argument(
        "--tls",
        action="store_true",
        help="wrap the router gateway in TLS using wildcard material under "
        "--cert-dir (minted with openssl on first use)",
    )
    federate.add_argument(
        "--cert-dir",
        default=None,
        metavar="DIR",
        help="directory holding (or receiving) wildcard.pem/wildcard.key",
    )
    federate.add_argument(
        "--state-root",
        default=None,
        metavar="DIR",
        help="journal each shard under DIR/shard-K (also where shard.add "
        "recovers a restarted shard from)",
    )
    federate.add_argument(
        "--duration-s",
        type=float,
        default=None,
        help="stop after this many wall-clock seconds (default: run until ^C)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a chaos soak: scripted faults against a live platform, "
        "then check every invariant (exit 1 on violation)",
    )
    chaos.add_argument(
        "--scenario",
        default="kitchen-sink",
        metavar="NAME|@FILE",
        help="canned scenario name, @path to a scenario JSON script, or "
        "'none' for a fault-free baseline (default: kitchen-sink)",
    )
    chaos.add_argument(
        "--jobs", type=int, default=10_000, help="jobs to submit (default: 10000)"
    )
    chaos.add_argument(
        "--batch",
        type=int,
        default=None,
        help="jobs per one-second submission wave (default: jobs/100, min 50)",
    )
    chaos.add_argument(
        "--agents", type=int, default=1, help="pull-mode agent daemons (default: 1)"
    )
    chaos.add_argument(
        "--vantage-points", type=int, default=2, help="vantage points (default: 2)"
    )
    chaos.add_argument(
        "--devices", type=int, default=2, help="devices per vantage point (default: 2)"
    )
    chaos.add_argument(
        "--credits",
        action="store_true",
        help="enable the credit system and check ledger conservation too",
    )
    chaos.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the canned scenario names and exit",
    )
    return parser


def format_table(rows, title: str) -> str:
    # Imported on use: most commands print no table.
    from repro.analysis.tables import format_table as render

    return render(rows, title=title)


def _ops_platform(args):
    """The shared platform for quickstart and the API-driven subcommands."""
    from repro.core.platform import build_default_platform

    return build_default_platform(
        seed=args.seed,
        browsers=("chrome",),
        scheduling_policy=args.scheduling_policy,
        reservation_admission=args.reservation_admission,
        state_dir=args.state_dir,
        persistence=not args.no_persistence,
    )


def _job_row(view) -> dict:
    return {
        "job_id": view.job_id,
        "name": view.name,
        "owner": view.owner,
        "status": view.status,
        "priority": view.priority,
        "vantage_point": view.vantage_point or "-",
        "device": view.device_serial or "-",
    }


def _frame_row(frame) -> dict:
    return {
        "seq": frame.seq,
        "frame": frame.frame,
        "topic": frame.topic or "-",
        "t": round(frame.timestamp, 1),
        "detail": ", ".join(
            f"{key}={value}"
            for key, value in sorted(frame.payload.items())
            if key not in ("job_id", "job")
        )
        or "-",
    }


def _cmd_submit(args) -> str:
    platform = _ops_platform(args)
    client = platform.client()
    extra = {}
    if args.execution == "agent":
        extra = {
            "execution": "agent",
            "connector": args.connector or "fake",
            "device_count": args.device_count,
        }
    view = client.submit_job(
        args.name,
        args.payload,
        priority=args.priority,
        timeout_s=args.timeout,
        vantage_point=args.vantage_point,
        device_serial=args.device,
        **extra,
    )
    sections = [format_table([_job_row(view)], title="Submitted (Platform API v1)")]
    if args.execution == "agent":
        # Push dispatch will never take this job; it waits for an agent.
        sections.append(
            f"queued for agent pull (connector: {extra['connector']}, "
            f"devices: {extra['device_count']}) — run 'repro agent' to claim it"
        )
    elif not args.no_run:
        # Subscribe before dispatching, then stream the dispatch.* events —
        # the v2 replacement for polling job.status in a loop.
        watch = client.watch_job(view.job_id)
        platform.run_queue()
        frames = list(watch)
        if frames:
            sections.append(
                format_table([_frame_row(f) for f in frames], title="Dispatch events (job.watch)")
            )
        final = watch.final if watch.final is not None else client.job_status(view.job_id)
        results = client.job_results(view.job_id)
        row = _job_row(final)
        row["result"] = results.result if results.result is not None else (results.error or "-")
        sections.append(format_table([row], title="After dispatch"))
    return "\n\n".join(sections)


def _cmd_status(args) -> str:
    from repro.api.schemas import API_VERSION_V2

    platform = _ops_platform(args)
    client = platform.client()
    # v2 envelope: journal health rides only on v2 so strict v1 clients
    # keep their frozen wire form.
    view = client.server_status(version=API_VERSION_V2)
    rows = [
        {"field": "api_version", "value": view.api_version},
        {"field": "shard_id", "value": view.shard_id or "-"},
        {"field": "vantage_points", "value": ", ".join(view.vantage_points) or "-"},
        {"field": "queued_jobs", "value": view.queued_jobs},
        {"field": "pending_approval", "value": view.pending_approval},
        {"field": "scheduling_policy", "value": view.scheduling_policy},
        {"field": "reservation_admission", "value": view.reservation_admission},
        {"field": "persistence", "value": view.persistence},
        {
            "field": "orphaned_jobs",
            "value": ", ".join(map(str, view.orphaned_jobs)) or "-",
        },
        {
            "field": "orphaned_vantage_points",
            "value": ", ".join(view.orphaned_vantage_points) or "-",
        },
    ]
    if view.journal is not None:
        rows.extend(
            [
                {"field": "journal_records", "value": view.journal.records},
                {
                    "field": "records_since_snapshot",
                    "value": view.journal.records_since_snapshot,
                },
                {
                    "field": "last_snapshot_at",
                    "value": view.journal.last_snapshot_at
                    if view.journal.last_snapshot_at is not None
                    else "-",
                },
            ]
        )
    sections = [format_table(rows, title="Platform status (Platform API)")]
    if args.jobs:
        job_rows = [_job_row(view) for view in client.list_jobs()]
        if job_rows:
            sections.append(format_table(job_rows, title="Jobs"))
    return "\n\n".join(sections)


def _cmd_cancel(args) -> str:
    platform = _ops_platform(args)
    client = platform.client()
    view = client.cancel_job(args.job_id)
    return format_table([_job_row(view)], title="Cancelled (Platform API v1)")


def _cmd_fleet(args) -> str:
    platform = _ops_platform(args)
    fleet = platform.client().fleet()
    rows = [
        {
            "vantage_point": vp.name,
            "institution": vp.institution,
            "dns_name": vp.dns_name,
            "device": device.serial,
            "busy": device.busy,
            "held_by": device.held_by or "-",
        }
        for vp in fleet.vantage_points
        for device in vp.devices
    ]
    return format_table(rows, title="Fleet (Platform API v1)")


def _cmd_watch(args) -> str:
    platform = _ops_platform(args)
    client = platform.client()
    watch = client.watch_job(args.job_id)
    initial = watch.initial
    sections = [format_table([_job_row(initial)], title=f"Watching job {args.job_id}")]
    platform.run_queue()
    frames = list(watch)
    if frames:
        sections.append(
            format_table([_frame_row(f) for f in frames], title="Dispatch events (job.watch)")
        )
    if watch.final is not None:
        sections.append(format_table([_job_row(watch.final)], title="Final state"))
    else:
        watch.close()
        sections.append(
            f"job {args.job_id} is still {client.job_status(args.job_id).status}; "
            "re-run watch after its constraints can be met"
        )
    return "\n\n".join(sections)


def _cmd_approve(args) -> str:
    platform = _ops_platform(args)
    admin = platform.client(username="admin")
    admin.approve_job(args.job_id)
    platform.run_queue()
    return format_table(
        [_job_row(admin.job_status(args.job_id))], title="Approved (Platform API v2)"
    )


def _cmd_reject(args) -> str:
    platform = _ops_platform(args)
    admin = platform.client(username="admin")
    view = admin.reject_job(args.job_id, reason=args.reason)
    return format_table([_job_row(view)], title="Rejected (Platform API v2)")


def _cmd_grant(args) -> str:
    platform = _ops_platform(args)
    if platform.access_server.credit_policy is None:
        platform.access_server.enable_credit_system()
    admin = platform.client(username="admin")
    balance = admin.grant_credits(args.owner, args.amount, note=args.note)
    rows = [
        {
            "owner": balance.owner,
            "balance_device_hours": balance.balance_device_hours,
            "contributes_hardware": balance.contributes_hardware,
            "transactions": balance.transaction_count,
        }
    ]
    return format_table(rows, title="Credits granted (Platform API v2)")


def _cmd_register_vp(args) -> str:
    platform = _ops_platform(args)
    admin = platform.client(username="admin")
    view = admin.register_vantage_point(
        args.name,
        args.institution,
        device_count=args.devices,
        device_profile=args.profile,
    )
    rows = [
        {
            "vantage_point": view.name,
            "institution": view.institution,
            "dns_name": view.dns_name,
            "device": device.serial,
            "busy": device.busy,
        }
        for device in view.devices
    ]
    return format_table(rows, title="Vantage point registered (Platform API v2)")


def _report_sections(view, timeseries=None) -> List[str]:
    """Render an AnalyticsReportView (and optional timeseries) as tables."""
    jobs = view.jobs
    summary = [
        {"field": "records_folded", "value": view.records_folded},
        {
            "field": "window",
            "value": f"{view.first_ts or 0.0:.1f} .. {view.last_ts or 0.0:.1f} s",
        },
        {"field": "submitted", "value": jobs.submitted},
        {"field": "completed", "value": jobs.completed},
        {"field": "failed", "value": jobs.failed},
        {"field": "cancelled", "value": jobs.cancelled},
        {"field": "queued_now", "value": jobs.queued},
        {"field": "running_now", "value": jobs.running},
        {"field": "pending_approval_now", "value": jobs.pending_approval},
        {"field": "requeues", "value": jobs.requeues},
        {"field": "reservations", "value": view.reservations.created},
        {
            "field": "reserved_device_hours",
            "value": round(view.reservations.booked_device_hours, 3),
        },
    ]
    sections = [format_table(summary, title="Fleet summary (analytics.report)")]
    if view.owners:
        sections.append(
            format_table(
                [
                    {
                        "owner": row.owner,
                        "submitted": row.submitted,
                        "completed": row.completed,
                        "failed": row.failed,
                        "cancelled": row.cancelled,
                        "device_s": round(row.device_seconds, 1),
                        "wait_s": round(row.queue_wait_s, 1),
                        "burned_dh": round(row.credits_burned_device_hours, 3),
                        "granted_dh": round(row.credits_granted_device_hours, 3),
                    }
                    for row in view.owners
                ],
                title="Owners — utilisation and credit burn",
            )
        )
    queue_rows = [
        {
            "metric": name,
            "samples": stats.samples,
            "mean_s": round(stats.mean_s, 2),
            "p50_s": round(stats.p50_s, 2),
            "p90_s": round(stats.p90_s, 2),
            "p99_s": round(stats.p99_s, 2),
            "max_s": round(stats.max_s, 2),
        }
        for name, stats in (("queue_wait", view.queue_wait), ("run_time", view.run_time))
    ]
    sections.append(format_table(queue_rows, title="Job flow percentiles"))
    if view.devices:
        sections.append(
            format_table(
                [
                    {
                        "vantage_point": row.vantage_point,
                        "device": row.device_serial,
                        "assignments": row.assignments,
                        "completed": row.completed,
                        "failed": row.failed,
                        "busy_s": round(row.busy_seconds, 1),
                        "failure_rate": round(row.failure_rate, 3),
                        "occupancy": round(row.occupancy, 3),
                    }
                    for row in view.devices
                ],
                title="Devices — occupancy and health",
            )
        )
    if timeseries is not None and timeseries.buckets:
        sections.append(
            format_table(
                [
                    {
                        "start_s": bucket.start_s,
                        "submitted": bucket.submitted,
                        "completed": bucket.completed,
                        "failed": bucket.failed,
                        "cancelled": bucket.cancelled,
                    }
                    for bucket in timeseries.buckets
                ],
                title=f"Fleet throughput ({timeseries.bucket_s:.0f} s buckets)",
            )
        )
    return sections


def _remote_or_local_client(args):
    """A client for ``--gateway HOST:PORT`` or a local ``--state-dir`` platform."""
    token = args.token if args.token is not None else f"{args.username}-token"
    if args.gateway is not None:
        from repro.api.client import BatteryLabClient
        from repro.api.gateway import JsonLinesTransport

        host, _, port = args.gateway.rpartition(":")
        if not host or not port.isdigit():
            raise SystemExit("--gateway expects HOST:PORT")
        tls_context = None
        if args.cert_dir is not None:
            from repro.accessserver.certificates import (
                client_tls_context,
                ensure_tls_material,
            )

            tls_context = client_tls_context(ensure_tls_material(args.cert_dir))
        return BatteryLabClient(
            JsonLinesTransport(host, int(port), tls_context=tls_context),
            args.username,
            token,
        )
    return _ops_platform(args).client(username=args.username, token=token)


def _cmd_report(args) -> str:
    client = _remote_or_local_client(args)
    with client:
        view = client.analytics_report(owner=args.owner)
        timeseries = (
            client.analytics_timeseries(args.bucket_s)
            if args.bucket_s is not None
            else None
        )
    return "\n\n".join(_report_sections(view, timeseries))


def _cmd_metrics(args) -> str:
    from repro.obs import render_snapshot

    client = _remote_or_local_client(args)
    with client:
        view = client.obs_metrics(prefix=args.prefix)
    text = render_snapshot(view.to_snapshot())
    if not text:
        return "# no metric families matched" + (
            f" prefix {args.prefix!r}" if args.prefix else ""
        )
    return text.rstrip("\n")


def _cmd_agent(args) -> str:
    import contextlib
    import socket

    from repro.agent import AgentDaemon, Outbox

    tags = {}
    for item in args.tags or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit("--tags expects KEY=VALUE")
        tags[key] = value
    agent_id = args.agent_id or f"agent-{socket.gethostname()}"
    path = args.outbox or f"{agent_id}-outbox.jsonl"
    try:
        # Before anything is sent: a job claimed against an outbox that
        # cannot record it would sit leased to nobody until its TTL lapsed.
        outbox = Outbox(path)
    except OSError as exc:
        raise SystemExit(f"error: cannot open outbox {path}: {exc}")
    client = _remote_or_local_client(args)
    daemon = AgentDaemon(
        client,
        agent_id,
        outbox,
        connector=args.connector,
        vantage_point=args.vantage_point,
        tags=tags,
        lease_ttl_s=args.lease_ttl_s,
    )
    lines = []
    completed = []
    with contextlib.closing(outbox), client:
        view = daemon.register()
        lines.append(
            f"agent {view.agent_id} registered "
            f"(connectors: {', '.join(view.connectors)}; outbox: {path})"
        )
        try:
            for job_id in daemon.run_forever(
                args.poll_wait_s, once=args.once, duration_s=args.duration_s
            ):
                completed.append(job_id)
        except KeyboardInterrupt:
            lines.append("interrupted; draining")
    lines.append(
        f"settled jobs: {completed}" if completed else "no jobs settled"
    )
    lines.append(
        f"outbox: {outbox.size_bytes} bytes, {outbox.pending_count} pending "
        f"lease(s), {outbox.compactions} compaction(s)"
    )
    return "\n".join(lines)


#: Wall-clock seconds of one idle host-loop tick: how long the loop sleeps
#: after a pass that filled no batch, and what one simulated second costs.
_HOST_TICK_S = 0.05


def _host_loop(gateway, what, platforms, duration_s) -> int:
    """Announce a started gateway, then run passes over ``platforms()`` until ``duration_s`` or ^C.

    The gateway threads only enqueue work; a pass runs each platform's queue
    (one batch at most), then its simulation, on this thread under the
    router lock — a request landing mid-dispatch must not race the
    single-threaded simulation state.  The lock is released after every
    pass, and the loop sleeps only after a pass in which no platform filled
    its batch: a full batch means more is queued, so the next pass starts at
    once.  Simulated time advances one second per ``_HOST_TICK_S`` of wall
    clock at most, however many passes that interval holds, so one wall
    second never buys more than 20 simulated ones.
    Stops the gateway on the way out; returns the number of jobs executed.
    """
    from repro.accessserver.server import batch_filled

    host, port = gateway.address
    scheme = "tls" if gateway.tls_enabled else "plaintext"
    print(f"serving {what} on {host}:{port} ({scheme}); ^C to stop")
    now = time.monotonic()
    deadline = None if duration_s is None else now + duration_s
    second_due = now
    served = 0
    try:
        while deadline is None or now < deadline:
            step = 0.0
            if now >= second_due:
                step, second_due = 1.0, now + _HOST_TICK_S
            backlog = False
            with gateway.router_lock:
                for platform in platforms():
                    ran = platform.run_queue()
                    served += len(ran)
                    backlog = backlog or batch_filled(ran)
                    platform.context.run_for(step)
            if not backlog:
                time.sleep(_HOST_TICK_S)
            now = time.monotonic()
    except KeyboardInterrupt:
        pass
    finally:
        gateway.stop()
    return served


def _cmd_serve(args) -> str:
    if args.tls and args.cert_dir is None:
        raise SystemExit("--tls requires --cert-dir DIR for the wildcard material")
    if args.shard_id is not None:
        from repro.federation import build_shard

        # A shard is assembled in federation order: lane first, then the
        # journal (recovery must claim ids into the lane allocator), then
        # analytics — _ops_platform cannot express that.
        if not (0 <= args.shard_index < args.shard_count):
            raise SystemExit(
                f"--shard-index {args.shard_index} is outside the lane space "
                f"of --shard-count {args.shard_count}"
            )
        shard = build_shard(
            args.shard_id,
            args.shard_index,
            args.shard_count,
            state_dir=None if args.no_persistence else args.state_dir,
            seed=args.seed,
            scheduling_policy=args.scheduling_policy,
            reservation_admission=args.reservation_admission,
        )
        platform = shard.platform
    else:
        platform = _ops_platform(args)
    gateway = platform.serve_gateway(
        host=args.host,
        port=args.port,
        tls_cert_dir=args.cert_dir if args.tls else None,
    )
    served = _host_loop(gateway, "Platform API gateway", lambda: (platform,), args.duration_s)
    passes = platform.access_server.dispatch_pass_counts()
    return (
        f"gateway stopped after executing {served} job(s) in "
        f"{passes['full']} full, {passes['partial']} partial and "
        f"{passes['empty']} empty dispatch pass(es)"
    )


def _cmd_federate(args) -> str:
    from repro.api.gateway import ApiGateway
    from repro.federation import (
        FederationRouter,
        ShardState,
        build_federation_shards,
        build_shard,
    )

    if args.tls and args.cert_dir is None:
        raise SystemExit("--tls requires --cert-dir DIR for the wildcard material")
    if args.shards < 1:
        raise SystemExit("--shards must be at least 1")
    shards = build_federation_shards(
        args.shards,
        state_root=args.state_root,
        seed=args.seed,
        scheduling_policy=args.scheduling_policy,
        reservation_admission=args.reservation_admission,
    )

    def factory(shard_id: str, index: int, lane_count: int):
        state_dir = None
        if args.state_root is not None:
            import os

            state_dir = os.path.join(args.state_root, shard_id)
        return build_shard(
            shard_id,
            index,
            lane_count,
            state_dir=state_dir,
            seed=args.seed,
            scheduling_policy=args.scheduling_policy,
            reservation_admission=args.reservation_admission,
        )

    router = FederationRouter(shards, shard_factory=factory)
    tls_context = None
    if args.tls:
        from repro.accessserver.certificates import (
            ensure_tls_material,
            server_tls_context,
        )

        # One wildcard certificate fronts the whole federation: clients
        # talk to the router, never to a shard directly.
        material = ensure_tls_material(
            args.cert_dir, certificate=shards[0].server.wildcard_certificate
        )
        tls_context = server_tls_context(material)
    gateway = ApiGateway(
        router, host=args.host, port=args.port, tls_context=tls_context
    )
    gateway.start()

    def attached():  # asked every tick: shards attach and detach while serving
        return [s.platform for s in router.shards if s.state is not ShardState.DETACHED]

    what = f"federated Platform API ({args.shards} shard(s))"
    served = _host_loop(gateway, what, attached, args.duration_s)
    return f"federation gateway stopped after executing {served} job(s)"


def _cmd_quickstart(args) -> str:
    api = _ops_platform(args).api()
    device_id = api.list_devices()[0]
    api.power_monitor()
    api.set_voltage(3.85)
    trace = api.measure(device_id, duration=30.0, label="idle")
    rows = [
        {
            "device": device_id,
            "duration_s": round(trace.duration_s, 1),
            "median_ma": round(trace.median_current_ma(), 1),
            "discharge_mah": round(trace.discharge_mah(), 3),
        }
    ]
    return format_table(rows, title="Quickstart — 30 s idle measurement")


def _cmd_locations(args) -> str:
    from repro.network.vpn import PROTONVPN_LOCATIONS

    rows = [
        {
            "key": location.key,
            "exit": f"{location.country} / {location.city}",
            "download_mbps": location.download_mbps,
            "upload_mbps": location.upload_mbps,
            "latency_ms": location.latency_ms,
        }
        for location in PROTONVPN_LOCATIONS.values()
    ]
    return format_table(rows, title="Built-in ProtonVPN locations (Table 2 profiles)")


def _cmd_figure2(args) -> str:
    from repro.experiments.accuracy import run_accuracy_experiment

    study = run_accuracy_experiment(
        duration_s=args.duration, sample_rate_hz=args.sample_rate, seed=args.seed
    )
    return format_table(study.rows(), title="Figure 2 — current drawn per scenario")


def _cmd_figure3(args) -> str:
    from repro.experiments.browser_study import run_browser_study

    study = run_browser_study(
        repetitions=args.repetitions,
        scrolls_per_page=args.scrolls,
        scroll_interval_s=1.5,
        sample_rate_hz=50.0,
        seed=args.seed,
    )
    table = format_table(study.discharge_rows(), title="Figure 3 — battery discharge per browser")
    cpu = format_table(study.device_cpu_rows(), title="Figure 4 — device CPU utilisation")
    return table + "\n\n" + cpu


def _cmd_figure5(args) -> str:
    from repro.experiments.controller_load import run_controller_load_experiment

    result = run_controller_load_experiment(
        repetitions=args.repetitions, scrolls_per_page=12, sample_rate_hz=100.0, seed=args.seed
    )
    return format_table(result.rows(), title="Figure 5 — controller CPU utilisation")


def _cmd_table2(args) -> str:
    from repro.experiments.vpn_study import run_vpn_speedtests

    rows = run_vpn_speedtests(probes_per_location=3, seed=args.seed)
    return format_table(rows, title="Table 2 — ProtonVPN statistics")


def _cmd_figure6(args) -> str:
    from repro.experiments.vpn_study import run_vpn_energy_study

    study = run_vpn_energy_study(
        repetitions=args.repetitions, scrolls_per_page=8, sample_rate_hz=50.0, seed=args.seed
    )
    return format_table(study.rows(), title="Figure 6 — discharge per VPN location")


def _cmd_sysperf(args) -> str:
    from repro.experiments.system_perf import run_system_performance

    result = run_system_performance(scrolls_per_page=12, sample_rate_hz=100.0, seed=args.seed)
    return format_table(result.rows(), title="System performance (Section 4.2)")


def _cmd_dispatch_bench(args) -> str:
    """Queue a synthetic fleet-scale workload and time pure dispatch decisions."""
    from repro.accessserver.jobs import Job, JobConstraints, JobSpec
    from repro.accessserver.scheduler import JobScheduler

    scheduler = JobScheduler(
        policy=args.scheduling_policy, reservation_admission=args.reservation_admission
    )
    # More vantage points than devices would leave some nodes unregistered
    # while constrained jobs still referenced them (silently skewing the
    # throughput figure), so clamp to one device per vantage point minimum.
    vantage_points = max(1, min(args.vantage_points, args.devices))
    for index in range(args.devices):
        scheduler.register_device(
            f"node{index % vantage_points:02d}", f"dev{index // vantage_points:02d}"
        )
    for index in range(args.jobs):
        constraints = JobConstraints()
        if index % 3 == 0:
            constraints = JobConstraints(vantage_point=f"node{index % vantage_points:02d}")
        spec = JobSpec(
            name=f"job-{index}",
            owner=f"owner{index % 5}",
            run=lambda ctx: None,
            constraints=constraints,
            priority=float(index % 4),
        )
        scheduler.submit(Job(spec=spec), now=0.0)

    assignments = 0
    batches = 0
    started = time.perf_counter()
    while True:
        batch = scheduler.dispatch_batch(now=0.0)
        if not batch:
            break
        batches += 1
        assignments += len(batch)
        for assignment in batch:
            assignment.job.mark_completed(0.0, None)
            scheduler.release(assignment.job)
    elapsed = time.perf_counter() - started
    rows = [
        {
            "policy": scheduler.policy.name,
            "devices": args.devices,
            "jobs": args.jobs,
            "batches": batches,
            "assignments": assignments,
            "elapsed_ms": round(elapsed * 1000.0, 2),
            "jobs_per_s": round(assignments / elapsed, 0) if elapsed > 0 else float("inf"),
        }
    ]
    return format_table(rows, title="Batch dispatch throughput (synthetic fleet)")


def _cmd_chaos(args) -> str:
    """Run one chaos soak and render its metrics + invariant verdicts.

    The seed every random choice drew from is printed so any run can be
    reproduced exactly with ``--seed``.  A failed invariant raises
    :class:`~repro.chaos.invariants.InvariantViolation` (an
    ``AssertionError``), which :func:`main` turns into exit code 1.
    """
    from repro.chaos import (
        SoakConfig,
        SoakHarness,
        Scenario,
        canned_scenario_names,
    )

    if args.list_scenarios:
        return "\n".join(canned_scenario_names())
    scenario = args.scenario
    if scenario == "none":
        scenario = None
    elif scenario.startswith("@"):
        with open(scenario[1:], "r", encoding="utf-8") as handle:
            scenario = Scenario.from_json(handle.read())
    batch = args.batch if args.batch is not None else max(50, args.jobs // 100)
    config = SoakConfig(
        jobs=args.jobs,
        seed=args.seed,
        batch=batch,
        agents=args.agents,
        vantage_points=args.vantage_points,
        devices_per_vp=args.devices,
        scenario=scenario,
        state_dir=args.state_dir if not args.no_persistence else None,
        credits=args.credits,
    )
    result = SoakHarness(config).run()
    if not result.ok:
        # Show the metrics before the violation lands as exit code 1.
        print(result.summary())
        result.report.raise_on_failure()
    return result.summary()


_COMMANDS = {
    "quickstart": _cmd_quickstart,
    "locations": _cmd_locations,
    "figure2": _cmd_figure2,
    "figure3": _cmd_figure3,
    "figure5": _cmd_figure5,
    "table2": _cmd_table2,
    "figure6": _cmd_figure6,
    "sysperf": _cmd_sysperf,
    "dispatch-bench": _cmd_dispatch_bench,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "cancel": _cmd_cancel,
    "fleet": _cmd_fleet,
    "watch": _cmd_watch,
    "approve": _cmd_approve,
    "reject": _cmd_reject,
    "grant": _cmd_grant,
    "register-vp": _cmd_register_vp,
    "report": _cmd_report,
    "metrics": _cmd_metrics,
    "agent": _cmd_agent,
    "serve": _cmd_serve,
    "federate": _cmd_federate,
    "chaos": _cmd_chaos,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.api.errors import ApiError

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        from repro.obs import configure_logging

        try:
            configure_logging(args.log_level)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    handler = _COMMANDS[args.command]
    try:
        print(handler(args))
    except ApiError as error:
        # The API subcommands speak the typed v1 taxonomy; operators get
        # the stable code and message, not a traceback.
        print(f"error [{error.code}]: {error.message}", file=sys.stderr)
        return 1
    except AssertionError as violation:
        # A chaos run's invariant violation: the metrics were already
        # printed; the verdicts land on stderr with a failing exit code.
        print(str(violation), file=sys.stderr)
        return 1
    except ValueError as error:
        # Bad operator input (unknown scenario name, malformed scenario
        # file, invalid soak sizing): a clean message, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
