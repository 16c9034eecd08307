"""Agent-pull benchmark: poll→claim→report round-trips and multi-claims.

Measures the server-side cost of the agent-pull execution plane:

* **round-trips** — one full ``agent.poll`` → ``agent.claim`` →
  ``agent.report`` cycle per queued job, driven through the in-process
  client.  Run once with a single agent identity and once spread over 8
  registered agents, so growth in the registry/lease bookkeeping shows up
  as a retention ratio, not just a wall-clock delta;
* **multi-device claims** — ``agent.claim`` on ``device_count=4`` jobs,
  where the server must check and hold every slot all-or-nothing under
  one lease;
* **parked polls** — over a real socket gateway: how long a parked
  ``agent.poll`` takes to return once the submit that feeds it is acked
  (``parked_wake_ms_p50``, one agent), and what a ``job.submit`` costs
  while 8 agents sit parked on the gateway's one dispatch thread
  (``submit_ms_p50_8_parked``).  Before polls were parked as requests
  these were 25–50 ms (the 50 ms re-check) and ~1.7 s (every worker held
  by a poll); the script holds both under 10 ms.  The same row counts the
  live ``batterylab-gw-worker`` threads while the agents are parked
  (``gateway_dispatch_threads``, held at 1 in CI);
* **the outbox at rest** — what 10,000 settled jobs leave in one daemon's
  outbox file (``outbox_bytes_after_10k_jobs``) and what a ``resume()``
  then costs with nothing pending (``resume_ms_after_10k_settled``).
  Before compaction and the in-memory fold these were ~7.5 MB and ~560 ms
  (the whole file parsed twice); the script holds them to one compaction
  bound plus a lease, and 5 ms.  ``os.fsync`` is stubbed for this row: it
  prices bytes and the resume, and 10,000 real fsyncs would price the disk.
  The stub counts its calls (``outbox_fsyncs_per_job``): one per settled
  lease plus a compaction's share, ~1.02 (~6.02 while every record was
  fsync'd); held under 1.1;
* **a deep queue on the other plane** — an ``agent.poll`` with 10,000 push
  jobs queued that cannot run (``poll_ms_10k_push_queued``), and one
  dispatch pass (``run_pending_jobs``) with 10,000 agent jobs queued and
  free devices (``dispatch_pass_ms_10k_agent_queued``).  While both planes
  walked the whole queue these were 6.2 and 3.0 ms on a 2-vCPU VM; the
  queue is indexed by plane, so each is held under 0.5 ms.

Results land in ``BENCH_agent_pull.json`` at the repository root; CI
trend-gates the wall-clock rates (50% bands, like the other requests/s
benchmarks) and this script enforces absolute sanity floors when run
standalone.  Run with
``PYTHONPATH=src python benchmarks/bench_agent_pull.py`` or under
pytest-benchmark via
``PYTHONPATH=src python -m pytest benchmarks/bench_agent_pull.py -q``.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List
from unittest import mock

from repro.accessserver.jobs import JobConstraints, JobSpec
from repro.accessserver.payloads import noop_payload
from repro.agent import CONNECTOR_PHASES, AgentDaemon
from repro.agent.outbox import COMPACT_BYTES
from repro.api import BatteryLabClient, JsonLinesTransport, TransportApiError
from repro.core.platform import build_default_platform

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_agent_pull.json"

ROUNDTRIP_JOBS = 200
MULTI_CLAIMS = 50
MULTI_DEVICE_COUNT = 4
PARKED_ROUNDS = 50
PARKED_AGENTS = 8
OUTBOX_JOBS = 10_000
DEEP_QUEUE_JOBS = 10_000
DEEP_QUEUE_ROUNDS = 20

#: Absolute sanity floors — an in-process agent plane slower than this is
#: a code regression, not hardware variance.
MIN_ROUNDTRIPS_PER_S = 50.0
MIN_MULTI_CLAIMS_PER_S = 25.0

#: Absolute ceilings on the parked-poll rows (also CI's gate): the wake is
#: a re-check and two socket writes, the submit must not queue behind a poll.
MAX_PARKED_WAKE_MS = 10.0
MAX_SUBMIT_MS_8_PARKED = 10.0

#: Absolute ceilings on the outbox rows (also CI's gate): the file is under
#: the compaction bound unless the last job just crossed it (one lease's
#: records, < 1 KiB), and a resume with nothing pending reads no file.
MAX_OUTBOX_BYTES_AFTER_10K = COMPACT_BYTES + 1024
MAX_RESUME_MS_AFTER_10K = 5.0
MAX_OUTBOX_FSYNCS_PER_JOB = 1.1

#: Absolute ceilings on the deep-queue rows (also CI's gate): neither plane
#: pays for the jobs queued on the other.
MAX_POLL_MS_10K_PUSH_QUEUED = 0.5
MAX_DISPATCH_PASS_MS_10K_AGENT_QUEUED = 0.5


def _platform_with_devices(device_count: int):
    platform = build_default_platform(seed=11, browsers=("chrome",), analytics=False)
    admin = platform.client(username="admin")
    admin.register_vantage_point(
        "bench-node", "Bench University", device_count=device_count
    )
    return platform


def _bench_roundtrips(agent_count: int) -> Dict[str, object]:
    platform = _platform_with_devices(4)
    client = platform.client()
    agent_ids = [f"bench-agent-{index}" for index in range(agent_count)]
    for agent_id in agent_ids:
        client.agent_register(agent_id, connectors=["fake"])
    for index in range(ROUNDTRIP_JOBS):
        client.submit_job(
            f"pull-{index}", "noop", execution="agent", connector="fake"
        )

    started = time.perf_counter()
    settled = 0
    while settled < ROUNDTRIP_JOBS:
        agent_id = agent_ids[settled % agent_count]
        offers = client.agent_poll(agent_id, limit=1).offers
        assert offers, f"queue dried up after {settled} round-trips"
        lease = client.agent_claim(agent_id, offers[0].job_id)
        client.agent_report(lease.lease_id, agent_id, "completed")
        settled += 1
    elapsed = time.perf_counter() - started
    return {
        "agents": agent_count,
        "roundtrips": ROUNDTRIP_JOBS,
        "roundtrips_per_s": round(ROUNDTRIP_JOBS / elapsed, 1),
    }


def _bench_multi_claims() -> Dict[str, object]:
    platform = _platform_with_devices(MULTI_DEVICE_COUNT)
    client = platform.client()
    client.agent_register("bench-multi", connectors=["fake", "multi"])
    for index in range(MULTI_CLAIMS):
        client.submit_job(
            f"multi-{index}",
            "noop",
            execution="agent",
            connector="multi",
            device_count=MULTI_DEVICE_COUNT,
        )

    started = time.perf_counter()
    for _ in range(MULTI_CLAIMS):
        offers = client.agent_poll("bench-multi", limit=1).offers
        lease = client.agent_claim("bench-multi", offers[0].job_id)
        assert len(lease.devices) == MULTI_DEVICE_COUNT
        client.agent_report(lease.lease_id, "bench-multi", "completed")
    elapsed = time.perf_counter() - started
    return {
        "multi_claims": MULTI_CLAIMS,
        "device_count": MULTI_DEVICE_COUNT,
        "multi_claims_per_s": round(MULTI_CLAIMS / elapsed, 1),
    }


def _socket_client(gateway) -> BatteryLabClient:
    return BatteryLabClient(
        JsonLinesTransport(*gateway.address, timeout_s=60.0),
        "experimenter",
        "experimenter-token",
    )


def _park(gateway, agent_id: str, returned: List[float]) -> threading.Thread:
    """Long-poll for ``agent_id`` on its own connection and thread; the
    wall time the poll returned at is appended to ``returned``."""
    parked_before = gateway._router.parked_polls()

    def poll() -> None:
        with _socket_client(gateway) as client:
            try:
                client.agent_poll(agent_id, wait_s=30.0, limit=1)
            except TransportApiError:  # still parked when the gateway stopped
                return
            returned.append(time.perf_counter())

    thread = threading.Thread(target=poll, daemon=True)
    thread.start()
    while gateway._router.parked_polls() == parked_before:
        time.sleep(0.0005)
    return thread


def _bench_parked_wake() -> Dict[str, object]:
    platform = _platform_with_devices(4)
    gateway = platform.serve_gateway()
    try:
        with _socket_client(gateway) as client:
            client.agent_register("bench-parked", connectors=["fake"])
            wakes_ms, from_send_ms = [], []
            for index in range(PARKED_ROUNDS):
                returned: List[float] = []
                thread = _park(gateway, "bench-parked", returned)
                sent = time.perf_counter()
                job = client.submit_job(
                    f"wake-{index}", "noop", execution="agent", connector="fake"
                )
                acked = time.perf_counter()
                thread.join()
                # The poll's answer is queued before the submit's ack is, so
                # it usually wins the race to its reader: 0 ms after the ack.
                wakes_ms.append(max(0.0, returned[0] - acked) * 1000.0)
                from_send_ms.append((returned[0] - sent) * 1000.0)
                lease = client.agent_claim("bench-parked", job.job_id)
                client.agent_report(lease.lease_id, "bench-parked", "completed")
    finally:
        gateway.stop()
    return {
        "parked_agents": 1,
        "rounds": PARKED_ROUNDS,
        "parked_wake_ms_p50": round(statistics.median(wakes_ms), 3),
        "parked_wake_ms_max": round(max(wakes_ms), 3),
        "parked_wake_from_send_ms_p50": round(statistics.median(from_send_ms), 3),
    }


def _bench_submit_with_parked_agents() -> Dict[str, object]:
    platform = _platform_with_devices(4)
    gateway = platform.serve_gateway()
    try:
        with _socket_client(gateway) as client:
            # Parked on a connector no job below asks for: every submit
            # re-checks all of them and wakes none.
            for index in range(PARKED_AGENTS):
                client.agent_register(f"bench-idle-{index}", connectors=["noprovision"])
                _park(gateway, f"bench-idle-{index}", [])
            dispatch_threads = sum(
                thread.name.startswith("batterylab-gw-worker")
                for thread in threading.enumerate()
            )
            submits_ms = []
            for index in range(PARKED_ROUNDS):
                started = time.perf_counter()
                client.submit_job(
                    f"busy-{index}", "noop", execution="agent", connector="fake"
                )
                submits_ms.append((time.perf_counter() - started) * 1000.0)
            still_parked = gateway._router.parked_polls()
    finally:
        gateway.stop()
    assert still_parked == PARKED_AGENTS, f"{still_parked} agents still parked"
    return {
        "parked_agents": PARKED_AGENTS,
        "gateway_dispatch_threads": dispatch_threads,
        "submits": PARKED_ROUNDS,
        "submit_ms_p50_8_parked": round(statistics.median(submits_ms), 3),
        "submit_ms_max_8_parked": round(max(submits_ms), 3),
    }


def _bench_outbox_at_rest() -> Dict[str, object]:
    """The six records of a noop job, as the daemon journals them, 10,000
    times over; then ``resume()`` on the same long-lived daemon."""
    with tempfile.TemporaryDirectory(prefix="bench-outbox-") as root:
        # Nothing pending: the resume never reaches for its client.
        daemon = AgentDaemon(None, "bench-outbox", os.path.join(root, "outbox.jsonl"))
        outbox = daemon.outbox
        fsyncs: List[int] = []
        with mock.patch.object(os, "fsync", fsyncs.append):
            for index in range(OUTBOX_JOBS):
                lease_id = f"lease-{index}"
                outbox.append(
                    "claim", lease_id=lease_id, agent_id=daemon.agent_id, job_id=index,
                    job_name=f"pull-{index}", owner="experimenter", payload="noop",
                    devices=[["bench-node", "bench-node-dev00"]],
                )
                for phase in CONNECTOR_PHASES:
                    outbox.append(
                        "phase", lease_id=lease_id, phase=phase, status="ok", output=""
                    )
                outbox.append(
                    "result", lease_id=lease_id, status="completed", result=None,
                    error=None, children=[],
                )
                outbox.append("uploaded", lease_id=lease_id, duplicate=False)
        file_bytes = os.path.getsize(outbox.path)
        resumes_ms = []
        for _ in range(5):
            started = time.perf_counter()
            assert daemon.resume() == []
            resumes_ms.append((time.perf_counter() - started) * 1000.0)
        outbox.close()
    return {
        "outbox_jobs": OUTBOX_JOBS,
        "outbox_bytes_after_10k_jobs": file_bytes,
        "outbox_compactions": outbox.compactions,
        "outbox_fsyncs_per_job": round(len(fsyncs) / OUTBOX_JOBS, 4),
        "resume_ms_after_10k_settled": round(statistics.median(resumes_ms), 3),
    }


def _median_ms(call, rounds: int = DEEP_QUEUE_ROUNDS) -> float:
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        call()
        samples.append((time.perf_counter() - started) * 1000.0)
    return round(statistics.median(samples), 3)


def _fill_queue(platform, count: int, **spec) -> None:
    server, user = platform.access_server, platform.experimenter
    for index in range(count):
        server.submit_job(user, JobSpec(f"deep-{index}", user.username, noop_payload, **spec))


def _bench_deep_queue() -> Dict[str, object]:
    """What one plane pays for 10,000 jobs queued on the other."""
    platform = _platform_with_devices(4)
    client = platform.client()
    client.agent_register("bench-deep", connectors=["fake"])
    # Pinned to a device the node does not have: queued for good.
    _fill_queue(
        platform,
        DEEP_QUEUE_JOBS,
        constraints=JobConstraints(vantage_point="bench-node", device_serial="absent"),
    )
    assert client.agent_poll("bench-deep").offers == []
    poll_ms = _median_ms(lambda: client.agent_poll("bench-deep"))

    platform = _platform_with_devices(4)
    server = platform.access_server
    _fill_queue(
        platform, DEEP_QUEUE_JOBS, execution="agent", constraints=JobConstraints(connector="fake")
    )
    assert server.run_pending_jobs() == []
    pass_ms = _median_ms(server.run_pending_jobs)
    return {
        "queued_jobs": DEEP_QUEUE_JOBS,
        "poll_ms_10k_push_queued": poll_ms,
        "dispatch_pass_ms_10k_agent_queued": pass_ms,
    }


def run_agent_pull_benchmark() -> Dict[str, object]:
    rows: List[Dict[str, object]] = [
        _bench_roundtrips(1),
        _bench_roundtrips(8),
        _bench_multi_claims(),
        _bench_parked_wake(),
        _bench_submit_with_parked_agents(),
        _bench_outbox_at_rest(),
        _bench_deep_queue(),
    ]
    result: Dict[str, object] = {"benchmark": "agent_pull", "rows": rows}
    result["roundtrips_per_s_1agent"] = rows[0]["roundtrips_per_s"]
    result["roundtrips_per_s_8agent"] = rows[1]["roundtrips_per_s"]
    result["multi_claims_per_s"] = rows[2]["multi_claims_per_s"]
    result["parked_wake_ms_p50"] = rows[3]["parked_wake_ms_p50"]
    result["submit_ms_p50_8_parked"] = rows[4]["submit_ms_p50_8_parked"]
    result["gateway_dispatch_threads"] = rows[4]["gateway_dispatch_threads"]
    result["outbox_bytes_after_10k_jobs"] = rows[5]["outbox_bytes_after_10k_jobs"]
    result["resume_ms_after_10k_settled"] = rows[5]["resume_ms_after_10k_settled"]
    result["outbox_fsyncs_per_job"] = rows[5]["outbox_fsyncs_per_job"]
    result["poll_ms_10k_push_queued"] = rows[6]["poll_ms_10k_push_queued"]
    result["dispatch_pass_ms_10k_agent_queued"] = rows[6]["dispatch_pass_ms_10k_agent_queued"]
    # Normalized shape check: 8 registered agents must not make each
    # round-trip meaningfully slower than a lone agent's (the offer scan
    # and lease maps are per-job, not per-agent).
    result["roundtrip_retention_8v1"] = round(
        result["roundtrips_per_s_8agent"] / result["roundtrips_per_s_1agent"], 4
    )
    result["min_roundtrips_per_s"] = MIN_ROUNDTRIPS_PER_S
    result["min_multi_claims_per_s"] = MIN_MULTI_CLAIMS_PER_S
    result["max_parked_wake_ms"] = MAX_PARKED_WAKE_MS
    result["max_submit_ms_8_parked"] = MAX_SUBMIT_MS_8_PARKED
    result["max_outbox_bytes_after_10k_jobs"] = MAX_OUTBOX_BYTES_AFTER_10K
    result["max_resume_ms_after_10k_settled"] = MAX_RESUME_MS_AFTER_10K
    result["max_outbox_fsyncs_per_job"] = MAX_OUTBOX_FSYNCS_PER_JOB
    result["max_poll_ms_10k_push_queued"] = MAX_POLL_MS_10K_PUSH_QUEUED
    result["max_dispatch_pass_ms_10k_agent_queued"] = MAX_DISPATCH_PASS_MS_10K_AGENT_QUEUED
    return result


def write_result(result: Dict[str, object]) -> None:
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")


def _enforce_floors(result: Dict[str, object]) -> None:
    for metric in ("roundtrips_per_s_1agent", "roundtrips_per_s_8agent"):
        if result[metric] < MIN_ROUNDTRIPS_PER_S:
            raise SystemExit(
                f"{metric} sustained {result[metric]} round-trips/s; "
                f"floor is {MIN_ROUNDTRIPS_PER_S}"
            )
    if result["multi_claims_per_s"] < MIN_MULTI_CLAIMS_PER_S:
        raise SystemExit(
            f"multi-device claims sustained {result['multi_claims_per_s']}/s; "
            f"floor is {MIN_MULTI_CLAIMS_PER_S}"
        )
    for metric, ceiling in (
        ("parked_wake_ms_p50", MAX_PARKED_WAKE_MS),
        ("submit_ms_p50_8_parked", MAX_SUBMIT_MS_8_PARKED),
        ("outbox_bytes_after_10k_jobs", MAX_OUTBOX_BYTES_AFTER_10K),
        ("resume_ms_after_10k_settled", MAX_RESUME_MS_AFTER_10K),
        ("outbox_fsyncs_per_job", MAX_OUTBOX_FSYNCS_PER_JOB),
        ("poll_ms_10k_push_queued", MAX_POLL_MS_10K_PUSH_QUEUED),
        ("dispatch_pass_ms_10k_agent_queued", MAX_DISPATCH_PASS_MS_10K_AGENT_QUEUED),
    ):
        if result[metric] > ceiling:
            raise SystemExit(f"{metric} is {result[metric]}; ceiling is {ceiling}")


def test_agent_pull(benchmark):
    from conftest import report, run_once

    result = run_once(benchmark, run_agent_pull_benchmark)
    write_result(result)
    report(benchmark, "Agent pull — round-trips and multi-device claims", result["rows"])
    assert result["roundtrips_per_s_1agent"] >= MIN_ROUNDTRIPS_PER_S
    assert result["roundtrips_per_s_8agent"] >= MIN_ROUNDTRIPS_PER_S
    assert result["multi_claims_per_s"] >= MIN_MULTI_CLAIMS_PER_S
    assert result["parked_wake_ms_p50"] <= MAX_PARKED_WAKE_MS
    assert result["submit_ms_p50_8_parked"] <= MAX_SUBMIT_MS_8_PARKED
    assert result["outbox_bytes_after_10k_jobs"] <= MAX_OUTBOX_BYTES_AFTER_10K
    assert result["resume_ms_after_10k_settled"] <= MAX_RESUME_MS_AFTER_10K
    assert result["outbox_fsyncs_per_job"] <= MAX_OUTBOX_FSYNCS_PER_JOB
    assert result["poll_ms_10k_push_queued"] <= MAX_POLL_MS_10K_PUSH_QUEUED
    assert result["dispatch_pass_ms_10k_agent_queued"] <= MAX_DISPATCH_PASS_MS_10K_AGENT_QUEUED


if __name__ == "__main__":
    outcome = run_agent_pull_benchmark()
    write_result(outcome)
    print(json.dumps(outcome, indent=2))
    _enforce_floors(outcome)
