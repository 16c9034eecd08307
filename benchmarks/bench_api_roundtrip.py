"""API throughput microbenchmark: Platform API v1 request/response hot path.

Measures how many client calls per second the v1 stack sustains on the two
transports the SDK ships:

* **in-process** — client -> JSON round trip -> router -> ``AccessServer``;
  this is the per-request envelope/DTO overhead every consumer now pays,
  so it must stay cheap (the CLI, the examples and the experiment drivers
  all go through it);
* **gateway** — the same calls over the JSON-lines socket transport on
  loopback, i.e. the remote-experimenter deployment shape including
  framing and kernel round trips.

Two operation mixes are timed per transport: ``server.status`` reads (the
cheapest full round trip) and ``job.submit`` writes (envelope + DTO
validation + scheduler enqueue).  On top of the serial SDK loops, the
selector-loop gateway is measured under load shapes the thread-per-
connection design could not sustain:

* **pipelined** — the SDK's ``client.pipeline()`` batches: many in-flight
  requests per connection, answered in order, amortizing the per-request
  socket round trip;
* **concurrent sweep** — 1/16/64/256 simultaneous connections, each
  pipelining pre-encoded ``server.status`` lines and counting newline-
  framed responses (byte-level load generators, so the sweep measures
  gateway capacity rather than client-side DTO decoding).

One row prices the response envelope alone: **envelope cost ratio** — the
time ``RequestContext.ok`` takes to wrap a 20-job ``job.list`` payload over
the time it takes to wrap an empty one, both measured in the same run.  A
handler returns wire and the envelope holds it by reference, so the ratio
is ~1; an envelope that walked its payload again would put it far above 2.

One row crosses the whole job path, and is the only isolated benchmark that
runs the CLI's host loop: **settled jobs** — ``noop`` jobs pipelined in
batches through a gateway whose platform is driven by ``cli._host_loop`` on
a thread, first submit to last ``end`` frame.  Its wall-clock band is wide,
so the script also asserts the fact that does not depend on the machine:
the loop never slept straight after a dispatch pass that filled its batch.
An idle loop passes every 5 ms and keeps up with the pipelines, so its
first sleep lasts until ``SETTLED_BACKLOG`` jobs are queued: the passes
after it are full.

Results land in ``BENCH_api_roundtrip.json`` at the repository root.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_api_roundtrip.py``
or under pytest-benchmark via
``PYTHONPATH=src python -m pytest benchmarks/bench_api_roundtrip.py -q``.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List

from repro import cli
from repro.api import ApiGateway, ApiRouter, BatteryLabClient, InProcessTransport
from repro.api.gateway import JsonLinesTransport
from repro.api.ops import OPS, RequestContext
from repro.api.schemas import ApiRequest
from repro.core.platform import build_default_platform

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_api_roundtrip.json"

INPROC_READS = 2000
INPROC_SUBMITS = 500
GATEWAY_READS = 500
GATEWAY_SUBMITS = 200
PIPELINED_READS = 3000
PIPELINE_BATCH = 64
SWEEP_CLIENTS = (1, 16, 64, 256)
SWEEP_READS = 8000  # total per sweep level, split across the clients
SWEEP_BATCH = 64  # requests in flight per connection
SETTLED_JOBS = 2000
SETTLED_BATCH = 20
#: Jobs queued before the host loop's first sleep ends.  A pass every 5 ms
#: keeps up with 20-job pipelines, so without a backlog no pass would fill
#: its batch and the sleep check would have nothing to check.
SETTLED_BACKLOG = 200

ENVELOPE_JOBS = 20
ENVELOPE_CALLS = 5000
ENVELOPE_REPEATS = 21

#: Sanity floor: the in-process API layer must sustain at least this many
#: status reads per second, or the envelope/DTO path has gone quadratic.
MIN_INPROC_READS_PER_S = 200.0


def _time_ops(func, count: int) -> float:
    started = time.perf_counter()
    for _ in range(count):
        func()
    return time.perf_counter() - started


def _measure(client: BatteryLabClient, reads: int, submits: int) -> Dict[str, float]:
    read_seconds = _time_ops(client.server_status, reads)
    counter = iter(range(submits))

    def submit():
        # Pinned to an unregistered vantage point so the queue only grows —
        # the benchmark times the API path, not payload execution.
        client.submit_job(f"bench-{next(counter)}", "noop", vantage_point="node99")

    submit_seconds = _time_ops(submit, submits)
    return {
        "reads": reads,
        "read_seconds": round(read_seconds, 4),
        "reads_per_s": round(reads / read_seconds, 1) if read_seconds else float("inf"),
        "submits": submits,
        "submit_seconds": round(submit_seconds, 4),
        "submits_per_s": round(submits / submit_seconds, 1)
        if submit_seconds
        else float("inf"),
    }


def _measure_envelope_cost() -> Dict[str, float]:
    """Best-of-``ENVELOPE_REPEATS`` µs per success envelope around a
    ``job.list`` page of ``ENVELOPE_JOBS`` jobs and around ``{}``."""
    platform = build_default_platform(seed=13, browsers=("chrome",))
    router = ApiRouter(platform.access_server)
    client = BatteryLabClient(InProcessTransport(router), "admin", "admin-token")
    for index in range(ENVELOPE_JOBS):
        client.submit_job(f"envelope-{index}", "noop", vantage_point="node99")
    request = {
        "op": "job.list",
        "version": "2.0",
        "request_id": 1,
        "auth": {"username": "admin", "token": "admin-token"},
        "payload": {"limit": ENVELOPE_JOBS},
    }
    page = router.handle(request)["payload"]
    assert len(page["jobs"]) == ENVELOPE_JOBS, page
    ctx = RequestContext(
        op=OPS["job.list"],
        request=request,
        envelope=ApiRequest.from_wire(request),
        push=None,
        owner_token=None,
        secure=True,
        started=0.0,
    )

    def seconds(payload: dict) -> float:
        started = time.perf_counter()
        for _ in range(ENVELOPE_CALLS):
            ctx.ok(payload)
        return time.perf_counter() - started

    # Interleaved, with the collector off (as ``timeit`` does), so a burst
    # of noise on the machine lands on both sides of the ratio.
    empty_s = page_s = float("inf")
    gc.disable()
    try:
        for _ in range(ENVELOPE_REPEATS):
            empty_s = min(empty_s, seconds({}))
            page_s = min(page_s, seconds(page))
    finally:
        gc.enable()
    empty_us = empty_s / ENVELOPE_CALLS * 1e6
    page_us = page_s / ENVELOPE_CALLS * 1e6
    return {
        "envelope_us_0_jobs": round(empty_us, 4),
        f"envelope_us_{ENVELOPE_JOBS}_jobs": round(page_us, 4),
        "envelope_cost_ratio_20v0": round(page_us / empty_us, 3),
    }


def _status_line(request_id: int = 1) -> bytes:
    """One pre-encoded ``server.status`` request line (byte-level client)."""
    return (
        json.dumps(
            {
                "op": "server.status",
                "version": "1.0",
                "auth": {"username": "experimenter", "token": "experimenter-token"},
                "payload": {},
                "request_id": request_id,
            }
        ).encode("utf-8")
        + b"\n"
    )


def _measure_pipelined(client: BatteryLabClient, reads: int, batch: int) -> float:
    done = 0
    started = time.perf_counter()
    while done < reads:
        pipe = client.pipeline()
        for _ in range(min(batch, reads - done)):
            pipe.server_status()
        done += len(pipe)
        pipe.flush()
    return time.perf_counter() - started


def _sweep_worker(
    host: str,
    port: int,
    line: bytes,
    per_client: int,
    start: threading.Event,
    errors: List[BaseException],
) -> None:
    """Byte-level load generator: pipeline pre-encoded request lines and
    count newline-framed responses (responses contain no embedded LF)."""
    try:
        with socket.create_connection((host, port), timeout=60.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            start.wait()
            received = 0
            while received < per_client:
                burst = min(SWEEP_BATCH, per_client - received)
                sock.sendall(line * burst)
                need = burst
                while need:
                    chunk = sock.recv(262144)
                    if not chunk:
                        raise ConnectionError("gateway closed mid-sweep")
                    need -= chunk.count(b"\n")
                received += burst
    except BaseException as exc:  # noqa: BLE001 - surfaced to the main thread
        errors.append(exc)


def _measure_sweep(host: str, port: int) -> Dict[str, object]:
    line = _status_line()
    sweep: Dict[str, object] = {}
    for clients in SWEEP_CLIENTS:
        per_client = max(1, SWEEP_READS // clients)
        total = per_client * clients
        start = threading.Event()
        errors: List[BaseException] = []
        threads = [
            threading.Thread(
                target=_sweep_worker,
                args=(host, port, line, per_client, start, errors),
            )
            for _ in range(clients)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05 if clients < 64 else 0.3)  # let everyone connect
        started = time.perf_counter()
        start.set()
        for thread in threads:
            thread.join(timeout=120.0)
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]
        sweep[str(clients)] = {
            "clients": clients,
            "reads": total,
            "elapsed_s": round(elapsed, 4),
            "reads_per_s": round(total / elapsed, 1) if elapsed else float("inf"),
        }
    return sweep


class _SleepAudit:
    """``repro.cli.time`` stand-in: counts the host loop's sleeps, and those
    that directly followed a pass ``dispatch_passes_total`` called full.

    Its sleeps last until ``backlog_queued`` is set (30 s at most), so the
    benchmark can queue a backlog deeper than a batch before passes resume.
    """

    def __init__(self, server) -> None:
        self._server = server
        self._full_before_pass = 0
        self.sleeps = 0
        self.sleeps_after_full_pass = 0
        self.backlog_queued = threading.Event()

    def __getattr__(self, attribute):
        return getattr(time, attribute)

    def pass_begins(self) -> None:
        self._full_before_pass = self._server.dispatch_pass_counts()["full"]

    def sleep(self, seconds: float) -> None:
        self.sleeps += 1
        if self._server.dispatch_pass_counts()["full"] > self._full_before_pass:
            self.sleeps_after_full_pass += 1
        self.backlog_queued.wait(30.0)
        time.sleep(seconds)


def _measure_settled(jobs: int, batch: int, backlog: int) -> Dict[str, float]:
    """Pipelined submits through a gateway driven by ``cli._host_loop``,
    whose passes wait until the first ``backlog`` jobs are queued."""
    platform = build_default_platform(seed=13, browsers=("chrome",))
    gateway = ApiGateway(ApiRouter(platform.access_server))
    host, port = gateway.start()
    audit = _SleepAudit(platform.access_server)
    done = threading.Event()

    def platforms():  # asked once per pass
        if done.is_set():
            raise KeyboardInterrupt  # the loop's stop hook; it stops the gateway
        audit.pass_begins()
        return (platform,)

    cli_time, cli.time = cli.time, audit
    loop = threading.Thread(
        target=cli._host_loop, args=(gateway, "settled-jobs benchmark", platforms, None)
    )
    loop.start()
    try:
        with BatteryLabClient(
            JsonLinesTransport(host, port, timeout_s=30.0),
            "experimenter",
            "experimenter-token",
        ) as client:
            client.server_status()
            started = time.perf_counter()
            for first in range(0, jobs, batch):
                pipe = client.pipeline()
                for index in range(first, min(first + batch, jobs)):
                    pipe.submit_job(f"settled-{index}", "noop")
                last = pipe.flush()[-1]
                if first + batch >= backlog:
                    audit.backlog_queued.set()
            # FIFO onto the one device: the last job's end is everyone's.
            final = client.watch_job(last.job_id, timeout_s=60.0).wait()
            elapsed = time.perf_counter() - started
    finally:
        done.set()
        audit.backlog_queued.set()
        loop.join()
        cli.time = cli_time
    assert final.status == "completed", final.status
    return {
        "jobs": jobs,
        "batch": batch,
        "backlog": backlog,
        "elapsed_s": round(elapsed, 4),
        "jobs_per_s": round(jobs / elapsed, 1),
        "dispatch_passes": platform.access_server.dispatch_pass_counts(),
        "host_loop_sleeps": audit.sleeps,
        "sleeps_after_full_pass": audit.sleeps_after_full_pass,
    }


def run_api_roundtrip_benchmark() -> Dict[str, object]:
    # Each transport gets a fresh platform: submitted jobs accumulate in the
    # queue (and in the server-status orphan scan), so sharing one server
    # would bleed the first phase's queue depth into the second's timings.
    inproc_platform = build_default_platform(seed=13, browsers=("chrome",))
    inproc = _measure(
        BatteryLabClient(
            InProcessTransport(ApiRouter(inproc_platform.access_server)),
            "experimenter",
            "experimenter-token",
        ),
        INPROC_READS,
        INPROC_SUBMITS,
    )

    gateway_platform = build_default_platform(seed=13, browsers=("chrome",))
    gateway = ApiGateway(ApiRouter(gateway_platform.access_server))
    host, port = gateway.start()
    try:
        remote_client = BatteryLabClient(
            JsonLinesTransport(host, port, timeout_s=30.0),
            "experimenter",
            "experimenter-token",
        )
        remote = _measure(remote_client, GATEWAY_READS, GATEWAY_SUBMITS)
        remote_client.close()
    finally:
        gateway.stop()

    # The pipelined and sweep phases also get a fresh platform: the serial
    # phase parks GATEWAY_SUBMITS jobs in the queue, and server.status runs
    # an orphan scan that is O(queue depth) — reusing that server would
    # measure the scan, not gateway capacity.
    burst_platform = build_default_platform(seed=13, browsers=("chrome",))
    burst_gateway = ApiGateway(ApiRouter(burst_platform.access_server))
    host, port = burst_gateway.start()
    try:
        burst_client = BatteryLabClient(
            JsonLinesTransport(host, port, timeout_s=30.0),
            "experimenter",
            "experimenter-token",
        )
        pipelined_seconds = _measure_pipelined(
            burst_client, PIPELINED_READS, PIPELINE_BATCH
        )
        burst_client.close()
        sweep = _measure_sweep(host, port)
    finally:
        burst_gateway.stop()

    pipelined_reads_per_s = (
        round(PIPELINED_READS / pipelined_seconds, 1)
        if pipelined_seconds
        else float("inf")
    )
    peak = max(level["reads_per_s"] for level in sweep.values())
    settled = _measure_settled(SETTLED_JOBS, SETTLED_BATCH, SETTLED_BACKLOG)
    envelope = _measure_envelope_cost()
    return {
        "benchmark": "api_roundtrip",
        "api_version": "1.0",
        "inproc_reads_per_s": inproc["reads_per_s"],
        "inproc_submits_per_s": inproc["submits_per_s"],
        "gateway_reads_per_s": remote["reads_per_s"],
        "gateway_submits_per_s": remote["submits_per_s"],
        "gateway_pipelined_reads_per_s": pipelined_reads_per_s,
        "gateway_peak_reads_per_s": peak,
        "gateway_settled_jobs_per_s": settled["jobs_per_s"],
        "envelope_cost_ratio_20v0": envelope["envelope_cost_ratio_20v0"],
        "envelope": envelope,
        "gateway_settled": settled,
        "gateway_sweep": sweep,
        "inproc": inproc,
        "gateway": remote,
        "pipeline_batch": PIPELINE_BATCH,
        "min_inproc_reads_per_s": MIN_INPROC_READS_PER_S,
    }


def write_result(result: Dict[str, object]) -> None:
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")


def settled_fault(result: Dict[str, object]) -> str:
    """What the settled-jobs row got wrong on any hardware ("" if nothing)."""
    settled = result["gateway_settled"]
    if not settled["dispatch_passes"]["full"]:
        return f"no dispatch pass filled its batch, so nothing was tested: {settled}"
    if settled["sleeps_after_full_pass"]:
        return f"the host loop slept straight after a full dispatch pass: {settled}"
    return ""


def test_api_roundtrip(benchmark):
    from conftest import report, run_once

    result = run_once(benchmark, run_api_roundtrip_benchmark)
    write_result(result)
    report(
        benchmark,
        "Platform API v1 round-trip throughput",
        [
            {
                "transport": "in-process",
                "reads_per_s": result["inproc_reads_per_s"],
                "submits_per_s": result["inproc_submits_per_s"],
            },
            {
                "transport": "gateway (loopback)",
                "reads_per_s": result["gateway_reads_per_s"],
                "submits_per_s": result["gateway_submits_per_s"],
            },
            {
                "transport": f"gateway pipelined (batch {PIPELINE_BATCH})",
                "reads_per_s": result["gateway_pipelined_reads_per_s"],
            },
            {
                "transport": f"gateway + host loop, settled jobs (batch {SETTLED_BATCH})",
                "jobs_per_s": result["gateway_settled_jobs_per_s"],
            },
            {
                "transport": f"success envelope, {ENVELOPE_JOBS}-job page / empty",
                "cost_ratio": result["envelope_cost_ratio_20v0"],
            },
            *(
                {
                    "transport": f"gateway sweep ({level['clients']} clients)",
                    "reads_per_s": level["reads_per_s"],
                }
                for level in result["gateway_sweep"].values()
            ),
        ],
    )
    assert result["inproc_reads_per_s"] >= MIN_INPROC_READS_PER_S
    assert not settled_fault(result)


if __name__ == "__main__":
    outcome = run_api_roundtrip_benchmark()
    write_result(outcome)
    print(json.dumps(outcome, indent=2))
    if outcome["inproc_reads_per_s"] < MIN_INPROC_READS_PER_S:
        raise SystemExit(
            f"in-process API reads fell to {outcome['inproc_reads_per_s']}/s; "
            f"floor is {MIN_INPROC_READS_PER_S}/s"
        )
    fault = settled_fault(outcome)
    if fault:
        raise SystemExit(fault)
