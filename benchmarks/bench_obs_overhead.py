"""Telemetry overhead benchmark: the observability layer's hot-path tax.

PR 7's telemetry layer instruments the two hottest paths in the platform —
the gateway's selector loop (per-batch request counters and latency
histograms) and the dispatch pass's admit/run/settle steps (per-phase
histograms plus lifecycle trace spans).  Telemetry ships default-on, so
its cost is bounded by contract: **≤5% throughput overhead** on both
paths.

This benchmark measures each path twice — registry and tracer enabled
(the default) versus ``Observability.disable()`` — and reports the
throughput ratio ``with / without``.  A ratio of 1.0 means free telemetry;
the contract floor is ``MIN_RATIO`` (0.95, i.e. ≤5% overhead).  Ratios are
normalized within a single run on a single machine, so CI trend-gates
them with a tight band like its other normalized gates.

Shared-machine noise swamps a 5% signal unless the measurement is built
for it, so both phases use one estimator.  Both paths are pure CPU, so
rounds are timed with ``time.process_time`` (wall-clock drift on a shared
host is ±20-40% between identical rounds; CPU time is tighter).
Enabled/disabled rounds run back-to-back as pairs — adjacent in time, so
they share the host's frequency/contention state — with the pair order
flipped every round, GC suspended, and the ratio taken as the trimmed mean
of per-pair ratios (outlier pairs hit by a scheduling burst are
discarded).

* **gateway phase** — byte-level pipelined ``server.status`` reads against
  a live socket gateway (the peak-throughput shape of
  ``bench_api_roundtrip``'s sweep, single connection).
* **wave phase** — dispatch passes that drain ``WAVE_JOBS`` ``noop`` jobs
  from a 12-device fleet.  A ``noop`` payload does no device time, so
  nothing hides telemetry's share of admit, run and settle: this is the
  path the 5% contract is hardest on.  (A payload that sleeps on the
  device would make any telemetry cost look free.)  A round is no larger
  than the tracer's trace bound, so every job it drains is traced, as in a
  live deployment where a job settles soon after its submit.

Results land in ``BENCH_obs_overhead.json`` at the repository root.
``*_per_s`` rates are per CPU-second, from the cleanest round per mode.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_obs_overhead.py``
or under pytest-benchmark via
``PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q``.
"""

from __future__ import annotations

import gc
import json
import socket
import time
from pathlib import Path
from typing import Callable, Dict, List

from repro.accessserver.jobs import JobSpec
from repro.accessserver.payloads import get_payload
from repro.api import ApiGateway, ApiRouter
from repro.core.platform import add_vantage_point, build_default_platform
from repro.device.profiles import SAMSUNG_J7_DUO

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_obs_overhead.json"

#: Contract floor for throughput(with) / throughput(without): telemetry
#: may cost at most 5% on either instrumented hot path.
MIN_RATIO = 0.95

GATEWAY_READS = 2500  # reads per measurement round
GATEWAY_BATCH = 64
GATEWAY_ROUNDS = 40  # alternating-order round pairs; trimmed mean of ratios
TRIM_KEEP = 0.5  # middle fraction of pair ratios kept by the trimmed mean

VANTAGE_POINTS = 4
DEVICES_PER_VP = 3
DEVICES = VANTAGE_POINTS * DEVICES_PER_VP
#: noop jobs drained per round (three dispatch passes).  At most the
#: tracer's 512-trace bound: each job submitted by a direct caller opens a
#: trace, and a round larger than the bound would evict the first jobs'
#: traces before they settle, leaving their lifecycles unrecorded.
WAVE_JOBS = DEVICES * 25
WAVE_ROUNDS = 100  # alternating-order round pairs; trimmed mean of ratios


def _paired_rounds(
    measure: Callable[[], float],
    toggle: Callable[[bool], None],
    rounds: int,
) -> Dict[str, List[float]]:
    """Run ``measure`` in alternating enabled/disabled round pairs.

    The order flips every pair so slow thermal/frequency drift cancels
    instead of biasing whichever mode runs later; callers get the raw
    per-round samples to reduce with the estimator that fits their
    timing regime.
    """
    with_samples: List[float] = []
    without_samples: List[float] = []
    for index in range(rounds):
        order = (
            ((True, with_samples), (False, without_samples))
            if index % 2 == 0
            else ((False, without_samples), (True, with_samples))
        )
        for enabled, sink in order:
            toggle(enabled)
            sink.append(measure())
    toggle(True)
    return {"with": with_samples, "without": without_samples}


def _trimmed_mean(values: List[float], keep: float = TRIM_KEEP) -> float:
    ordered = sorted(values)
    drop = int(len(ordered) * (1.0 - keep) / 2.0)
    kept = ordered[drop : len(ordered) - drop] or ordered
    return sum(kept) / len(kept)


# -- gateway phase -----------------------------------------------------------

def _status_line(request_id: int = 1) -> bytes:
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


def _pipelined_reads_cpu_s(sock: socket.socket, reads: int) -> float:
    """Pipeline pre-encoded status lines; return process CPU seconds spent."""
    line = _status_line()
    received = 0
    started = time.process_time()
    while received < reads:
        burst = min(GATEWAY_BATCH, reads - received)
        sock.sendall(line * burst)
        need = burst
        while need:
            chunk = sock.recv(262144)
            if not chunk:
                raise ConnectionError("gateway closed mid-benchmark")
            need -= chunk.count(b"\n")
        received += burst
    return time.process_time() - started


def _paired_cpu_ratio(
    measure: Callable[[], float], toggle: Callable[[bool], None], rounds: int, units: int
) -> Dict[str, float]:
    """Time ``measure`` (CPU seconds for ``units`` operations) in paired
    rounds with GC suspended; return both rates and the trimmed-mean ratio."""
    gc.collect()
    gc.disable()
    try:
        cpu = _paired_rounds(measure, toggle, rounds)
    finally:
        gc.enable()
    # The ratio is the trimmed mean of per-pair CPU ratios (each pair is
    # adjacent in time); the reported rates use the cleanest round per mode.
    ratios = [
        without / with_ for with_, without in zip(cpu["with"], cpu["without"])
    ]
    return {
        "with": units / min(cpu["with"]),
        "without": units / min(cpu["without"]),
        "ratio": _trimmed_mean(ratios),
    }


def _measure_gateway() -> Dict[str, float]:
    platform = build_default_platform(seed=71, browsers=("chrome",))
    obs = platform.access_server.obs
    gateway = ApiGateway(ApiRouter(platform.access_server))
    gateway.start()
    try:
        host, port = gateway.address
        with socket.create_connection((host, port), timeout=60.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            _pipelined_reads_cpu_s(sock, GATEWAY_READS)  # warm-up

            def measure() -> float:
                return _pipelined_reads_cpu_s(sock, GATEWAY_READS)

            def toggle(enabled: bool) -> None:
                obs.enable() if enabled else obs.disable()

            return _paired_cpu_ratio(measure, toggle, GATEWAY_ROUNDS, GATEWAY_READS)
    finally:
        obs.enable()
        gateway.stop()


# -- wave phase --------------------------------------------------------------

def _build_fleet():
    platform = build_default_platform(
        seed=72, browsers=("chrome",), device_count=DEVICES_PER_VP
    )
    for index in range(1, VANTAGE_POINTS):
        add_vantage_point(
            platform,
            f"node{index + 1}",
            f"Institution {index}",
            device_profiles=[SAMSUNG_J7_DUO] * DEVICES_PER_VP,
            browsers=("chrome",),
        )
    return platform


def _drain_cpu_s(platform, jobs: int) -> float:
    """Queue ``jobs`` noop jobs, then return the CPU seconds of the dispatch
    passes that drain them."""
    server = platform.access_server
    noop = get_payload("noop")
    for index in range(jobs):
        server.submit_job(
            platform.experimenter,
            JobSpec(name=f"obs-{index:04d}", owner="experimenter", run=noop, timeout_s=60.0),
        )
    executed = 0
    started = time.process_time()
    while executed < jobs:
        executed += len(server.run_pending_jobs())
    cpu_s = time.process_time() - started
    assert executed == jobs, (executed, jobs)
    return cpu_s


def _measure_waves() -> Dict[str, float]:
    platform = _build_fleet()
    obs = platform.access_server.obs
    assert WAVE_JOBS <= obs.tracer.max_traces, "every job of a round must be traced"
    _drain_cpu_s(platform, DEVICES * 2)  # warm-up

    def measure() -> float:
        return _drain_cpu_s(platform, WAVE_JOBS)

    def toggle(enabled: bool) -> None:
        obs.enable() if enabled else obs.disable()

    try:
        return _paired_cpu_ratio(measure, toggle, WAVE_ROUNDS, WAVE_JOBS)
    finally:
        obs.enable()


def _measure_with_retry(measure: Callable[[], Dict[str, float]]) -> Dict[str, float]:
    """Measure once; re-measure once if the run lands under the floor.

    On a shared host a single run's estimate can be dragged below the
    floor by a co-tenant burst even when telemetry is within budget; a
    single retry keeps the gate honest (a real >5% regression fails both
    runs) without letting transient noise fail CI.
    """
    first = measure()
    if first["ratio"] >= MIN_RATIO:
        return first
    second = measure()
    return second if second["ratio"] > first["ratio"] else first


def run_obs_overhead_benchmark() -> Dict[str, object]:
    gateway = _measure_with_retry(_measure_gateway)
    waves = _measure_with_retry(_measure_waves)
    gateway_ratio = gateway["ratio"]
    wave_ratio = waves["ratio"]
    return {
        "benchmark": "obs_overhead",
        "gateway_reads": GATEWAY_READS,
        "gateway_reads_with_per_s": round(gateway["with"], 1),
        "gateway_reads_without_per_s": round(gateway["without"], 1),
        "gateway_telemetry_ratio": round(gateway_ratio, 4),
        "wave_jobs": WAVE_JOBS,
        "wave_jobs_with_per_s": round(waves["with"], 1),
        "wave_jobs_without_per_s": round(waves["without"], 1),
        "wave_telemetry_ratio": round(wave_ratio, 4),
        "min_ratio": MIN_RATIO,
    }


def write_result(result: Dict[str, object]) -> None:
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")


def _check(result: Dict[str, object]) -> None:
    for metric in ("gateway_telemetry_ratio", "wave_telemetry_ratio"):
        if result[metric] < MIN_RATIO:
            raise SystemExit(
                f"{metric} = {result[metric]:.3f} < {MIN_RATIO}: telemetry "
                "costs more than the 5% overhead budget"
            )


def test_obs_overhead(benchmark):
    from conftest import report, run_once

    result = run_once(benchmark, run_obs_overhead_benchmark)
    write_result(result)
    report(
        benchmark,
        "Telemetry overhead (throughput with / without, floor 0.95)",
        [
            {
                "path": "gateway pipelined reads (per cpu-s)",
                "with_per_s": result["gateway_reads_with_per_s"],
                "without_per_s": result["gateway_reads_without_per_s"],
                "ratio": result["gateway_telemetry_ratio"],
            },
            {
                "path": "dispatch passes of noop jobs (per cpu-s)",
                "with_per_s": result["wave_jobs_with_per_s"],
                "without_per_s": result["wave_jobs_without_per_s"],
                "ratio": result["wave_telemetry_ratio"],
            },
        ],
    )
    assert result["gateway_telemetry_ratio"] >= MIN_RATIO
    assert result["wave_telemetry_ratio"] >= MIN_RATIO


if __name__ == "__main__":
    outcome = run_obs_overhead_benchmark()
    write_result(outcome)
    print(json.dumps(outcome, indent=2))
    _check(outcome)
