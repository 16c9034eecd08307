"""Wave-executor benchmark: parallel payload execution across a fleet.

Drives the journal-replay fleet topology (8 vantage points x 3 devices)
through one full dispatch wave of sleep payloads twice — serial execution
versus ``AccessServer.enable_parallel_waves`` — and measures the
wall-clock speedup.  Payload ``time.sleep`` stands in for the real
device-bound work (installing an APK over ADB, driving a browser run)
whose latency the access server should overlap across devices; an ideal
executor finishes a 24-device wave in ~1/24th of the serial wall clock.

Both runs journal to disk and the benchmark asserts the byte-identical
journal contract: parallelism must not change what is recorded, only how
long the wave takes.

Results land in ``BENCH_wave_executor.json`` at the repository root and
are trend-gated in CI next to the dispatch and API benchmarks.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_wave_executor.py``
or under pytest-benchmark via
``PYTHONPATH=src python -m pytest benchmarks/bench_wave_executor.py -q``.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Dict

from repro.accessserver import jobs as jobs_module
from repro.accessserver.jobs import JobSpec
from repro.accessserver.payloads import (
    get_payload,
    register_payload,
    unregister_payload,
)
from repro.core.platform import add_vantage_point, build_default_platform
from repro.device.profiles import SAMSUNG_J7_DUO

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_wave_executor.json"

VANTAGE_POINTS = 8
DEVICES_PER_VP = 3  # controllers expose 4 USB ports; keep one free
DEVICES = VANTAGE_POINTS * DEVICES_PER_VP
SLEEP_S = 0.05  # per-payload device-bound latency the executor must overlap

PAYLOAD_NAME = "bench/wave-sleep"

#: Sanity floor: a full wave of sleep payloads must finish at least this
#: many times faster than serial execution, or the executor is not
#: actually overlapping payload latency.
MIN_SPEEDUP = 6.0


def _sleep_payload(ctx):
    time.sleep(SLEEP_S)
    return {"slept_s": SLEEP_S}


def _build_fleet():
    platform = build_default_platform(
        seed=9, browsers=("chrome",), device_count=DEVICES_PER_VP
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


def _run_wave(parallel: bool, state_dir: str) -> Dict[str, float]:
    # Job ids come from a process-global allocator; pin it so the serial
    # and parallel runs journal identical ids and the byte comparison
    # below is meaningful.
    jobs_module._job_ids._next = 10**6

    platform = _build_fleet()
    server = platform.access_server
    server.enable_persistence(state_dir, snapshot_every=10**9)
    if parallel:
        server.enable_parallel_waves()
    for index in range(DEVICES):
        server.submit_job(
            platform.experimenter,
            JobSpec(
                name=f"wave-{index:02d}",
                owner="experimenter",
                run=get_payload(PAYLOAD_NAME),
                timeout_s=60.0,
            ),
        )
    started = time.perf_counter()
    executed = server.run_pending_jobs(max_jobs=DEVICES)
    wall_s = time.perf_counter() - started
    assert len(executed) == DEVICES, (len(executed), DEVICES)
    if parallel:
        server.disable_parallel_waves()
    return {"wall_s": wall_s, "jobs": len(executed)}


def run_wave_executor_benchmark() -> Dict[str, object]:
    register_payload(PAYLOAD_NAME, _sleep_payload)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            serial_dir = str(Path(tmp) / "serial")
            parallel_dir = str(Path(tmp) / "parallel")
            serial = _run_wave(parallel=False, state_dir=serial_dir)
            parallel = _run_wave(parallel=True, state_dir=parallel_dir)
            journal_identical = (
                Path(serial_dir, "journal.jsonl").read_bytes()
                == Path(parallel_dir, "journal.jsonl").read_bytes()
            )
    finally:
        unregister_payload(PAYLOAD_NAME)

    speedup = serial["wall_s"] / parallel["wall_s"] if parallel["wall_s"] else 0.0
    return {
        "benchmark": "wave_executor",
        "devices": DEVICES,
        "payload_sleep_s": SLEEP_S,
        "serial_wall_s": round(serial["wall_s"], 4),
        "parallel_wall_s": round(parallel["wall_s"], 4),
        "speedup": round(speedup, 2),
        "parallel_jobs_per_s": round(parallel["jobs"] / parallel["wall_s"], 1)
        if parallel["wall_s"]
        else float("inf"),
        "journal_identical": journal_identical,
        "min_speedup": MIN_SPEEDUP,
    }


def write_result(result: Dict[str, object]) -> None:
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")


def test_wave_executor(benchmark):
    from conftest import report, run_once

    result = run_once(benchmark, run_wave_executor_benchmark)
    write_result(result)
    report(
        benchmark,
        "Parallel wave executor (24-device wave of sleep payloads)",
        [
            {
                "devices": result["devices"],
                "serial_wall_s": result["serial_wall_s"],
                "parallel_wall_s": result["parallel_wall_s"],
                "speedup": result["speedup"],
            }
        ],
    )
    assert result["journal_identical"], "parallel wave changed the journal"
    assert result["speedup"] >= MIN_SPEEDUP


if __name__ == "__main__":
    outcome = run_wave_executor_benchmark()
    write_result(outcome)
    print(json.dumps(outcome, indent=2))
    if not outcome["journal_identical"]:
        raise SystemExit("parallel wave execution changed the journal bytes")
    if outcome["speedup"] < MIN_SPEEDUP:
        raise SystemExit(
            f"wave speedup fell to {outcome['speedup']}x; floor is {MIN_SPEEDUP}x"
        )
