"""Journal replay benchmark: crash-recovering fleet-scale access-server state.

Drives a real platform through a fleet-scale session — thousands of job
submissions, hundreds of session reservations, credit traffic, a thousand
executed jobs and an assigned-but-unfinished wave — with the write-ahead
journal attached, then "kills" the process and measures how fast
``recover_into`` replays the snapshot + journal (≥10k events) into a fresh
server.

The run also asserts the durability contract end-to-end: after recovery the
dispatcher must produce the *identical* assignment sequence that the
uninterrupted server would have produced from the same point (in-flight
jobs re-queued at their original positions included).

It also prices the other half of the journal's cost, the checkpoint: with
1k and 10k settled jobs retained (plus a blocked queue), how long one
checkpoint stalls the dispatch thread when 10 jobs settled since the
previous one (``checkpoint_ms_*``, median of 5, ``FileBackend`` with its
fsyncs), and how many job records that checkpoint had to encode
(``checkpoint_encoded_jobs_10k`` — an exact count: live + 10, whatever
is retained).

And it sizes the state at rest for the replay workload:
``journal_bytes_per_job`` (the uncompacted journal over the jobs submitted)
and ``snapshot_bytes_per_job`` (what a checkpoint of the same state would
write, over the same jobs).  Bytes repeat exactly from run to run, so CI
holds them to a 2 % band where the timings get 50 %.  Results land in
``BENCH_journal_replay.json`` at the repository root.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_journal_replay.py``
or under pytest-benchmark via
``PYTHONPATH=src python -m pytest benchmarks/bench_journal_replay.py -q``.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.accessserver.jobs import JobConstraints, JobSpec, JobStatus
from repro.accessserver.persistence import (
    FileBackend,
    build_snapshot,
    encode_snapshot,
    noop_payload,
    recover_into,
)
from repro.core.platform import add_vantage_point, build_default_platform
from repro.device.profiles import SAMSUNG_J7_DUO

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_journal_replay.json"

VANTAGE_POINTS = 8
DEVICES_PER_VP = 3  # controllers expose 4 USB ports; keep one free
DEVICES = VANTAGE_POINTS * DEVICES_PER_VP
SUBMISSIONS = 8000
EXECUTED = 1000
RESERVATIONS = 300
RESERVATIONS_CANCELLED = 100
MIN_JOURNAL_EVENTS = 10_000
CHECKPOINT_LIVE_JOBS = 50
CHECKPOINT_NEW_SETTLES = 10
CHECKPOINT_ROUNDS = 5


def _vp_name(index: int) -> str:
    return f"node{index + 1}"


def _device_serial(index: int) -> str:
    vp = index % VANTAGE_POINTS
    return f"{_vp_name(vp)}-dev{index // VANTAGE_POINTS:02d}"


def build_fleet():
    """The benchmark topology: 8 vantage points × 3 devices."""
    platform = build_default_platform(
        seed=9, browsers=("chrome",), device_count=DEVICES_PER_VP
    )
    for index in range(1, VANTAGE_POINTS):
        add_vantage_point(
            platform,
            _vp_name(index),
            f"Institution {index}",
            device_profiles=[SAMSUNG_J7_DUO] * DEVICES_PER_VP,
            browsers=("chrome",),
        )
    return platform


def build_loaded_platform(state_dir: str):
    """The fleet with persistence attached and heavy journaled state."""
    platform = build_fleet()
    server = platform.access_server
    # Keep every event in the journal (no auto-compaction) so the replay
    # benchmark measures a worst-case, snapshot-less recovery.
    server.enable_persistence(state_dir, snapshot_every=10**9)
    server.enable_credit_system(initial_grant_device_hours=100_000.0)

    for index in range(RESERVATIONS):
        serial = _device_serial(index % DEVICES)
        reservation = server.reserve_session(
            platform.admin,
            serial.rsplit("-", 1)[0],
            serial,
            start_s=10_000.0 + 1000.0 * index,
            duration_s=600.0,
        )
        if index < RESERVATIONS_CANCELLED:
            server.scheduler.cancel_reservation(reservation.reservation_id)

    for index in range(SUBMISSIONS):
        kwargs: Dict[str, object] = {}
        if index % 3 == 0:
            # One in five of these names does not exist in the fleet, so a
            # slice of the queue is permanently blocked — the recovered queue
            # must preserve those jobs (and their positions) too.
            kwargs["vantage_point"] = (
                _vp_name(index % VANTAGE_POINTS) if index % 5 else "node99"
            )
        if index % 7 == 0:
            kwargs["device_serial"] = _device_serial(index % DEVICES)
        server.submit_job(
            platform.experimenter,
            JobSpec(
                name=f"job-{index:05d}",
                owner="experimenter",
                run=noop_payload,
                timeout_s=60.0,
                priority=float(index % 4),
                constraints=JobConstraints(**kwargs),
            ),
        )

    executed = server.run_pending_jobs(max_jobs=EXECUTED)
    assert len(executed) == EXECUTED
    # One more wave is assigned but never finishes: the crash hits mid-flight.
    in_flight = server.scheduler.dispatch_batch(server.context.now)
    assert in_flight
    return platform, len(in_flight)


def drain_assignments(server) -> List[Tuple[str, str, str]]:
    """Pure dispatch drain (no payload execution): the assignment sequence."""
    scheduler = server.scheduler
    assignments: List[Tuple[str, str, str]] = []
    while True:
        batch = scheduler.dispatch_batch(server.context.now)
        if not batch:
            return assignments
        for assignment in batch:
            assignments.append(
                (assignment.job.spec.name, assignment.vantage_point, assignment.device_serial)
            )
            assignment.job.mark_completed(server.context.now, None)
            scheduler.release(assignment.job)


def _submit_noops(platform, count: int, vantage_point=None) -> None:
    for index in range(count):
        platform.access_server.submit_job(
            platform.experimenter,
            JobSpec(
                name=f"noop-{index:05d}",
                owner="experimenter",
                run=noop_payload,
                constraints=JobConstraints(vantage_point=vantage_point),
            ),
        )


def _encoded_jobs(server) -> int:
    """Job records checkpoints have encoded so far (the manager's counter)."""
    for counter in server.obs.registry.snapshot()["counters"]:
        if (
            counter["name"] == "journal_snapshot_jobs_total"
            and counter["labels"] == {"source": "encoded"}
        ):
            return int(counter["value"])
    raise AssertionError("journal_snapshot_jobs_total{source=encoded} not exported")


def measure_checkpoint(settled: int) -> Tuple[float, int]:
    """``(median checkpoint ms, job records the last one encoded)`` with
    ``settled`` jobs retained and 10 newly settled before each checkpoint."""
    with tempfile.TemporaryDirectory(prefix="batterylab-checkpoint-") as state_dir:
        platform = build_fleet()
        server = platform.access_server
        manager = server.enable_persistence(state_dir, snapshot_every=10**9)
        _submit_noops(platform, settled)
        while server.run_pending_jobs(max_jobs=1000):
            pass
        # A slice of queue that can never dispatch: live work every
        # checkpoint has to serialise afresh.
        _submit_noops(platform, CHECKPOINT_LIVE_JOBS, vantage_point="node99")
        manager.checkpoint()
        timings: List[float] = []
        for _ in range(CHECKPOINT_ROUNDS):
            _submit_noops(platform, CHECKPOINT_NEW_SETTLES)
            executed = server.run_pending_jobs(max_jobs=CHECKPOINT_NEW_SETTLES)
            assert len(executed) == CHECKPOINT_NEW_SETTLES
            encoded_before = _encoded_jobs(server)
            started = time.perf_counter()
            manager.checkpoint()
            timings.append((time.perf_counter() - started) * 1000.0)
        manager.close()
        return statistics.median(timings), _encoded_jobs(server) - encoded_before


def run_checkpoint_benchmark() -> Dict[str, object]:
    ms_1k, _ = measure_checkpoint(1_000)
    ms_10k, encoded_10k = measure_checkpoint(10_000)
    if encoded_10k != CHECKPOINT_LIVE_JOBS + CHECKPOINT_NEW_SETTLES:
        raise AssertionError(
            f"a checkpoint over 10k settled jobs encoded {encoded_10k} records; "
            f"expected live + new = {CHECKPOINT_LIVE_JOBS + CHECKPOINT_NEW_SETTLES}"
        )
    return {
        "checkpoint_live_jobs": CHECKPOINT_LIVE_JOBS,
        "checkpoint_new_settles": CHECKPOINT_NEW_SETTLES,
        "checkpoint_ms_1k_jobs": round(ms_1k, 2),
        "checkpoint_ms_10k_jobs": round(ms_10k, 2),
        "checkpoint_encoded_jobs_10k": encoded_10k,
    }


def run_replay_benchmark() -> Dict[str, object]:
    with tempfile.TemporaryDirectory(prefix="batterylab-journal-") as state_dir:
        platform, in_flight_count = build_loaded_platform(state_dir)
        server = platform.access_server
        manager = server.persistence
        manager.backend.sync()
        journal_events = manager.sequence
        appended = manager.backend.appended
        fsyncs = manager.backend.fsyncs
        journal_bytes = manager.backend.journal_path.stat().st_size
        snapshot_bytes = sum(
            len(piece.encode("utf-8"))
            for piece in encode_snapshot(build_snapshot(server, manager.sequence))
        )

        # -- the crash ---------------------------------------------------------------
        fresh = build_fleet()
        backend = FileBackend(state_dir)
        started = time.perf_counter()
        report = recover_into(fresh.access_server, backend)
        replay_seconds = time.perf_counter() - started

        # -- equivalence oracle ------------------------------------------------------
        # The uninterrupted server loses its in-flight wave to the same crash
        # semantics (the payloads never finished), so requeue it there too,
        # then both queues must drain through identical assignment sequences.
        manager.detach()
        for job in server.scheduler.jobs(JobStatus.RUNNING):
            server.scheduler.engine.requeue(job)
        expected = drain_assignments(server)
        recovered = drain_assignments(fresh.access_server)
        if expected != recovered:
            raise AssertionError(
                "recovered dispatch diverged from the uninterrupted run: "
                f"{len(expected)} vs {len(recovered)} assignments"
            )

        return {
            "benchmark": "journal_replay",
            "devices": DEVICES,
            "submissions": SUBMISSIONS,
            "executed_before_crash": EXECUTED,
            "in_flight_at_crash": in_flight_count,
            "reservations": RESERVATIONS,
            "reservations_cancelled": RESERVATIONS_CANCELLED,
            "journal_events": journal_events,
            "journal_appends": appended,
            "journal_fsyncs": fsyncs,
            "journal_bytes_per_job": round(journal_bytes / SUBMISSIONS, 1),
            "snapshot_bytes_per_job": round(snapshot_bytes / SUBMISSIONS, 1),
            "events_replayed": report.events_replayed,
            "jobs_restored": report.jobs_restored,
            "jobs_queued_after_recovery": report.jobs_queued,
            "requeued_in_flight": report.jobs_requeued_in_flight,
            "replay_seconds": round(replay_seconds, 4),
            "events_per_s": round(report.events_replayed / replay_seconds, 1)
            if replay_seconds > 0
            else float("inf"),
            "post_recovery_assignments": len(recovered),
            "min_required_events": MIN_JOURNAL_EVENTS,
            "assignments_identical": True,
            **run_checkpoint_benchmark(),
        }


def write_result(result: Dict[str, object]) -> None:
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")


def test_journal_replay(benchmark):
    from conftest import report, run_once

    result = run_once(benchmark, run_replay_benchmark)
    write_result(result)
    report(benchmark, "Crash recovery — journal replay at fleet scale", [result])
    assert result["assignments_identical"]
    assert result["journal_events"] >= MIN_JOURNAL_EVENTS
    assert result["requeued_in_flight"] > 0


if __name__ == "__main__":
    outcome = run_replay_benchmark()
    write_result(outcome)
    print(json.dumps(outcome, indent=2))
    if outcome["journal_events"] < MIN_JOURNAL_EVENTS:
        raise SystemExit(
            f"journal only held {outcome['journal_events']} events; "
            f"benchmark requires {MIN_JOURNAL_EVENTS}"
        )
