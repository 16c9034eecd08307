"""Scheduler-scale dispatch benchmark: indexed batch pipeline vs linear scan.

The seed's ``next_dispatchable`` re-scanned every queued job × every device
slot × every reservation for each single dispatch decision, and the access
server polled it one job at a time.  This benchmark reconstructs that
algorithm verbatim (:class:`LegacyLinearScheduler`) and races it against the
indexed ``dispatch_batch`` pipeline on the same fleet-scale workload —
100 devices across 10 vantage points, 1000 queued jobs with mixed
constraints (including head-of-line jobs whose constraints can never be
satisfied) and hundreds of session reservations.

Both implementations must produce the *same* assignment sequence under the
FIFO policy; the run asserts that equivalence and a ≥5× dispatch-throughput
improvement, then writes the measurements to ``BENCH_scheduler_dispatch.json``
at the repository root so future PRs can track the hot path.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_scheduler_dispatch.py``
or under pytest-benchmark via
``PYTHONPATH=src python -m pytest benchmarks/bench_scheduler_dispatch.py -q``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.accessserver.dispatch import SessionReservation
from repro.accessserver.jobs import Job, JobConstraints, JobSpec
from repro.accessserver.scheduler import JobScheduler

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_scheduler_dispatch.json"

VANTAGE_POINTS = 10
DEVICES_PER_VP = 10
JOBS = 1000
RESERVATIONS_PER_DEVICE = 20
MIN_SPEEDUP = 5.0


class _LegacySlot:
    __slots__ = ("vantage_point", "device_serial", "busy_job_id")

    def __init__(self, vantage_point: str, device_serial: str) -> None:
        self.vantage_point = vantage_point
        self.device_serial = device_serial
        self.busy_job_id: Optional[int] = None


class LegacyLinearScheduler:
    """Verbatim port of the seed scheduler's linear-scan dispatch path.

    Every ``next_dispatchable`` call walks the whole queue; every job walks
    every slot; every candidate slot walks every reservation.  Kept here as
    the benchmark baseline (and behavioural oracle) for the indexed engine.
    """

    def __init__(self) -> None:
        self._queue: List[Job] = []
        self._slots: Dict[str, _LegacySlot] = {}
        self._reservations: List[SessionReservation] = []

    def register_device(self, vantage_point: str, device_serial: str) -> None:
        key = f"{vantage_point}/{device_serial}"
        if key not in self._slots:
            self._slots[key] = _LegacySlot(vantage_point, device_serial)

    def submit(self, job: Job, now: float) -> None:
        job.submitted_at = now
        self._queue.append(job)

    def add_reservation(self, reservation: SessionReservation) -> None:
        self._reservations.append(reservation)

    def _candidate_slots(self, job: Job) -> List[_LegacySlot]:
        constraints = job.spec.constraints
        slots = []
        for slot in self._slots.values():
            if constraints.vantage_point and slot.vantage_point != constraints.vantage_point:
                continue
            if constraints.device_serial and slot.device_serial != constraints.device_serial:
                continue
            if slot.busy_job_id is not None:
                continue
            slots.append(slot)
        return sorted(slots, key=lambda slot: (slot.vantage_point, slot.device_serial))

    def _device_reserved(self, slot: _LegacySlot, now: float, owner: str) -> bool:
        for reservation in self._reservations:
            if (
                reservation.vantage_point == slot.vantage_point
                and reservation.device_serial == slot.device_serial
                and reservation.active_at(now)
                and reservation.username != owner
            ):
                return True
        return False

    def next_dispatchable(self, now: float) -> Optional[Tuple[Job, str, str]]:
        for job in list(self._queue):
            for slot in self._candidate_slots(job):
                if self._device_reserved(slot, now, job.spec.owner):
                    continue
                return job, slot.vantage_point, slot.device_serial
        return None

    def assign(self, job: Job, vantage_point: str, device_serial: str, now: float) -> None:
        slot = self._slots[f"{vantage_point}/{device_serial}"]
        slot.busy_job_id = job.job_id
        self._queue.remove(job)
        job.mark_running(now, vantage_point, device_serial)

    def release(self, job: Job) -> None:
        for slot in self._slots.values():
            if slot.busy_job_id == job.job_id:
                slot.busy_job_id = None


def _vantage_point_name(index: int) -> str:
    return f"node{index:02d}"


def build_workload(
    register_device: Callable[[str, str], None],
    submit: Callable[[Job, float], None],
    add_reservation: Callable[[SessionReservation], None],
) -> None:
    """Feed the identical fleet-scale workload into either scheduler.

    1000 jobs with a constraint mix: every third job is pinned to a vantage
    point drawn from a range two wider than the fleet (so some constraints
    are never satisfiable and sit at the head of the queue forever — the
    seed's worst case, rescanned on every call), every seventh additionally
    to a specific serial.  node00/node01 carry stacked session reservations
    held by ``reserver``, blocking everyone else's jobs there while active.
    """
    for vp_index in range(VANTAGE_POINTS):
        for dev_index in range(DEVICES_PER_VP):
            register_device(_vantage_point_name(vp_index), f"dev{dev_index:02d}")

    reservation_id = 1
    for vp_index in range(2):
        for dev_index in range(DEVICES_PER_VP):
            for slot_index in range(RESERVATIONS_PER_DEVICE):
                add_reservation(
                    SessionReservation(
                        reservation_id=reservation_id,
                        username="reserver",
                        vantage_point=_vantage_point_name(vp_index),
                        device_serial=f"dev{dev_index:02d}",
                        start_s=slot_index * 600.0,
                        duration_s=600.0,
                    )
                )
                reservation_id += 1

    for index in range(JOBS):
        kwargs = {}
        if index % 3 == 0:
            # Two of the twelve candidate names do not exist in the fleet.
            kwargs["vantage_point"] = _vantage_point_name(index % (VANTAGE_POINTS + 2))
        if index % 7 == 0:
            kwargs["device_serial"] = f"dev{index % DEVICES_PER_VP:02d}"
        spec = JobSpec(
            name=f"job-{index:04d}",
            owner=f"owner{index % 5}",
            run=lambda ctx: None,
            constraints=JobConstraints(**kwargs),
        )
        submit(Job(spec=spec), 0.0)


def drain_legacy(scheduler: LegacyLinearScheduler, now: float) -> List[Tuple[str, str, str]]:
    """The seed's dispatch driver: poll one decision at a time until dry."""
    assignments: List[Tuple[str, str, str]] = []
    while True:
        round_jobs: List[Job] = []
        while True:
            dispatch = scheduler.next_dispatchable(now)
            if dispatch is None:
                break
            job, vantage_point, device_serial = dispatch
            scheduler.assign(job, vantage_point, device_serial, now)
            assignments.append((job.spec.name, vantage_point, device_serial))
            round_jobs.append(job)
        if not round_jobs:
            return assignments
        for job in round_jobs:
            job.mark_completed(now, None)
            scheduler.release(job)


def drain_indexed(scheduler: JobScheduler, now: float) -> List[Tuple[str, str, str]]:
    """The new driver: one batched decision per round of freed devices."""
    assignments: List[Tuple[str, str, str]] = []
    while True:
        batch = scheduler.dispatch_batch(now)
        if not batch:
            return assignments
        for assignment in batch:
            assignments.append(
                (assignment.job.spec.name, assignment.vantage_point, assignment.device_serial)
            )
            assignment.job.mark_completed(now, None)
            scheduler.release(assignment.job)


def run_comparison(now: float = 50.0) -> Dict[str, object]:
    """Race the two schedulers on the identical workload and report the result.

    ``now`` falls inside the first reservation window so node00/node01 are
    blocked for everyone but ``reserver`` while dispatching.
    """
    legacy = LegacyLinearScheduler()
    build_workload(legacy.register_device, legacy.submit, legacy.add_reservation)
    started = time.perf_counter()
    legacy_assignments = drain_legacy(legacy, now)
    legacy_seconds = time.perf_counter() - started

    indexed = JobScheduler(policy="fifo")
    build_workload(
        indexed.slots.register,
        indexed.submit,
        lambda reservation: indexed.reservations.add(reservation),
    )
    started = time.perf_counter()
    indexed_assignments = drain_indexed(indexed, now)
    indexed_seconds = time.perf_counter() - started

    # Job names encode the submission index, so sequences compare exactly.
    legacy_by_name = [(name, vp, serial) for name, vp, serial in legacy_assignments]
    indexed_by_name = [(name, vp, serial) for name, vp, serial in indexed_assignments]
    if legacy_by_name != indexed_by_name:
        raise AssertionError(
            "indexed dispatch diverged from the seed linear scan: "
            f"{len(legacy_by_name)} vs {len(indexed_by_name)} assignments"
        )

    speedup = legacy_seconds / indexed_seconds if indexed_seconds > 0 else float("inf")
    return {
        "benchmark": "scheduler_dispatch",
        "devices": VANTAGE_POINTS * DEVICES_PER_VP,
        "vantage_points": VANTAGE_POINTS,
        "jobs_queued": JOBS,
        "reservations": 2 * DEVICES_PER_VP * RESERVATIONS_PER_DEVICE,
        "assignments": len(indexed_assignments),
        "blocked_jobs": JOBS - len(indexed_assignments),
        "policy": "fifo",
        "legacy_seconds": round(legacy_seconds, 4),
        "indexed_seconds": round(indexed_seconds, 4),
        "legacy_jobs_per_s": round(len(legacy_assignments) / legacy_seconds, 1),
        "indexed_jobs_per_s": round(len(indexed_assignments) / indexed_seconds, 1),
        "speedup": round(speedup, 1),
        "min_required_speedup": MIN_SPEEDUP,
        "assignments_identical": True,
    }


def write_result(result: Dict[str, object]) -> None:
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")


def test_scheduler_dispatch_speedup(benchmark):
    from conftest import report, run_once

    result = run_once(benchmark, run_comparison)
    write_result(result)
    report(benchmark, "Dispatch — indexed batch pipeline vs seed linear scan", [result])
    assert result["assignments_identical"]
    assert result["assignments"] > 0
    assert result["speedup"] >= MIN_SPEEDUP


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero below this speedup (default 0: report only, so "
        "noisy shared CI runners don't fail unrelated changes; the "
        "pytest-benchmark test enforces the 5x floor)",
    )
    strictness = parser.parse_args()
    outcome = run_comparison()
    write_result(outcome)
    print(json.dumps(outcome, indent=2))
    if outcome["speedup"] < strictness.min_speedup:
        raise SystemExit(
            f"speedup {outcome['speedup']}x below required {strictness.min_speedup}x"
        )
