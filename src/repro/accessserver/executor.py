"""Parallel wave execution: run a dispatch wave's payloads concurrently.

``AccessServer.run_pending_jobs`` computes assignments in *waves* (one job
at a time per device holds within a wave), then historically executed each
wave's payloads one after another — wall-clock grew linearly with fleet
size even though the assignments are independent by construction.  This
module provides the worker side of the split execution pipeline:

* **admit** (server thread, assignment order): RUNNING check, execution-time
  eligibility re-check, ``mark_execution_started``, ``begin_execution``;
* **run** (worker threads, this module): ``job.spec.run(ctx)`` only — the
  device-bound payload, which for real hardware is dominated by waiting on
  the phone/power meter;
* **settle** (server thread, assignment order): status transitions, device
  release, power-trace storage, credit billing, journal appends and
  EventBus publishes.

Because every state mutation stays on the server thread in deterministic
assignment order, journals and event streams are byte-identical to serial
execution *provided the payloads themselves are independent* — i.e. they do
not advance the simulated clock or mutate shared simulation state.  That is
the documented contract of ``AccessServer.enable_parallel_waves`` (see
DESIGN.md "Async gateway & parallel waves"); payloads that sleep on wall
time, talk to real devices, or compute locally qualify, payloads that call
``ctx.advance``-style helpers do not — those run with the serial default.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

__all__ = ["AdmittedExecution", "WaveExecutor"]


@dataclass
class AdmittedExecution:
    """One admitted assignment travelling through the execution pipeline.

    Created by the admit phase on the server thread; ``result`` / ``error``
    are filled by exactly one worker during the run phase and read by the
    settle phase on the server thread afterwards (the wave barrier orders
    the accesses, so no locking is needed).
    """

    assignment: object  # repro.accessserver.dispatch.Assignment
    ctx: object  # repro.accessserver.jobs.JobContext
    trace_at_admit: object  # the monitor's last trace; settle stores only a newer one
    execution_started_at: float
    result: object = None
    error: Optional[BaseException] = None
    # Phase timings (wall seconds) captured where each phase ran; the settle
    # phase reads them on the server thread to feed histograms and record
    # lifecycle spans without touching telemetry from worker threads.
    admit_elapsed_s: float = 0.0
    run_elapsed_s: float = 0.0

    @property
    def job(self):
        return self.assignment.job

    def run_payload(self) -> None:
        """Execute the payload, capturing the outcome (worker thread)."""
        t0 = time.perf_counter()
        try:
            self.result = self.job.spec.run(self.ctx)
        except Exception as exc:
            self.error = exc
        finally:
            self.run_elapsed_s = time.perf_counter() - t0


class WaveExecutor:
    """Runs one wave's admitted payloads on a reusable worker pool.

    ``run_wave`` is a *barrier*: it returns only when every payload of the
    wave has finished, so the caller can settle outcomes in deterministic
    assignment order.  Single-item waves run inline — no pool hop, no
    behaviour change for the common trickle case.
    """

    def __init__(self, max_workers: int = 8) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="batterylab-wave",
            )
        return self._pool

    def run_wave(
        self,
        admitted: Sequence[AdmittedExecution],
        run_one: Optional[Callable[[AdmittedExecution], None]] = None,
    ) -> None:
        """Run every admitted payload; blocks until the whole wave is done."""
        run = run_one or AdmittedExecution.run_payload
        if not admitted:
            return
        if len(admitted) == 1:
            run(admitted[0])
            return
        pool = self._ensure_pool()
        futures = [pool.submit(run, item) for item in admitted]
        # Payload exceptions are captured on the item; anything a future
        # re-raises is an executor-infrastructure failure and propagates.
        for future in futures:
            future.result()

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
