"""One admitted assignment on its way through a dispatch pass.

``AccessServer.run_pending_jobs`` takes each assignment through three
steps in turn, one job at a time, in assignment order:

* **admit**: RUNNING check, execution-time eligibility re-check,
  ``mark_execution_started``, ``begin_execution``;
* **run**: ``job.spec.run(ctx)`` only (:meth:`AdmittedExecution.run_payload`),
  the device-bound payload;
* **settle**: status transitions, device release, power-trace storage,
  credit billing, journal appends and EventBus publishes.

A payload may advance the simulated clock, so each job settles before the
next is admitted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

__all__ = ["AdmittedExecution"]


@dataclass
class AdmittedExecution:
    """One admitted assignment: what admit decided, what the run returned.

    Created by the admit step; ``result`` / ``error`` are filled by
    :meth:`run_payload` and read by the settle step.
    """

    assignment: object  # repro.accessserver.dispatch.Assignment
    ctx: object  # repro.accessserver.jobs.JobContext
    trace_at_admit: object  # the monitor's last trace; settle stores only a newer one
    execution_started_at: float
    result: object = None
    error: Optional[BaseException] = None
    # Phase timings (wall seconds): settle puts them in the job's lifecycle
    # row, which the pass hands to the histograms and the tracer.
    admit_elapsed_s: float = 0.0
    run_elapsed_s: float = 0.0

    @property
    def job(self):
        return self.assignment.job

    def run_payload(self) -> None:
        """Execute the payload, capturing its outcome."""
        t0 = time.perf_counter()
        try:
            self.result = self.job.spec.run(self.ctx)
        except Exception as exc:
            self.error = exc
        finally:
            self.run_elapsed_s = time.perf_counter() - t0
