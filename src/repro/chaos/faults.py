"""The platform's single fault vocabulary: every injected failure speaks it.

Before this module existed each plane invented its own fault hooks — the
agent outbox had a private ``SimulatedCrash`` and crash planner, connectors
raised bare ``RuntimeError`` for injected phase failures, and there was no
way to crash-kill the *server's* journal at a chosen offset at all.  The
chaos rig needs one vocabulary so a scenario can say "kill this process at
append 317" or "fail the next job on that device" without caring which
plane it lands in:

* :class:`SimulatedCrash` — a stand-in for ``kill -9``.  Derives from
  ``BaseException`` so ordinary ``except Exception`` error handling cannot
  swallow it: nothing between the crash point and the harness runs, exactly
  like a real SIGKILL.
* :class:`InjectedFault` — a *survivable* fault (device died mid-job, power
  lost, phase failed).  The job fails; the process lives.
* :class:`CrashPlan` — the write-counting crash planner behind every
  ``plan_crash`` hook: arm it at an append offset with a mode
  (``before`` / ``after`` / ``torn`` / ``power-loss``) and it raises
  :class:`SimulatedCrash` at exactly that write.  Every line of
  :class:`~repro._appendlog.AppendLog` — the server journal and the agent
  outbox — goes through one.
* :class:`FaultPlane` — the live fault table a running scenario mutates:
  per-device kill/hang/slow-IO orders and per-vantage-point power state,
  consumed by instrumented payloads at execution time.
* :class:`ExecutionLedger` — counts payload executions per job per process
  epoch, the measurement behind the no-double-execution invariant.

Nothing here imports outside the standard library, so every plane (agent,
access server, federation) can depend on it without layering cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "CRASH_MODES",
    "SimulatedCrash",
    "InjectedFault",
    "CrashPlan",
    "FaultPlane",
    "ExecutionLedger",
]

#: The ways a planned crash can interleave with the write it targets: three
#: ``kill -9`` shapes, and a power loss, which also loses every unsynced byte.
CRASH_MODES = ("before", "after", "torn", "power-loss")


class SimulatedCrash(BaseException):
    """Raised by a planned crash point; a stand-in for ``kill -9``.

    Derives from ``BaseException`` so ordinary ``except Exception`` error
    handling inside a daemon or server cannot swallow it — exactly like a
    real SIGKILL, nothing between the crash point and the test harness runs.
    """


class InjectedFault(RuntimeError):
    """A deliberately injected, *survivable* failure.

    Raised inside a job payload or connector phase to simulate a device
    dying mid-job, a powered-off vantage point, or a failing phase.  Unlike
    :class:`SimulatedCrash` it is an ordinary exception: the platform's
    normal error handling turns it into a failed job, and the process keeps
    serving.
    """


class CrashPlan:
    """Counts writes and raises :class:`SimulatedCrash` at the armed one.

    The planner is the shared core of every ``plan_crash`` hook.  A write
    site calls :meth:`intercept` once per append, passing closures that
    perform the full write and (optionally) a torn half-write; the plan
    decides whether the write happens at all:

    * ``"before"`` — crash without writing anything;
    * ``"after"``  — write the full record, then crash (the record is
      durable but the writer never saw it succeed);
    * ``"torn"``   — perform the torn half-write with no terminator, then
      crash (exercises readers' torn-tail tolerance).  Writers without a
      meaningful torn representation may omit ``write_torn``, in which case
      nothing is written — indistinguishable from ``"before"`` on disk,
      which is exactly what a torn write that lost its only sector means;
    * ``"power-loss"`` — write the full record, then call the owner's
      ``lose_unsynced`` (drop every byte not yet fsync'd), then crash: the
      machine lost power, not just the process.  An owner that passes no
      ``lose_unsynced`` keeps everything, as ``"after"`` does.
    """

    def __init__(self, lose_unsynced=None) -> None:
        self._lose_unsynced = lose_unsynced
        self._writes = 0
        self._crash_at: Optional[int] = None
        self._crash_mode = "after"

    @property
    def writes(self) -> int:
        """Appends intercepted so far (the next write is offset ``writes``)."""
        return self._writes

    @property
    def armed(self) -> bool:
        return self._crash_at is not None

    @property
    def fired(self) -> bool:
        """True once the armed crash has actually been raised."""
        return self._crash_at is not None and self._writes > self._crash_at

    def arm(self, at_write: int, mode: str = "after") -> None:
        """Plan a crash at the ``at_write``-th intercepted write (0-based)."""
        if mode not in CRASH_MODES:
            raise ValueError(f"unknown crash mode {mode!r}")
        if at_write < 0:
            raise ValueError("at_write must be non-negative")
        self._crash_at = at_write
        self._crash_mode = mode

    def disarm(self) -> None:
        self._crash_at = None

    def intercept(self, label: str, write_full, write_torn=None) -> None:
        """Run one write through the plan; raises at the armed offset."""
        crash_here = self._writes == self._crash_at
        self._writes += 1
        if crash_here and self._crash_mode == "before":
            raise SimulatedCrash(f"before write {self._writes - 1} ({label})")
        if crash_here and self._crash_mode == "torn":
            if write_torn is not None:
                write_torn()
            raise SimulatedCrash(f"torn write {self._writes - 1} ({label})")
        write_full()
        if crash_here and self._crash_mode == "power-loss":
            if self._lose_unsynced is not None:
                self._lose_unsynced()
            raise SimulatedCrash(f"power lost at write {self._writes - 1} ({label})")
        if crash_here:
            raise SimulatedCrash(f"after write {self._writes - 1} ({label})")


class FaultPlane:
    """The live fault table one chaos run mutates and payloads consult.

    A scenario runner calls the mutators (:meth:`kill_device`,
    :meth:`power_off`, ...) as its events fire; an instrumented payload
    calls :meth:`device_action` with the device it landed on and obeys the
    verdict.  Orders are consumed FIFO per device: ``kill_device(..., jobs=2)``
    fails the next two payload executions there, then the device heals.

    Everything is plain state — no clocks, no threads — so a run is exactly
    as deterministic as the scenario that drives it.
    """

    #: Verdicts a payload can receive.
    OK = "ok"
    FAIL = "fail"

    def __init__(self) -> None:
        # (vantage_point, serial) -> list of pending one-shot orders, each
        # ("kill" | "hang" | "slow", delay_s).
        self._device_orders: Dict[Tuple[str, str], List[Tuple[str, float]]] = {}
        self._powered_off: Dict[str, bool] = {}
        self.faults_fired: Dict[str, int] = {}

    # -- scenario-side mutators ----------------------------------------------
    def kill_device(self, vantage_point: str, serial: str, jobs: int = 1) -> None:
        """Die mid-job: the next ``jobs`` payloads on the device fail."""
        self._order(vantage_point, serial, "kill", 0.0, jobs)

    def hang_device(
        self, vantage_point: str, serial: str, hang_s: float, jobs: int = 1
    ) -> None:
        """Wedge mid-job: the payload burns ``hang_s`` of simulated time,
        then fails — the shape of a hung device finally watchdog-killed."""
        self._order(vantage_point, serial, "hang", hang_s, jobs)

    def slow_device(
        self, vantage_point: str, serial: str, delay_s: float, jobs: int = 1
    ) -> None:
        """Slow I/O: the payload takes ``delay_s`` longer but succeeds."""
        self._order(vantage_point, serial, "slow", delay_s, jobs)

    def power_off(self, vantage_point: str) -> None:
        """PDU outlet off: every payload on the vantage point fails until
        :meth:`power_on`."""
        self._powered_off[vantage_point] = True

    def power_on(self, vantage_point: str) -> None:
        self._powered_off.pop(vantage_point, None)

    def _order(
        self, vantage_point: str, serial: str, kind: str, delay_s: float, jobs: int
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        orders = self._device_orders.setdefault((vantage_point, serial), [])
        orders.extend((kind, delay_s) for _ in range(jobs))

    # -- payload-side consumption --------------------------------------------
    def powered_off(self, vantage_point: str) -> bool:
        return self._powered_off.get(vantage_point, False)

    def device_action(
        self, vantage_point: str, serial: Optional[str]
    ) -> Tuple[str, float, str]:
        """The verdict for one payload execution: ``(verdict, delay_s, reason)``.

        Consumes at most one pending device order.  A powered-off vantage
        point wins over device orders — the outlet is upstream of the hub.
        """
        if self.powered_off(vantage_point):
            self._fired("power")
            return (self.FAIL, 0.0, f"vantage point {vantage_point} is powered off")
        orders = self._device_orders.get((vantage_point, serial or ""))
        if not orders:
            return (self.OK, 0.0, "")
        kind, delay_s = orders.pop(0)
        self._fired(kind)
        if kind == "kill":
            return (self.FAIL, 0.0, f"device {serial} died mid-job")
        if kind == "hang":
            return (self.FAIL, delay_s, f"device {serial} hung for {delay_s:g}s")
        return (self.OK, delay_s, f"device {serial} slow I/O (+{delay_s:g}s)")

    def _fired(self, kind: str) -> None:
        self.faults_fired[kind] = self.faults_fired.get(kind, 0) + 1

    def pending_orders(self) -> int:
        """Device orders scheduled but not yet consumed by any payload."""
        return sum(len(orders) for orders in self._device_orders.values())

    def clear(self) -> None:
        """Heal everything: drop pending orders and restore power."""
        self._device_orders.clear()
        self._powered_off.clear()


class ExecutionLedger:
    """Counts payload executions per job across process epochs.

    A process *epoch* is one server lifetime; :meth:`begin_epoch` is called
    after every crash-kill + recovery.  The platform's contract is that a
    payload never runs twice within one epoch (journals and outboxes make
    retries resume, not restart) — but a job in flight when the process
    died *may* legitimately re-run after recovery, exactly as it would
    after a real ``kill -9``.  :meth:`double_executions` therefore flags
    only same-epoch repeats; cross-epoch repeats are accounted separately
    as :meth:`crash_reruns`.
    """

    def __init__(self) -> None:
        self._epoch = 0
        self._runs: Dict[int, List[int]] = {}

    @property
    def epoch(self) -> int:
        return self._epoch

    def begin_epoch(self) -> int:
        """Enter the next process lifetime (call after recovery)."""
        self._epoch += 1
        return self._epoch

    def record(self, job_id: int) -> None:
        """Note one payload execution of ``job_id`` in the current epoch."""
        self._runs.setdefault(int(job_id), []).append(self._epoch)

    def executions(self, job_id: int) -> int:
        return len(self._runs.get(int(job_id), ()))

    def executed_jobs(self) -> List[int]:
        return sorted(self._runs)

    def double_executions(self) -> Dict[int, int]:
        """``job_id -> runs`` for jobs that ran twice within one epoch."""
        doubled: Dict[int, int] = {}
        for job_id, epochs in self._runs.items():
            if len(epochs) > len(set(epochs)):
                doubled[job_id] = len(epochs)
        return doubled

    def crash_reruns(self) -> int:
        """Executions beyond the first that happened in a *later* epoch —
        legitimate re-runs of jobs caught in flight by a crash."""
        return sum(
            len(set(epochs)) - 1
            for epochs in self._runs.values()
            if len(set(epochs)) > 1
        )
