"""Jobs, job workspaces and job execution context.

Experimenters "create jobs to be deployed in their favorite programming
language" (Section 3.1); in this reproduction a job's payload is a Python
callable receiving a :class:`JobContext`.  The access server enforces the
paper's rules around jobs: only authorized experimenters create/edit/run
them, pipeline changes need administrator approval, power-meter logs are
kept in the job's workspace for several days, and Android logs are available
on request through the ``execute_adb`` API.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


class JobError(RuntimeError):
    """Raised for invalid job state transitions or workspace access."""


class JobStatus(str, enum.Enum):
    PENDING_APPROVAL = "pending_approval"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass(frozen=True, slots=True)
class JobConstraints:
    """Experimenter and platform constraints considered at dispatch time.

    Immutable, so a job that chose none holds :data:`DEFAULT_CONSTRAINTS`
    rather than a copy of its own; ``dataclasses.replace`` derives others.

    Attributes
    ----------
    vantage_point:
        Name of the vantage point the job must run at (``None`` = any).
    device_serial:
        Specific test device required (``None`` = any device at the vantage point).
    connectivity:
        Required connectivity for the test device (``"wifi"`` or ``"cellular"``).
    require_low_controller_cpu:
        Optional constraint: only dispatch while the controller CPU is low.
    max_controller_cpu_percent:
        Threshold used when ``require_low_controller_cpu`` is set.
    device_count:
        Number of device slots the job needs simultaneously.  ``1`` is the
        classic single-device job; larger values are multi-device jobs that
        only agent-pull execution can claim (all-or-nothing, through the
        ``multi`` connector).
    connector:
        Device connector type the job demands of the executing agent
        (``None`` = any connector).  Only meaningful for agent-pull jobs.
    """

    vantage_point: Optional[str] = None
    device_serial: Optional[str] = None
    connectivity: Optional[str] = None
    require_low_controller_cpu: bool = False
    max_controller_cpu_percent: float = 50.0
    device_count: int = 1
    connector: Optional[str] = None


#: The constraints of every job that chose none: one instance, shared.
DEFAULT_CONSTRAINTS = JobConstraints()


def job_constraints(**chosen: object) -> JobConstraints:
    """``JobConstraints(**chosen)``, or the shared default when that is what
    ``chosen`` amounts to."""
    constraints = JobConstraints(**chosen)
    return DEFAULT_CONSTRAINTS if constraints == DEFAULT_CONSTRAINTS else constraints


@dataclass(slots=True)
class JobSpec:
    """Everything needed to run one experiment job.

    ``priority`` is the per-job scheduling input consumed by the
    ``"priority"`` policy (see :mod:`repro.accessserver.policies`): higher
    values dispatch first, ties keep submission order.  The FIFO and
    fair-share policies ignore it.

    ``execution`` selects who runs the payload: ``"push"`` (default) keeps
    the server-side executor dispatching onto device slots; ``"agent"``
    queues the job for a vantage-point daemon to be offered (``agent.subscribe``,
    ``agent.poll``) and to pull (``agent.claim``) — push dispatch skips it
    entirely.
    """

    name: str
    owner: str
    run: Callable[["JobContext"], object]
    description: str = ""
    # A factory, not a plain default: records spell constraints out as a
    # nested object, not as one of the spec's own elidable fields.
    constraints: JobConstraints = field(default_factory=lambda: DEFAULT_CONSTRAINTS)
    priority: float = 0.0
    timeout_s: float = 3600.0
    is_pipeline_change: bool = False
    log_retention_days: float = 7.0
    execution: str = "push"


def _retention_end(created_at: float, retention_days: float) -> float:
    return created_at + retention_days * 24 * 3600.0


def _retention_lapsed(created_at: float, retention_days: float, now: float) -> bool:
    return now > _retention_end(created_at, retention_days)


@dataclass(slots=True)
class Workspace:
    """Per-job artefact store (power-meter logs, ADB output, results).

    ``artifacts`` is ``None`` until the first :meth:`store`.
    """

    artifacts: Optional[Dict[str, object]] = None
    created_at: float = 0.0
    retention_days: float = 7.0

    def store(self, name: str, value: object) -> None:
        if not name:
            raise JobError("artifact name must be non-empty")
        if self.artifacts is None:
            self.artifacts = {}
        self.artifacts[name] = value

    def fetch(self, name: str) -> object:
        if self.artifacts is None or name not in self.artifacts:
            raise JobError(f"no artifact named {name!r} in the workspace")
        return self.artifacts[name]

    def names(self) -> List[str]:
        return sorted(self.artifacts or ())

    def expired(self, now: float) -> bool:
        return _retention_lapsed(self.created_at, self.retention_days, now)


class _JobIdAllocator:
    """Monotonic job-id source that recovery can fast-forward.

    Each access server owns one.  Job ids must stay unique across a
    restart: recovery replays journaled jobs with their original ids and
    claims each on the server's allocator, so freshly created jobs never
    collide with a recovered one.  The module-global allocator numbers
    jobs built outside a server.

    ``stride`` partitions the id space for federation: shard ``k`` of a
    ``stride``-wide federation allocates ``k+1, k+1+stride, ...`` so N
    independent access servers never mint the same job id and the
    federation router can compute a job's home shard as
    ``(job_id - 1) % stride`` in O(1).  The defaults (``start=1,
    stride=1``) are the historical single-server series.
    """

    def __init__(self, start: int = 1, stride: int = 1) -> None:
        if stride < 1:
            raise ValueError("stride must be at least 1")
        self._next = start
        self._stride = stride

    def __next__(self) -> int:
        value = self._next
        self._next += self._stride
        return value

    def claim(self, job_id: int) -> None:
        if job_id >= self._next:
            # Fast-forward to the next id in *this allocator's* series that
            # is strictly greater than job_id (stride-aware: a shard only
            # ever mints ids congruent to its own lane).
            steps = (job_id - self._next) // self._stride + 1
            self._next += steps * self._stride


_job_ids = _JobIdAllocator()


def shard_job_id_allocator(shard_index: int, shard_count: int) -> _JobIdAllocator:
    """A job-id allocator owning lane ``shard_index`` of a sharded id space.

    Shard ``k`` of ``N`` mints ``k+1, k+1+N, k+1+2N, ...`` — disjoint from
    every other lane, so a federation of N access servers allocates
    globally unique ids with no coordination, and ``(job_id - 1) % N``
    recovers the owning lane.
    """
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index {shard_index} out of range for shard_count {shard_count}"
        )
    return _JobIdAllocator(start=shard_index + 1, stride=shard_count)


@dataclass(slots=True)
class Job:
    """A job instance tracked by the scheduler.

    The server retains every job for days and most never log a line or
    store an artefact, so ``log_lines`` and ``workspace`` are allocated on
    first use — by :meth:`log` and by reading :attr:`workspace`.  Reading
    ``log_lines``, :meth:`artifact_names` and :meth:`workspace_expired`
    allocate nothing.
    """

    spec: JobSpec
    job_id: int = field(default_factory=lambda: next(_job_ids))
    status: JobStatus = JobStatus.QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    assigned_vantage_point: Optional[str] = None
    assigned_device: Optional[str] = None
    result: object = None
    error: Optional[str] = None
    _log_lines: Optional[List[str]] = field(default=None, repr=False)
    _workspace: Optional[Workspace] = field(default=None, repr=False)

    def log(self, message: str) -> None:
        if self._log_lines is None:
            self._log_lines = []
        self._log_lines.append(message)

    @property
    def log_lines(self) -> Sequence[str]:
        return self._log_lines or ()

    @property
    def workspace(self) -> Workspace:
        workspace = self._workspace
        if workspace is None:
            workspace = self._workspace = Workspace(
                created_at=self.submitted_at,
                retention_days=self.spec.log_retention_days,
            )
        return workspace

    def artifact_names(self) -> List[str]:
        return [] if self._workspace is None else self._workspace.names()

    @property
    def retention_ends_at(self) -> float:
        """When the retention window ("several days") closes; fixed at submit."""
        return _retention_end(self.submitted_at, self.spec.log_retention_days)

    def workspace_expired(self, now: float) -> bool:
        """Whether the retention window has passed."""
        return now > self.retention_ends_at

    @property
    def duration_s(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def mark_running(self, now: float, vantage_point: str, device: Optional[str]) -> None:
        if self.status not in (JobStatus.QUEUED,):
            raise JobError(f"cannot start job {self.job_id} from status {self.status.value}")
        self.status = JobStatus.RUNNING
        self.started_at = now
        self.assigned_vantage_point = vantage_point
        self.assigned_device = device

    def mark_execution_started(self, now: float) -> None:
        """Re-stamp the start time when execution begins after a wave wait.

        Batch dispatch may assign a job well before its payload actually
        runs (earlier jobs of the wave advance the simulated clock);
        duration-based accounting charges execution time, so the start
        timestamp moves to the moment the payload launches.
        """
        if self.status is not JobStatus.RUNNING:
            raise JobError(
                f"cannot start executing job {self.job_id} from status {self.status.value}"
            )
        self.started_at = now

    def mark_requeued(self) -> None:
        """Return an assigned-but-not-yet-executed job to the queue."""
        if self.status is not JobStatus.RUNNING:
            raise JobError(f"cannot requeue job {self.job_id} from status {self.status.value}")
        self.status = JobStatus.QUEUED
        self.started_at = None
        self.assigned_vantage_point = None
        self.assigned_device = None

    def mark_completed(self, now: float, result: object) -> None:
        if self.status is not JobStatus.RUNNING:
            raise JobError(f"cannot complete job {self.job_id} from status {self.status.value}")
        self.status = JobStatus.COMPLETED
        self.finished_at = now
        self.result = result

    def mark_failed(self, now: float, error: str) -> None:
        if self.status is not JobStatus.RUNNING:
            raise JobError(f"cannot fail job {self.job_id} from status {self.status.value}")
        self.status = JobStatus.FAILED
        self.finished_at = now
        self.error = error

    def mark_cancelled(self) -> None:
        if self.status in (JobStatus.COMPLETED, JobStatus.FAILED):
            raise JobError(f"cannot cancel finished job {self.job_id}")
        self.status = JobStatus.CANCELLED


class JobContext:
    """What a running job sees: its device, the platform API, logging and storage.

    Parameters
    ----------
    job:
        The job being executed.
    api:
        A :class:`repro.core.api.BatteryLabAPI` bound to the job's vantage point.
    device_serial:
        The test device reserved for this job.
    clock:
        Callable returning the current simulated time.
    """

    def __init__(
        self,
        job: Job,
        api,
        device_serial: Optional[str],
        clock: Callable[[], float],
    ) -> None:
        self._job = job
        self._api = api
        self._device_serial = device_serial
        self._clock = clock

    @property
    def job(self) -> Job:
        return self._job

    @property
    def api(self):
        """The BatteryLab Python API (Table 1) bound to this job's vantage point."""
        return self._api

    @property
    def device_serial(self) -> Optional[str]:
        return self._device_serial

    @property
    def now(self) -> float:
        return self._clock()

    def log(self, message: str) -> None:
        self._job.log(f"[{self.now:10.1f}] {message}")

    def store_artifact(self, name: str, value: object) -> None:
        """Persist an artefact (trace, table, ADB dump) in the job workspace."""
        self._job.workspace.store(name, value)
