"""The BatteryLab access server.

The access server (Section 3.1) is the single entry point for
experimenters: it authenticates them, lets authorized users create and run
jobs, schedules those jobs onto vantage points subject to the platform's
constraints, keeps job logs/workspaces for several days, runs the built-in
maintenance jobs, and owns the platform-wide assets (the ``batterylab.dev``
DNS zone, the wildcard certificate, the SSH identity trusted by every
controller).  The real deployment builds this on Jenkins in AWS; the model
keeps the behaviour and drops the Java.

Job dispatch runs through :class:`~repro.accessserver.scheduler.JobScheduler`:
:meth:`AccessServer.run_pending_jobs` pulls waves of assignments via
``dispatch_batch`` and every scheduling decision is published as a
structured ``dispatch.*`` record on :attr:`AccessServer.events`.  With
:meth:`AccessServer.enable_auto_dispatch` the server becomes fully
event-driven — submissions and approvals schedule dispatch ticks on the
simulation event loop, so callers no longer poll ``run_pending_jobs``
themselves.  The queue ordering policy
(``fifo``/``priority``/``fair-share``) is chosen per server via the
``scheduling_policy`` constructor argument or
:meth:`AccessServer.set_scheduling_policy`.

Pull execution is the agent plane on :attr:`AccessServer.agents`
(:mod:`repro.accessserver.agents`); the server keeps the router's three
entry points to it and ``_finish_execution``, the settle step both share.
Vantage points, user accounts, credits and testers are on
:attr:`AccessServer.accounts` (:mod:`repro.accessserver.accounts`).

.. note::
   Experiment code submits and inspects jobs through a
   :class:`~repro.api.client.BatteryLabClient` (:mod:`repro.api`).
   :meth:`AccessServer.submit_job` / :meth:`AccessServer.reserve_session`
   are the implementation the API router executes through — authorization,
   credit admission, journaling and publication happen there — so in-process
   hosts, benchmarks and tests may call them directly too.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple, Union

from repro.accessserver.accounts import AccessServerError, Accounts
from repro.accessserver.agents import AgentLease, AgentManager
from repro.accessserver.auth import Permission, SessionManager, User, UserRegistry
from repro.accessserver.certificates import CertificateAuthority, WildcardCertificate
from repro.accessserver.dispatch import Assignment
from repro.accessserver.dns import DnsZone
from repro.accessserver.jobs import (
    Job,
    JobContext,
    JobSpec,
    JobStatus,
    shard_job_id_allocator,
)
from repro.accessserver.policies import SchedulingPolicy
from repro.accessserver.scheduler import JobScheduler, SessionReservation
from repro.network.ssh import SshKeyPair
from repro.obs import Observability, component_logger
from repro.obs.trace import LifecycleRow, PUSH_PHASES
from repro.simulation.entity import Entity, SimulationContext
from repro.simulation.events import Event, EventBus


#: Jobs one dispatch pass (:meth:`AccessServer.run_pending_jobs`) executes
#: at most, everywhere.  A host runs a pass under the gateway's
#: ``router_lock``, so this bounds the longest a mutating request waits for
#: that lock.  It is *not* a rate limit: whoever drives passes goes straight
#: into the next one while :func:`batch_filled` says the last stopped at
#: this cap.
DISPATCH_BATCH = 100

#: Passes one :meth:`AccessServer.drain` makes at most, against a queue
#: that refills itself as fast as it is run.
DRAIN_PASSES = 100


def batch_filled(executed, max_jobs: int = DISPATCH_BATCH) -> bool:
    """Whether a dispatch pass stopped at its cap, not at an empty queue.

    :meth:`AccessServer.run_pending_jobs` returns short of ``max_jobs``
    only when no push job is left queued or ``dispatch_batch`` handed out
    nothing, so a pass that was not filled left nothing dispatchable right
    now, and a filled one probably did.  The two drivers of passes ask this
    one question: :meth:`AccessServer.drain` and the wall-clock host loop.
    """
    return len(executed) >= max_jobs


class AccessServer(Entity):
    """Central coordinator of the BatteryLab platform.

    Parameters
    ----------
    context:
        Simulation context.
    public_address:
        The cloud address vantage points white-list for SSH access.
    domain:
        Platform DNS domain (``batterylab.dev``).
    scheduling_policy:
        Queue ordering policy (name or instance); ``"fifo"`` by default.
    reservation_admission:
        ``"ignore"`` (default) or ``"defer"``; with ``"defer"`` a job is
        kept off any device whose next upcoming session reservation would
        begin before the job's timeout could elapse (see
        :class:`~repro.accessserver.scheduler.JobScheduler`).
    """

    def __init__(
        self,
        context: SimulationContext,
        public_address: str = "52.16.0.10",
        domain: str = "batterylab.dev",
        scheduling_policy: Union[str, SchedulingPolicy] = "fifo",
        reservation_admission: str = "ignore",
    ) -> None:
        super().__init__(context, "access-server")
        self._public_address = public_address
        self.users = UserRegistry(https_only=True)
        #: Bearer token sessions for Platform API v2 (``auth.login``); a
        #: federation replaces it with the one table its shards share.
        self.sessions = SessionManager()
        self.dns = DnsZone(origin=domain)
        self.certificate_authority = CertificateAuthority(domain=domain)
        self._clock = context.clock
        self._wildcard_certificate: Optional[WildcardCertificate] = (
            self.certificate_authority.issue(self._clock.now)
        )
        self.events = EventBus(clock=self._clock)
        #: Platform telemetry: metrics registry + tracer (``repro.obs``).
        self.obs = Observability(clock=self._clock, bus=self.events)
        self._obs_log = component_logger("repro.accessserver.server")
        self.scheduler = JobScheduler(
            policy=scheduling_policy,
            event_bus=self.events,
            reservation_admission=reservation_admission,
        )
        self.scheduler.record = self.record
        # A cancelled reservation frees its device ahead of schedule; retry
        # blocked jobs right away instead of at the reservation's old end.
        # (No-op unless auto-dispatch is enabled.)
        self.events.subscribe(
            "dispatch.reservation_cancelled",
            lambda record: self._schedule_dispatch_tick(),
        )
        self._declare_metrics()
        #: Vantage points, user accounts, credits and testers; the job
        #: admission and bill of the credit system.
        self.accounts = Accounts(self)
        #: The agent plane: registered edge daemons, their leases and the
        #: poll/claim/heartbeat/report operations over them.
        self.agents = AgentManager(self)
        self.ssh_key = SshKeyPair.generate("batterylab-access-server", self.random)
        self._auto_dispatch = False
        self._auto_dispatch_interval_s: Optional[float] = None
        self._auto_dispatch_event: Optional[Event] = None
        self._persistence = None
        self._analytics = None
        # (owner, idempotency_key) -> job_id: flaky-transport retries of the
        # same submission return the original job instead of double-queueing.
        self._idempotent_submissions: Dict[Tuple[str, str], int] = {}
        # Federation identity: unset for the historical single-server
        # deployment, which owns the whole job-id space.  configure_shard()
        # names this server and hands it a disjoint lane of that space (see
        # shard_job_id_allocator).
        self.shard_id: Optional[str] = None
        self.shard_index = 0
        self.shard_count = 1
        self._job_ids = shard_job_id_allocator(0, 1)

    # -- telemetry ---------------------------------------------------------------------
    def _declare_metrics(self) -> None:
        registry = self.obs.registry
        self._m_waves = registry.counter(
            "dispatch_waves_total", "Dispatch waves with at least one assignment."
        ).labels()
        passes = registry.counter(
            "dispatch_passes_total",
            "run_pending_jobs calls, by how much of their batch they executed; "
            "a rising full share means the queue is outrunning dispatch.",
            labelnames=("result",),
        )
        self._m_passes = {
            result: passes.labels(result) for result in ("empty", "partial", "full")
        }
        self._m_wave_size = registry.histogram(
            "dispatch_wave_size",
            "Assignments handed out per dispatch wave.",
            bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        ).labels()
        self._m_decision = registry.histogram(
            "dispatch_decision_seconds",
            "Wall time spent inside dispatch_batch per tick.",
        ).labels()
        self._m_admit = registry.histogram(
            "job_admit_seconds", "Wall time of the admit phase per job."
        ).labels()
        self._m_run = registry.histogram(
            "job_run_seconds", "Wall time of the payload run phase per job."
        ).labels()
        self._m_settle = registry.histogram(
            "job_settle_seconds", "Wall time of the settle phase per job."
        ).labels()
        self._m_executed = registry.counter(
            "jobs_executed_total",
            "Jobs settled, by terminal status.",
            labelnames=("status",),
        )
        # Children resolved once per status; the settle path pays a dict hit.
        self._m_executed_children: Dict[str, object] = {}
        self._g_queue_depth = registry.gauge(
            "dispatch_queue_depth",
            "Queued jobs per constraint bucket.",
            labelnames=("bucket",),
        )
        # A size on every per-job structure, read at scrape time only.
        self._g_retained_jobs = registry.gauge(
            "scheduler_retained_jobs", "Jobs the scheduler holds, in any status."
        ).labels()
        self._g_idempotency_keys = registry.gauge(
            "idempotency_keys", "Remembered (owner, idempotency key) submissions."
        ).labels()
        self._g_analytics_timelines = registry.gauge(
            "analytics_timelines", "Jobs the analytics fold holds a timeline for."
        ).labels()
        self._seen_queue_buckets: set = set()
        registry.add_collect_hook(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Scrape-time gauges: queue depth per constraint bucket, per-job
        structure sizes."""
        self._g_retained_jobs.set(float(self.scheduler.job_count()))
        self._g_idempotency_keys.set(float(len(self._idempotent_submissions)))
        timelines = self._analytics.tracked_job_ids() if self._analytics is not None else ()
        self._g_analytics_timelines.set(float(len(timelines)))
        sizes = self.scheduler.queue.bucket_sizes()
        live = set()
        for key, depth in sizes.items():
            vp, device = key
            label = f"{vp or '*'}|{device or '*'}"
            live.add(label)
            self._g_queue_depth.labels(bucket=label).set(float(depth))
        # Zero buckets that drained since the last scrape so stale depths
        # don't linger in the exposition.
        for label in self._seen_queue_buckets - live:
            self._g_queue_depth.labels(bucket=label).set(0.0)
        self._seen_queue_buckets = live

    # -- durable state -----------------------------------------------------------------
    @property
    def persistence(self):
        """The attached :class:`~repro.accessserver.persistence.PersistenceManager`, if any."""
        return self._persistence

    def enable_persistence(self, backend, recover: bool = True, snapshot_every: int = 1000):
        """Journal every state mutation to ``backend``: a
        :class:`~repro.accessserver.persistence.StorageBackend`, or a state
        directory path, which becomes a ``FileBackend`` at its default fsync
        cadence (pass ``FileBackend(path, fsync_every=N)`` for another).

        With ``recover=True`` (the default) any state the backend already
        holds — a previous run's snapshot and journal — is replayed into
        this server first, so the queue, reservations and credit balances
        survive a restart.  ``recover=False`` starts fresh and *discards*
        any state the backend held: the initial checkpoint, written either
        way so the state on disk is coherent at once, overwrites it.
        Returns the
        :class:`~repro.accessserver.persistence.PersistenceManager`.
        """
        from repro.accessserver.persistence import (
            FileBackend,
            PersistenceError,
            PersistenceManager,
            recover_into,
        )

        if self._persistence is not None:
            raise PersistenceError("persistence is already attached to this server")
        if isinstance(backend, (str, os.PathLike)):
            backend = FileBackend(backend)
        report = recover_into(self, backend) if recover and backend.has_state() else None
        manager = PersistenceManager(
            self,
            backend,
            snapshot_every=snapshot_every,
            start_sequence=report.last_sequence if report is not None else 0,
        )
        manager.attach()
        manager.last_recovery = report
        manager.checkpoint()
        self.log(
            "persistence enabled",
            recovered=report is not None,
            jobs_queued=report.jobs_queued if report is not None else 0,
        )
        return manager

    # -- operations analytics ----------------------------------------------------------
    @property
    def analytics(self):
        """The live :class:`~repro.analytics.engine.AnalyticsEngine`, if enabled."""
        return self._analytics

    def enable_analytics(self, bucket_s: float = 60.0):
        """Fold the server's records into live analytics.

        From now on :meth:`record` hands the engine every record it hands
        the journal, so each job, reservation and credit mutation updates
        the materialised views incrementally.  When persistence is already
        attached, the engine is first *seeded* by a cold replay of the
        backend, so a recovered server's report includes pre-crash history
        and then continues live.  Idempotent — re-enabling returns the
        existing engine.
        """
        if self._analytics is not None:
            return self._analytics
        from repro.analytics import AnalyticsEngine

        engine = AnalyticsEngine(bucket_s=bucket_s)
        if self._persistence is not None:
            self._persistence.backend.sync()
            from repro.analytics import JournalReplaySource

            engine.fold_source(JournalReplaySource(self._persistence.backend))
        self._analytics = engine
        self.log("analytics enabled", seeded_records=engine.records_folded)
        return engine

    # -- the record sink ---------------------------------------------------------------
    @property
    def recording(self) -> bool:
        """Whether :meth:`record` has anywhere to send a record; a caller
        whose record costs something to build builds it only then."""
        return self._persistence is not None or self._analytics is not None

    def record(self, kind: str, data: Dict[str, object], job_id: Optional[int] = None) -> None:
        """Hand one mutation's journal record to the journal, when persistence
        is attached, and then to the live analytics fold, when enabled.

        Every mutation the journal keeps is recorded here once, in the
        journal's vocabulary: ``kind``, the simulated time and ``data``
        (about job ``job_id``, if any).  The event bus is not a sink: a
        mutation's bus topic is published beside its call, for
        ``events.subscribe`` and ``job.watch`` streams, and nothing
        published on the bus is journaled or folded.
        """
        persistence = self._persistence
        analytics = self._analytics
        if persistence is None and analytics is None:
            return
        record = {"ts": self._clock.now, "kind": kind, "data": data}
        if persistence is not None:
            persistence.append(record, job_id)
        if analytics is not None:
            analytics.fold_journal(record)

    # -- platform assets -------------------------------------------------------------
    @property
    def public_address(self) -> str:
        return self._public_address

    @property
    def wildcard_certificate(self) -> Optional[WildcardCertificate]:
        return self._wildcard_certificate

    def set_wildcard_certificate(self, certificate: WildcardCertificate) -> None:
        self._wildcard_certificate = certificate

    # -- federation identity -----------------------------------------------------------
    def configure_shard(
        self, shard_id: str, shard_index: int = 0, shard_count: int = 1
    ) -> None:
        """Name this server as one shard of a federation.

        ``shard_id`` is surfaced in v2 ``server.status`` envelopes, stamped
        on journal snapshots, and used by the federation router for metric
        labels.  ``shard_index``/``shard_count`` give the server a disjoint
        lane of the job-id space (shard ``k`` of ``N`` mints ``k+1, k+1+N,
        ...``), so ids stay globally unique across shards with no
        coordination.  Call before the first job is submitted.
        """
        if not shard_id:
            raise AccessServerError("shard_id must be a non-empty string")
        self.shard_id = shard_id
        self.shard_index = shard_index
        self.shard_count = shard_count
        self._job_ids = shard_job_id_allocator(shard_index, shard_count)

    def claim_job_id(self, job_id: int) -> None:
        """Fast-forward this server's job-id lane past a recovered id.

        Recovery claims every id its journal holds, so a restarted server
        never re-mints one.
        """
        self._job_ids.claim(job_id)

    def _new_job(self, spec: JobSpec) -> Job:
        return Job(spec=spec, job_id=next(self._job_ids))

    def submit_job(
        self,
        user: User,
        spec: JobSpec,
        idempotency_key: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> Job:
        """Create a job on behalf of an authenticated user.

        The ``job.submit`` operation of :mod:`repro.api` executes through
        this method.  Pipeline changes are parked until an administrator
        approves them; ordinary jobs go straight into the queue.  When the
        credit system is enabled, the job's payer (``spec.owner`` unless an
        administrator; see :meth:`Accounts.payer
        <repro.accessserver.accounts.Accounts.payer>`) must be able to afford
        its estimated device time (its timeout) before it is accepted.

        With an ``idempotency_key``, resubmitting the same ``(owner, key)``
        pair returns the job the first submission created — the safe-retry
        contract a client needs after a flaky-transport timeout.

        ``trace_id`` threads the API-boundary trace through to the job's
        lifecycle spans; when omitted (direct callers) a fresh trace is
        minted so every job remains traceable via ``obs.trace``.
        """
        started = time.perf_counter()
        self.users.authorize(user, Permission.CREATE_JOB)
        if idempotency_key is not None:
            existing = self._idempotent_submissions.get((spec.owner, idempotency_key))
            if existing is not None:
                return self.scheduler.job(existing)
        self.accounts.admit(spec)
        job = self._new_job(spec)
        if spec.is_pipeline_change:
            job.status = JobStatus.PENDING_APPROVAL
        self.scheduler.submit(job, self._clock.now)
        if self.recording:
            from repro.accessserver.persistence.codec import job_submitted

            self.record("job.submitted", job_submitted(job, idempotency_key), job.job_id)
        self._publish_job_submitted(job)
        if spec.is_pipeline_change:
            self.log("job pending approval", job=spec.name, owner=user.username)
        else:
            self.log("job queued", job=spec.name, owner=user.username)
            self._schedule_dispatch_tick()
        if idempotency_key is not None:
            self._idempotent_submissions[(spec.owner, idempotency_key)] = job.job_id
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.begin_job_trace(
                job.job_id,
                trace_id,
                start=self._clock.now,
                elapsed_s=time.perf_counter() - started,
                status_after=job.status,  # a str enum: the reader takes its value
            )
        return job

    # -- lifecycle event publication ---------------------------------------------------
    # The scheduler announces assignments/requeues/cancels on the bus; the
    # server publishes its own mutations beside their records, so remote
    # ``events.subscribe`` clients on the ``job.`` / ``reservation.`` /
    # ``credit.`` prefixes observe the full lifecycle.  Topics reuse the
    # journal's record vocabulary; ``job.watch`` subscriptions filter on the
    # ``dispatch.`` prefix.  The bus is output only: :meth:`record` feeds
    # the journal and the analytics fold.
    def _publish_job_submitted(self, job: Job) -> None:
        self.events.publish(
            "job.submitted",
            job_id=job.job_id,
            name=job.spec.name,
            owner=job.spec.owner,
            priority=job.spec.priority,
            timeout_s=job.spec.timeout_s,
            is_pipeline_change=job.spec.is_pipeline_change,
            status=job.status.value,
            submitted_at=job.submitted_at,
        )

    def idempotency_records(self) -> List[Tuple[str, str, int]]:
        """Every remembered ``(owner, key, job_id)`` triple, for snapshots."""
        return [
            (owner, key, job_id)
            for (owner, key), job_id in sorted(self._idempotent_submissions.items())
        ]

    def restore_idempotency_record(self, owner: str, key: str, job_id: int) -> None:
        """Re-admit a journaled idempotency mapping during crash recovery."""
        self._idempotent_submissions[(owner, key)] = job_id

    def approve_job(self, admin: User, job: Job) -> None:
        """Administrator approval of a pipeline change (Section 3.1)."""
        self.users.authorize(admin, Permission.APPROVE_PIPELINE)
        if job.job_id not in self.scheduler.awaiting_approval:
            raise AccessServerError(f"job {job.job_id} is not awaiting approval")
        self.scheduler.enqueue_approved(job)
        self.record("job.approved", {"job_id": job.job_id}, job.job_id)
        self.events.publish("job.approved", job_id=job.job_id)
        self.log("job approved", job=job.spec.name, approver=admin.username)
        self._schedule_dispatch_tick()

    def reject_job(self, admin: User, job: Job, reason: str = "") -> None:
        """Administrator rejection of a pipeline change: the counterpart of
        :meth:`approve_job`.  The job leaves the approval queue terminally
        cancelled, with the reason recorded on the job for its owner."""
        self.users.authorize(admin, Permission.APPROVE_PIPELINE)
        if job.job_id not in self.scheduler.awaiting_approval:
            raise AccessServerError(f"job {job.job_id} is not awaiting approval")
        job.error = f"rejected: {reason}" if reason else "rejected by administrator"
        self.scheduler.cancel(job.job_id)
        # The scheduler recorded the cancellation; this record carries the
        # rejection reason recorded on the job for its owner.
        self.record("job.rejected", {"job_id": job.job_id, "error": job.error}, job.job_id)
        self.events.publish("job.rejected", job_id=job.job_id)
        self.log(
            "job rejected",
            job=job.spec.name,
            approver=admin.username,
            reason=reason,
        )

    def pending_approval(self) -> List[Job]:
        return list(self.scheduler.awaiting_approval.values())

    def _controller_cpu(self, vantage_point_name: str) -> float:
        return self.accounts.vantage_point(vantage_point_name).controller.latest_cpu_percent()

    def run_pending_jobs(self, max_jobs: int = DISPATCH_BATCH) -> List[Job]:
        """One dispatch pass: reap expired leases, then execute up to ``max_jobs`` queued jobs.

        Assignments are computed in waves via the scheduler's
        ``dispatch_batch`` (one job at a time per device holds within each
        wave); then each job of the wave is admitted, run and settled before
        the next is admitted, in assignment order (a payload may advance the
        clock), and freed devices feed the next wave.  Each job's power-meter
        logs and artefacts end up in its workspace.  Returns the jobs that
        were executed by this call; :meth:`drain` repeats passes.
        """
        executed: List[Job] = []
        obs_on = self.obs.registry.enabled
        tracer = self.obs.tracer
        tracing = tracer.enabled
        # Telemetry reaches the registry and the tracer once, when the pass
        # ends: the waves' decision times and sizes, and the lifecycle row
        # the settle step appends for each job (see LifecycleRow).
        decision_s: List[float] = []
        wave_sizes: List[float] = []
        rows: Optional[List[LifecycleRow]] = [] if obs_on or tracing else None
        # A dead agent must never strand a job or its devices: every
        # dispatch pass starts by reaping expired leases.  With no push job
        # queued there is nothing to decide, and an idle host loop makes
        # ~200 such passes a second: a count check ends them.
        self.agents.expire_leases()
        try:
            while len(executed) < max_jobs and self.scheduler.queue.plane_length("push"):
                decision_t0 = time.perf_counter()
                assignments = self.scheduler.dispatch_batch(
                    self._clock.now,
                    controller_cpu=self._controller_cpu,
                    max_assignments=max_jobs - len(executed),
                )
                if obs_on:
                    decision_s.append(time.perf_counter() - decision_t0)
                if not assignments:
                    break
                if obs_on:
                    wave_sizes.append(float(len(assignments)))
                for assignment in assignments:
                    admitted = self._admit_assignment(assignment)
                    if admitted is not None:
                        admitted.run_payload()
                        self._settle_assignment(admitted, rows)
                        executed.append(admitted.job)
        finally:
            if obs_on:
                self._observe_pass(decision_s, wave_sizes, rows, executed, max_jobs)
            if tracing:
                tracer.record_lifecycles(rows)
        return executed

    def _observe_pass(
        self,
        decision_s: List[float],
        wave_sizes: List[float],
        rows: List[LifecycleRow],
        executed: List[Job],
        max_jobs: int,
    ) -> None:
        """Hand one pass's timings to the histograms and counters."""
        self._m_decision.observe_many(decision_s)
        if wave_sizes:
            self._m_waves.inc(float(len(wave_sizes)))
            self._m_wave_size.observe_many(wave_sizes)
        if rows:
            _, _, _, _, admit_s, run_s, settle_s, _, _, _, statuses = zip(*rows)
            self._m_admit.observe_many(admit_s)
            self._m_run.observe_many(run_s)
            self._m_settle.observe_many(settle_s)
            # ``jobs_executed_total`` by terminal status.  tuple.count runs in
            # C; hashing each job's enum member (a Counter) would run Python
            # code per job.
            for status in JobStatus:
                count = statuses.count(status)
                if count:
                    child = self._m_executed_children.get(status.value)
                    if child is None:
                        child = self._m_executed.labels(status=status.value)
                        self._m_executed_children[status.value] = child
                    child.inc(float(count))
        if batch_filled(executed, max_jobs):
            result = "full"
        else:
            result = "partial" if executed else "empty"
        self._m_passes[result].inc()

    def drain(self) -> List[Job]:
        """Run dispatch passes until one does not fill its batch; returns the jobs run.

        What a short pass leaves queued waits for an agent, a reservation or
        a held device; no further pass would run it.  Stopping at
        :data:`DRAIN_PASSES` with the last pass full is logged.
        """
        executed: List[Job] = []
        for _ in range(DRAIN_PASSES):
            ran = self.run_pending_jobs()
            executed.extend(ran)
            if not batch_filled(ran):
                return executed
        self._obs_log.warning(
            "drain stopped after %d full dispatch passes with %d job(s) still queued",
            DRAIN_PASSES, self.scheduler.queue_length(),
        )
        return executed

    def dispatch_pass_counts(self) -> Dict[str, int]:
        """``dispatch_passes_total`` by result: ``empty`` / ``partial`` / ``full``."""
        return {result: int(child.value) for result, child in self._m_passes.items()}

    def _admit_assignment(self, assignment: Assignment):
        """Admit: decide whether the assignment still runs.

        Returns an :class:`~repro.accessserver.executor.AdmittedExecution`
        ready for its payload, or ``None`` when the job left the RUNNING
        state while waiting for its turn in the wave (e.g. cancelled by an
        earlier job of the same batch) or lost eligibility.  Jobs not
        admitted are left out of the pass's executed jobs.
        """
        from repro.core.api import BatteryLabAPI
        from repro.accessserver.executor import AdmittedExecution

        admit_t0 = time.perf_counter()
        job = assignment.job
        if job.status is not JobStatus.RUNNING:
            return None
        # Earlier jobs of the wave may have advanced the simulated clock
        # since the batch was assigned.  Re-check the time-dependent
        # constraints (reservations, controller CPU) at execution time — a
        # reservation may have begun meanwhile — and requeue rather than run
        # on a device someone else now holds.
        if not self.scheduler.eligible(
            job,
            assignment.vantage_point,
            assignment.device_serial,
            self._clock.now,
            controller_cpu=self._controller_cpu,
        ):
            self.scheduler.requeue(job)
            return None
        # Bill execution time, not queue-on-device time, so credits match
        # what the seed's one-at-a-time dispatch charged.
        job.mark_execution_started(self._clock.now)
        controller = self.accounts.vantage_point(assignment.vantage_point).controller
        api = BatteryLabAPI(controller)
        ctx = JobContext(job, api, assignment.device_serial, clock=lambda: self._clock.now)
        self.scheduler.begin_execution(job)
        return AdmittedExecution(
            assignment=assignment,
            ctx=ctx,
            trace_at_admit=None if controller.monitor is None else controller.monitor.last_trace(),
            execution_started_at=self._clock.now,
            admit_elapsed_s=time.perf_counter() - admit_t0,
        )

    def _finish_execution(
        self, job: Job, held_since: float, result: object, error: Optional[str]
    ) -> float:
        """The one way out of an execution that ran to its end, push or pull.

        In this order: the terminal transition (only a still-RUNNING job
        transitions — one cancelled while it held its devices stays
        cancelled), the give-back of every slot and the executing mark,
        credit settlement for the time the devices were held, and last the
        ``job.finished`` record and publish, so recovery replays
        balances exactly.  ``error`` set means the execution failed.
        Returns the simulated time the execution finished at.
        """
        now = self._clock.now
        if job.status is not JobStatus.RUNNING:
            self.log(
                "job finished after cancellation",
                job=job.spec.name,
                status=job.status.value,
            )
        elif error is None:
            job.mark_completed(now, result)
            self.log("job completed", job=job.spec.name)
        else:
            job.mark_failed(now, error)
            self.log("job failed", job=job.spec.name, error=error)
        self.scheduler.release(job)
        self.accounts.bill(job, held_since)
        # A cancellation was recorded when the scheduler cancelled the job.
        if job.status in (JobStatus.COMPLETED, JobStatus.FAILED):
            if self.recording:
                from repro.accessserver.persistence.codec import job_finished

                self.record("job.finished", job_finished(job), job.job_id)
            self.events.publish(
                "job.finished",
                job_id=job.job_id,
                status=job.status.value,
                finished_at=job.finished_at,
            )
        return now

    def _settle_assignment(
        self, admitted, rows: Optional[List[LifecycleRow]]
    ) -> None:
        """Settle: the job's cleanup and power trace, then the finish step
        (:meth:`_finish_execution`).

        When ``rows`` is given, the job's lifecycle row (its ``job.admit`` /
        ``job.run`` / ``job.settle`` timings) is appended to it.
        """
        settle_t0 = time.perf_counter()
        job = admitted.job
        # Stop what the job left running, then keep the power-meter log its own
        # run took: collected by default, retained for days (Section 3.1).
        api = admitted.ctx.api
        api.close()
        monitor = api.controller.monitor
        trace = None if monitor is None else monitor.last_trace()
        if trace is not admitted.trace_at_admit:
            job.workspace.store("power_meter_trace", trace)
        error = None if admitted.error is None else str(admitted.error)
        finished_at = self._finish_execution(
            job, admitted.execution_started_at, admitted.result, error
        )
        if rows is None:
            return
        assignment = admitted.assignment
        rows.append((
            PUSH_PHASES,
            job.job_id,
            admitted.execution_started_at,
            finished_at,
            admitted.admit_elapsed_s,
            admitted.run_elapsed_s,
            time.perf_counter() - settle_t0,
            admitted.error is not None,
            assignment.vantage_point,
            assignment.device_serial,
            job.status,  # a str enum: spans read its value
        ))

    # -- agent-pull execution ------------------------------------------------------------------
    # The plane lives on ``self.agents``; these three are the router's entry
    # points to it, kept here so request tracing finds them by name.
    def agent_offers(self, user: User, agent_id: str, limit: int = 10) -> List[Job]:
        return self.agents.offers(user, agent_id, limit=limit)

    def agent_claim(
        self, user: User, agent_id: str, job_id: int, ttl_s: float = 30.0
    ) -> Tuple[AgentLease, Job]:
        return self.agents.claim(user, agent_id, job_id, ttl_s=ttl_s)

    def agent_report(
        self,
        lease_id: str,
        agent_id: str,
        status: str,
        result: object = None,
        error: Optional[str] = None,
        children: Optional[List[Dict[str, object]]] = None,
    ) -> Tuple[Job, bool]:
        return self.agents.report(lease_id, agent_id, status, result, error, children)

    # -- scheduling policy & event-driven dispatch ---------------------------------------------
    @property
    def scheduling_policy(self) -> SchedulingPolicy:
        return self.scheduler.policy

    def set_scheduling_policy(self, policy: Union[str, SchedulingPolicy]) -> SchedulingPolicy:
        """Swap the queue ordering policy; applies from the next dispatch tick."""
        selected = self.scheduler.set_policy(policy)
        self.record("policy.changed", {"policy": selected.name})
        self.log("scheduling policy changed", policy=selected.name)
        return selected

    def enable_auto_dispatch(self, poll_interval_s: Optional[float] = None) -> None:
        """Dispatch through the simulation event loop instead of caller polling.

        Once enabled, every submission/approval schedules a dispatch tick at
        the current simulated time, so advancing the simulation executes
        queued jobs without anyone calling :meth:`run_pending_jobs`.  A tick
        is one :meth:`drain`.  Jobs left queued behind an active session
        reservation are retried when that reservation ends.  With
        ``poll_interval_s`` set, an additional periodic tick also retries
        other temporarily unsatisfied constraints (notably a busy controller
        CPU, whose future is unknowable to the dispatcher).  Jobs run inside
        event callbacks here, so payloads may advance the simulated clock
        themselves — the event loop tolerates that re-entrancy.
        """
        self._auto_dispatch = True
        self._auto_dispatch_interval_s = poll_interval_s
        self._schedule_dispatch_tick()

    def disable_auto_dispatch(self) -> None:
        self._auto_dispatch = False
        if self._auto_dispatch_event is not None:
            self._auto_dispatch_event.cancel()
            self._auto_dispatch_event = None

    def _schedule_dispatch_tick(self, delay_s: float = 0.0) -> None:
        if not self._auto_dispatch:
            return
        if self._auto_dispatch_event is not None:
            # Keep whichever tick fires first: a pending poll scheduled far
            # out must not swallow the immediate tick a new submission earns.
            if self._auto_dispatch_event.timestamp <= self._clock.now + delay_s:
                return
            self._auto_dispatch_event.cancel()
        self._auto_dispatch_event = self.context.scheduler.schedule_in(
            delay_s, self._auto_dispatch_tick, label="access-server-dispatch"
        )

    def _auto_dispatch_tick(self) -> None:
        self._auto_dispatch_event = None
        if not self._auto_dispatch:
            return
        self.drain()
        if self.scheduler.queue_length() == 0:
            return
        # Wake up at the earlier of the configured poll and the end of the
        # first active reservation — reservation expiry is the one blocking
        # condition whose timing the dispatcher knows exactly.  (Jobs blocked
        # on the controller-CPU constraint need poll_interval_s.)  Under
        # "defer" admission an *upcoming* reservation can also hold a job
        # back, and such a job cannot become placeable before that
        # reservation ends, so the wake-up considers future reservations too.
        delay = self._auto_dispatch_interval_s
        reservations = self.scheduler.reservations
        if self.scheduler.reservation_admission == "defer":
            reservation_end = reservations.earliest_relevant_end(self._clock.now)
        else:
            reservation_end = reservations.earliest_active_end(self._clock.now)
        if reservation_end is not None and reservation_end > self._clock.now:
            reservation_delay = reservation_end - self._clock.now
            delay = reservation_delay if delay is None else min(delay, reservation_delay)
        if delay is not None:
            self._schedule_dispatch_tick(delay)

    # -- interactive sessions ------------------------------------------------------------------
    def reserve_session(
        self,
        user: User,
        vantage_point_name: str,
        device_serial: str,
        start_s: float,
        duration_s: float,
    ) -> SessionReservation:
        """Reserve a timed interactive slot on one device.

        The ``session.reserve`` operation of :mod:`repro.api` executes
        through this method.
        """
        self.users.authorize(user, Permission.REMOTE_CONTROL)
        self.accounts.vantage_point(vantage_point_name)
        reservation = self.scheduler.reserve_session(
            user.username, vantage_point_name, device_serial, start_s, duration_s
        )
        self.record("reservation.created", asdict(reservation))
        self.events.publish(
            "reservation.created",
            reservation_id=reservation.reservation_id,
            username=reservation.username,
            vantage_point=reservation.vantage_point,
            device_serial=reservation.device_serial,
            start_s=reservation.start_s,
            duration_s=reservation.duration_s,
        )
        return reservation

    def status(self) -> dict:
        orphaned = self.accounts.orphaned_jobs()
        journal = None
        if self._persistence is not None:
            # Compaction lag at a glance: how much journal a recovery would
            # replay, and when the last snapshot bounded it.
            journal = {
                "records": self._persistence.sequence,
                "records_since_snapshot": self._persistence.records_since_snapshot,
                "snapshots_written": self._persistence.snapshots_written,
                "last_snapshot_at": self._persistence.last_snapshot_at,
            }
        return {
            "shard_id": self.shard_id,
            "vantage_points": [record.name for record in self.accounts.vantage_points()],
            "users": self.users.usernames(),
            "queued_jobs": self.scheduler.queue_length(),
            "pending_approval": len(self.scheduler.awaiting_approval),
            "scheduling_policy": self.scheduler.policy.name,
            "reservation_admission": self.scheduler.reservation_admission,
            "auto_dispatch": self._auto_dispatch,
            "persistence": self._persistence is not None,
            "journal": journal,
            "certificate_serial": self._wildcard_certificate.serial_number
            if self._wildcard_certificate
            else None,
            "orphaned_jobs": [job.job_id for job in orphaned],
            "orphaned_vantage_points": sorted(
                {job.spec.constraints.vantage_point for job in orphaned}
            ),
        }
