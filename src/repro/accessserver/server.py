"""The BatteryLab access server.

The access server (Section 3.1) is the single entry point for
experimenters: it authenticates them, lets authorized users create and run
jobs, schedules those jobs onto vantage points subject to the platform's
constraints, keeps job logs/workspaces for several days, runs the built-in
maintenance jobs, and owns the platform-wide assets (the ``batterylab.dev``
DNS zone, the wildcard certificate, the SSH identity trusted by every
controller).  The real deployment builds this on Jenkins in AWS; the model
keeps the behaviour and drops the Java.

Job dispatch runs through the indexed batch pipeline of
:mod:`repro.accessserver.dispatch`: :meth:`AccessServer.run_pending_jobs`
pulls waves of assignments via ``dispatch_batch`` and every scheduling
decision is published as a structured ``dispatch.*`` record on
:attr:`AccessServer.events`.  With :meth:`AccessServer.enable_auto_dispatch`
the server becomes fully event-driven — submissions and approvals schedule
dispatch ticks on the simulation event loop, so callers no longer poll
``run_pending_jobs`` themselves.  The queue ordering policy
(``fifo``/``priority``/``fair-share``) is chosen per server via the
``scheduling_policy`` constructor argument or
:meth:`AccessServer.set_scheduling_policy`.

.. note::
   Since Platform API v1 the sanctioned consumer surface is
   :mod:`repro.api`: experiment code submits and inspects jobs through a
   :class:`~repro.api.client.BatteryLabClient`, never by calling
   :meth:`AccessServer.submit_job` / :meth:`AccessServer.reserve_session`
   directly.  Those methods remain as thin compatibility shims — the
   router executes through them — but direct use outside ``repro.api``
   and the test suite is deprecated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.accessserver.agents import AgentError, AgentLease, AgentManager, AgentRecord
from repro.accessserver.auth import (
    Permission,
    Role,
    SessionManager,
    User,
    UserRegistry,
)
from repro.accessserver.certificates import CertificateAuthority, WildcardCertificate
from repro.accessserver.credits import CreditLedger, CreditPolicy
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
from repro.accessserver.testers import TesterPool
from repro.network.ssh import SshChannel, SshKeyPair
from repro.obs import Observability, component_logger
from repro.simulation.entity import Entity, SimulationContext
from repro.simulation.events import Event, EventBus
from repro.vantagepoint.controller import VantagePointController
from repro.vantagepoint.provisioning import JoinRequest, ProvisioningReport, provision_vantage_point


class AccessServerError(RuntimeError):
    """Raised for platform-level errors (unknown vantage point, failed join, ...)."""


#: Jobs one dispatch pass executes at most (``platform.run_queue()``, an
#: auto-dispatch tick, one turn of a host loop).  A host runs a pass under
#: the gateway's ``router_lock``, so this bounds the longest a mutating
#: request waits for that lock.  It is *not* a rate limit: whoever drives
#: passes goes straight into the next one while :func:`batch_filled` says
#: the last stopped at this cap.
DISPATCH_BATCH = 100


def batch_filled(executed, max_jobs: int = DISPATCH_BATCH) -> bool:
    """Whether a dispatch pass stopped at its cap, not at an empty queue.

    :meth:`AccessServer.run_pending_jobs` returns short of ``max_jobs``
    only after ``dispatch_batch`` handed out nothing, so a pass that was
    not filled left nothing dispatchable right now, and a filled one
    probably did.  Every driver of passes asks this one question: the
    simulated-time tick, the wall-clock host loop, a shard's drain.
    """
    return len(executed) >= max_jobs


@dataclass
class VantagePointRecord:
    """A registered vantage point as seen by the access server."""

    name: str
    controller: VantagePointController
    institution: str
    dns_name: str
    report: ProvisioningReport
    approved: bool = True
    metadata: Dict[str, object] = field(default_factory=dict)


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
        :class:`~repro.accessserver.dispatch.DispatchEngine`).
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
        #: Bearer token sessions for Platform API v2 (``auth.login``).
        self.sessions = SessionManager(self.users)
        self.dns = DnsZone(origin=domain)
        self.certificate_authority = CertificateAuthority(domain=domain)
        self._wildcard_certificate: Optional[WildcardCertificate] = (
            self.certificate_authority.issue(context.now)
        )
        self.events = EventBus(clock=context.clock)
        #: Platform telemetry: metrics registry + tracer (``repro.obs``).
        self.obs = Observability(clock=context.clock, bus=self.events)
        self._obs_log = component_logger("repro.accessserver.server")
        self.scheduler = JobScheduler(
            policy=scheduling_policy,
            event_bus=self.events,
            reservation_admission=reservation_admission,
        )
        # A cancelled reservation frees its device ahead of schedule; retry
        # blocked jobs right away instead of at the reservation's old end.
        # (No-op unless auto-dispatch is enabled.)
        self.events.subscribe(
            "dispatch.reservation_cancelled",
            lambda record: self._schedule_dispatch_tick(),
        )
        # Incrementally-maintained orphan set (jobs pinned to a vantage point
        # that is not registered).  Entries leave on cancel/reject — the
        # engine emits ``dispatch.cancelled`` for both — or when the missing
        # vantage point registers.  See :meth:`orphaned_jobs`.
        self._orphans: Dict[int, Job] = {}
        self.events.subscribe(
            "dispatch.cancelled",
            lambda record: self._orphans.pop(record.payload.get("job_id"), None),
        )
        self._declare_metrics()
        self.testers = TesterPool()
        #: Pull-execution state: registered edge daemons + their leases.
        self.agents = AgentManager()
        self.ssh_key = SshKeyPair.generate("batterylab-access-server", self.random)
        self._vantage_points: Dict[str, VantagePointRecord] = {}
        self._pending_approval: List[Job] = []
        self._credit_policy: Optional[CreditPolicy] = None
        self._auto_dispatch = False
        self._auto_dispatch_interval_s: Optional[float] = None
        self._auto_dispatch_max_jobs = DISPATCH_BATCH
        self._auto_dispatch_event: Optional[Event] = None
        self._persistence = None
        self._analytics = None
        self._analytics_tap = None
        #: Opt-in concurrent payload execution; see enable_parallel_waves.
        self._wave_executor = None
        # (owner, idempotency_key) -> job_id: flaky-transport retries of the
        # same submission return the original job instead of double-queueing.
        self._idempotent_submissions: Dict[Tuple[str, str], int] = {}
        # Federation identity: unset for the historical single-server
        # deployment.  configure_shard() names this server and hands it a
        # disjoint lane of the job-id space (see shard_job_id_allocator).
        self.shard_id: Optional[str] = None
        self.shard_index = 0
        self.shard_count = 1
        self._job_ids = None  # None -> the process-global allocator

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
        self._m_parallelism = registry.gauge(
            "wave_parallelism_ratio",
            "Admitted wave size / executor worker count of the last parallel wave.",
        ).labels()
        self._g_queue_depth = registry.gauge(
            "dispatch_queue_depth",
            "Queued jobs per constraint bucket.",
            labelnames=("bucket",),
        )
        self._g_orphans = registry.gauge(
            "orphaned_jobs", "Queued jobs pinned to an unregistered vantage point."
        ).labels()
        self._m_agent_polls = registry.counter(
            "agent_polls_total",
            "agent.poll requests answered, by outcome.",
            labelnames=("outcome",),
        )
        self._m_agent_poll_children: Dict[str, object] = {}
        self._m_agent_claims = registry.counter(
            "agent_claims_total", "Leases granted to pulling agents."
        ).labels()
        self._m_agent_reports = registry.counter(
            "agent_reports_total",
            "agent.report settlements, by terminal status.",
            labelnames=("status",),
        )
        self._m_agent_report_children: Dict[str, object] = {}
        self._m_lease_expired = registry.counter(
            "agent_lease_expirations_total",
            "Leases reaped after their holder went silent.",
        ).labels()
        self._g_leases = registry.gauge(
            "agent_leases_active", "Currently granted agent leases."
        ).labels()
        # A size on every history, read at scrape time only.
        self._g_sim_log = registry.gauge(
            "sim_log_records", "Records in the simulation log's bounded window."
        ).labels()
        self._g_event_history = registry.gauge(
            "event_history_records", "Records in the event bus's bounded history."
        ).labels()
        self._g_retained_jobs = registry.gauge(
            "scheduler_retained_jobs", "Jobs the scheduler holds, in any status."
        ).labels()
        self._g_idempotency_keys = registry.gauge(
            "idempotency_keys", "Remembered (owner, idempotency key) submissions."
        ).labels()
        self._seen_queue_buckets: set = set()
        registry.add_collect_hook(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Scrape-time gauges: queue depth per constraint bucket, orphan count,
        history sizes."""
        self._g_orphans.set(float(len(self.orphaned_jobs())))
        self._g_leases.set(float(len(self.agents.leases())))
        self._g_sim_log.set(float(self.context.log_retained))
        self._g_event_history.set(float(self.events.retained))
        self._g_retained_jobs.set(float(self.scheduler.job_count()))
        self._g_idempotency_keys.set(float(len(self._idempotent_submissions)))
        sizes = self.scheduler.engine.queue.bucket_sizes()
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

    def enable_persistence(
        self,
        backend,
        recover: bool = True,
        snapshot_every: int = 1000,
        fsync_every: int = 32,
    ):
        """Journal every state mutation to ``backend`` (a path or a backend).

        With ``recover=True`` (the default) any state the backend already
        holds — a previous run's snapshot and journal — is replayed into
        this server first, so the queue, reservations and credit balances
        survive a restart.  ``recover=False`` starts fresh and *discards*
        any state the backend held.  Returns the
        :class:`~repro.accessserver.persistence.PersistenceManager`.
        """
        from repro.accessserver.persistence import attach_persistence

        manager = attach_persistence(
            self,
            backend,
            recover=recover,
            snapshot_every=snapshot_every,
            fsync_every=fsync_every,
        )
        self.log(
            "persistence enabled",
            recovered=manager.last_recovery is not None,
            jobs_queued=(
                manager.last_recovery.jobs_queued if manager.last_recovery else 0
            ),
        )
        return manager

    # -- operations analytics ----------------------------------------------------------
    @property
    def analytics(self):
        """The live :class:`~repro.analytics.engine.AnalyticsEngine`, if enabled."""
        return self._analytics

    def enable_analytics(self, bucket_s: float = 60.0):
        """Fold the server's operational record stream into live analytics.

        Attaches a :class:`~repro.analytics.records.LiveBusTap` to the
        event bus so every ``dispatch.*`` / ``job.*`` / ``reservation.*`` /
        ``credit.*`` record updates the materialised views incrementally.
        When persistence is already attached, the engine is first *seeded*
        by a cold replay of the backend, so a recovered server's report
        includes pre-crash history and then continues live.  Idempotent —
        re-enabling returns the existing engine.
        """
        if self._analytics is not None:
            return self._analytics
        from repro.analytics import AnalyticsEngine, LiveBusTap

        engine = AnalyticsEngine(bucket_s=bucket_s)
        if self._persistence is not None:
            self._persistence.backend.sync()
            from repro.analytics import JournalReplaySource

            engine.fold_source(JournalReplaySource(self._persistence.backend))
        tap = LiveBusTap(engine, self)
        tap.attach()
        self._analytics = engine
        self._analytics_tap = tap
        self.log("analytics enabled", seeded_records=engine.records_folded)
        return engine

    def disable_analytics(self) -> None:
        """Detach the live tap and drop the engine (views are discarded)."""
        if self._analytics_tap is not None:
            self._analytics_tap.detach()
        self._analytics = None
        self._analytics_tap = None

    # -- platform assets -------------------------------------------------------------
    @property
    def public_address(self) -> str:
        return self._public_address

    @property
    def wildcard_certificate(self) -> Optional[WildcardCertificate]:
        return self._wildcard_certificate

    def set_wildcard_certificate(self, certificate: WildcardCertificate) -> None:
        self._wildcard_certificate = certificate

    # -- credit system -----------------------------------------------------------------
    @property
    def credit_policy(self) -> Optional[CreditPolicy]:
        return self._credit_policy

    def enable_credit_system(
        self,
        contribution_multiplier: float = 1.5,
        initial_grant_device_hours: float = 5.0,
        minimum_reservation_hours: float = 0.25,
    ) -> CreditLedger:
        """Turn on the access-by-credit model sketched in the paper's conclusion.

        Once enabled, experimenters without a credit balance cannot submit
        jobs; institutions that contribute vantage points earn credits for
        the device time they make available (see
        :mod:`repro.accessserver.credits`).  Returns the ledger so callers
        can open contributor accounts and award contributions.

        Idempotent: when the credit system is already on — typically because
        crash recovery restored it, balances included — the existing ledger
        is returned untouched rather than replaced with an empty one, so
        boot code may call this unconditionally after ``enable_persistence``.
        """
        if self._credit_policy is not None:
            self.log("credit system already enabled; keeping existing ledger")
            return self._credit_policy.ledger
        ledger = CreditLedger(
            contribution_multiplier=contribution_multiplier,
            initial_grant_device_hours=initial_grant_device_hours,
        )
        self._credit_policy = CreditPolicy(
            ledger, minimum_reservation_hours=minimum_reservation_hours
        )
        # Bridge ledger mutations onto the event bus so analytics and
        # remote ``credit.`` event subscribers see credit traffic live.
        ledger.add_observer(self._publish_credit_event)
        # The "credit" scheduling policy weighs owners by remaining balance;
        # feed it live ledger balances through the dispatch stats.
        self.scheduler.engine.set_credit_balance_provider(self._credit_balances)
        if self._persistence is not None:
            self._persistence.on_credit_enabled(
                contribution_multiplier=contribution_multiplier,
                initial_grant_device_hours=initial_grant_device_hours,
                minimum_reservation_hours=minimum_reservation_hours,
            )
        self.log("credit system enabled")
        return ledger

    def _credit_balances(self) -> Dict[str, float]:
        if self._credit_policy is None:
            return {}
        return {
            account.owner: account.balance_device_hours
            for account in self._credit_policy.ledger.accounts()
        }

    def _credit_account_for(self, owner: str):
        assert self._credit_policy is not None
        ledger = self._credit_policy.ledger
        try:
            return ledger.account(owner)
        except Exception:
            return ledger.open_account(owner, now=self.context.now)

    # -- membership --------------------------------------------------------------------
    def register_vantage_point(
        self,
        controller: VantagePointController,
        request: JoinRequest,
    ) -> VantagePointRecord:
        """Run the join procedure for a new member and register its vantage point."""
        if request.node_identifier in self._vantage_points:
            raise AccessServerError(
                f"a vantage point named {request.node_identifier!r} is already registered"
            )
        report = provision_vantage_point(
            controller,
            request,
            access_server_key=self.ssh_key,
            access_server_address=self._public_address,
            dns_registry=self.dns,
            certificate=self._wildcard_certificate,
        )
        if not report.succeeded:
            failed = ", ".join(step.name for step in report.failed_steps())
            raise AccessServerError(
                f"vantage point {request.node_identifier!r} failed provisioning: {failed}"
            )
        record = VantagePointRecord(
            name=request.node_identifier,
            controller=controller,
            institution=request.institution,
            dns_name=report.dns_name,
            report=report,
        )
        self._vantage_points[record.name] = record
        # Jobs waiting on this vantage point are orphans no longer.
        for job_id, job in list(self._orphans.items()):
            if job.spec.constraints.vantage_point == record.name:
                del self._orphans[job_id]
        for serial in controller.list_devices():
            self.scheduler.register_device(record.name, serial)
        if self._persistence is not None:
            self._persistence.on_vantage_point_registered(record)
        self.log("vantage point registered", name=record.name, devices=controller.list_devices())
        return record

    def vantage_point(self, name: str) -> VantagePointRecord:
        try:
            return self._vantage_points[name]
        except KeyError:
            raise AccessServerError(f"unknown vantage point {name!r}") from None

    def vantage_points(self) -> List[VantagePointRecord]:
        return [self._vantage_points[name] for name in sorted(self._vantage_points)]

    def open_ssh_channel(self, vantage_point_name: str) -> SshChannel:
        """Open an authenticated SSH channel to a vantage point controller."""
        record = self.vantage_point(vantage_point_name)
        return record.controller.ssh_server.open_channel(self.ssh_key, self._public_address)

    # -- job lifecycle ---------------------------------------------------------------------
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

        The module-global allocator is claimed by the persistence layer
        already; a sharded server additionally advances its own lane so a
        restarted shard never re-mints an id its journal already holds.
        """
        if self._job_ids is not None:
            self._job_ids.claim(job_id)

    def _new_job(self, spec: JobSpec) -> Job:
        if self._job_ids is None:
            return Job(spec=spec)
        return Job(spec=spec, job_id=next(self._job_ids))

    def submit_job(
        self,
        user: User,
        spec: JobSpec,
        idempotency_key: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> Job:
        """Create a job on behalf of an authenticated user.

        .. deprecated:: API v1
           Compatibility shim — new code submits through
           :meth:`repro.api.client.BatteryLabClient.submit_job`.

        Pipeline changes are parked until an administrator approves them;
        ordinary jobs go straight into the queue.  When the credit system is
        enabled, non-admin owners must be able to afford the job's estimated
        device time (its timeout) before it is accepted.

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
        if self._credit_policy is not None and user.role is not Role.ADMIN:
            self._credit_account_for(user.username)
            self._credit_policy.authorize(
                user.username, estimated_device_hours=spec.timeout_s / 3600.0
            )
        job = self._new_job(spec)
        if spec.is_pipeline_change:
            job.status = JobStatus.PENDING_APPROVAL
            self._pending_approval.append(job)
            self.scheduler.submit(job, self.context.now)
            if self._persistence is not None:
                self._persistence.on_job_submitted(job, idempotency_key=idempotency_key)
            self._publish_job_submitted(job)
            self.log("job pending approval", job=spec.name, owner=user.username)
        else:
            self.scheduler.submit(job, self.context.now)
            if self._persistence is not None:
                self._persistence.on_job_submitted(job, idempotency_key=idempotency_key)
            self._publish_job_submitted(job)
            self.log("job queued", job=spec.name, owner=user.username)
            self._schedule_dispatch_tick()
        if idempotency_key is not None:
            self._idempotent_submissions[(spec.owner, idempotency_key)] = job.job_id
        self._track_orphan(job)
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.begin_job_trace(
                job.job_id,
                trace_id,
                start=self.context.now,
                elapsed_s=time.perf_counter() - started,
                status_after=job.status.value,
            )
        return job

    # -- lifecycle event publication ---------------------------------------------------
    # The dispatch engine already announces assignments/requeues/cancels on
    # the bus; these publications cover the mutations that previously only
    # the persistence hooks saw, so bus consumers — the analytics live tap,
    # remote ``events.subscribe`` clients on the ``job.`` / ``reservation.``
    # / ``credit.`` prefixes — observe the full lifecycle.  Topics reuse the
    # journal's record vocabulary; ``job.watch`` subscriptions filter on the
    # ``dispatch.`` prefix and are unaffected.
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

    def _publish_credit_event(self, kind: str, data: Dict[str, object]) -> None:
        if kind == "transaction":
            self.events.publish("credit.txn", **data)
        elif kind == "account_opened":
            self.events.publish("credit.account_opened", **data)

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
        if job not in self._pending_approval:
            raise AccessServerError(f"job {job.job_id} is not awaiting approval")
        self._pending_approval.remove(job)
        self.scheduler.enqueue_approved(job)
        if self._persistence is not None:
            self._persistence.on_job_approved(job)
        self.events.publish("job.approved", job_id=job.job_id)
        self.log("job approved", job=job.spec.name, approver=admin.username)
        self._schedule_dispatch_tick()

    def reject_job(self, admin: User, job: Job, reason: str = "") -> None:
        """Administrator rejection of a pipeline change: the counterpart of
        :meth:`approve_job`.  The job leaves the approval queue terminally
        cancelled, with the reason recorded on the job for its owner."""
        self.users.authorize(admin, Permission.APPROVE_PIPELINE)
        if job not in self._pending_approval:
            raise AccessServerError(f"job {job.job_id} is not awaiting approval")
        self._pending_approval.remove(job)
        job.error = f"rejected: {reason}" if reason else "rejected by administrator"
        self.scheduler.cancel(job.job_id)
        if self._persistence is not None:
            self._persistence.on_job_rejected(job)
        self.events.publish("job.rejected", job_id=job.job_id)
        self.log(
            "job rejected",
            job=job.spec.name,
            approver=admin.username,
            reason=reason,
        )

    def pending_approval(self) -> List[Job]:
        return list(self._pending_approval)

    def _controller_cpu(self, vantage_point_name: str) -> float:
        return self.vantage_point(vantage_point_name).controller.latest_cpu_percent()

    def run_pending_jobs(self, max_jobs: int = 10) -> List[Job]:
        """Dispatch and synchronously execute queued jobs, honouring all constraints.

        Assignments are computed in waves via the scheduler's
        ``dispatch_batch`` (one job at a time per device holds within each
        wave); the jobs of a wave are then executed in assignment order, and
        freed devices feed the next wave.  Each job's power-meter logs and
        artefacts end up in its workspace.  Returns the jobs that were
        executed by this call.

        With :meth:`enable_parallel_waves` active, each wave's *payloads*
        run concurrently on a worker pool while every state mutation —
        admission, status transitions, device release, credit billing,
        journal appends, EventBus publishes — stays on the calling thread
        in deterministic assignment order, so journals and event streams
        match serial execution byte for byte (see the determinism contract
        on :meth:`enable_parallel_waves`).
        """
        executed: List[Job] = []
        obs_on = self.obs.registry.enabled
        if self.agents.leases():
            # A dead agent must never strand a job or its devices: every
            # dispatch wave starts by reaping expired leases.
            self.expire_agent_leases()
        while len(executed) < max_jobs:
            decision_t0 = time.perf_counter()
            assignments = self.scheduler.dispatch_batch(
                self.context.now,
                controller_cpu=self._controller_cpu,
                max_assignments=max_jobs - len(executed),
            )
            if obs_on:
                self._m_decision.observe(time.perf_counter() - decision_t0)
            if not assignments:
                break
            if obs_on:
                self._m_waves.inc()
                self._m_wave_size.observe(float(len(assignments)))
            if self._wave_executor is not None:
                waves = [assignments]
            else:
                # Serial execution is waves of one: each job settles before
                # the next is admitted, as payloads may advance the clock.
                waves = [[assignment] for assignment in assignments]
            for wave in waves:
                executed.extend(self._execute_wave(wave))
        if obs_on:
            if batch_filled(executed, max_jobs):
                result = "full"
            else:
                result = "partial" if executed else "empty"
            self._m_passes[result].inc()
        return executed

    def dispatch_pass_counts(self) -> Dict[str, int]:
        """``dispatch_passes_total`` by result: ``empty`` / ``partial`` / ``full``."""
        return {result: int(child.value) for result, child in self._m_passes.items()}

    def _execute_wave(self, assignments: List[Assignment]) -> List[Job]:
        """Admit, run and settle one wave; mutations stay on this thread.

        Admission happens first, in assignment order; the admitted payloads
        then run — together on the wave executor's pool when there are
        several (a barrier: it returns when all are done), inline otherwise
        — and finally every outcome is settled in assignment order.  Jobs
        not admitted (cancelled while waiting for their turn, or requeued
        by the execution-time eligibility re-check) are left out.
        """
        admitted = []
        for assignment in assignments:
            admission = self._admit_assignment(assignment)
            if admission is not None:
                admitted.append(admission)
        if len(assignments) > 1 and admitted and self.obs.registry.enabled:
            self._m_parallelism.set(len(admitted) / self._wave_executor.max_workers)
        if len(admitted) > 1:
            self._wave_executor.run_wave(admitted)
        else:
            for admission in admitted:
                admission.run_payload()
        for admission in admitted:
            self._settle_assignment(admission)
        return [admission.job for admission in admitted]

    def _admit_assignment(self, assignment: Assignment):
        """Phase 1 (server thread): decide whether the assignment still runs.

        Returns an :class:`~repro.accessserver.executor.AdmittedExecution`
        ready for its payload, or ``None`` when the job left the RUNNING
        state while waiting for its turn in the wave (e.g. cancelled by an
        earlier job of the same batch) or lost eligibility.
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
        if not self.scheduler.engine.eligible(
            job,
            assignment.vantage_point,
            assignment.device_serial,
            self.context.now,
            controller_cpu=self._controller_cpu,
        ):
            self.scheduler.engine.requeue(job)
            return None
        # Bill execution time, not queue-on-device time, so credits match
        # what the seed's one-at-a-time dispatch charged.
        job.mark_execution_started(self.context.now)
        record = self.vantage_point(assignment.vantage_point)
        api = BatteryLabAPI(record.controller)
        ctx = JobContext(job, api, assignment.device_serial, clock=lambda: self.context.now)
        self.scheduler.engine.begin_execution(job)
        admit_elapsed = time.perf_counter() - admit_t0
        if self.obs.registry.enabled:
            self._m_admit.observe(admit_elapsed)
        return AdmittedExecution(
            assignment=assignment,
            ctx=ctx,
            record=record,
            execution_started_at=self.context.now,
            admit_elapsed_s=admit_elapsed,
        )

    def _finish_execution(
        self, job: Job, held_since: float, result: object, error: Optional[str]
    ) -> None:
        """The one way out of an execution that ran to its end, push or pull.

        In this order: the terminal transition (only a still-RUNNING job
        transitions — one cancelled while it held its devices stays
        cancelled), the give-back of every slot and the executing mark,
        credit settlement for the time the devices were held, and last the
        journal record and ``job.finished`` publish, so recovery replays
        balances exactly.  ``error`` set means the execution failed.
        """
        now = self.context.now
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
        if self._credit_policy is not None:
            owner = job.spec.owner
            owner_is_admin = (
                owner in self.users.usernames()
                and self.users.get(owner).role is Role.ADMIN
            )
            if not owner_is_admin:
                account = self._credit_account_for(owner)
                # Charge the time the devices were held, not job.duration_s:
                # a job cancelled mid-execution never gets a finished_at,
                # yet it occupied them until here.
                consumed_hours = (now - held_since) / 3600.0
                consumed_hours = min(consumed_hours, account.balance_device_hours)
                self._credit_policy.settle(
                    owner, consumed_hours, now, note=f"job {job.job_id}"
                )
        # Cancellations were already journaled via the dispatch.cancelled
        # bus event.
        if job.status in (JobStatus.COMPLETED, JobStatus.FAILED):
            if self._persistence is not None:
                self._persistence.on_job_finished(job)
            self.events.publish(
                "job.finished",
                job_id=job.job_id,
                status=job.status.value,
                finished_at=job.finished_at,
            )

    def _settle_assignment(self, admitted) -> None:
        """Phase 3 (server thread): power-trace storage, then the shared
        finish step (:meth:`_finish_execution`), then telemetry.

        Telemetry note: this is also where the job's lifecycle spans
        (``job.admit`` / ``job.run`` / ``job.settle``) are *recorded* — the
        phases were timed where they happened (admit on this thread, run
        possibly on a worker), but span IDs are minted and ``trace.span``
        bus records published here, on the server thread in assignment
        order, so parallel waves emit a byte-identical event stream.
        """
        settle_t0 = time.perf_counter()
        job = admitted.job
        # Power-meter logs are collected by default and retained in
        # the workspace for several days (Section 3.1).
        monitor = admitted.record.controller.monitor
        if monitor is not None and monitor.last_trace() is not None:
            job.workspace.store("power_meter_trace", monitor.last_trace())
        error = None if admitted.error is None else str(admitted.error)
        self._finish_execution(job, admitted.execution_started_at, admitted.result, error)
        settle_elapsed = time.perf_counter() - settle_t0
        if self.obs.registry.enabled:
            self._m_run.observe(admitted.run_elapsed_s)
            self._m_settle.observe(settle_elapsed)
            status = job.status.value
            child = self._m_executed_children.get(status)
            if child is None:
                child = self._m_executed.labels(status=status)
                self._m_executed_children[status] = child
            child.inc()
        tracer = self.obs.tracer
        if tracer.enabled:
            started_at = admitted.execution_started_at
            now = self.context.now
            tracer.record_phases(
                job.job_id,
                [
                    (
                        "job.admit",
                        started_at,
                        started_at,
                        admitted.admit_elapsed_s,
                        "ok",
                        {
                            "job_id": job.job_id,
                            "vantage_point": admitted.assignment.vantage_point,
                            "device": admitted.assignment.device_serial,
                        },
                    ),
                    (
                        "job.run",
                        started_at,
                        now,
                        admitted.run_elapsed_s,
                        "error" if admitted.error is not None else "ok",
                        {"job_id": job.job_id},
                    ),
                    (
                        "job.settle",
                        now,
                        now,
                        settle_elapsed,
                        "ok",
                        {"job_id": job.job_id, "status_after": job.status.value},
                    ),
                ],
            )

    # -- agent-pull execution ------------------------------------------------------------------
    # The inverse of run_pending_jobs: vantage-point daemons *pull* jobs
    # whose spec says ``execution="agent"`` via poll -> claim -> report.
    # What a claim holds and how each exit gives it back is the "Execution
    # lifecycle" table in DESIGN.md.
    def register_agent(
        self,
        user: User,
        agent_id: str,
        vantage_point: Optional[str] = None,
        connectors: Optional[List[str]] = None,
        tags: Optional[Dict[str, str]] = None,
    ) -> AgentRecord:
        """Register (or refresh) an edge daemon's identity and capabilities.

        Only the first registration is journaled — like user accounts, the
        identity is durable while capability refreshes are cheap and
        idempotent.  A named vantage point must exist; an agent without one
        serves any vantage point's devices.
        """
        self.users.authorize(user, Permission.RUN_JOB)
        if vantage_point is not None:
            self.vantage_point(vantage_point)
        record, created = self.agents.register(
            agent_id,
            self.context.now,
            vantage_point=vantage_point,
            connectors=connectors,
            tags=tags,
        )
        if created and self._persistence is not None:
            self._persistence.on_agent_registered(record)
        self.log(
            "agent registered",
            agent=agent_id,
            vantage_point=vantage_point,
            connectors=list(record.connectors),
        )
        return record

    def _agent_candidate_slots(
        self, job: Job, record: AgentRecord
    ) -> List[Tuple[str, str]]:
        """Free slots this agent could run ``job`` on, in deterministic order.

        Honours the job's vantage-point/device-serial constraints and the
        agent's own vantage-point binding.  A job whose lease just expired
        counts its still-marked-busy slots as available — poll is read-only
        and may not reap the lease itself; the claim path expires it first.
        """
        constraints = job.spec.constraints
        target_vp = constraints.vantage_point or record.vantage_point
        if (
            constraints.vantage_point is not None
            and record.vantage_point is not None
            and constraints.vantage_point != record.vantage_point
        ):
            return []
        engine = self.scheduler.engine
        slots = [
            (slot.vantage_point, slot.device_serial)
            for slot in engine.slots.iter_free(target_vp, constraints.device_serial)
        ]
        lease = self.agents.lease_for_job(job.job_id)
        if lease is not None and lease.expired(self.context.now):
            slots = list(lease.devices) + [d for d in slots if d not in lease.devices]
        return slots

    def _agent_job_matches(self, job: Job, record: AgentRecord) -> bool:
        if job.spec.execution != "agent":
            return False
        constraints = job.spec.constraints
        if constraints.connector is not None and constraints.connector not in record.connectors:
            return False
        if constraints.device_count > 1 and "multi" not in record.connectors:
            return False
        return len(self._agent_candidate_slots(job, record)) >= constraints.device_count

    def agent_offers(self, user: User, agent_id: str, limit: int = 10) -> List[Job]:
        """Queued agent-mode jobs this agent could claim right now (FIFO order).

        Read-only — safe for the gateway's lock-free path.  Jobs held by an
        *expired* lease are offered too: the claim (a mutating op) reaps the
        lease before assigning, so a dead agent's job is re-claimable the
        moment any live agent polls.
        """
        self.users.authorize(user, Permission.RUN_JOB)
        record = self.agents.get(agent_id)
        offers: List[Job] = []
        now = self.context.now
        for job in self.scheduler.engine.queue.jobs():
            if len(offers) >= limit:
                break
            if job.status is JobStatus.QUEUED and self._agent_job_matches(job, record):
                offers.append(job)
        if len(offers) < limit:
            for lease in self.agents.leases():
                if len(offers) >= limit:
                    break
                if not lease.expired(now):
                    continue
                job = self.scheduler.job(lease.job_id)
                if job.status is JobStatus.RUNNING and self._agent_job_matches(job, record):
                    offers.append(job)
        outcome = "offered" if offers else "empty"
        if self.obs.registry.enabled:
            child = self._m_agent_poll_children.get(outcome)
            if child is None:
                child = self._m_agent_polls.labels(outcome=outcome)
                self._m_agent_poll_children[outcome] = child
            child.inc()
        return offers

    def expire_agent_leases(self) -> int:
        """Reap expired leases and give back everything they held, unbilled.

        A job still RUNNING is requeued at its *original* FIFO position
        through ``DispatchEngine.requeue`` — the record a lapsed wave
        admission emits and crash recovery's in-flight requeue mirrors, so
        the journal cannot tell a lease expiry from any other requeue.  A
        job cancelled while the agent held it stays cancelled; its devices
        are simply released.
        """
        engine = self.scheduler.engine
        expired = self.agents.expired(self.context.now)
        for lease in expired:
            self.agents.release(lease.lease_id)
            job = self.scheduler.job(lease.job_id)
            if job.status is JobStatus.RUNNING:
                engine.requeue(job)
            else:
                engine.release(job)
            self._schedule_dispatch_tick()
            if self.obs.registry.enabled:
                self._m_lease_expired.inc()
            self.log(
                "agent lease expired",
                lease=lease.lease_id,
                agent=lease.agent_id,
                job_id=lease.job_id,
            )
        return len(expired)

    def agent_claim(
        self,
        user: User,
        agent_id: str,
        job_id: int,
        ttl_s: float = 30.0,
    ) -> Tuple[AgentLease, Job]:
        """Atomically lease one job — and *all* its device slots — to an agent.

        Multi-device jobs (``constraints.device_count > 1``) are
        all-or-nothing: either every slot is free and the whole family is
        marked busy under one lease, or the claim fails having touched
        nothing.  The primary slot goes through the dispatch engine's
        ``assign`` (same ``dispatch.assigned`` record as push dispatch);
        the child slots join the engine's hold for the job.
        """
        started = time.perf_counter()
        self.users.authorize(user, Permission.RUN_JOB)
        if ttl_s <= 0:
            raise AgentError("lease ttl_s must be positive")
        self.expire_agent_leases()
        record = self.agents.get(agent_id)
        job = self.scheduler.job(job_id)
        if job.spec.execution != "agent":
            raise AgentError(
                f"job {job_id} is push-dispatched; only execution='agent' "
                "jobs can be claimed"
            )
        if job.status is not JobStatus.QUEUED:
            raise AgentError(
                f"job {job_id} is {job.status.value}, not claimable"
            )
        if not self._agent_job_matches(job, record):
            raise AgentError(
                f"agent {agent_id!r} does not match job {job_id} "
                "(connector, vantage point or free-device constraints)"
            )
        # The match above saw at least this many free candidates.
        need = job.spec.constraints.device_count
        devices = self._agent_candidate_slots(job, record)[:need]
        now = self.context.now
        primary_vp, primary_serial = devices[0]
        self.scheduler.assign(job, primary_vp, primary_serial, now)
        job.mark_execution_started(now)
        self.scheduler.engine.begin_execution(job, tuple(devices[1:]))
        lease = self.agents.grant(
            agent_id,
            job_id,
            devices,
            ttl_s,
            now,
            claim_elapsed_s=time.perf_counter() - started,
        )
        if self.obs.registry.enabled:
            self._m_agent_claims.inc()
        self.log(
            "job leased",
            job_id=job_id,
            agent=agent_id,
            lease=lease.lease_id,
            devices=len(devices),
        )
        return lease, job

    def agent_heartbeat(self, lease_id: str) -> AgentLease:
        """Renew a lease for another TTL; expired leases are gone for good."""
        self.expire_agent_leases()
        return self.agents.renew(lease_id, self.context.now)

    def agent_report(
        self,
        lease_id: str,
        status: str,
        result: object = None,
        error: Optional[str] = None,
        children: Optional[List[Dict[str, object]]] = None,
    ) -> Tuple[Job, bool]:
        """Settle a leased job from its agent's report; idempotent on retry.

        Returns ``(job, duplicate)``.  A report against a lease that
        already settled — the agent crashed after upload but before
        recording the server's ack — answers the same job with
        ``duplicate=True`` and changes nothing, which is the exactly-once
        contract the daemon's outbox replay relies on.  Child results of a
        multi-device job are published as ``dispatch.child_result`` records
        *before* the terminal transition, so they roll up into the
        parent's ``job.watch`` stream ahead of its end frame.
        """
        settle_t0 = time.perf_counter()
        self.expire_agent_leases()
        lease = self.agents.lease(lease_id)
        if lease is None:
            settled_job = self.agents.settled_job(lease_id)
            if settled_job is not None:
                return self.scheduler.job(settled_job), True
            raise AgentError(
                f"unknown or expired lease {lease_id!r}; the job was "
                "requeued and the result must be discarded"
            )
        job = self.scheduler.job(lease.job_id)
        now = self.context.now
        for child in children or []:
            self.events.publish(
                "dispatch.child_result",
                job_id=job.job_id,
                device_serial=child.get("device_serial"),
                status=child.get("status"),
                output=child.get("output", ""),
                owner=job.spec.owner,
            )
        failure = None if status == "completed" else (error or "agent reported failure")
        self._finish_execution(job, lease.granted_at, result, failure)
        self.agents.settle(lease_id)
        settle_elapsed = time.perf_counter() - settle_t0
        if self.obs.registry.enabled:
            terminal = job.status.value
            child = self._m_agent_report_children.get(terminal)
            if child is None:
                child = self._m_agent_reports.labels(status=terminal)
                self._m_agent_report_children[terminal] = child
            child.inc()
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.record_phases(
                job.job_id,
                [
                    (
                        "agent.claim",
                        lease.granted_at,
                        lease.granted_at,
                        lease.claim_elapsed_s,
                        "ok",
                        {
                            "job_id": job.job_id,
                            "agent": lease.agent_id,
                            "devices": len(lease.devices),
                        },
                    ),
                    (
                        "agent.run",
                        lease.granted_at,
                        now,
                        now - lease.granted_at,
                        "error" if job.status is JobStatus.FAILED else "ok",
                        {"job_id": job.job_id, "agent": lease.agent_id},
                    ),
                    (
                        "agent.report",
                        now,
                        now,
                        settle_elapsed,
                        "ok",
                        {"job_id": job.job_id, "status_after": job.status.value},
                    ),
                ],
            )
        self._schedule_dispatch_tick()
        return job, False

    # -- parallel wave execution ---------------------------------------------------------------
    @property
    def parallel_waves_enabled(self) -> bool:
        return self._wave_executor is not None

    def enable_parallel_waves(self, max_workers: Optional[int] = None):
        """Run each dispatch wave's payloads concurrently (opt-in).

        **Determinism contract**: state mutations — admission, status
        transitions, billing, journal appends, event publishes — stay on
        the thread calling :meth:`run_pending_jobs`, in assignment order,
        so journals and event streams are byte-identical to serial
        execution *as long as the payloads themselves are independent*:
        they must not advance the simulated clock or mutate shared
        simulation state (:class:`~repro.simulation.clock.SimClock` is not
        thread-safe).  Payloads bound by wall time — real device I/O,
        ``time.sleep``-style waits, local computation — qualify; clock
        -advancing simulation payloads should keep the serial default.

        ``max_workers`` defaults to the registered device count (the
        maximum possible wave width), with a floor of one.  Returns the
        :class:`~repro.accessserver.executor.WaveExecutor`.
        """
        from repro.accessserver.executor import WaveExecutor

        if max_workers is None:
            max_workers = max(1, self.scheduler.device_count())
        if self._wave_executor is not None:
            self._wave_executor.shutdown()
        self._wave_executor = WaveExecutor(max_workers=max_workers)
        self.log("parallel waves enabled", workers=max_workers)
        return self._wave_executor

    def disable_parallel_waves(self) -> None:
        """Return to strictly serial wave execution (the default)."""
        if self._wave_executor is not None:
            self._wave_executor.shutdown()
            self._wave_executor = None
            self.log("parallel waves disabled")

    # -- scheduling policy & event-driven dispatch ---------------------------------------------
    @property
    def scheduling_policy(self) -> SchedulingPolicy:
        return self.scheduler.policy

    def set_scheduling_policy(self, policy: Union[str, SchedulingPolicy]) -> SchedulingPolicy:
        """Swap the queue ordering policy; applies from the next dispatch tick."""
        selected = self.scheduler.set_policy(policy)
        if self._persistence is not None:
            self._persistence.on_policy_changed(selected.name)
        self.log("scheduling policy changed", policy=selected.name)
        return selected

    @property
    def auto_dispatch_enabled(self) -> bool:
        return self._auto_dispatch

    def enable_auto_dispatch(
        self,
        poll_interval_s: Optional[float] = None,
        max_jobs_per_tick: int = DISPATCH_BATCH,
    ) -> None:
        """Dispatch through the simulation event loop instead of caller polling.

        Once enabled, every submission/approval schedules a dispatch tick at
        the current simulated time, so advancing the simulation executes
        queued jobs without anyone calling :meth:`run_pending_jobs`.  Jobs
        left queued behind an active session reservation are retried when
        that reservation ends.  With ``poll_interval_s`` set, an additional
        periodic tick also retries other temporarily unsatisfied constraints
        (notably a busy controller CPU, whose future is unknowable to the
        dispatcher).  Jobs run inside event callbacks here, so payloads may
        advance the simulated clock themselves — the event loop tolerates
        that re-entrancy.
        """
        self._auto_dispatch = True
        self._auto_dispatch_interval_s = poll_interval_s
        self._auto_dispatch_max_jobs = max_jobs_per_tick
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
            if self._auto_dispatch_event.timestamp <= self.context.now + delay_s:
                return
            self._auto_dispatch_event.cancel()
        self._auto_dispatch_event = self.context.scheduler.schedule_in(
            delay_s, self._auto_dispatch_tick, label="access-server-dispatch"
        )

    def _auto_dispatch_tick(self) -> None:
        self._auto_dispatch_event = None
        if not self._auto_dispatch:
            return
        executed = self.run_pending_jobs(max_jobs=self._auto_dispatch_max_jobs)
        if self.scheduler.queue_length() == 0:
            return
        if batch_filled(executed, self._auto_dispatch_max_jobs):
            # The per-tick cap cut this wave short; more work is dispatchable
            # right now, so follow up immediately rather than waiting for the
            # next submission or poll.
            self._schedule_dispatch_tick()
            return
        # Wake up at the earlier of the configured poll and the end of the
        # first active reservation — reservation expiry is the one blocking
        # condition whose timing the dispatcher knows exactly.  (Jobs blocked
        # on the controller-CPU constraint need poll_interval_s.)  Under
        # "defer" admission an *upcoming* reservation can also hold a job
        # back, and such a job cannot become placeable before that
        # reservation ends, so the wake-up considers future reservations too.
        delay = self._auto_dispatch_interval_s
        reservations = self.scheduler.engine.reservations
        if self.scheduler.engine.reservation_admission == "defer":
            reservation_end = reservations.earliest_relevant_end(self.context.now)
        else:
            reservation_end = reservations.earliest_active_end(self.context.now)
        if reservation_end is not None and reservation_end > self.context.now:
            reservation_delay = reservation_end - self.context.now
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

        .. deprecated:: API v1
           Compatibility shim — new code reserves through
           :meth:`repro.api.client.BatteryLabClient.reserve_session`.
        """
        self.users.authorize(user, Permission.REMOTE_CONTROL)
        self.vantage_point(vantage_point_name)
        reservation = self.scheduler.reserve_session(
            user.username, vantage_point_name, device_serial, start_s, duration_s
        )
        if self._persistence is not None:
            self._persistence.on_reservation_created(reservation)
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

    def share_with_tester(
        self,
        experimenter: User,
        tester_id: int,
        vantage_point_name: str,
        device_serial: str,
        duration_s: float,
        show_toolbar: bool = False,
    ):
        """Share a mirrored device with a recruited tester for manual interaction."""
        self.users.authorize(experimenter, Permission.REMOTE_CONTROL)
        record = self.vantage_point(vantage_point_name)
        session = record.controller.start_mirroring(device_serial)
        if not show_toolbar:
            session.novnc.toolbar.hide()
        else:
            session.novnc.toolbar.show()
        tester_session = self.testers.open_session(
            tester_id,
            vantage_point_name,
            device_serial,
            now=self.context.now,
            duration_s=duration_s,
            toolbar_visible=show_toolbar,
        )
        session.connect_viewer(tester_session.tester.name, role="tester")
        return tester_session

    # -- remote administration (Platform API v2) ----------------------------------------------
    def create_user(
        self,
        admin: User,
        username: str,
        role: Union[str, Role],
        token: str,
        email: str = "",
    ) -> User:
        """Open a platform account on an administrator's authority.

        The account (with its token hash, never the plaintext) is journaled
        when persistence is enabled, so remotely created users survive a
        restart and can authenticate against the recovered server.
        """
        self.users.authorize(admin, Permission.MANAGE_USERS)
        user = self.users.add_user(username, Role(role), token, email=email)
        if self._persistence is not None:
            self._persistence.on_user_created(user)
        self.log(
            "user created", username=username, role=user.role.value, by=admin.username
        )
        return user

    def grant_credits(
        self, admin: User, owner: str, amount_device_hours: float, note: str = ""
    ):
        """Administrative credit adjustment; opens the account when missing.

        Returns the (possibly new) :class:`~repro.accessserver.credits.CreditAccount`.
        The ledger's observers journal the transaction, so grants replay
        exactly on recovery.
        """
        self.users.authorize(admin, Permission.MANAGE_CREDITS)
        if self._credit_policy is None:
            raise AccessServerError("the credit system is not enabled on this server")
        account = self._credit_account_for(owner)
        self._credit_policy.ledger.adjust(
            owner,
            amount_device_hours,
            self.context.now,
            note=note or f"grant by {admin.username}",
        )
        self.log(
            "credits granted",
            owner=owner,
            amount_device_hours=amount_device_hours,
            by=admin.username,
        )
        return account

    # -- bootstrap helpers --------------------------------------------------------------------
    def bootstrap_admin(self, username: str = "admin", token: str = "admin-token") -> User:
        """Create the initial administrator account."""
        return self.users.add_user(username, Role.ADMIN, token)

    def _track_orphan(self, job: Job) -> None:
        """Index ``job`` as an orphan if its pinned vantage point is absent.

        Called on submission and on crash-recovery restore; the set shrinks
        via the ``dispatch.cancelled`` subscription (cancel/reject both emit
        it) and when the missing vantage point registers — an orphan can
        never be dispatched, so no other exit path exists.
        """
        required = job.spec.constraints.vantage_point
        if required is not None and required not in self._vantage_points:
            self._orphans[job.job_id] = job

    def orphaned_jobs(self) -> List[Job]:
        """Waiting jobs pinned to a vantage point that is not registered.

        After crash recovery these are the journaled jobs whose vantage
        point has not re-joined (``recover_into`` restores state, not
        hardware); they sit in the queue undispatchable until an operator
        re-registers the topology.  Maintained incrementally (submission /
        recovery add, cancellation and vantage-point registration remove),
        so this — and the ``status()`` report built on it — costs
        O(orphans), not O(queue).
        """
        orphaned = []
        for job_id in list(self._orphans):
            job = self._orphans[job_id]
            required = job.spec.constraints.vantage_point
            if (
                job.status not in (JobStatus.QUEUED, JobStatus.PENDING_APPROVAL)
                or required is None
                or required in self._vantage_points
            ):
                # Self-heal any entry invalidated outside the tracked exits.
                del self._orphans[job_id]
                continue
            orphaned.append(job)
        orphaned.sort(key=lambda job: job.job_id)
        return orphaned

    def status(self) -> dict:
        orphaned = self.orphaned_jobs()
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
            "vantage_points": [record.name for record in self.vantage_points()],
            "users": self.users.usernames(),
            "queued_jobs": self.scheduler.queue_length(),
            "pending_approval": len(self._pending_approval),
            "scheduling_policy": self.scheduler.policy.name,
            "reservation_admission": self.scheduler.engine.reservation_admission,
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
