"""The chaos soak harness: many jobs, scripted faults, invariants at the end.

:func:`run_soak` drives a full platform — access server with journal
persistence and live analytics, push dispatch *and* pull-mode agent
daemons — through a submission run of configurable size (hundreds of
thousands of jobs on the simulated clock), while a
:class:`~repro.chaos.scenario.Scenario` injects faults mid-flight:

* device kill / hang / slow orders land in the shared
  :class:`~repro.chaos.faults.FaultPlane`, which the instrumented soak
  payload consults on every execution;
* power events flip a vantage point's
  :class:`~repro.vantagepoint.power_socket.MerossPowerSocket` and mark the
  whole vantage point dead in the fault plane;
* partitions sever the :class:`~repro.chaos.injectors.ChaosTransport`
  links between the harness's clients (submitter and agents) and the
  gateway — requests fail with the transport's own retryable error, and
  the harness retries submissions under their idempotency keys;
* ``crash.server`` arms the :class:`~repro.chaos.injectors.CrashingBackend`
  so the next journal append kill -9s the whole access server; the
  harness then rebuilds the platform and recovers from the journal,
  exactly as an operator restart would;
* ``crash.agent`` arms a daemon's outbox the same way.

Time is entirely simulated: each submission wave advances the clock by
one second, so a 100 000-job soak at the default batch size spans ~500
simulated seconds regardless of wall time.  After the last wave the
harness heals every fault, drains the queues, and runs the whole
invariant catalogue (:mod:`repro.chaos.invariants`) over the wreckage.

Everything the run decided was drawn from one seed, printed in the
result — re-running with the same config reproduces the same chaos.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from repro.chaos.faults import (
    ExecutionLedger,
    FaultPlane,
    InjectedFault,
    SimulatedCrash,
)
from repro.chaos.injectors import ChaosTransport, CrashingBackend
from repro.chaos.invariants import (
    InvariantReport,
    check_analytics_live_equals_replay,
    check_credit_conservation,
    check_device_hold_conservation,
    check_history_bounded,
    check_no_double_execution,
    check_no_lost_jobs,
    check_outbox_bounded,
    check_recovery_byte_identical,
    check_snapshot_equals_fresh_encode,
)
from repro.chaos.scenario import FaultEvent, Scenario, canned_scenario

__all__ = ["PAYLOAD_NAME", "SoakConfig", "SoakResult", "SoakHarness", "run_soak"]

#: Catalogue name of the instrumented soak payload.
PAYLOAD_NAME = "chaos-soak"


@dataclass
class SoakConfig:
    """One soak run's shape: scale, topology, faults, durability knobs."""

    #: Total jobs to submit over the run.
    jobs: int = 100_000
    #: Root seed for every random choice the harness makes.
    seed: int = 7
    #: Vantage points and devices per vantage point.
    vantage_points: int = 2
    devices_per_vp: int = 2
    #: Pull-mode agent daemons (0 disables the agent plane).
    agents: int = 1
    #: Fraction of jobs submitted as agent-pull instead of push.
    agent_job_fraction: float = 0.1
    #: Jobs submitted per wave; each wave advances the clock one second.
    batch: int = 200
    #: The fault script: a :class:`Scenario`, a canned-scenario name, or
    #: ``None`` for a fault-free baseline run.
    scenario: Union[Scenario, str, None] = "kitchen-sink"
    #: Root directory for durable state (server journal + agent outboxes);
    #: a temp directory is created when unset.
    state_dir: Optional[str] = None
    #: Agent lease TTL (simulated seconds).  Device hangs are clamped below
    #: half of this so a hang never expires a live daemon's lease — lease
    #: expiry *requeues*, which would be an intended double execution.
    lease_ttl_s: float = 30.0
    #: Persistence tuning.  A checkpoint *encodes* only jobs that changed
    #: since the last one, but it still *writes* every retained job (54 MB
    #: at 100k), so a fixed interval makes total checkpoint bytes quadratic
    #: in run size; ``None`` auto-scales the interval to bound the run at
    #: ~10 checkpoints.
    snapshot_every: Optional[int] = None
    fsync_every: int = 1_024
    #: Name this server as a federation shard (its crash-kill is then a
    #: shard crash-kill; job ids come from the shard's id lane).
    shard_id: Optional[str] = "shard-0"
    #: Enable the credit system (accounts run as hardware contributors so
    #: a long soak cannot overdraft; conservation is still checked).
    credits: bool = False
    #: Drain phase bounds: rounds of (dispatch + agents + 5 s) after the
    #: last wave before the harness gives up and reports stuck jobs.
    drain_rounds: int = 300
    #: Max claims one daemon serves per wave.
    agent_claims_per_wave: int = 25

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if self.vantage_points < 1 or self.devices_per_vp < 1:
            raise ValueError("topology needs at least one device")
        if not 0.0 <= self.agent_job_fraction <= 1.0:
            raise ValueError("agent_job_fraction must be within [0, 1]")

    @property
    def waves(self) -> int:
        return int(math.ceil(self.jobs / self.batch))

    @property
    def effective_snapshot_every(self) -> int:
        if self.snapshot_every is not None:
            return self.snapshot_every
        # ~3 journal records per job; aim for a handful of checkpoints.
        return max(5_000, (self.jobs * 3) // 4)

    def devices(self) -> List[tuple]:
        """Every ``(vantage_point, serial)`` the topology will have —
        derivable without building the platform, so canned scenarios can be
        instantiated up front."""
        return [
            (f"node{vp}", f"node{vp}-dev{dev:02d}")
            for vp in range(1, self.vantage_points + 1)
            for dev in range(self.devices_per_vp)
        ]


@dataclass
class SoakResult:
    """What one soak run produced: metrics plus the invariant verdicts."""

    seed: int
    scenario: str
    jobs: int
    metrics: Dict[str, object] = field(default_factory=dict)
    report: InvariantReport = field(default_factory=InvariantReport)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "scenario": self.scenario,
            "jobs": self.jobs,
            "metrics": dict(self.metrics),
            "invariants": self.report.to_dict(),
        }

    def summary(self) -> str:
        lines = [
            f"chaos soak: {self.jobs} job(s), scenario={self.scenario!r}, "
            f"seed={self.seed}",
        ]
        for key in sorted(self.metrics):
            lines.append(f"  {key}: {self.metrics[key]}")
        lines.append(self.report.summary())
        return "\n".join(lines)


class SoakHarness:
    """Builds the platform, runs the waves, injects the faults, drains,
    and checks every invariant.  One instance is one run."""

    def __init__(self, config: SoakConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        root = config.state_dir or tempfile.mkdtemp(prefix="chaos-soak-")
        self.root_dir = root
        self.server_dir = os.path.join(root, "server")
        self.outbox_dir = os.path.join(root, "outboxes")
        os.makedirs(self.server_dir, exist_ok=True)
        os.makedirs(self.outbox_dir, exist_ok=True)

        self.plane = FaultPlane()
        self.ledger = ExecutionLedger()
        self.scenario = self._resolve_scenario()
        # Min-heap of (at, tiebreak, event); synthetic events (power.on
        # after a cycle, partition heals) are pushed mid-run.
        self._event_seq = 0
        self.pending: List[tuple] = []
        for event in self.scenario:
            self._push_event(event.at, event)

        self.submitted: Dict[int, int] = {}  # submission index -> acked job id
        self.retry: List[int] = []
        self.next_index = 0
        self.partitioned_links: Set[str] = set()
        self.powered_off_vps: Set[str] = set()
        self.metrics: Dict[str, int] = {
            "server_crashes": 0,
            "agent_crashes": 0,
            "submit_retries": 0,
        }
        self._dropped_before_restart = 0

        self.platform = None
        self.server = None
        self.backend: Optional[CrashingBackend] = None
        self.client = None
        self.routers: List = []  # one per client of the current server
        self.daemons: List = []
        # Daemons with a lease possibly left pending: resume() runs after a
        # restart or a transport error, the only things that can leave one.
        self._needs_resume: Set[str] = set()
        self._build(recover=False)
        self.start_now = self.platform.context.now

    # -- construction ---------------------------------------------------------
    def _resolve_scenario(self) -> Scenario:
        scenario = self.config.scenario
        if scenario is None:
            return Scenario("baseline", [])
        if isinstance(scenario, Scenario):
            return scenario
        return canned_scenario(
            str(scenario),
            seed=self.config.seed,
            horizon_s=float(self.config.waves),
            devices=self.config.devices(),
        )

    def _push_event(self, at: float, event: FaultEvent) -> None:
        self._event_seq += 1
        heapq.heappush(self.pending, (at, self._event_seq, event))

    def _bare_platform(self):
        """The soak topology with no persistence/analytics attached yet —
        also the recovery factory the byte-identical check uses."""
        from repro.core.platform import add_vantage_point, build_default_platform
        from repro.device.profiles import SAMSUNG_J7_DUO

        platform = build_default_platform(
            seed=self.config.seed,
            node_identifier="node1",
            browsers=("chrome",),
            device_count=self.config.devices_per_vp,
            persistence=False,
            analytics=False,
        )
        for vp in range(2, self.config.vantage_points + 1):
            add_vantage_point(
                platform,
                node_identifier=f"node{vp}",
                institution=f"Member Institution {vp}",
                device_profiles=[SAMSUNG_J7_DUO] * self.config.devices_per_vp,
                browsers=("chrome",),
                install_video=False,
            )
        if self.config.shard_id:
            platform.access_server.configure_shard(self.config.shard_id)
        return platform

    def _build(self, recover: bool) -> None:
        from repro.accessserver.persistence import FileBackend, register_payload

        self.platform = self._bare_platform()
        self.server = self.platform.access_server
        self.routers = []
        self.backend = CrashingBackend(
            FileBackend(self.server_dir, fsync_every=self.config.fsync_every)
        )
        self.server.enable_persistence(
            self.backend,
            recover=recover,
            snapshot_every=self.config.effective_snapshot_every,
        )
        self.server.enable_analytics()
        if self.config.credits:
            from repro.accessserver.credits import CreditError

            ledger = self.server.enable_credit_system()
            owner = self.platform.experimenter.username
            try:
                ledger.account(owner)
            except CreditError:
                # Contributors pay in kind: usage is recorded but waived, so
                # an arbitrarily long soak cannot overdraft the account.
                ledger.open_account(
                    owner, contributes_hardware=True, now=self.platform.context.now
                )
        register_payload(PAYLOAD_NAME, self._payload)

        self.client = self._make_client()
        for daemon in self.daemons:
            daemon.outbox.close()  # a rebuilt daemon reopens the same file
        self.daemons = [
            self._make_daemon(index) for index in range(self.config.agents)
        ]
        for daemon in self.daemons:
            self._try_register(daemon)
            self._needs_resume.add(daemon.agent_id)
        # The network does not heal just because a process restarted.
        for link in self.partitioned_links:
            self._set_partition(link, True)
        for vp in self.powered_off_vps:
            self._set_socket(vp, on=False)

    def _make_client(self):
        from repro.api.client import BatteryLabClient, InProcessTransport
        from repro.api.router import ApiRouter

        username = self.platform.experimenter.username
        token = self.platform.account_tokens[username]
        router = ApiRouter(self.server)
        self.routers.append(router)
        transport = ChaosTransport(
            InProcessTransport(router),
            delay_sink=lambda s: self.platform.context.clock.advance(s),
        )
        return BatteryLabClient(transport, username, token)

    def _make_daemon(self, index: int):
        from repro.agent.daemon import AgentDaemon

        return AgentDaemon(
            self._make_client(),
            f"agent-{index}",
            os.path.join(self.outbox_dir, f"agent-{index}.jsonl"),
            connector="fake",
            lease_ttl_s=self.config.lease_ttl_s,
        )

    def _try_register(self, daemon) -> None:
        from repro.api.errors import TransportApiError

        try:
            daemon.register()
        except TransportApiError:
            pass  # partitioned; the server remembers earlier registrations

    # -- the instrumented payload --------------------------------------------
    def _payload(self, ctx) -> Dict[str, object]:
        """Runs on both planes: consults the fault plane, records itself.

        Push mode hands a full :class:`~repro.accessserver.jobs.JobContext`
        (with ``.job``); agent mode hands the connector's minimal context
        (with ``.job_id`` / ``.vantage_point``).
        """
        job = getattr(ctx, "job", None)
        if job is not None:
            job_id = job.job_id
            vantage_point = job.assigned_vantage_point or ""
        else:
            job_id = ctx.job_id
            vantage_point = ctx.vantage_point
        self.ledger.record(job_id)
        verdict, delay_s, reason = self.plane.device_action(
            vantage_point, ctx.device_serial
        )
        if delay_s > 0.0:
            self.platform.context.clock.advance(delay_s)
        if verdict == FaultPlane.FAIL:
            raise InjectedFault(reason)
        return {"job": job_id}

    # -- fault firing ---------------------------------------------------------
    def _fire_due(self) -> None:
        now_rel = self.platform.context.now - self.start_now
        while self.pending and self.pending[0][0] <= now_rel:
            _, _, event = heapq.heappop(self.pending)
            self._fire(event)

    def _fire(self, event: FaultEvent) -> None:
        kind = event.kind
        target = event.target
        params = event.params
        if kind in ("device.kill", "device.hang", "device.slow"):
            vp = str(target.get("vantage_point", ""))
            serial = str(target.get("serial", ""))
            jobs = int(params.get("jobs", 1))
            # Hangs/slows must stay well under the lease TTL: a payload that
            # burns a whole TTL would expire its own live lease, and lease
            # expiry *requeues* — an intended at-least-once, not a bug.
            clamp = self.config.lease_ttl_s / 2.0
            if kind == "device.kill":
                self.plane.kill_device(vp, serial, jobs=jobs)
            elif kind == "device.hang":
                self.plane.hang_device(
                    vp, serial, min(float(params.get("hang_s", 2.0)), clamp), jobs=jobs
                )
            else:
                self.plane.slow_device(
                    vp, serial, min(float(params.get("delay_s", 0.5)), clamp), jobs=jobs
                )
        elif kind == "power.off":
            self._power(str(target.get("vantage_point", "")), on=False)
        elif kind == "power.on":
            self._power(str(target.get("vantage_point", "")), on=True)
        elif kind == "power.cycle":
            vp = str(target.get("vantage_point", ""))
            self._power(vp, on=False)
            self._push_event(
                event.at + float(params.get("off_s", 1.0)),
                FaultEvent(
                    at=event.at + float(params.get("off_s", 1.0)),
                    kind="power.on",
                    target={"vantage_point": vp},
                ),
            )
        elif kind == "partition.start":
            link = str(target.get("link", "agents"))
            self._set_partition(link, True)
            duration = params.get("duration_s")
            if duration is not None:
                self._push_event(
                    event.at + float(duration),
                    FaultEvent(
                        at=event.at + float(duration),
                        kind="partition.heal",
                        target={"link": link},
                    ),
                )
        elif kind == "partition.heal":
            self._set_partition(str(target.get("link", "agents")), False)
        elif kind == "crash.server":
            self.backend.plan_crash_in(
                int(params.get("at_append", 0)), str(params.get("mode", "after"))
            )
        elif kind == "crash.agent":
            agent_id = str(target.get("agent_id", ""))
            for daemon in self.daemons:
                if daemon.agent_id == agent_id or not agent_id:
                    daemon.outbox.plan_crash(
                        daemon.outbox.writes + int(params.get("at_append", 0)),
                        str(params.get("mode", "after")),
                    )
                    break

    def _power(self, vp: str, on: bool) -> None:
        if on:
            self.plane.power_on(vp)
            self.powered_off_vps.discard(vp)
        else:
            self.plane.power_off(vp)
            self.powered_off_vps.add(vp)
        self._set_socket(vp, on=on)

    def _set_socket(self, vp: str, on: bool) -> None:
        handle = self.platform.vantage_points.get(vp)
        if handle is None:
            return
        try:
            if on:
                handle.power_socket.turn_on()
            else:
                handle.power_socket.turn_off()
        except Exception:
            # The simulated socket may refuse mid-measurement; the fault
            # plane still enforces the outage at the payload level.
            pass

    def _set_partition(self, link: str, partitioned: bool) -> None:
        if partitioned:
            self.partitioned_links.add(link)
        else:
            self.partitioned_links.discard(link)
        transports: List[ChaosTransport] = []
        if link in ("agents", "all"):
            transports += [d.client.transport for d in self.daemons]
        if link in ("client", "clients", "all"):
            transports.append(self.client.transport)
        if not transports:  # unknown link names sever the agent plane
            transports = [d.client.transport for d in self.daemons]
        for transport in transports:
            if partitioned:
                transport.partition()
            else:
                transport.heal()

    # -- crash recovery -------------------------------------------------------
    def _live_dropped(self) -> int:
        total = 0
        if self.client is not None:
            total += self.client.transport.dropped_requests
        total += sum(d.client.transport.dropped_requests for d in self.daemons)
        return total

    def _recover_server(self) -> None:
        self.metrics["server_crashes"] += 1
        self.ledger.begin_epoch()
        self._dropped_before_restart += self._live_dropped()
        old_now = self.platform.context.now
        try:
            self.backend.inner.close()
        except Exception:
            pass
        self._build(recover=True)
        # The recovered process rejoins the original timeline.
        self.platform.context.clock.advance_to(old_now)

    def _restart_agent(self, index: int) -> None:
        self.metrics["agent_crashes"] += 1
        # The daemon journals each phase *after* running it, so a payload
        # may have executed without its record landing — any re-run after
        # this restart is a legitimate cross-epoch crash re-run.
        self.ledger.begin_epoch()
        self._dropped_before_restart += self.daemons[
            index
        ].client.transport.dropped_requests
        self.daemons[index].outbox.close()  # kill -9 closes its descriptors
        self.daemons[index] = self._make_daemon(index)
        if "agents" in self.partitioned_links or "all" in self.partitioned_links:
            self.daemons[index].client.transport.partition()
        self._try_register(self.daemons[index])
        self._needs_resume.add(self.daemons[index].agent_id)

    def _server_crashed(self) -> bool:
        return self.backend is not None and self.backend.plan.fired

    # -- wave loop ------------------------------------------------------------
    def _submit_wave(self) -> None:
        from repro.api.errors import TransportApiError

        take: List[int] = []
        while self.retry and len(take) < self.config.batch:
            take.append(self.retry.pop(0))
        while self.next_index < self.config.jobs and len(take) < self.config.batch:
            take.append(self.next_index)
            self.next_index += 1
        for position, index in enumerate(take):
            agent_mode = (
                self.config.agents > 0
                and self.rng.random() < self.config.agent_job_fraction
            )
            try:
                view = self.client.submit_job(
                    f"soak-{index}",
                    PAYLOAD_NAME,
                    timeout_s=3600.0,
                    idempotency_key=f"soak-{index}",
                    connector="fake" if agent_mode else None,
                    execution="agent" if agent_mode else "push",
                )
            except TransportApiError:
                # Partitioned or dropped; same key retries exactly-once.
                # The whole untried remainder of the wave goes back too —
                # it was already taken off the queue and would otherwise
                # be lost, never submitted and never retried.
                self.retry.extend(take[position:])
                self.metrics["submit_retries"] += 1
                break  # the link is down — don't burn the whole wave on it
            except SimulatedCrash:
                self.retry.append(index)
                self._recover_server()
            else:
                self.submitted[index] = view.job_id

    def _run_push(self) -> None:
        try:
            self.server.run_pending_jobs(max_jobs=self.config.batch * 2)
        except SimulatedCrash:
            self._recover_server()

    def _run_agents(self) -> None:
        from repro.api.errors import TransportApiError

        for index in range(len(self.daemons)):
            daemon = self.daemons[index]
            try:
                if daemon.agent_id in self._needs_resume:
                    daemon.resume()
                    self._needs_resume.discard(daemon.agent_id)
                for _ in range(self.config.agent_claims_per_wave):
                    if daemon.run_once() is None:
                        break
            except TransportApiError:
                # Partitioned from the gateway mid-step; work may be parked
                # in the outbox, so replay it once the link heals.
                self._needs_resume.add(daemon.agent_id)
                continue
            except SimulatedCrash:
                if self._server_crashed():
                    self._recover_server()
                    return
                self._restart_agent(index)

    def _statuses(self) -> Dict[int, str]:
        return {
            job.job_id: job.status.value for job in self.server.scheduler.jobs()
        }

    def _drained(self) -> bool:
        from repro.chaos.invariants import TERMINAL_STATUSES

        if self.retry or self.next_index < self.config.jobs:
            return False
        if len(self.submitted) < self.config.jobs:
            return False
        statuses = self._statuses()
        return all(
            statuses.get(job_id) in TERMINAL_STATUSES
            for job_id in self.submitted.values()
        )

    def _drain(self) -> None:
        # Heal the world first: chaos ends, the backlog must settle.
        for link in list(self.partitioned_links):
            self._set_partition(link, False)
        for vp in list(self.powered_off_vps):
            self._power(vp, on=True)
        self.plane.clear()
        self.backend.plan.disarm()
        for _ in range(self.config.drain_rounds):
            self._submit_wave()
            self._run_push()
            self._run_agents()
            # Advance past lease TTLs so orphaned leases expire and requeue.
            self.platform.context.clock.advance(5.0)
            if self._drained():
                break

    # -- the run --------------------------------------------------------------
    def run(self) -> SoakResult:
        started = time.perf_counter()
        for _ in range(self.config.waves):
            self._fire_due()
            self._submit_wave()
            self._run_push()
            self._run_agents()
            self.platform.context.clock.advance(1.0)
        # Any scenario events past the last wave still owe their firing
        # (nothing after the horizon, but synthetic heals may remain).
        self._fire_due()
        self._drain()
        wall_s = time.perf_counter() - started

        statuses = self._statuses()
        by_status: Dict[str, int] = {}
        for job_id in self.submitted.values():
            status = statuses.get(job_id, "missing")
            by_status[status] = by_status.get(status, 0) + 1
        dropped = self._dropped_before_restart + self._live_dropped()
        self.metrics.update(
            {
                "acked": len(self.submitted),
                "completed": by_status.get("completed", 0),
                "failed": by_status.get("failed", 0),
                "waves": self.config.waves,
                "sim_duration_s": round(
                    self.platform.context.now - self.start_now, 3
                ),
                "wall_s": round(wall_s, 3),
                "jobs_per_s": round(self.config.jobs / wall_s, 1) if wall_s else 0,
                "faults_fired": dict(self.plane.faults_fired),
                "crash_reruns": self.ledger.crash_reruns(),
                "dropped_requests": dropped,
            }
        )

        report = InvariantReport()
        report.add(check_no_lost_jobs([self.server], self.submitted.values()))
        report.add(check_no_double_execution(self.ledger))
        report.add(check_device_hold_conservation(self.server, drained=True))
        report.add(check_history_bounded(self.server, self.routers, drained=True))
        if self.daemons:
            report.add(
                check_outbox_bounded([d.outbox for d in self.daemons], drained=True)
            )
        report.add(check_analytics_live_equals_replay(self.server))
        report.add(
            check_recovery_byte_identical(self.backend, self._recovery_factory)
        )
        if self.config.credits and self.server.credit_policy is not None:
            report.add(check_credit_conservation(self.server.credit_policy.ledger))
        # Last: it checkpoints, and the checks above want the journal tail.
        report.add(check_snapshot_equals_fresh_encode(self.server))
        return SoakResult(
            seed=self.config.seed,
            scenario=self.scenario.name,
            jobs=self.config.jobs,
            metrics=dict(self.metrics),
            report=report,
        )

    def _recovery_factory(self, backend):
        platform = self._bare_platform()
        platform.access_server.enable_persistence(
            backend, recover=True, snapshot_every=self.config.effective_snapshot_every
        )
        return platform


def run_soak(config: Optional[SoakConfig] = None, **overrides) -> SoakResult:
    """Run one chaos soak; keyword overrides patch the default config."""
    if config is None:
        config = SoakConfig(**overrides)
    elif overrides:
        raise ValueError("pass either a config or keyword overrides, not both")
    return SoakHarness(config).run()
