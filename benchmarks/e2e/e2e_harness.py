"""One untraced run of one workload against the real platform processes.

The order of a run: the cold bring-ups (the last one is kept), the
measured window, the correctness gate, a clean stop, the restarts on
copies of the state directory.  Every end-to-end metric comes from here;
the traced run (``e2e_trace``) never contributes to them.
"""

from __future__ import annotations

import gc
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.accessserver.certificates import client_tls_context, ensure_tls_material
from repro.accessserver.jobs import JobStatus
from repro.api.client import BatteryLabClient
from repro.api.errors import ApiError
from repro.api.gateway import JsonLinesTransport
from repro.api.schemas import API_VERSION_V2

from e2e_procs import PlatformProcess, Sandbox
from e2e_stats import ObsDelta, median, percentile, ratio, tree_bytes
from e2e_workloads import (
    FED_SHARDS,
    SAMPLE_CLASSES,
    Recorder,
    Workload,
    measure,
    preload,
    warm_up,
)

HOST = "127.0.0.1"
USERNAME = "experimenter"
TOKEN = "experimenter-token"

#: Share of settled jobs whose ``job.results`` the gate reads back.
RESULTS_SAMPLE_SHARE = 0.05


@dataclass
class Deployment:
    """One live platform: the server or federation, and maybe an agent."""

    platform: PlatformProcess
    port: int
    state_dir: str
    agent: Optional[PlatformProcess] = None
    outbox: Optional[str] = None

    def processes(self) -> List[PlatformProcess]:
        return [p for p in (self.platform, self.agent) if p is not None]

    def state_paths(self) -> List[str]:
        return [p for p in (self.state_dir, self.outbox) if p is not None]


@dataclass
class UntracedRun:
    """Everything one untraced run observed."""

    workload: Workload
    #: Every client-side measurement by its bare name; ``BENCHMARK.json`` says
    #: which are end-to-end (gated) and which are ``client.*`` per-layer rows.
    measured: Dict[str, float] = field(default_factory=dict)
    obs: Optional[ObsDelta] = None
    records_folded: int = 0
    jobs_settled: int = 0
    window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def platform_args(workload: Workload, state_dir: str, cert_dir: str) -> List[str]:
    tail = ["--tls", "--cert-dir", cert_dir, "--duration-s", str(workload.deadman_s)]
    if workload.platform == "federate":
        return ["federate", "--shards", str(FED_SHARDS), "--state-root", state_dir, *tail]
    return ["--state-dir", state_dir, "serve", *tail]


def agent_args(workload: Workload, port: int, cert_dir: str, outbox: str) -> List[str]:
    return [
        "agent", "--gateway", f"{HOST}:{port}", "--cert-dir", cert_dir,
        "--connector", "fake", "--agent-id", "e2e-agent", "--outbox", outbox,
        "--duration-s", str(workload.deadman_s),
    ]


def connect(port: int, tls_context) -> BatteryLabClient:
    """The SDK exactly as a remote experimenter would construct it."""
    transport = JsonLinesTransport(HOST, port, tls_context=tls_context)
    return BatteryLabClient(transport, USERNAME, TOKEN)


def job_totals(client: BatteryLabClient) -> Dict[str, int]:
    """``job.list`` totals per status, plus the unfiltered total."""
    totals = {"all": client.job_page(limit=0).total}
    for status in JobStatus:
        totals[status.value] = client.job_page(status=status.value, limit=0).total
    return totals


def quiesce(client: BatteryLabClient) -> None:
    """Return once the platform has finished what it was doing.

    A job's ``end`` frame is pushed before the tail of its settle (journal
    append, counters), and reads do not wait for ``router_lock``.  A mutating
    no-op does: when it is answered, the tick or request that settled the
    last job is over, so counters and the journal are complete.
    """
    client.cancel_subscription(2**31 - 1)


def bring_up(sandbox: Sandbox, workload: Workload, cert_dir: str) -> Deployment:
    state_dir = sandbox.new_dir("state")
    platform = sandbox.spawn(platform_args(workload, state_dir, cert_dir), "platform")
    port = platform.wait_serving()
    deployment = Deployment(platform, port, state_dir)
    if workload.agent:
        deployment.outbox = os.path.join(sandbox.new_dir("agent"), "outbox.jsonl")
        # The agent works while the load generator waits for the ``end`` frame.
        deployment.agent = sandbox.spawn(
            agent_args(workload, port, cert_dir, deployment.outbox), "loadgen"
        )
    return deployment


def prepare(workload: Workload, port: int, tls_context):
    """Connect, get a first ``server.status`` answered, preload, warm up.

    Returns the clients, the recorder of everything set-up submitted, and
    the preloaded job ids per lane.
    """
    clients = [connect(port, tls_context) for _ in range(workload.connections)]
    setup_rec = Recorder()
    clients[0].server_status()
    lanes = preload(workload, clients[0], setup_rec)
    for client in clients:
        warm_up(workload, client, setup_rec, lanes)
    return clients, setup_rec, lanes


def tear_down(sandbox: Sandbox, deployment: Deployment, graceful: bool) -> None:
    # The agent first: it would otherwise spend its exit retrying a dead gateway.
    for process in reversed(deployment.processes()):
        sandbox.stop(process, graceful=graceful)


def run_untraced(
    sandbox: Sandbox,
    workload: Workload,
    seed: int,
    cert_dir: str,
    bring_ups: int,
    restarts: int,
) -> UntracedRun:
    run = UntracedRun(workload)
    tls_context = client_tls_context(ensure_tls_material(cert_dir))

    # -- set-up: cold bring-ups, the last one kept ---------------------------
    setup_times: List[float] = []
    for attempt in range(bring_ups):
        started = time.perf_counter()
        deployment = bring_up(sandbox, workload, cert_dir)
        clients, setup_rec, lanes = prepare(workload, deployment.port, tls_context)
        setup_times.append(time.perf_counter() - started)
        if setup_rec.failed:
            run.problems.append(f"set-up: {setup_rec.errors[:3]}")
        if attempt < bring_ups - 1:
            for client in clients:
                client.close()
            tear_down(sandbox, deployment, graceful=False)

    control = clients[0]
    submitted_before = len(setup_rec.job_ids)
    recorders = [Recorder() for _ in clients]
    gc.collect()
    gc.freeze()

    # -- the measured window --------------------------------------------------
    marks: Dict[str, float] = {}
    quiesce(control)
    before_view = control.obs_metrics()
    before_report = control.analytics_report()

    def on_start() -> None:
        marks["cpu0"] = sum(p.cpu_s() for p in deployment.processes())
        marks["own0"] = time.process_time()
        marks["t0"] = time.perf_counter()

    def on_end() -> None:
        marks["t1"] = time.perf_counter()
        marks["own1"] = time.process_time()
        marks["cpu1"] = sum(p.cpu_s() for p in deployment.processes())

    measure(workload, clients, recorders, seed, lanes, on_start, on_end)
    gc.unfreeze()

    quiesce(control)
    rss_mb = sum(p.peak_rss_mb() for p in deployment.processes())
    state_bytes = tree_bytes(*deployment.state_paths())
    after_view = control.obs_metrics()
    after_report = control.analytics_report()
    run.obs = ObsDelta(before_view, after_view)
    run.records_folded = after_report.records_folded - before_report.records_folded

    samples = {
        name: [s for rec in recorders for s in rec.samples[name]] for name in SAMPLE_CLASSES
    }
    settles = [s for rec in recorders for s in rec.settles]
    measured_ids = [job_id for rec in recorders for job_id in rec.job_ids]
    run.jobs_settled = sum(s[3] for s in settles)
    run.attempted = sum(rec.attempted for rec in recorders)
    run.failed = sum(rec.failed for rec in recorders)
    requests_done = sum(rec.requests_done for rec in recorders)
    for rec in recorders:
        run.problems.extend(rec.errors[:3])

    # -- correctness gate ------------------------------------------------------
    expected_jobs = submitted_before + workload.jobs
    totals = job_totals(control)
    if totals["all"] != expected_jobs or totals["completed"] != expected_jobs:
        run.problems.append(f"job.list totals {totals} != {expected_jobs} completed")
    if run.jobs_settled != workload.jobs or len(measured_ids) != workload.jobs:
        run.problems.append(
            f"{run.jobs_settled} end frames / {len(measured_ids)} submits for "
            f"{workload.jobs} jobs"
        )
    executed = run.obs.counter("jobs_executed_total", status="completed") + run.obs.counter(
        "agent_reports_total", status="completed"
    )
    if executed != workload.jobs:
        run.problems.append(f"jobs_executed_total moved {executed}, not {workload.jobs}")
    picker = random.Random(f"{workload.name}/{seed}/results")
    sample_size = max(1, round(len(measured_ids) * RESULTS_SAMPLE_SHARE))
    for job_id in picker.sample(measured_ids, min(sample_size, len(measured_ids))):
        try:
            results = control.job_results(job_id)
        except ApiError as exc:
            run.problems.append(f"job.results {job_id}: {exc.code}")
            continue
        if results.status != "completed" or results.error:
            run.problems.append(f"job {job_id} is {results.status}: {results.error}")
    for process in deployment.processes():
        if not process.alive():
            run.problems.append(f"{process.args[:3]} died during the run")
            continue
        for tid in process.misplaced_threads():
            run.problems.append(f"thread {tid} of {process.args[:3]} may leave {process.cpus}")

    # -- stop, then recover on fresh copies -----------------------------------
    for client in clients:
        client.close()
    tear_down(sandbox, deployment, graceful=True)
    restart_times: List[float] = []
    for _ in range(restarts):
        copy = sandbox.copy_dir(deployment.state_dir, "recover")
        started = time.perf_counter()
        revived = sandbox.spawn(platform_args(workload, copy, cert_dir), "platform")
        port = revived.wait_serving()
        with connect(port, tls_context) as client:
            client.server_status(version=API_VERSION_V2)
            recovered = job_totals(client)
        restart_times.append(time.perf_counter() - started)
        if recovered != totals:
            run.problems.append(f"restart recovered {recovered}, stopped with {totals}")
        sandbox.stop(revived, graceful=False)

    # -- metrics ---------------------------------------------------------------
    run.window_s = max(s[2] for s in settles) - min(s[1] for s in settles) if settles else 0.0
    cpu_ms = (marks["cpu1"] - marks["cpu0"]) * 1000.0

    def p(name: str, q: float) -> float:
        return percentile(samples[name], q) * 1000.0 if samples[name] else 0.0

    run.measured = {
        "setup_s": median(setup_times),
        "jobs_per_s": ratio(run.jobs_settled, run.window_s),
        "settle_p50_ms": p("settle", 50),
        "submit_p50_ms": p("submit", 50),
        "read_p50_ms": p("read", 50),
        "fleet_p50_ms": p("fleet", 50),
        "scan_p50_ms": p("scan", 50),
        "report_p50_ms": p("report", 50),
        "recover_s": median(restart_times),
        "cpu_ms_per_op": ratio(cpu_ms, requests_done),
        "rss_peak_mb": rss_mb,
        "state_bytes_per_job": ratio(state_bytes, expected_jobs),
        "settle_p90_ms": p("settle", 90),
        "settle_p99_ms": p("settle", 99),
        "submit_p99_ms": p("submit", 99),
        "read_p99_ms": p("read", 99),
        "scan_p99_ms": p("scan", 99),
        "samples_settle": float(len(samples["settle"])),
        "ops_attempted": float(run.attempted),
        "ops_failed": float(run.failed),
        "loadgen_cpu_share": ratio(marks["own1"] - marks["own0"], marks["t1"] - marks["t0"]),
    }
    return run
