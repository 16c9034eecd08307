"""What a retained job costs in memory, pinned.

The access server keeps every job for days, so heap per settled job is the
server's RSS slope.  The budget test below measures it with tracemalloc;
the others pin the mechanisms that keep it down — the bounded simulation
log, the slotted per-job records and their allocate-on-first-use
containers — and that slotting cost no behaviour.
"""

import copy
import dataclasses
import gc
import tracemalloc

from repro.accessserver.jobs import Job, JobConstraints, JobSpec, JobStatus, Workspace
from repro.accessserver.persistence import InMemoryBackend, recover_into
from repro.analytics.reducers import _JobTimeline
from repro.core.platform import build_default_platform
from repro.simulation.entity import LogRecord, SimulationContext
from repro.simulation.events import HISTORY_LIMIT, BusEvent, EventBus

#: Heap bytes per retained noop job (tracemalloc, 6,000 jobs).  Measured:
#: 3,395 before the log ring, slots and lazy containers; 2,766 after; 2,452
#: once persisted records elide defaults (the settled-record text cache
#: holds ~300 B less per job).  The budget is that plus 10 %.
BYTES_PER_JOB_BUDGET = 2_700


def submit_noop_jobs(platform, client, jobs):
    """Pipelined batches of 20, a dispatch every 100 — the campaign shape."""
    for start in range(0, jobs, 20):
        pipe = client.pipeline()
        for index in range(start, start + 20):
            pipe.submit_job(f"job-{index}", "noop")
        pipe.flush()
        if (start + 20) % 100 == 0:
            platform.run_queue()
    platform.run_queue()


def test_a_retained_job_stays_within_its_heap_budget(tmp_path):
    jobs = 6_000  # past every history bound: 2 log lines and 5 bus events a job
    platform = build_default_platform(
        seed=7, browsers=("chrome",), state_dir=str(tmp_path), analytics=True
    )
    client = platform.client()
    submit_noop_jobs(platform, client, 20)  # warm-up: caches, metric children
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        submit_noop_jobs(platform, client, jobs)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    server = platform.access_server
    assert server.scheduler.job_count() == jobs + 20
    assert all(job.status is JobStatus.COMPLETED for job in server.scheduler.jobs())
    assert server.context.log_retained == HISTORY_LIMIT
    assert server.events.retained == HISTORY_LIMIT
    per_job = (after - before) / jobs
    assert per_job <= BYTES_PER_JOB_BUDGET, f"{per_job:.0f} B per retained job"


def test_the_simulation_log_keeps_the_newest_records():
    context = SimulationContext()
    for index in range(HISTORY_LIMIT + 5):
        record = context.log("x" if index % 2 else "y", "line", index=index)
    assert record == LogRecord(0.0, "y", "line", {"index": HISTORY_LIMIT + 4})
    records = context.log_records()
    assert len(records) == context.log_retained == HISTORY_LIMIT
    assert [records[0].data["index"], records[-1].data["index"]] == [5, HISTORY_LIMIT + 4]
    only_x = context.log_records("x")
    assert len(only_x) == HISTORY_LIMIT // 2
    assert {rec.source for rec in only_x} == {"x"}
    assert EventBus().history_limit == HISTORY_LIMIT  # one bound, named once


def test_per_job_records_carry_no_instance_dict():
    spec = JobSpec(name="n", owner="o", run=lambda ctx: None)
    instances = [
        Job(spec=spec),
        spec,
        JobConstraints(),
        Workspace(),
        LogRecord(0.0, "s", "m"),
        BusEvent(0.0, "t"),
        _JobTimeline(),
    ]
    for instance in instances:
        assert not hasattr(instance, "__dict__"), type(instance).__name__


def test_a_job_gets_its_containers_on_first_use():
    job = Job(spec=JobSpec(name="n", owner="o", run=lambda ctx: None, log_retention_days=2.0))
    job.submitted_at = 100.0
    assert job._log_lines is None and job._workspace is None
    # Reads allocate nothing.
    assert list(job.log_lines) == [] and job.artifact_names() == []
    assert not job.workspace_expired(100.0 + 2 * 86400.0)
    assert job.workspace_expired(100.0 + 2 * 86400.0 + 1.0)
    assert job._log_lines is None and job._workspace is None

    job.log("hello")
    assert job.log_lines == ["hello"]
    workspace = job.workspace
    assert (workspace.created_at, workspace.retention_days) == (100.0, 2.0)
    assert workspace.artifacts is None and workspace.names() == []
    workspace.store("trace", [1, 2])
    assert job.workspace is workspace
    assert job.artifact_names() == ["trace"] and workspace.fetch("trace") == [1, 2]


def test_slotted_jobs_copy_replace_and_recover(tmp_path):
    job = Job(spec=JobSpec(name="n", owner="o", run=print, constraints=JobConstraints("vp")))
    job.log("line")
    job.workspace.store("a", 1)
    clone = copy.deepcopy(job)
    assert clone == job and clone is not job
    assert clone.workspace is not job.workspace and clone.workspace.fetch("a") == 1
    renamed = dataclasses.replace(job, spec=dataclasses.replace(job.spec, name="m"))
    assert (renamed.spec.name, renamed.job_id, renamed.log_lines) == ("m", job.job_id, ["line"])

    backend = InMemoryBackend()
    platform = build_default_platform(seed=7, browsers=("chrome",), persistence=False)
    platform.access_server.enable_persistence(backend)
    client = platform.client()
    done = client.submit_job("done", "noop")
    platform.run_queue()
    queued = client.submit_job("queued", "noop", vantage_point="nowhere")
    fresh = build_default_platform(seed=7, browsers=("chrome",), persistence=False)
    report = recover_into(fresh.access_server, backend)
    assert report.jobs_restored == 2
    recovered = {job.job_id: job for job in fresh.access_server.scheduler.jobs()}
    original = {job.job_id: job for job in platform.access_server.scheduler.jobs()}
    for job_id in (done.job_id, queued.job_id):
        assert not hasattr(recovered[job_id], "__dict__")
        assert recovered[job_id].status is original[job_id].status
        assert list(recovered[job_id].log_lines) == list(original[job_id].log_lines)
        assert recovered[job_id].spec.constraints == original[job_id].spec.constraints


def test_every_history_exports_its_size(tmp_path):
    platform = build_default_platform(seed=7, browsers=("chrome",), state_dir=str(tmp_path))
    client = platform.client()
    for index in range(3):
        client.submit_job(f"job-{index}", "noop", idempotency_key=f"key-{index}")
    platform.run_queue()
    server = platform.access_server
    server.persistence.checkpoint()
    gauges = {g["name"]: g["value"] for g in server.obs.registry.snapshot()["gauges"]}
    assert gauges["scheduler_retained_jobs"] == 3
    assert gauges["idempotency_keys"] == 3
    assert gauges["persistence_settled_cache_entries"] == 3
    assert gauges["sim_log_records"] == server.context.log_retained > 0
    assert gauges["event_history_records"] == server.events.retained > 0
