"""What a retained job costs in memory, pinned.

The access server keeps every job for days, so heap per settled job is the
server's RSS slope.  The budget test below measures it with tracemalloc;
the others pin the mechanisms that keep it down — the slotted per-job
records, their allocate-on-first-use containers and the one shared default
``JobConstraints`` — and that slotting cost no behaviour.
"""

import copy
import dataclasses
import gc
import os
import tracemalloc

import pytest

from repro.accessserver.jobs import (
    DEFAULT_CONSTRAINTS,
    Job,
    JobConstraints,
    JobSpec,
    JobStatus,
    Workspace,
)
from repro.accessserver.persistence import InMemoryBackend, recover_into
from repro.analytics.reducers import _JobTimeline
from repro.core.platform import build_default_platform
from repro.simulation.events import BusEvent

#: Heap bytes per retained noop job (tracemalloc, 6,000 jobs).  Measured:
#: 3,395 before the log ring, slots and lazy containers; 2,766 after; 2,452
#: once persisted records elide defaults (the settled-record text cache
#: holds ~300 B less per job); 2,160 once that cache is gone and a settled
#: record is located in the snapshot by 24 B of splice index instead; 1,136
#: once the simulation log and the event bus keep no records (their two
#: 10,000-record windows were full here) and a job that chose no
#: constraints shares one default; 758 once telemetry keeps one compact
#: record per request and per job (its 512-trace store had held ~770 KB of
#: span objects) and a metric mailbox folds at 512 values, not 8,192.  The
#: budget is that plus 10 %.
BYTES_PER_JOB_BUDGET = 834
#: Heap the same run leaves in ``repro/obs`` (trace store, metric mailboxes):
#: 1,236 KB before telemetry kept compact records, ~260 KB after.  A settled
#: job's lifecycle record is the row the dispatch pass built, so its ~70 KB
#: (512 of them) are charged to ``accessserver/server.py``, not here; the
#: per-job budget above counts them.
OBS_BYTES_BUDGET = 400 * 1024


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
    jobs = 6_000
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
        in_obs = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, os.path.join("*", "repro", "obs", "*"))]
        )
    finally:
        tracemalloc.stop()
    server = platform.access_server
    assert server.scheduler.job_count() == jobs + 20
    assert all(job.status is JobStatus.COMPLETED for job in server.scheduler.jobs())
    per_job = (after - before) / jobs
    assert per_job <= BYTES_PER_JOB_BUDGET, f"{per_job:.0f} B per retained job"
    obs_bytes = sum(stat.size for stat in in_obs.statistics("filename"))
    assert obs_bytes <= OBS_BYTES_BUDGET, f"{obs_bytes / 1024:.0f} KB held in repro/obs"


def test_per_job_records_carry_no_instance_dict():
    spec = JobSpec(name="n", owner="o", run=lambda ctx: None)
    instances = [
        Job(spec=spec),
        spec,
        JobConstraints(),
        Workspace(),
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
    assert gauges["analytics_timelines"] == 3


def test_a_job_without_constraints_holds_the_shared_default():
    backend = InMemoryBackend()
    platform = build_default_platform(seed=7, browsers=("chrome",), persistence=False)
    platform.access_server.enable_persistence(backend)
    client = platform.client()
    snapshotted = client.submit_job("snapshotted", "noop")
    platform.access_server.persistence.checkpoint()
    journaled = client.submit_job("journaled", "noop")
    pinned = client.submit_job("pinned", "noop", vantage_point="node1")
    fresh = build_default_platform(seed=7, browsers=("chrome",), persistence=False)
    report = recover_into(fresh.access_server, backend)
    assert report.jobs_restored == 3
    for scheduler in (platform.access_server.scheduler, fresh.access_server.scheduler):
        for job_id in (snapshotted.job_id, journaled.job_id):
            assert scheduler.job(job_id).spec.constraints is DEFAULT_CONSTRAINTS
        assert scheduler.job(pinned.job_id).spec.constraints == JobConstraints("node1")
    assert JobSpec(name="n", owner="o", run=print).constraints is DEFAULT_CONSTRAINTS

    # Shared, so immutable: another choice is a new object.
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_CONSTRAINTS.device_count = 2
    derived = dataclasses.replace(DEFAULT_CONSTRAINTS, connector="fake")
    assert derived is not DEFAULT_CONSTRAINTS and derived.connector == "fake"
    assert DEFAULT_CONSTRAINTS == JobConstraints()
