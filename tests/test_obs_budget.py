"""Telemetry's budget, counted in calls rather than seconds.

A call count does not depend on how fast or how busy the machine is, so it
can gate telemetry's share of the dispatch path where wall-clock ratios
cannot.  Each test profiles ``noop`` jobs with :mod:`cProfile` and counts
the calls made into functions defined under ``repro/obs/`` per job, and all
calls per job, which must not rise when telemetry gets cheaper.

Budgets are per job to one decimal, as they are stated: a metric mailbox
folds once per 512 values, so a submit costs 5.004 calls, not 5.

Measured by these tests before telemetry stored one record per request and
per job: 9.12 telemetry calls of 211.4 per job in a dispatch pass, 15.0 of
404.1 per in-process ``client.submit_job`` (after: 0.53 of 176.8 and 6.0 of
389.1).  Since the server builds each mutation's journal record once for
the journal and the live analytics fold, a job costs 183.5 calls and a
submit 403.1: these fleets run analytics without a journal, and the
record a live fold reads is now the journal's (a ``job.submitted`` row, a
``job.finished`` record) rather than a bus payload.  With a journal
attached, the same jobs cost fewer calls than before.  Since the server
reads the simulated time from its clock in one call rather than through
the context's properties, a job costs 171.2 calls and a submit 396.1.  The
counts are the same under every ``PYTHONHASHSEED``.
"""

import cProfile
import os
import pstats

from repro.accessserver.jobs import JobSpec
from repro.accessserver.payloads import get_payload
from repro.core.platform import add_vantage_point, build_default_platform
from repro.device.profiles import SAMSUNG_J7_DUO

OBS_DIR = os.path.join("repro", "obs", "")

#: Telemetry calls per job a dispatch pass may make (9.1 before).
PASS_OBS_CALLS_PER_JOB = 3.0
#: Telemetry calls per in-process submit (15.0 before): the router's
#: request begin and end, the job's submit record, the tracer's one helper
#: that creates a trace and binds the job to it, and the router's latency
#: histogram and request counter.
SUBMIT_OBS_CALLS_PER_JOB = 6.0
#: All calls per job (211.4 and 404.1 before telemetry got cheaper): work
#: must not move elsewhere.
PASS_CALLS_PER_JOB = 171.3
SUBMIT_CALLS_PER_JOB = 396.2


def _fleet():
    """Four vantage points of three devices (``bench_obs_overhead``'s fleet)."""
    platform = build_default_platform(seed=72, browsers=("chrome",), device_count=3)
    for index in range(1, 4):
        add_vantage_point(
            platform,
            f"node{index + 1}",
            f"Institution {index}",
            device_profiles=[SAMSUNG_J7_DUO] * 3,
            browsers=("chrome",),
        )
    return platform


def _calls(profile):
    """``(calls into repro/obs, all calls)`` of a finished profile."""
    obs = total = 0
    for (filename, _line, _name), (_cc, calls, *_rest) in pstats.Stats(profile).stats.items():
        total += calls
        if OBS_DIR in filename:
            obs += calls
    return obs, total


def _submit(platform, count):
    server = platform.access_server
    noop = get_payload("noop")
    for index in range(count):
        server.submit_job(
            platform.experimenter,
            JobSpec(name=f"budget-{index}", owner="experimenter", run=noop, timeout_s=60.0),
        )


def test_a_dispatch_pass_spends_few_telemetry_calls_per_job():
    jobs = 1_200
    platform = _fleet()
    server = platform.access_server
    _submit(platform, 24)  # warm-up: metric children, caches
    server.run_pending_jobs(max_jobs=24)
    _submit(platform, jobs)
    profile = cProfile.Profile()
    executed = 0
    profile.enable()
    while executed < jobs:
        executed += len(server.run_pending_jobs())
    profile.disable()
    assert executed == jobs
    obs, total = _calls(profile)
    per_job = obs / jobs
    assert round(per_job, 1) <= PASS_OBS_CALLS_PER_JOB, f"{per_job:.3f} telemetry calls"
    assert total / jobs <= PASS_CALLS_PER_JOB, f"{total / jobs:.1f} calls per job"


def test_an_in_process_submit_spends_few_telemetry_calls():
    submits = 500
    platform = _fleet()
    client = platform.client()
    for index in range(20):  # warm-up
        client.submit_job(f"warm-{index}", "noop")
    profile = cProfile.Profile()
    profile.enable()
    for index in range(submits):
        client.submit_job(f"budget-{index}", "noop")
    profile.disable()
    obs, total = _calls(profile)
    per_submit = obs / submits
    assert round(per_submit, 1) <= SUBMIT_OBS_CALLS_PER_JOB, f"{per_submit:.3f} telemetry calls"
    assert total / submits <= SUBMIT_CALLS_PER_JOB, f"{total / submits:.1f} calls per submit"
