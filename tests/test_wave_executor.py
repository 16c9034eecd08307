"""Parallel wave execution: concurrency with serial-identical semantics.

``AccessServer.enable_parallel_waves`` runs each dispatch wave's payloads
on a worker pool while admission, status transitions, billing, journal
appends and EventBus publishes stay on the server thread in deterministic
assignment order.  These tests pin the contract: byte-identical journals,
identical event streams and credit balances versus serial execution — and
genuine wall-clock concurrency for independent payloads.
"""

import time

import pytest

from repro.accessserver.executor import AdmittedExecution, WaveExecutor
from repro.accessserver.jobs import JobSpec, JobStatus
from repro.accessserver.payloads import register_payload, unregister_payload
from repro.core.platform import add_vantage_point, build_default_platform
from repro.device.profiles import SAMSUNG_J7_DUO

SLEEP_S = 0.15
DEVICES_PER_VP = 3
VANTAGE_POINTS = 2
DEVICES = VANTAGE_POINTS * DEVICES_PER_VP


def _sleep_payload(ctx):
    time.sleep(SLEEP_S)
    return {"slept_s": SLEEP_S}


def _failing_payload(ctx):
    raise RuntimeError("payload exploded")


@pytest.fixture(autouse=True)
def _payloads():
    register_payload("test/wave-sleep", _sleep_payload)
    register_payload("test/wave-fail", _failing_payload)
    yield
    unregister_payload("test/wave-sleep")
    unregister_payload("test/wave-fail")


def _build_fleet(seed=31):
    platform = build_default_platform(
        seed=seed, browsers=("chrome",), device_count=DEVICES_PER_VP
    )
    for index in range(1, VANTAGE_POINTS):
        add_vantage_point(
            platform,
            f"node{index + 1}",
            f"Institution {index}",
            device_profiles=[SAMSUNG_J7_DUO] * DEVICES_PER_VP,
            browsers=("chrome",),
        )
    return platform


def _submit_jobs(platform, count, payload="test/wave-sleep", fail_index=None):
    server = platform.access_server
    for index in range(count):
        run = payload if index != fail_index else "test/wave-fail"
        from repro.accessserver.payloads import get_payload

        server.submit_job(
            platform.experimenter,
            JobSpec(
                name=f"wave-{index:02d}",
                owner="experimenter",
                run=get_payload(run),
                timeout_s=60.0,
            ),
        )


def _drive(platform, parallel, count, state_dir=None, fail_index=None):
    # Job ids come from a process-global allocator; pin it so the serial
    # and parallel runs journal identical ids and the byte comparison is
    # meaningful.  (10**6 stays clear of ids other tests allocated.)
    from repro.accessserver import jobs as jobs_module

    jobs_module._job_ids._next = 10**6

    server = platform.access_server
    if state_dir is not None:
        server.enable_persistence(str(state_dir), snapshot_every=10**9)
    server.accounts.enable_credit_system(initial_grant_device_hours=100.0)
    events = []
    server.events.subscribe(
        None, lambda record: events.append((record.topic, dict(record.payload)))
    )
    if parallel:
        server.enable_parallel_waves()
    _submit_jobs(platform, count, fail_index=fail_index)
    executed = server.run_pending_jobs(max_jobs=count)
    return executed, [_normalize_event(topic, payload) for topic, payload in events]


def _normalize_event(topic, payload):
    # trace.span records are part of the determinism contract in *order*,
    # span/trace ids and structure — but their elapsed_s is a measured
    # wall-clock duration, nondeterministic between any two runs (even two
    # serial ones).  Compare everything except the measurement itself.
    if topic == "trace.span":
        payload = dict(payload)
        payload.pop("elapsed_s", None)
    return topic, payload


class TestSerialParallelParity:
    def test_journals_events_and_balances_are_identical(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial_platform = _build_fleet()
        parallel_platform = _build_fleet()

        serial_jobs, serial_events = _drive(
            serial_platform, parallel=False, count=DEVICES * 2, state_dir=serial_dir
        )
        parallel_jobs, parallel_events = _drive(
            parallel_platform, parallel=True, count=DEVICES * 2, state_dir=parallel_dir
        )

        assert [job.job_id for job in serial_jobs] == [
            job.job_id for job in parallel_jobs
        ]
        assert serial_events == parallel_events
        serial_journal = (serial_dir / "journal.jsonl").read_bytes()
        parallel_journal = (parallel_dir / "journal.jsonl").read_bytes()
        assert serial_journal == parallel_journal
        assert (
            serial_platform.access_server.accounts._credit_balances()
            == parallel_platform.access_server.accounts._credit_balances()
        )

    def test_failures_settle_identically(self, tmp_path):
        serial_platform = _build_fleet(seed=32)
        parallel_platform = _build_fleet(seed=32)
        serial_jobs, serial_events = _drive(
            serial_platform,
            parallel=False,
            count=DEVICES,
            state_dir=tmp_path / "serial",
            fail_index=2,
        )
        parallel_jobs, parallel_events = _drive(
            parallel_platform,
            parallel=True,
            count=DEVICES,
            state_dir=tmp_path / "parallel",
            fail_index=2,
        )
        assert [job.status for job in serial_jobs] == [
            job.status for job in parallel_jobs
        ]
        assert serial_events == parallel_events
        assert (tmp_path / "serial" / "journal.jsonl").read_bytes() == (
            tmp_path / "parallel" / "journal.jsonl"
        ).read_bytes()
        failed = [job for job in parallel_jobs if job.status is JobStatus.FAILED]
        assert len(failed) == 1
        assert "payload exploded" in failed[0].error
        # the failed job's device was released and every other job completed
        assert all(
            job.status is JobStatus.COMPLETED
            for job in parallel_jobs
            if job is not failed[0]
        )


class TestWallClockConcurrency:
    def test_wave_of_sleep_payloads_runs_concurrently(self):
        platform = _build_fleet(seed=33)
        server = platform.access_server
        server.enable_parallel_waves()
        _submit_jobs(platform, DEVICES)
        started = time.perf_counter()
        executed = server.run_pending_jobs(max_jobs=DEVICES)
        elapsed = time.perf_counter() - started
        assert len(executed) == DEVICES
        serial_estimate = DEVICES * SLEEP_S
        assert elapsed < serial_estimate / 2, (
            f"{DEVICES} x {SLEEP_S}s payloads took {elapsed:.2f}s — "
            "no concurrency"
        )

    def test_disable_returns_to_serial(self):
        platform = _build_fleet(seed=34)
        server = platform.access_server
        server.enable_parallel_waves()
        assert server.parallel_waves_enabled
        server.disable_parallel_waves()
        assert not server.parallel_waves_enabled
        _submit_jobs(platform, 2)
        assert len(server.run_pending_jobs(max_jobs=2)) == 2

    def test_pool_sizes_to_fleet_width(self):
        platform = _build_fleet(seed=35)
        executor = platform.access_server.enable_parallel_waves()
        assert executor.max_workers == DEVICES
        platform.access_server.disable_parallel_waves()


class TestWaveExecutorUnit:
    def test_single_item_runs_inline(self):
        executor = WaveExecutor(max_workers=4)
        ran = []
        executor.run_wave([object()], run_one=lambda item: ran.append(item))
        assert len(ran) == 1
        executor.shutdown()

    def test_empty_wave_is_noop(self):
        executor = WaveExecutor(max_workers=2)
        executor.run_wave([], run_one=lambda item: 1 / 0)
        executor.shutdown()

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            WaveExecutor(max_workers=0)

    def test_admitted_execution_captures_payload_error(self):
        class _Spec:
            @staticmethod
            def run(ctx):
                raise ValueError("boom")

        class _Job:
            spec = _Spec()

        class _Assignment:
            job = _Job()

        admitted = AdmittedExecution(
            assignment=_Assignment(), ctx=None, trace_at_admit=None, execution_started_at=0.0
        )
        admitted.run_payload()
        assert isinstance(admitted.error, ValueError)
        assert admitted.result is None
