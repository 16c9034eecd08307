"""Tracing and structured logging: ``repro.obs.trace`` / ``repro.obs.logsetup``.

A trace follows one request through gateway → router → admit → run →
settle; spans share the trace ID minted at the API boundary.  These tests
pin the tracer's mechanics (IDs, retention, job bindings, bus records)
through the calls the platform makes (``begin_request`` / ``end_request``,
``begin_job_trace``, ``record_lifecycles``), and trace continuity through
a dispatch pass: every job's lifecycle spans are recorded in its settle
step and hang off its submit span.
"""

import logging
import time

import pytest

from repro.accessserver.jobs import JobSpec
from repro.accessserver.payloads import register_payload, unregister_payload
from repro.core.platform import add_vantage_point, build_default_platform
from repro.device.profiles import SAMSUNG_J7_DUO
from repro.obs import SPAN_TOPIC, Tracer, component_logger, log_slow_op
from repro.obs.trace import PUSH_PHASES
from repro.simulation.clock import SimClock
from repro.simulation.events import EventBus


class TestTracerMechanics:
    def test_request_publishes_its_span_on_the_bus(self):
        clock = SimClock()
        bus = EventBus(clock=clock)
        records = []
        bus.subscribe(SPAN_TOPIC, lambda record: records.append(record))
        tracer = Tracer(clock=clock, bus=bus)
        request = tracer.begin_request(None, "job.submit")
        tracer.end_request(request, True)
        assert len(records) == 1
        payload = records[0].payload
        assert payload["name"] == "router.job.submit"
        assert payload["trace_id"] == request.trace_id
        assert payload["status"] == "ok"
        assert payload["attrs"] == {"op": "job.submit"}

    def test_requests_of_one_trace_get_fresh_span_ids(self):
        tracer = Tracer()
        trace_id = tracer.new_trace_id()
        for op in ("a", "b"):
            tracer.end_request(tracer.begin_request(trace_id, op), True)
        first, second = tracer.trace(trace_id)
        assert first.span_id != second.span_id
        assert [first.name, second.name] == ["router.a", "router.b"]

    def test_job_binding_and_parent_linkage(self):
        tracer = Tracer()
        trace_id = tracer.new_trace_id()
        assert tracer.begin_job_trace(7, trace_id, 0.0, 0.1, "queued") == trace_id
        assert tracer.trace_id_for_job(7) == trace_id
        assert tracer.trace_id_for_job(999) is None
        tracer.record_lifecycles([(
            PUSH_PHASES, 7, 0.0, 1.0, 0.1, 0.2, 0.3, False, "node1", "dev", "completed",
        )])
        submit, *phases = tracer.trace(trace_id)
        assert submit.name == "job.submit"
        assert [span.name for span in phases] == ["job.admit", "job.run", "job.settle"]
        assert all(span.parent_id == submit.span_id for span in phases)

    def test_retention_evicts_oldest_trace_and_its_job_binding(self):
        tracer = Tracer(max_traces=2)
        first = tracer.begin_job_trace(1, None, 0.0, 0.0, "queued")
        for _ in range(2):
            request = tracer.begin_request(None, "job.list")
            tracer.end_request(request, True)
        assert first not in tracer.trace_ids()
        assert len(tracer.trace_ids()) == 2
        assert tracer.trace_id_for_job(1) is None

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        request = tracer.begin_request(None, "x")
        assert request is None
        tracer.end_request(request, True)
        assert tracer.begin_job_trace(1, None, 0.0, 0.0, "queued") is None
        tracer.record_lifecycles([(
            PUSH_PHASES, 1, 0.0, 1.0, 0.1, 0.2, 0.3, False, "node1", "dev", "completed",
        )])
        assert tracer.trace_ids() == []

    def test_a_failed_request_is_marked_error(self):
        tracer = Tracer()
        request = tracer.begin_request(None, "risky")
        tracer.end_request(request, False)
        assert tracer.trace(request.trace_id)[0].status == "error"


class TestStructuredLogging:
    def test_component_logger_namespacing(self):
        logger = component_logger("repro.api.gateway")
        assert logger.name == "repro.api.gateway"

    def test_log_slow_op_fires_only_above_threshold(self, caplog):
        logger = component_logger("repro.test.slowop")
        with caplog.at_level(logging.WARNING, logger="repro.test.slowop"):
            assert log_slow_op(logger, "job.submit", 0.5, 0.25, trace_id="t1")
            assert not log_slow_op(logger, "job.list", 0.1, 0.25)
        assert len(caplog.records) == 1
        assert "job.submit" in caplog.records[0].getMessage()


# -- trace continuity through a dispatch pass -------------------------------

DEVICES_PER_VP = 3
VANTAGE_POINTS = 2
DEVICES = VANTAGE_POINTS * DEVICES_PER_VP


def _sleep_payload(ctx):
    time.sleep(0.02)
    return {"ok": True}


@pytest.fixture()
def _payload():
    register_payload("test/obs-sleep", _sleep_payload)
    yield
    unregister_payload("test/obs-sleep")


def _build_fleet(seed=61):
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


def _run_jobs(platform, count):
    from repro.accessserver.payloads import get_payload

    server = platform.access_server
    jobs = [
        server.submit_job(
            platform.experimenter,
            JobSpec(
                name=f"trace-{index:02d}",
                owner="experimenter",
                run=get_payload("test/obs-sleep"),
                timeout_s=60.0,
            ),
        )
        for index in range(count)
    ]
    server.run_pending_jobs(max_jobs=count)
    return server, jobs


class TestTraceContinuityAcrossWaves:
    LIFECYCLE = ["job.submit", "job.admit", "job.run", "job.settle"]

    def test_every_job_has_a_complete_lifecycle_trace(self, _payload):
        server, jobs = _run_jobs(_build_fleet(), DEVICES * 2)
        tracer = server.obs.tracer
        for job in jobs:
            trace_id = tracer.trace_id_for_job(job.job_id)
            assert trace_id is not None
            spans = tracer.trace(trace_id)
            assert [span.name for span in spans] == self.LIFECYCLE
            # Every lifecycle span hangs off the submit span of its trace.
            submit = spans[0]
            assert all(span.parent_id == submit.span_id for span in spans[1:])
            assert all(span.trace_id == trace_id for span in spans)
            # The payload slept ~20 ms; its run span, recorded at settle,
            # carries the time the run took.
            assert spans[2].elapsed_s >= 0.015

    def test_span_stream_follows_the_serial_pass(self, _payload):
        """Submit spans come as the jobs are submitted; then each job's
        admit, run and settle spans come together, in submission order,
        across both waves of the pass."""
        platform = _build_fleet()
        events = []
        platform.access_server.events.subscribe(SPAN_TOPIC, lambda record: events.append(record))
        _, jobs = _run_jobs(platform, DEVICES * 2)
        stream = [
            (record.payload["name"], record.payload.get("attrs", {}).get("job_id"))
            for record in events
        ]
        ids = [job.job_id for job in jobs]
        assert stream == [("job.submit", job_id) for job_id in ids] + [
            (name, job_id) for job_id in ids for name in self.LIFECYCLE[1:]
        ]
