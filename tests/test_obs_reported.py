"""What telemetry reports, pinned from the outside.

These tests read telemetry only through what an operator sees — ``obs.trace``,
``obs.metrics`` and an ``events.subscribe`` stream — so they hold however the
tracer and the registry store what they record: the spans of one job's trace
(names, order, parent links, attrs, status, simulated start/end), the counts
behind the dispatch, journal and API histograms, and the live span stream.
The last tests drive one tracer directly: a job that settles before the
request that submitted it has ended, and several threads recording at once,
read back the same way ``obs.trace`` does.
"""

import sys
import threading

import pytest

from repro.api.schemas import SpanView
from repro.core.platform import build_default_platform
from repro.obs.trace import PUSH_PHASES, Tracer

LIFECYCLE = ["job.submit", "router.job.submit", "job.admit", "job.run", "job.settle"]


@pytest.fixture()
def platform(tmp_path):
    return build_default_platform(seed=7, browsers=("chrome",), state_dir=str(tmp_path))


def _submit_one_and_run(platform):
    client = platform.client()
    before_submit = platform.context.now
    job = client.submit_job("golden", "noop")
    executed = platform.run_queue()
    assert [ran.job_id for ran in executed] == [job.job_id]
    return client, job, before_submit


class TestOneJobTrace:
    def test_spans_fields_and_links(self, platform):
        client, job, submitted_at = _submit_one_and_run(platform)
        view = client.obs_trace(job_id=job.job_id)
        spans = view.spans
        assert [span.name for span in spans] == LIFECYCLE
        assert view.job_id == job.job_id
        assert all(span.trace_id == view.trace_id for span in spans)
        submit, router, admit, run, settle = spans

        # Parent links: the submit and router spans are roots; the job's
        # lifecycle hangs off its submit span.
        assert submit.parent_id is None and router.parent_id is None
        assert [span.parent_id for span in (admit, run, settle)] == [submit.span_id] * 3

        # Attrs and status, exactly.
        server_job = platform.access_server.scheduler.job(job.job_id)
        assert submit.attrs == {"status_after": "queued", "job_id": job.job_id}
        assert router.attrs == {"op": "job.submit"}
        assert admit.attrs == {
            "job_id": job.job_id,
            "vantage_point": server_job.assigned_vantage_point,
            "device": server_job.assigned_device,
        }
        assert run.attrs == {"job_id": job.job_id}
        assert settle.attrs == {"job_id": job.job_id, "status_after": "completed"}
        assert all(span.status == "ok" for span in spans)

        # Simulated start/end: submit and router at the submit instant, the
        # lifecycle from execution start to the finish.
        assert (submit.start, submit.end) == (submitted_at, submitted_at)
        assert (router.start, router.end) == (submitted_at, submitted_at)
        started, finished = server_job.started_at, server_job.finished_at
        assert (admit.start, admit.end) == (started, started)
        assert (run.start, run.end) == (started, finished)
        assert (settle.start, settle.end) == (finished, finished)
        assert all(span.elapsed_s >= 0.0 for span in spans)

    def test_span_ids_are_unique_and_stable_across_reads(self, platform):
        client, job, _ = _submit_one_and_run(platform)
        first = client.obs_trace(job_id=job.job_id)
        again = client.obs_trace(trace_id=first.trace_id)
        ids = [span.span_id for span in first.spans]
        assert len(set(ids)) == len(ids)
        assert [span.span_id for span in again.spans] == ids
        assert again.to_wire()["spans"] == first.to_wire()["spans"]

    def test_a_trace_stream_receives_the_same_records_in_order(self, platform):
        client = platform.client()
        stream = client.events(topic_prefix="trace.", timeout_s=5.0)
        job = client.submit_job("streamed", "noop")
        platform.run_queue()
        view = client.obs_trace(job_id=job.job_id)
        pushed = []
        for frame in stream:
            assert frame.topic == "trace.span"
            if frame.payload["trace_id"] == view.trace_id:
                pushed.append(SpanView.from_wire(frame.payload).to_wire())
            if frame.payload["name"] == "job.settle":
                break
        stream.close()
        assert pushed == view.to_wire()["spans"]


def _submit_noop_jobs(platform, client, jobs):
    """Pipelined batches of 20, a dispatch pass every 100 — the campaign shape."""
    for start in range(0, jobs, 20):
        pipe = client.pipeline()
        for index in range(start, start + 20):
            pipe.submit_job(f"job-{index}", "noop")
        pipe.flush()
        if (start + 20) % 100 == 0:
            platform.run_queue()
    platform.run_queue()


def _counts(client):
    """``(counters, histogram counts)`` of one ``obs.metrics`` scrape, keyed by
    name and sorted label values."""
    snapshot = client.obs_metrics().to_snapshot()

    def key(sample):
        return (sample["name"],) + tuple(sorted(sample["labels"].values()))

    counters = {key(sample): sample["value"] for sample in snapshot["counters"]}
    histograms = {key(sample): sample["count"] for sample in snapshot["histograms"]}
    return counters, histograms


class TestMetricCounts:
    def test_histogram_counts_follow_jobs_and_records(self, platform):
        jobs = 200
        client = platform.client()
        _submit_noop_jobs(platform, client, 20)  # warm-up
        journal = platform.persistence
        counters_before, before = _counts(client)
        sequence_before = journal.sequence
        _submit_noop_jobs(platform, client, jobs)
        counters_after, after = _counts(client)
        records = journal.sequence - sequence_before

        def moved(name, *labels):
            return after.get((name,) + labels, 0) - before.get((name,) + labels, 0)

        # The default platform has one device, so every wave is one job.
        assert moved("dispatch_decision_seconds") == jobs
        for name in ("job_admit_seconds", "job_run_seconds", "job_settle_seconds"):
            assert moved(name) == jobs, name
        assert moved("journal_append_seconds") == records
        assert records >= 2 * jobs
        assert moved("api_op_latency_seconds", "job.submit") == jobs
        executed = ("jobs_executed_total", "completed")
        assert counters_after[executed] - counters_before.get(executed, 0) == jobs


class TestJobBinding:
    def test_a_job_settled_before_its_request_ends_keeps_its_lifecycle(self):
        """The job is bound to its trace at submit, so a lifecycle recorded
        while the submitting request is still open joins that trace."""
        tracer = Tracer()
        request = tracer.begin_request(None, "job.submit")
        tracer.begin_job_trace(5, request.trace_id, 1.0, 0.001, "queued")
        assert tracer.trace_id_for_job(5) == request.trace_id
        tracer.record_lifecycles([(
            PUSH_PHASES, 5, 1.0, 2.0, 0.1, 0.2, 0.3, False, "node1", "dev", "completed",
        )])
        tracer.end_request(request, True)
        spans = {span.name: span for span in tracer.trace(request.trace_id)}
        assert sorted(spans) == sorted(LIFECYCLE)
        submit = spans["job.submit"]
        for name in ("job.admit", "job.run", "job.settle"):
            assert spans[name].parent_id == submit.span_id
            assert spans[name].attrs["job_id"] == 5

    def test_a_binding_whose_trace_was_evicted_reads_as_none(self):
        tracer = Tracer(max_traces=2)
        first = tracer.begin_job_trace(1, None, 0.0, 0.0, "queued")
        for job_id in (2, 3):
            tracer.begin_job_trace(job_id, None, 0.0, 0.0, "queued")
        assert first not in tracer.trace_ids()
        assert tracer.trace_id_for_job(1) is None
        assert tracer.trace(first) == []
        assert tracer.trace_id_for_job(3) is not None


class TestConcurrentRecording:
    def test_threads_recording_at_once_keep_every_trace_whole(self):
        """Requests and settles recorded from several threads at once, with a
        short switch interval, still read back as whole traces and respect
        the trace bound."""
        tracer = Tracer(max_traces=64)
        threads, per_thread = 6, 300
        errors = []

        def work(worker):
            try:
                for index in range(per_thread):
                    job_id = worker * per_thread + index
                    request = tracer.begin_request(None, "job.submit")
                    tracer.begin_job_trace(job_id, request.trace_id, 1.0, 0.001, "queued")
                    tracer.end_request(request, True)
                    tracer.record_lifecycles([(
                        PUSH_PHASES, job_id, 1.0, 2.0, 0.1, 0.2, 0.3, False, "node1", "dev", "completed",
                    )])
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(n,)) for n in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(worker.is_alive() for worker in workers)
        trace_ids = tracer.trace_ids()
        assert len(trace_ids) == 64
        names = ["job.submit", "router.job.submit", "job.admit", "job.run", "job.settle"]
        for trace_id in trace_ids:
            spans = tracer.trace(trace_id)
            assert [span.name for span in spans] == names
            job_id = spans[0].attrs["job_id"]
            assert tracer.trace_id_for_job(job_id) == trace_id
            assert all(span.parent_id == spans[0].span_id for span in spans[2:])
        bound = [job for job in range(threads * per_thread) if tracer.trace_id_for_job(job)]
        assert len(bound) == 64
