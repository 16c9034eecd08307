"""The traced run: one process, spans around the calls into each layer.

Nothing under ``src/`` knows about this file.  For the length of one run
it replaces public methods on the platform's classes (and four module
attributes: ``repro.cli.time``, ``os.fsync`` and the ``federation.merge``
functions) with wrappers that record ``(id, name, start, end, parent,
thread, attributes)`` in memory, and puts the originals back afterwards.
The platform itself is the real CLI handler — ``repro.cli.main([... "serve"
...])`` on the main thread, so the host loop being measured is the CLI's
own — with the load generator (and, for ``agent_pull``, ``repro.cli.main([...
"agent" ...])``) on other threads of the same process.

Self time is a span's duration minus what its children cover.  The layer
table follows one job's blocking path through the threads it crosses; see
:class:`PathAnalysis`.
"""

from __future__ import annotations

import _thread
import bisect
import copy
import io
import itertools
import json
import os
import re
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.tables import format_table

from e2e_procs import SERVING_LINE
from e2e_stats import mean, median, percentile, ratio, self_time

_SERVING = re.compile(SERVING_LINE)

#: Every n-th handled envelope pair is kept for the codec / wire-size rows.
ENVELOPE_SAMPLE_EVERY = 5


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # 0 = top of its thread
    thread: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.marks: List[Tuple[str, float, Dict[str, object]]] = []
        self.envelopes: List[Tuple[dict, dict]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._handled = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids), name, 0.0, 0.0, stack[-1].sid if stack else 0,
            threading.get_ident(),
        )
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass
        self.spans.append(span)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def mark(self, name: str, **attrs: object) -> None:
        self.marks.append((name, time.perf_counter(), attrs))

    def keep_envelope(self, request: dict, response: dict) -> None:
        self._handled += 1
        if self._handled % ENVELOPE_SAMPLE_EVERY == 0:
            self.envelopes.append((request, response))

    def dump(self, path: str) -> None:
        """``spans.json``: one row per span, oldest first (see README)."""
        rows = [
            [s.sid, s.name, round(s.start, 7), round(s.end, 7), s.parent, s.thread, s.attrs]
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": ["id", "name", "start_s", "end_s", "parent", "thread", "attrs"],
                    "spans": rows,
                    "marks": [[name, round(t, 7), attrs] for name, t, attrs in self.marks],
                },
                handle,
                separators=(",", ":"),
            )


# -- wrappers ---------------------------------------------------------------------


class Patches:
    """Attribute replacements that are all undone on ``restore``."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attribute: str, value: object) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def _job_of_response(response: dict) -> Optional[int]:
    payload = response.get("payload") if isinstance(response, dict) else None
    if not isinstance(payload, dict):
        return None
    if isinstance(payload.get("job"), dict):
        return payload["job"].get("job_id")
    return payload.get("job_id")


class Instrumentation:
    """Installs every wrapper of the traced run."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.patches = Patches()
        self.agent_stop = threading.Event()

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Record a span named ``name`` around ``owner.attribute``.

        ``before(span, args, kwargs)`` and ``after(span, args, result)`` may
        put attributes on the span (job id, operation, sizes).
        """
        original = getattr(owner, attribute)
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                if before is not None:
                    before(span, args, kwargs)
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(span, args, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", attribute)
        self.patches.set(owner, attribute, wrapper)

    # -- one method per layer ------------------------------------------------
    def install(self) -> None:
        import repro.cli
        from repro.accessserver.executor import AdmittedExecution
        from repro.accessserver.persistence import FileBackend, PersistenceManager
        from repro.accessserver.scheduler import JobScheduler
        from repro.accessserver.server import AccessServer
        from repro.agent.connectors import DeviceConnector
        from repro.agent.daemon import AgentDaemon
        from repro.agent.outbox import Outbox
        from repro.analytics.engine import AnalyticsEngine
        from repro.api.gateway import JsonLinesTransport
        from repro.api.router import ApiRouter
        from repro.federation import merge as fed_merge
        from repro.federation.router import FederationRouter
        from repro.obs.metrics import MetricsRegistry
        from repro.simulation.entity import SimulationContext

        wrap = self.wrap

        def request_attrs(span, args, _kwargs):
            request = args[1]
            span.attrs["op"] = request.get("op")
            span.attrs["rid"] = request.get("request_id")

        def batch_attrs(span, args, _kwargs):
            requests = list(args[1])
            span.attrs["op"] = requests[0].get("op") if requests else None
            span.attrs["rid"] = requests[-1].get("request_id") if requests else None
            span.attrs["n"] = len(requests)

        def push_attrs(span, _args, frame):
            if isinstance(frame, dict) and frame.get("frame") == "end":
                span.attrs["end_of"] = _job_of_response(frame)

        wrap(JsonLinesTransport, "send", "api.gateway.send", before=request_attrs)
        wrap(JsonLinesTransport, "send_many", "api.gateway.send_many", before=batch_attrs)
        wrap(JsonLinesTransport, "recv_push", "api.gateway.recv_push", after=push_attrs)

        self._wrap_handle(ApiRouter, "api.router.handle")
        self._wrap_handle(FederationRouter, "federation.router.handle")
        for function in ("merge_fleet", "merge_status", "merge_job_list", "merge_report"):
            wrap(fed_merge, function, "federation.merge." + function)

        wrap(AccessServer, "submit_job", "accessserver.server.submit_job")
        wrap(AccessServer, "run_pending_jobs", "accessserver.server.run_pending_jobs")
        wrap(AccessServer, "status", "accessserver.server.status")
        wrap(
            AccessServer, "agent_offers", "accessserver.agents.offers",
            after=lambda span, _a, jobs: span.attrs.update(
                jobs=[job.job_id for job in jobs]
            ),
        )
        wrap(AccessServer, "agent_claim", "accessserver.agents.claim")
        wrap(AccessServer, "agent_report", "accessserver.agents.report")
        wrap(
            JobScheduler, "dispatch_batch", "accessserver.dispatch.dispatch_batch",
            before=lambda span, args, _k: span.attrs.update(depth=args[0].queue_length()),
            after=lambda span, _a, batch: span.attrs.update(n=len(batch)),
        )
        wrap(
            AdmittedExecution, "run_payload", "accessserver.executor.run_payload",
            before=lambda span, args, _k: span.attrs.update(job=args[0].job.job_id),
        )
        wrap(FileBackend, "append", "accessserver.persistence.append")
        wrap(FileBackend, "sync", "accessserver.persistence.sync")
        wrap(FileBackend, "write_snapshot", "accessserver.persistence.write_snapshot")
        wrap(
            FileBackend, "reset_journal", "accessserver.persistence.reset_journal",
            before=lambda span, args, _k: span.attrs.update(
                bytes=os.path.getsize(args[0].journal_path)
                if os.path.exists(args[0].journal_path) else 0
            ),
        )
        wrap(PersistenceManager, "checkpoint", "accessserver.persistence.checkpoint")
        wrap(AnalyticsEngine, "fold", "analytics.fold")
        wrap(AnalyticsEngine, "report", "analytics.report")
        wrap(SimulationContext, "run_for", "simulation.run_for")
        wrap(MetricsRegistry, "snapshot", "obs.snapshot")
        wrap(Outbox, "append", "agent.outbox.append")
        wrap(DeviceConnector, "run_phase", "agent.connectors.run_phase")
        wrap(os, "fsync", "os.fsync")

        stop = self.agent_stop

        def leave_when_stopped(_span, _args, _kwargs):
            # The CLI's agent loop has no stop hook but ^C; this is its ^C.
            if stop.is_set():
                raise KeyboardInterrupt

        wrap(
            AgentDaemon, "run_once", "agent.daemon.run_once", before=leave_when_stopped,
            after=lambda span, _a, job_id: span.attrs.update(job=job_id),
        )

        # ``cli._cmd_serve``/``_cmd_federate`` call ``time.sleep(0.05)`` between
        # ticks: make that sleep a span without touching the ``time`` module.
        tracer = self.tracer

        class _CliTime:
            def __getattr__(self, attribute):
                return getattr(time, attribute)

            @staticmethod
            def sleep(seconds):
                span = tracer.begin("cli.serve.sleep")
                try:
                    time.sleep(seconds)
                finally:
                    tracer.end(span)

        self.patches.set(repro.cli, "time", _CliTime())

    def _wrap_handle(self, router_class: type, name: str) -> None:
        """``handle(request, push=...)``: span, envelope sample, push marks."""
        original = router_class.handle
        tracer = self.tracer

        def handle(router, request, push=None, owner=None, secure=True):
            parent = tracer.current()
            outermost = parent is None or not parent.name.endswith(".handle")
            op = request.get("op") if isinstance(request, dict) else None
            if push is not None and outermost and op == "job.watch":
                deliver = push

                def push(frame):  # noqa: F811 - the traced stand-in
                    ended = frame.get("frame") == "end"
                    tracer.mark("push", end_of=_job_of_response(frame) if ended else None)
                    deliver(frame)

            span = tracer.begin(name)
            span.attrs["op"] = op
            span.attrs["rid"] = request.get("request_id") if isinstance(request, dict) else None
            # Read-only operations run without router_lock (the gateway asks
            # the router the same question).
            span.attrs["lock_free"] = router.is_read_only(op)
            try:
                response = original(router, request, push=push, owner=owner, secure=secure)
            finally:
                tracer.end(span)
            if op == "job.submit":
                span.attrs["job"] = _job_of_response(response)
            if outermost:
                tracer.keep_envelope(request, response)
            return response

        self.patches.set(router_class, "handle", handle)

    def restore(self) -> None:
        self.patches.restore()


# -- span index -------------------------------------------------------------------


def within(spans: List[Span], window: Optional[Tuple[float, float]]) -> List[Span]:
    if window is None:
        return spans
    return [s for s in spans if s.start >= window[0] and s.end <= window[1]]


class SpanIndex:
    """Lookups the analysis needs: by name, by thread, children, windows."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = sorted(spans, key=lambda s: s.start)
        self.by_id = {s.sid: s for s in self.spans}
        self.children: Dict[int, List[Span]] = defaultdict(list)
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.tops: Dict[int, List[Span]] = defaultdict(list)  # thread -> top spans
        for span in self.spans:
            self.by_name[span.name].append(span)
            if span.parent and span.parent in self.by_id:
                self.children[span.parent].append(span)
            else:
                self.tops[span.thread].append(span)
        self._top_starts = {
            thread: [s.start for s in tops] for thread, tops in self.tops.items()
        }
        #: ``handle`` spans that are not a federation router's shard leg.
        self.top_handles = [
            s for s in self.spans
            if s.name.endswith(".handle")
            and not (s.parent in self.by_id and self.by_id[s.parent].name.endswith(".handle"))
        ]

    def named(self, name: str, window: Optional[Tuple[float, float]] = None) -> List[Span]:
        return within(self.by_name.get(name, []), window)

    def prefixed(self, prefix: str, window: Optional[Tuple[float, float]] = None) -> List[Span]:
        return within([s for s in self.spans if s.name.startswith(prefix)], window)

    def self_time(self, span: Span) -> float:
        return self_time(
            span.start, span.end, [(c.start, c.end) for c in self.children[span.sid]]
        )

    def ancestor_named(self, span: Span, prefix: str) -> bool:
        while span.parent and span.parent in self.by_id:
            span = self.by_id[span.parent]
            if span.name.startswith(prefix):
                return True
        return False

    def tops_overlapping(self, thread: int, start: float, end: float) -> List[Span]:
        tops = self.tops.get(thread, [])
        starts = self._top_starts.get(thread, [])
        first = max(0, bisect.bisect_left(starts, start) - 1)
        out = []
        for span in tops[first:]:
            if span.start >= end:
                break
            if span.end > start:
                out.append(span)
        return out


def row_of(span: Span) -> str:
    """The layer-table row a span's self time belongs to."""
    name = span.name
    if name.startswith("api.client."):
        return "api.client"
    if name.startswith("api.gateway."):
        return "api.gateway"
    if name == "api.router.handle":
        if span.attrs.get("op") == "agent.poll":
            return "api.router (parked agent.poll)"
        return "api.router"
    if name == "federation.router.handle":
        return "federation.router"
    if name.startswith("federation.merge."):
        return "federation.merge"
    if name == "accessserver.server.run_pending_jobs":
        return "accessserver.server (admit+settle)"
    if name == "accessserver.server.submit_job":
        return "accessserver.server (submit)"
    if name == "cli.serve.sleep":
        return "cli.serve (sleep between ticks)"
    if name == "accessserver.persistence.checkpoint" or name in (
        "accessserver.persistence.write_snapshot",
        "accessserver.persistence.reset_journal",
    ):
        return "accessserver.persistence.checkpoint"
    if name.startswith("accessserver.persistence."):
        return "accessserver.persistence (journal)"
    if name.startswith("accessserver.agents."):
        return "accessserver.agents"
    if name.startswith("analytics."):
        return "analytics"
    if name.startswith("agent.daemon."):
        return "agent.daemon"
    if name.startswith("agent.outbox."):
        return "agent.outbox"
    if name.startswith("agent.connectors."):
        return "agent.connectors"
    return name.rsplit(".", 1)[0] if name.count(".") > 1 else name


UNATTRIBUTED = "(unattributed)"
CLIENT_BUSY = "loadgen (end frame buffered while the client was sending)"


class PathAnalysis:
    """Attributes wall-clock intervals to layer rows by following threads.

    ``attribute(thread, a, b)`` walks the spans ``thread`` had open during
    ``[a, b]`` and credits each one's self time to its row.  Two things
    are followed across threads: a client-side ``send`` descends into the
    server-side ``handle`` it caused (the rest of the send is the
    gateway's), and a gap on the host-loop thread — it is waiting for
    ``router_lock`` — is credited to whichever request handlers ran
    meanwhile.  What is left is unattributed.
    """

    def __init__(self, index: SpanIndex, serve_thread: int) -> None:
        self.index = index
        self.serve_thread = serve_thread
        handles = index.top_handles
        self._handles_by_key: Dict[Tuple[object, object], List[Span]] = defaultdict(list)
        for span in handles:
            self._handles_by_key[(span.attrs.get("op"), span.attrs.get("rid"))].append(span)
        self._handles = handles
        self._handle_starts = [s.start for s in handles]

    def linked_handles(self, send: Span) -> List[Span]:
        """Top-level handle spans caused by one ``send`` / ``send_many``."""
        if send.name == "api.gateway.send_many":
            first = bisect.bisect_left(self._handle_starts, send.start)
            last = bisect.bisect_left(self._handle_starts, send.end)
            return [
                s for s in self._handles[first:last]
                if s.attrs.get("op") == send.attrs.get("op") and s.thread != send.thread
            ][: int(send.attrs.get("n", 0))]
        key = (send.attrs.get("op"), send.attrs.get("rid"))
        for span in self._handles_by_key.get(key, ()):
            if send.start <= span.start and span.end <= send.end + 1e-3:
                return [span]
        return []

    def attribute(self, thread: int, start: float, end: float, out: Dict[str, float]) -> None:
        if end <= start:
            return
        cursor = start
        for span in self.index.tops_overlapping(thread, start, end):
            if span.start > cursor:
                self._gap(thread, cursor, min(span.start, end), out)
            self._span(span, max(span.start, start), min(span.end, end), out)
            cursor = max(cursor, min(span.end, end))
        if cursor < end:
            self._gap(thread, cursor, end, out)

    def _gap(self, thread: int, start: float, end: float, out: Dict[str, float]) -> None:
        if thread != self.serve_thread:
            out[UNATTRIBUTED] += end - start
            return
        # The host loop is between spans: it waits for router_lock, which a
        # request handler holds.  Credit the handlers that ran meanwhile.
        cursor = start
        first = max(0, bisect.bisect_left(self._handle_starts, start) - 8)
        for span in self._handles[first:]:
            if span.start >= end:
                break
            if (
                span.end <= cursor
                or span.thread == self.serve_thread
                or span.attrs.get("lock_free")  # cannot be holding router_lock
            ):
                continue
            if span.start > cursor:
                out[UNATTRIBUTED] += span.start - cursor
            self._span(span, max(span.start, cursor), min(span.end, end), out)
            cursor = min(span.end, end)
        if cursor < end:
            out[UNATTRIBUTED] += end - cursor

    def _span(self, span: Span, start: float, end: float, out: Dict[str, float]) -> None:
        """Credit ``span`` clipped to ``[start, end]``, children first."""
        if end <= start:
            return
        # An fsync belongs to whoever asked for it (journal, snapshot, outbox).
        owner = self.index.by_id.get(span.parent, span) if span.name == "os.fsync" else span
        row = row_of(owner)
        inner = list(self.index.children[span.sid])
        if span.name in ("api.gateway.send", "api.gateway.send_many"):
            inner = self.linked_handles(span)
        cursor = start
        for child in sorted(inner, key=lambda s: s.start):
            child_start, child_end = max(child.start, cursor), min(child.end, end)
            if child_end <= child_start:
                continue
            out[row] += child_start - cursor
            self._span(child, child_start, child_end, out)
            cursor = child_end
        out[row] += max(0.0, end - cursor)


# -- per-layer metrics ------------------------------------------------------------


@dataclass
class TracedRun:
    window: Tuple[float, float]
    settles: List[Tuple[int, float, float, int]]
    jobs: int
    shards: int
    serve_thread: int
    tracer: Tracer
    recover_replay_ms: float = 0.0
    recovered_jobs: int = 0
    state_journal_bytes: int = 0
    snapshot_bytes: int = 0
    problems: List[str] = field(default_factory=list)


def codec_and_wire(envelopes: List[Tuple[dict, dict]]) -> Tuple[float, float]:
    """(µs per envelope through from_wire/to_wire, wire bytes per request)."""
    from repro.api.schemas import ApiRequest, ApiResponse

    if not envelopes:
        return 0.0, 0.0
    pairs = copy.deepcopy(envelopes)
    started = time.perf_counter()
    for request, response in pairs:
        ApiRequest.from_wire(request).to_wire()
        ApiResponse.from_wire(response).to_wire()
    codec_us = (time.perf_counter() - started) * 1e6 / (2 * len(pairs))
    wire = mean(
        [len(json.dumps(req)) + len(json.dumps(resp)) + 2 for req, resp in envelopes]
    )
    return codec_us, wire


def _p50_ms(spans: List[Span]) -> float:
    return median([s.duration for s in spans]) * 1000.0 if spans else 0.0


def layer_metrics(run: TracedRun, index: SpanIndex) -> Dict[str, float]:
    """Every per-layer *time* (and the counts only spans can give)."""
    window = run.window
    jobs = max(1, run.jobs)
    length = window[1] - window[0]

    def named(name: str) -> List[Span]:
        return index.named(name, window)

    def total_ms(spans: List[Span]) -> float:
        return sum(s.duration for s in spans) * 1000.0

    def self_ms(spans: List[Span]) -> float:
        return sum(index.self_time(s) for s in spans) * 1000.0

    out: Dict[str, float] = {}

    # -- the host loop -------------------------------------------------------
    rpj = [s for s in named("accessserver.server.run_pending_jobs") if s.thread == run.serve_thread]
    run_for = [s for s in named("simulation.run_for") if s.thread == run.serve_thread]
    payloads = named("accessserver.executor.run_payload")
    ticks = len(rpj) // run.shards
    busy, idle, jobs_in_busy_ticks = [], [], []
    payload_starts = sorted(s.start for s in payloads)
    for tick in range(ticks):
        # one tick = one run_queue + run_for pair per shard
        first = rpj[tick * run.shards]
        last_index = (tick + 1) * run.shards - 1
        last = run_for[last_index] if last_index < len(run_for) else rpj[last_index]
        busy.append(last.end - first.start)
        if tick + 1 < ticks:
            idle.append(rpj[(tick + 1) * run.shards].start - last.end)
        ran = bisect.bisect_right(payload_starts, last.end) - bisect.bisect_left(
            payload_starts, first.start
        )
        if ran:
            jobs_in_busy_ticks.append(ran)
    top_handles = within(index.top_handles, window)
    submit_end = {
        s.attrs["job"]: s.end for s in top_handles if s.attrs.get("job") is not None
    }
    rpj_starts = [s.start for s in rpj]
    queue_waits = []
    for payload in payloads:
        acked = submit_end.get(payload.attrs.get("job"))
        if acked is None:
            continue
        tick_start = rpj[max(0, bisect.bisect_right(rpj_starts, payload.start) - 1)].start
        queue_waits.append(max(0.0, tick_start - acked))
    out["cli.serve.ticks"] = float(ticks)
    out["cli.serve.tick_busy_ms_p50"] = median(busy) * 1000.0 if busy else 0.0
    out["cli.serve.tick_idle_ms_p50"] = median(idle) * 1000.0 if idle else 0.0
    out["cli.serve.jobs_per_tick_mean"] = mean(jobs_in_busy_ticks)
    out["cli.serve.queue_wait_ms_p50"] = median(queue_waits) * 1000.0 if queue_waits else 0.0
    out["cli.serve.lock_held_share"] = ratio(
        sum(s.duration for s in rpj) + sum(s.duration for s in run_for), length
    )
    out["simulation.run_for_ms_per_tick"] = ratio(total_ms(run_for), ticks)

    # -- client, gateway, router ---------------------------------------------
    client_spans = index.prefixed("api.client.", window)
    out["api.client.calls"] = float(len(client_spans))
    out["api.client.self_ms_per_op"] = ratio(self_ms(client_spans), len(client_spans))
    sends = named("api.gateway.send") + named("api.gateway.send_many")
    out["api.gateway.self_ms_per_op"] = ratio(
        total_ms(sends) - total_ms(top_handles), len(top_handles)
    )
    out["api.gateway.push_frames"] = float(
        sum(1 for name, at, _ in run.tracer.marks if name == "push" and window[0] <= at <= window[1])
    )
    codec_us, wire_bytes = codec_and_wire(run.tracer.envelopes)
    out["api.gateway.wire_bytes_per_op"] = wire_bytes
    out["api.schemas.codec_us_per_envelope"] = codec_us
    router_handles = named("api.router.handle")
    # A parked agent.poll's self time is a wait, not routing work.
    working = [s for s in router_handles if s.attrs.get("op") != "agent.poll"]
    out["api.router.self_ms_per_op"] = ratio(self_ms(working), len(working))
    for op, key in (
        ("job.submit", "submit"), ("job.status", "status"), ("job.list", "list"),
        ("analytics.report", "report"), ("job.watch", "watch"),
    ):
        out[f"api.router.{key}_ms_p50"] = _p50_ms(
            [s for s in router_handles if s.attrs.get("op") == op]
        )

    # -- access server, dispatch, executor -------------------------------------
    out["accessserver.server.submit_ms_per_job"] = ratio(
        total_ms(named("accessserver.server.submit_job")), jobs
    )
    out["accessserver.server.admit_settle_ms_per_job"] = ratio(self_ms(rpj), jobs)
    out["accessserver.server.status_ms_p50"] = _p50_ms(named("accessserver.server.status"))
    decisions = named("accessserver.dispatch.dispatch_batch")
    out["accessserver.dispatch.decision_ms_per_job"] = ratio(total_ms(decisions), jobs)
    out["accessserver.dispatch.queue_depth_max"] = float(
        max((s.attrs.get("depth", 0) for s in decisions), default=0)
    )
    out["accessserver.executor.run_ms_per_job"] = ratio(total_ms(payloads), jobs)

    # -- persistence, analytics, obs ---------------------------------------------
    appends = named("accessserver.persistence.append")
    out["accessserver.persistence.append_ms_per_job"] = ratio(total_ms(appends), jobs)
    fsyncs = [
        s for s in named("os.fsync") if index.ancestor_named(s, "accessserver.persistence.")
    ]
    out["accessserver.persistence.fsync_ms_per_job"] = ratio(total_ms(fsyncs), jobs)
    checkpoints = named("accessserver.persistence.checkpoint")
    out["accessserver.persistence.checkpoints"] = float(len(checkpoints))
    out["accessserver.persistence.checkpoint_ms_total"] = total_ms(checkpoints)
    out["accessserver.persistence.checkpoint_ms_max"] = (
        max((s.duration for s in checkpoints), default=0.0) * 1000.0
    )
    # Every byte journaled since bring-up (truncated at checkpoints + what is
    # left), over every job settled since bring-up: set-up jobs on both sides.
    truncated = sum(
        int(s.attrs.get("bytes", 0))
        for s in index.named("accessserver.persistence.reset_journal")
    )
    out["accessserver.persistence.journal_bytes_per_job"] = ratio(
        truncated + run.state_journal_bytes, run.recovered_jobs
    )
    out["accessserver.persistence.snapshot_bytes"] = float(run.snapshot_bytes)
    out["accessserver.persistence.recover_replay_ms"] = run.recover_replay_ms
    out["accessserver.persistence.recovered_jobs"] = float(run.recovered_jobs)
    folds = named("analytics.fold")
    out["analytics.fold_us_per_record"] = ratio(total_ms(folds) * 1000.0, len(folds))
    out["analytics.report_ms_p50"] = _p50_ms(named("analytics.report"))
    out["obs.scrape_ms_p50"] = _p50_ms(index.named("obs.snapshot"))

    # -- federation ----------------------------------------------------------------
    fed = named("federation.router.handle")
    scatter_ops = ("fleet.list", "server.status", "job.list", "analytics.report")
    scatters = [s for s in fed if s.attrs.get("op") in scatter_ops]
    routed = [s for s in fed if s.attrs.get("op") in ("job.status", "job.results")]
    fed_ids = {s.sid for s in fed}
    legs = [s for s in router_handles if s.parent in fed_ids]
    merges = index.prefixed("federation.merge.", window)
    out["federation.router.passthrough_self_ms_p50"] = (
        median([index.self_time(s) for s in routed]) * 1000.0 if routed else 0.0
    )
    out["federation.router.scatter_self_ms_p50"] = (
        median([index.self_time(s) for s in scatters]) * 1000.0 if scatters else 0.0
    )
    out["federation.router.shard_leg_ms_p50"] = _p50_ms(legs)
    scatter_ids = {s.sid for s in scatters}
    out["federation.router.fanout_mean"] = ratio(
        sum(1 for s in legs if s.parent in scatter_ids), len(scatters)
    )
    out["federation.merge.merge_ms_per_scatter"] = ratio(total_ms(merges), len(scatters))

    # -- agent plane -----------------------------------------------------------------
    out["accessserver.agents.offers_ms_p50"] = _p50_ms(named("accessserver.agents.offers"))
    out["accessserver.agents.claim_ms_p50"] = _p50_ms(named("accessserver.agents.claim"))
    out["accessserver.agents.report_ms_p50"] = _p50_ms(named("accessserver.agents.report"))
    cycles = [s for s in named("agent.daemon.run_once") if s.attrs.get("job") is not None]
    out["agent.daemon.cycle_ms_p50"] = _p50_ms(cycles)
    wakes = []
    for offer in named("accessserver.agents.offers"):
        for job in offer.attrs.get("jobs", ()):
            if job in submit_end and offer.end >= submit_end[job]:
                wakes.append(offer.end - submit_end.pop(job))
    out["agent.daemon.poll_wake_ms_p50"] = median(wakes) * 1000.0 if wakes else 0.0
    agent_threads = {s.thread for s in cycles}
    agent_sends = [s for s in named("api.gateway.send") if s.thread in agent_threads]
    out["agent.daemon.requests_per_job"] = ratio(len(agent_sends), len(cycles))
    outbox = named("agent.outbox.append")
    out["agent.outbox.appends_per_job"] = ratio(len(outbox), len(cycles))
    out["agent.outbox.append_ms_per_job"] = ratio(total_ms(outbox), len(cycles))
    out["agent.outbox.fsyncs_per_job"] = ratio(
        sum(1 for s in named("os.fsync") if index.ancestor_named(s, "agent.outbox.")),
        len(cycles),
    )
    out["agent.connectors.phase_ms_per_job"] = ratio(
        total_ms(named("agent.connectors.run_phase")), len(cycles)
    )
    return out


# -- layer tables -------------------------------------------------------------------


def settle_path_table(run: TracedRun, index: SpanIndex) -> Tuple[Dict[str, float], float, int]:
    """Mean blocking-path decomposition of the settles around the median.

    Returns (row -> seconds, mean settle seconds, samples).  The samples
    are the settles between the 40th and 60th percentile, so their mean is
    the traced ``settle_p50`` and the rows add up to it exactly.
    """
    analysis = PathAnalysis(index, run.serve_thread)
    durations = [ended - sent for _job, sent, ended, _n in run.settles]
    if not durations:
        return {}, 0.0, 0
    low, high = percentile(durations, 40), percentile(durations, 60)
    chosen = [s for s in run.settles if low <= s[2] - s[1] <= high]

    submits = {s.attrs["job"]: s for s in index.top_handles if s.attrs.get("job") is not None}
    pushed = {
        attrs["end_of"]: at for name, at, attrs in run.tracer.marks
        if name == "push" and attrs.get("end_of") is not None
    }
    received = {
        s.attrs["end_of"]: s for s in index.by_name.get("api.gateway.recv_push", ())
        if s.attrs.get("end_of") is not None
    }
    # The thread that settled each job: the host loop's (it ran the payload)
    # or the agent's (its run_once cycle returned the job).
    settled_on = {
        s.attrs.get("job"): s.thread
        for name in ("accessserver.executor.run_payload", "agent.daemon.run_once")
        for s in index.by_name.get(name, ())
    }
    client_submits = {
        s.attrs["job"]: s for s in index.spans
        if s.name.startswith("api.client.") and s.attrs.get("job") is not None
    }

    totals: Dict[str, float] = defaultdict(float)
    used = 0
    for job, sent, ended, _count in chosen:
        submit = submits.get(job)
        push_at = pushed.get(job)
        recv = received.get(job)
        client_span = client_submits.get(job)
        if submit is None or push_at is None or recv is None or client_span is None:
            totals[UNATTRIBUTED] += ended - sent
            used += 1
            continue
        sends = [
            s for s in index.children[client_span.sid] if s.name.startswith("api.gateway.send")
        ]
        send_start = sends[0].start if sends else client_span.start
        rows: Dict[str, float] = defaultdict(float)
        rows["api.client"] += send_start - sent
        # request in: the connection's worker thread up to the submit's ack
        analysis.attribute(submit.thread, send_start, submit.end, rows)
        # A worker-thread gap before the handler is the gateway (parse, hand-off,
        # waiting for router_lock), not unknown time.
        rows["api.gateway"] += rows.pop(UNATTRIBUTED, 0.0)
        # queued → dispatched → settled: the thread that did the settling
        analysis.attribute(settled_on.get(job, run.serve_thread), submit.end, push_at, rows)
        # push out: a frame that arrived before the client began waiting for
        # it (campaign: busy sending the next batch) was not held up by the
        # gateway.
        waiter = index.by_id.get(recv.parent)
        reading_from = max(push_at, waiter.start if waiter is not None else push_at)
        rows[CLIENT_BUSY] += reading_from - push_at
        rows["api.gateway"] += max(0.0, recv.end - reading_from)
        rows["api.client"] += max(0.0, ended - max(recv.end, push_at))
        for row, seconds in rows.items():
            totals[row] += seconds
        used += 1
    if not used:
        return {}, 0.0, 0
    return (
        {row: seconds / used for row, seconds in totals.items()},
        mean([s[2] - s[1] for s in chosen]),
        used,
    )


def host_loop_table(run: TracedRun, index: SpanIndex) -> Dict[str, float]:
    """Where the host-loop thread's time went over the whole window."""
    analysis = PathAnalysis(index, run.serve_thread)
    rows: Dict[str, float] = defaultdict(float)
    analysis.attribute(run.serve_thread, run.window[0], run.window[1], rows)
    return dict(rows)


def layer_table(title: str, rows: Dict[str, float], total: float, scale: float, unit: str) -> str:
    """Rows largest first, each with its share of ``total``, then the total."""
    ordered = sorted(rows.items(), key=lambda item: -item[1]) + [("total", total)]
    return format_table(
        [
            {"row": row, unit: f"{value * scale:.3f}", "share": f"{ratio(value, total):.1%}"}
            for row, value in ordered
        ],
        title=title,
    )


# -- running it ---------------------------------------------------------------------


class _Capture(io.TextIOBase):
    """Stand-in ``sys.stdout`` that looks for the CLI's serving line."""

    def __init__(self) -> None:
        self.text = ""
        self.port: Optional[int] = None
        self.serving = threading.Event()
        self._lock = threading.Lock()

    def writable(self) -> bool:
        return True

    def write(self, data: str) -> int:
        with self._lock:
            self.text += data
            if self.port is None:
                match = _SERVING.search(self.text)
                if match:
                    self.port = int(match.group(2))
                    self.serving.set()
        return len(data)


def run_traced(workload, seed: int, cert_dir: str, sandbox, spans_path: str) -> Tuple[TracedRun, SpanIndex]:
    """Run ``workload`` once in this process with every wrapper installed.

    Must be called on the main thread: the CLI's serve loop runs here and
    is stopped the way an operator stops it, with an interrupt.
    """
    import repro.cli
    from repro.accessserver.certificates import client_tls_context, ensure_tls_material

    import e2e_harness as harness
    from e2e_workloads import Recorder, measure

    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    capture = _Capture()
    state_dir = sandbox.new_dir("traced-state")
    outbox = os.path.join(sandbox.new_dir("traced-agent"), "outbox.jsonl")
    tls_context = client_tls_context(ensure_tls_material(cert_dir))
    result: Dict[str, object] = {}
    failures: List[BaseException] = []
    agent_thread: Optional[threading.Thread] = None

    def drive() -> None:
        nonlocal agent_thread
        try:
            if not capture.serving.wait(60.0):
                raise RuntimeError("the in-process platform never printed its address")
            port = capture.port
            if workload.agent:
                agent_thread = threading.Thread(
                    target=repro.cli.main,
                    args=(harness.agent_args(workload, port, cert_dir, outbox),),
                    name="traced-agent",
                    daemon=True,
                )
                agent_thread.start()
            clients, setup_rec, lanes = harness.prepare(workload, port, tls_context)
            recorders = [Recorder(tracer=tracer) for _ in clients]
            clients[0].obs_metrics()
            measure(workload, clients, recorders, seed, lanes, lambda: None, lambda: None)
            harness.quiesce(clients[0])
            clients[0].obs_metrics()
            expected = len(setup_rec.job_ids) + workload.jobs
            totals = harness.job_totals(clients[0])
            problems = [error for rec in recorders + [setup_rec] for error in rec.errors[:3]]
            if totals["completed"] != expected or totals["all"] != expected:
                problems.append(f"traced run: job.list totals {totals} != {expected}")
            result["settles"] = [s for rec in recorders for s in rec.settles]
            result["problems"] = problems
            for client in clients:
                client.close()
        except BaseException as exc:
            failures.append(exc)
        finally:
            instrumentation.agent_stop.set()
            if agent_thread is not None:
                agent_thread.join(timeout=10.0)
            _thread.interrupt_main()

    driver = threading.Thread(target=drive, name="traced-driver", daemon=True)
    real_stdout = sys.stdout
    instrumentation.install()
    sys.stdout = capture
    serve_thread = threading.get_ident()
    try:
        driver.start()
        try:
            repro.cli.main(harness.platform_args(workload, state_dir, cert_dir))
        except KeyboardInterrupt:
            pass  # landed after the CLI's own handler had returned
        try:
            driver.join(timeout=30.0)
        except KeyboardInterrupt:
            driver.join(timeout=30.0)
    finally:
        sys.stdout = real_stdout
        instrumentation.restore()
    if failures:
        raise failures[0]
    if "settles" not in result:
        raise RuntimeError("the traced platform stopped before the workload finished")

    settles = result["settles"]
    window = (min(s[1] for s in settles), max(s[2] for s in settles))
    shards = harness.FED_SHARDS if workload.platform == "federate" else 1
    run = TracedRun(
        window=window,
        settles=settles,
        jobs=workload.jobs,
        shards=shards,
        serve_thread=serve_thread,
        tracer=tracer,
        problems=list(result["problems"]),
    )
    _measure_state_and_recovery(run, workload, state_dir)
    tracer.dump(spans_path)
    return run, SpanIndex(tracer.spans)


def _measure_state_and_recovery(run: TracedRun, workload, state_dir: str) -> None:
    """Journal/snapshot sizes, and one timed ``recover_into`` per state dir."""
    from repro.accessserver.persistence import FileBackend, recover_into
    from repro.core.platform import build_default_platform
    from repro.federation import build_shard

    if workload.platform == "federate":
        dirs = [
            (os.path.join(state_dir, f"shard-{k}"), k) for k in range(run.shards)
        ]
    else:
        dirs = [(state_dir, None)]
    for path, lane in dirs:
        backend = FileBackend(path)
        if backend.journal_path.exists():
            run.state_journal_bytes += backend.journal_path.stat().st_size
        if backend.snapshot_path.exists():
            run.snapshot_bytes += backend.snapshot_path.stat().st_size
        if lane is None:
            server = build_default_platform(
                browsers=("chrome",), state_dir=None, analytics=False
            ).access_server
        else:
            server = build_shard(
                f"shard-{lane}", lane, run.shards, state_dir=None, analytics=False
            ).server
        started = time.perf_counter()
        report = recover_into(server, backend)
        run.recover_replay_ms += (time.perf_counter() - started) * 1000.0
        run.recovered_jobs += report.jobs_restored
        backend.close()
