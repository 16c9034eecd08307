"""Job-lifecycle tracing: trace/span IDs minted at the API boundary.

A *trace* follows one request (and, for ``job.submit``, the job it creates)
through every layer: the gateway reads a line, the router handles the op,
the access server admits the job onto a device, the wave executor runs the
payload, and the settle phase writes the outcome.  Each phase records a
:class:`Span`; all spans of one trace share a ``trace_id`` minted (or
accepted from the client) where the request enters the system.

Design constraints inherited from the platform:

* **Determinism.**  The parallel wave executor promises byte-identical
  journals and bus streams versus serial execution.  Spans for the ``run``
  phase are therefore *measured* on worker threads (plain floats captured
  by the executor) but *recorded* — IDs minted, bus record published — in
  the settle phase on the server thread, in assignment order.  Nothing
  about tracing depends on worker interleaving.
* **The journal stays trace-free.**  Finished spans are published on the
  event bus under the ``trace.span`` topic, which streams through the
  existing ``events.subscribe`` op but is not in
  ``DISPATCH_TOPIC_KINDS``, so persistence never journals it and replay
  determinism is untouched.
* **Bounded memory.**  Finished traces are retained in an insertion-order
  dict capped at ``max_traces``; the oldest trace is evicted whole.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.simulation.clock import SimClock
from repro.simulation.events import EventBus

__all__ = ["SPAN_TOPIC", "Span", "Tracer"]

#: Bus topic finished spans are published under; subscribe with
#: ``topic_prefix="trace."`` over the streaming API to follow live traces.
SPAN_TOPIC = "trace.span"


@dataclass(slots=True)
class Span:
    """One recorded phase of a trace.

    ``start``/``end`` are simulated-clock timestamps (aligned with journal
    and bus records); ``elapsed_s`` is real ``time.perf_counter()`` seconds,
    because wall latency is what the span is for.
    """

    trace_id: str
    span_id: str
    name: str
    start: float
    parent_id: Optional[str] = None
    end: Optional[float] = None
    elapsed_s: Optional[float] = None
    status: str = "ok"
    attrs: Dict[str, object] = field(default_factory=dict)
    _t0: Optional[float] = field(default=None, repr=False, compare=False)

    def to_record(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "elapsed_s": self.elapsed_s if self.elapsed_s is not None else 0.0,
            "status": self.status,
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


class _NullSpan:
    """Returned by a disabled tracer so hot paths never branch twice."""

    __slots__ = ()
    trace_id = ""
    span_id = ""
    attrs: Dict[str, object] = {}


_NULL_SPAN = _NullSpan()


class Tracer:
    """Mints trace/span IDs and retains finished spans per trace.

    Thread-safety: ID minting and span recording take a small internal
    lock.  By construction (see module docstring) recording happens on the
    server/loop threads in deterministic order; the lock exists for the
    gateway's worker threads, which record request spans concurrently.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        bus: Optional[EventBus] = None,
        max_traces: int = 512,
        enabled: bool = True,
    ) -> None:
        self._clock = clock
        self._bus = bus
        self._max_traces = max_traces
        self.enabled = enabled
        #: Live ``events.subscribe`` streams whose topic prefix matches
        #: ``trace.span`` (maintained by the API router).  Spans are only
        #: published on the bus while someone is listening — the retained
        #: trace store always answers ``obs.trace`` either way, and a bus
        #: publish fans out to every wildcard subscriber (analytics, the
        #: journal dispatcher's filter), which is too expensive to pay per
        #: job phase when nothing downstream wants the record.
        self.stream_interest = 0
        self._lock = threading.Lock()
        self._next_trace = 1
        self._next_span = 1
        self._traces: "OrderedDict[str, List[Span]]" = OrderedDict()
        # job_id -> (trace_id, parent_span_id): which trace a job's lifecycle
        # spans belong to, and the span they hang off (the submit span).
        self._job_traces: "OrderedDict[int, Tuple[str, Optional[str]]]" = OrderedDict()
        # trace_id -> [job_ids]: reverse index so evicting one trace drops
        # its job bindings without scanning every binding (O(queue) scans on
        # the submit path are exactly what this layer must not introduce).
        self._trace_jobs: Dict[str, List[int]] = {}

    # -- ids ------------------------------------------------------------------------
    def new_trace_id(self) -> str:
        with self._lock:
            value = self._next_trace
            self._next_trace += 1
        return f"t{value:08x}"

    def _new_span_id(self) -> str:
        value = self._next_span
        self._next_span += 1
        return f"s{value:06x}"

    # -- span lifecycle ---------------------------------------------------------------
    @property
    def _now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def start_span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attrs: object,
    ):
        """Open a span; returns a no-op sentinel when tracing is disabled."""
        if not self.enabled:
            return _NULL_SPAN
        if trace_id is None:
            trace_id = self.new_trace_id()
        with self._lock:
            span_id = self._new_span_id()
        return Span(
            trace_id=trace_id,
            span_id=span_id,
            name=name,
            start=self._now,
            parent_id=parent_id,
            attrs=attrs,
            _t0=time.perf_counter(),
        )

    def end_span(self, span, status: str = "ok", **attrs: object) -> None:
        """Close ``span``: stamp end/elapsed, retain it, publish ``trace.span``."""
        if span is _NULL_SPAN or not self.enabled:
            return
        span.end = self._now
        if span._t0 is not None:
            span.elapsed_s = time.perf_counter() - span._t0
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self._retain(span)

    def record_span(
        self,
        name: str,
        trace_id: str,
        start: float,
        end: float,
        elapsed_s: float,
        parent_id: Optional[str] = None,
        status: str = "ok",
        **attrs: object,
    ) -> Optional[Span]:
        """Record an already-measured span (used for phases timed on worker
        threads so that IDs and bus order stay deterministic)."""
        if not self.enabled:
            return None
        with self._lock:
            span = Span(
                trace_id=trace_id,
                span_id=self._new_span_id(),
                name=name,
                start=start,
                parent_id=parent_id,
                end=end,
                elapsed_s=elapsed_s,
                status=status,
                attrs=attrs,
            )
            self._retain_locked(span)
        self._publish(span)
        return span

    def begin_job_trace(
        self,
        job_id: int,
        trace_id: Optional[str],
        start: float,
        elapsed_s: float,
        **attrs: object,
    ) -> Optional[str]:
        """Record a ``job.submit`` span and bind ``job_id`` to its trace.

        The submit hot path's fused form of ``new_trace_id`` +
        ``record_span`` + ``bind_job``: one lock acquisition instead of
        three (locks are not free at thousands of jobs per second).  A
        ``trace_id`` carried in from the API boundary is reused; otherwise
        a fresh trace is minted.  ``job_id`` is folded into the span's
        attrs.  Returns the trace ID, or ``None`` when tracing is off.
        """
        if not self.enabled:
            return None
        attrs["job_id"] = job_id
        with self._lock:
            if trace_id is None:
                value = self._next_trace
                self._next_trace += 1
                trace_id = f"t{value:08x}"
            span = Span(
                trace_id=trace_id,
                span_id=self._new_span_id(),
                name="job.submit",
                start=start,
                end=start,
                elapsed_s=elapsed_s,
                attrs=attrs,
            )
            self._retain_locked(span)
            self._job_traces[job_id] = (trace_id, span.span_id)
            self._trace_jobs.setdefault(trace_id, []).append(job_id)
            while len(self._job_traces) > self._max_traces:
                self._evict_job_binding_locked()
        self._publish(span)
        return trace_id

    def record_phases(
        self,
        job_id: int,
        phases: List[Tuple[str, float, float, float, str, Dict[str, object]]],
    ) -> bool:
        """Record several already-measured lifecycle spans of one job's trace
        under a single lock acquisition.

        ``phases`` is a list of ``(name, start, end, elapsed_s, status,
        attrs)`` tuples; every span gets the job's bound trace ID and hangs
        off its submit span.  This is the settle path's fused form of N
        ``record_span`` calls — the settle phase runs once per job per
        wave, so its lock traffic is the telemetry overhead budget's
        biggest line item.  Returns False when the job has no bound trace
        (evicted, or tracing was off at submit).
        """
        if not self.enabled:
            return False
        spans = []
        with self._lock:
            binding = self._job_traces.get(job_id)
            if binding is None:
                return False
            trace_id, parent_id = binding
            for name, start, end, elapsed_s, status, attrs in phases:
                span = Span(
                    trace_id=trace_id,
                    span_id=self._new_span_id(),
                    name=name,
                    start=start,
                    parent_id=parent_id,
                    end=end,
                    elapsed_s=elapsed_s,
                    status=status,
                    attrs=attrs,
                )
                self._retain_locked(span)
                spans.append(span)
        for span in spans:
            self._publish(span)
        return True

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attrs: object,
    ) -> Iterator[object]:
        span = self.start_span(name, trace_id=trace_id, parent_id=parent_id, **attrs)
        try:
            yield span
        except BaseException:
            self.end_span(span, status="error")
            raise
        else:
            self.end_span(span)

    def _retain(self, span: Span) -> None:
        with self._lock:
            self._retain_locked(span)
        self._publish(span)

    def _retain_locked(self, span: Span) -> None:
        spans = self._traces.get(span.trace_id)
        if spans is None:
            spans = []
            self._traces[span.trace_id] = spans
            while len(self._traces) > self._max_traces:
                evicted, _ = self._traces.popitem(last=False)
                # Drop the job bindings with their trace so lookups cannot
                # point at an evicted (empty) trace.
                for job_id in self._trace_jobs.pop(evicted, ()):
                    self._job_traces.pop(job_id, None)
        spans.append(span)

    def _publish(self, span: Span) -> None:
        bus = self._bus
        if bus is None:
            return
        # Only pay the bus fan-out while a trace stream is actually open
        # (router-bridged ``events.subscribe`` with a ``trace.`` prefix) or
        # something subscribed to the topic directly.
        if self.stream_interest > 0 or bus.has_subscribers(SPAN_TOPIC):
            bus.publish(SPAN_TOPIC, **span.to_record())

    # -- job binding ------------------------------------------------------------------
    def bind_job(
        self, job_id: int, trace_id: str, parent_span_id: Optional[str] = None
    ) -> None:
        """Associate ``job_id`` with ``trace_id`` (and optionally the span the
        lifecycle hangs off) so later phases (admit/run/settle) can attach
        their spans to the right trace."""
        if not self.enabled:
            return
        with self._lock:
            self._job_traces[job_id] = (trace_id, parent_span_id)
            self._trace_jobs.setdefault(trace_id, []).append(job_id)
            while len(self._job_traces) > self._max_traces:
                self._evict_job_binding_locked()

    def _evict_job_binding_locked(self) -> None:
        evicted_job, (evicted_trace, _parent) = self._job_traces.popitem(last=False)
        jobs = self._trace_jobs.get(evicted_trace)
        if jobs is not None:
            try:
                jobs.remove(evicted_job)
            except ValueError:
                pass
            if not jobs:
                del self._trace_jobs[evicted_trace]

    def trace_id_for_job(self, job_id: int) -> Optional[str]:
        binding = self._job_traces.get(job_id)
        return binding[0] if binding is not None else None

    def parent_span_for_job(self, job_id: int) -> Optional[str]:
        binding = self._job_traces.get(job_id)
        return binding[1] if binding is not None else None

    # -- retrieval --------------------------------------------------------------------
    def trace(self, trace_id: str) -> List[Span]:
        """Finished spans of one trace, in recording order."""
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    @property
    def max_traces(self) -> int:
        return self._max_traces

    def trace_ids(self) -> List[str]:
        """Retained trace IDs, oldest first."""
        return list(self._traces)

    def span_count(self) -> int:
        with self._lock:
            return sum(len(spans) for spans in self._traces.values())
