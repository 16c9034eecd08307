"""Job-lifecycle tracing: trace/span IDs minted at the API boundary.

A *trace* follows one request (and, for ``job.submit``, the job it creates)
through every layer: the gateway reads a line, the router handles the op,
the access server admits the job onto a device, runs the payload, and the
settle phase writes the outcome.  Each phase is a :class:`Span`; all spans
of one trace share a ``trace_id`` minted (or accepted from the client)
where the request enters the system.

Design constraints inherited from the platform:

* **One record per request and per job.**  Tracing is default-on, so what
  it keeps must cost less than the work it watches.  A finished request is
  one tuple in its trace — its ``gateway.request`` and ``router.<op>``
  spans and, when it created a job, that job's ``job.submit`` span — and a
  settled job is one more (``job.admit`` / ``job.run`` / ``job.settle``):
  the row the dispatch pass built for it, kept as it stands in one bounded
  deque and matched to its trace when the trace is read.  A record holds
  ints, floats and shared strings.  A request's record takes one block of
  span numbers (:data:`_BLOCK`), so it stores one int; a job's phase spans
  are numbered by its job ID.  Span IDs are formatted on read.
* **Spans are built when read.**  :meth:`Tracer.trace` (``obs.trace``) and
  a live ``trace.span`` subscriber turn records into :class:`Span` objects;
  nothing else builds one.
* **Determinism.**  A job's ``admit`` / ``run`` / ``settle`` phases are
  *measured* where they run and *recorded* by the dispatch pass, one
  record per job in assignment order, once the pass ends (an agent-run
  job's when its report settles it).
* **The journal stays trace-free.**  Spans are published on the event bus
  under the ``trace.span`` topic, which streams through the existing
  ``events.subscribe`` op; the journal never reads the bus, so replay
  determinism is untouched.
* **Bounded memory.**  Traces are retained oldest-first, capped at
  ``max_traces``; the oldest trace is evicted whole, with the job bindings
  that point at it.  Job bindings are capped the same way, and lifecycle
  rows at twice that.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.simulation.clock import SimClock
from repro.simulation.events import EventBus

__all__ = ["AGENT_PHASES", "LifecycleRow", "PUSH_PHASES", "Phases", "SPAN_TOPIC", "Span", "Tracer"]

#: Bus topic finished spans are published under; subscribe with
#: ``topic_prefix="trace."`` over the streaming API to follow live traces.
SPAN_TOPIC = "trace.span"

#: Span numbers per request record: its submit, router and gateway spans are
#: numbers ``3k``, ``3k + 1`` and ``3k + 2`` of its block ``k``.
_BLOCK = 3


class _NoClock:
    now = 0.0


_NO_CLOCK = _NoClock()


_trace_id = "t{:08x}".format


def _span_id(number: int) -> str:
    return f"s{number:06x}"


def _phase_span_id(job_id: int, index: int) -> str:
    """Phase ``index`` of job ``job_id``'s lifecycle (a job settles once)."""
    return f"j{job_id:06x}.{index}"


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


# -- records ------------------------------------------------------------------------
# A stored record is a tuple: its reader ``(trace, record) -> [Span]``, then
# the job it names (``None`` if none), then the reader's own fields.  A
# ``status_after`` may be a str-valued enum member (the caller's status,
# stored as it is); a span carries its plain ``str`` value.


class _Trace(list):
    """One retained trace: its records, in recording order, and
    ``trace_id``."""

    __slots__ = ("trace_id",)


def _status_value(status: object) -> str:
    return getattr(status, "value", status)


def _parent_of(trace: _Trace, job_id: int) -> Optional[str]:
    """The span ``job_id``'s lifecycle hangs off: the submit span of the
    first record in ``trace`` that names the job."""
    for record in trace:
        if record[1] == job_id and record[0] is _read_request:
            return _span_id(_BLOCK * record[3])
    return None


# Span's fields in order: trace_id, span_id, name, start, parent_id, end,
# elapsed_s, status, attrs.


def _submit_span(trace_id, block, job_id, start, elapsed_s, status_after) -> Span:
    span_id = _span_id(_BLOCK * block)
    attrs = {"status_after": _status_value(status_after), "job_id": job_id}
    return Span(trace_id, span_id, "job.submit", start, None, start, elapsed_s, "ok", attrs)


def _op_span(trace_id, number, name, op, start, end, elapsed_s, status) -> Span:
    return Span(trace_id, _span_id(number), name, start, None, end, elapsed_s, status, {"op": op})


def _read_request(trace: _Trace, record: tuple) -> List[Span]:
    """``(reader, job_id, op, block, submit_start, submit_elapsed, status_after,
    router_start, router_end, router_elapsed, router_status, gateway_start,
    gateway_end, gateway_elapsed, gateway_status)``: a part whose status
    (``status_after`` for the submit) is ``None`` was not recorded."""
    (
        _, job_id, op, block, submit_start, submit_elapsed, status_after,
        router_start, router_end, router_elapsed, router_status,
        gateway_start, gateway_end, gateway_elapsed, gateway_status,
    ) = record
    trace_id = trace.trace_id
    spans = []
    if status_after is not None:
        spans.append(
            _submit_span(trace_id, block, job_id, submit_start, submit_elapsed, status_after)
        )
    number = _BLOCK * block
    if router_status is not None:
        spans.append(_op_span(
            trace_id, number + 1, "router." + op, op,
            router_start, router_end, router_elapsed, router_status,
        ))
    if gateway_status is not None:
        spans.append(_op_span(
            trace_id, number + 2, "gateway.request", op,
            gateway_start, gateway_end, gateway_elapsed, gateway_status,
        ))
    return spans


class Phases:
    """How a settled job's record reads back as its three phase spans.

    ``names`` are the spans' names; the first span carries the record's two
    values under ``first_attrs``, and the run span carries the first value
    too, under ``run_attr``, when that is set.  Every span carries
    ``job_id`` and hangs off the job's submit span; the last also carries
    ``status_after``.
    """

    __slots__ = ("names", "first_attrs", "run_attr")

    def __init__(
        self,
        names: Tuple[str, str, str],
        first_attrs: Tuple[str, str],
        run_attr: Optional[str] = None,
    ) -> None:
        self.names = names
        self.first_attrs = first_attrs
        self.run_attr = run_attr

    def __call__(self, trace: _Trace, record: tuple) -> List[Span]:
        """The spans of a :data:`LifecycleRow`."""
        (
            _, job_id, start, end, first_s, run_s, last_s,
            failed, first_value, second_value, status_after,
        ) = record
        trace_id = trace.trace_id
        parent_id = _parent_of(trace, job_id)
        first_name, run_name, last_name = self.names
        first_key, second_key = self.first_attrs
        run_attrs: Dict[str, object] = {"job_id": job_id}
        if self.run_attr is not None:
            run_attrs[self.run_attr] = first_value
        first_id, run_id, last_id = (_phase_span_id(job_id, index) for index in range(3))
        return [
            Span(trace_id, first_id, first_name, start, parent_id, start, first_s, "ok",
                 {"job_id": job_id, first_key: first_value, second_key: second_value}),
            Span(trace_id, run_id, run_name, start, parent_id, end, run_s,
                 "error" if failed else "ok", run_attrs),
            Span(trace_id, last_id, last_name, end, parent_id, end, last_s, "ok",
                 {"job_id": job_id, "status_after": _status_value(status_after)}),
        ]


#: A pushed job's dispatch pass: admitted on a device, run, settled.
PUSH_PHASES = Phases(("job.admit", "job.run", "job.settle"), ("vantage_point", "device"))
#: An agent-pulled job: claimed by an agent, run there, reported back.
AGENT_PHASES = Phases(
    ("agent.claim", "agent.run", "agent.report"), ("agent", "devices"), run_attr="agent"
)

#: One settled job, as :meth:`Tracer.record_lifecycles` takes and stores it:
#: ``(phases, job_id, start, end, first_elapsed_s, run_elapsed_s,
#: last_elapsed_s, failed, first_value, second_value, status_after)``.
#: ``phases`` (a :class:`Phases`) names the spans: the first at ``start``,
#: the run from ``start`` to ``end`` (status ``error`` when ``failed``), the
#: last at ``end``.
LifecycleRow = Tuple[
    "Phases", int, float, float, float, float, float, bool, object, object, object
]


class _Request:
    """One request in flight.  Its end stores one record or, when it is the
    router inside a gateway request, fills in that request's router part.

    ``block`` numbers its spans; ``start`` is simulated time and ``t0`` is
    ``perf_counter``; ``gateway`` marks a ``gateway.request``; ``outer`` is
    the gateway request it is the router part of; ``router`` is ``(start,
    end, elapsed_s, status)`` once a nested router part ended; ``submit``
    is ``(job_id, start, elapsed_s, status_after)`` and ``trace`` the
    retained trace once the request created a job.
    """

    __slots__ = (
        "trace_id", "op", "block", "start", "t0", "gateway", "outer", "router", "submit", "trace",
    )


_NO_PART = (None, None, None, None)


class Tracer:
    """Mints trace/span IDs and retains one record per request and per job.

    Thread-safety: trace and span numbers come from ``itertools.count``
    (atomic under the GIL), and creating a trace or binding a job takes a
    small internal lock, so the one dispatch thread, the host loop and an
    in-process caller may record concurrently.  A record is appended to its
    trace without the lock (a list append is atomic); a trace evicted just
    before takes the record with it, as eviction just after would.

    Requests in flight are found by trace ID, so a router request nested in
    a gateway request joins its record.  Two requests in flight at once
    under one client-supplied trace ID share that entry: the later one's
    spans are still recorded, but may join the earlier one's record.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        bus: Optional[EventBus] = None,
        max_traces: int = 512,
        enabled: bool = True,
    ) -> None:
        self._clock = clock if clock is not None else _NO_CLOCK
        self._bus = bus
        self._max_traces = max_traces
        self.enabled = enabled
        #: Live ``events.subscribe`` streams whose topic prefix matches
        #: ``trace.span`` (maintained by the API router).  Spans are only
        #: built and published on the bus while someone is listening — the
        #: retained records answer ``obs.trace`` either way, and building a
        #: span and publishing it is too expensive to pay per job phase when
        #: nothing downstream wants the record.
        self.stream_interest = 0
        # Exact-topic ``trace.span`` subscribers (tests, tools): a live list.
        self._span_subscribers = [] if bus is None else bus.subscribers(SPAN_TOPIC)
        self._lock = threading.Lock()
        self._trace_numbers = itertools.count(1)
        self._blocks = itertools.count(1)
        # trace_id -> its records; the deque holds the same IDs oldest first
        # (a plain dict plus a deque is half an OrderedDict's bytes).
        self._traces: Dict[str, _Trace] = {}
        self._trace_order: Deque[str] = deque()
        # job_id -> the trace its lifecycle belongs to (see _trace_for).
        self._job_traces: Dict[int, _Trace] = {}
        # Settled jobs' lifecycle rows, oldest first.  A row reads as spans
        # of the trace its job is bound to, found when the trace is read,
        # so recording one costs the dispatch pass nothing per job.  Twice
        # ``max_traces`` are kept: rows recorded out of submit order by
        # concurrent callers must not push out those of retained traces.
        self._settled: Deque[LifecycleRow] = deque(maxlen=2 * max_traces)
        # trace_id -> the request in flight that carries it, so the router
        # part and the job.submit part join the gateway's one record.
        self._open: Dict[str, _Request] = {}

    # -- ids ------------------------------------------------------------------------
    def new_trace_id(self) -> str:
        return _trace_id(next(self._trace_numbers))

    def _publish(self, spans: List[Span]) -> None:
        """Publish ``spans``; callers first check that someone listens
        (``stream_interest`` or an exact-topic subscriber)."""
        if self._bus is None:
            return
        for span in spans:
            self._bus.publish(SPAN_TOPIC, **span.to_record())

    def _trace_for(self, trace_id: str, job_id: Optional[int] = None) -> _Trace:
        """The retained trace ``trace_id``, created when new; ``job_id``, when
        given, is bound to it.

        The one place traces are created and jobs bound.  Past
        ``max_traces`` the oldest trace is evicted with the bindings its
        records name, and past the same number of bindings the oldest
        binding is dropped.  A job bound while its submitting request is
        still open is not yet named by a record, so if its trace is evicted
        first the binding stays until it is the oldest;
        :meth:`_live_trace_of` reads it as none.
        """
        with self._lock:
            trace = self._traces.get(trace_id)
            job_traces = self._job_traces
            if trace is None:
                trace = self._traces[trace_id] = _Trace()
                trace.trace_id = trace_id
                order = self._trace_order
                order.append(trace_id)
                if len(order) > self._max_traces:
                    evicted = self._traces.pop(order.popleft())
                    for record in evicted:
                        if job_traces.get(record[1]) is evicted:
                            del job_traces[record[1]]
            if job_id is not None:
                job_traces[job_id] = trace
                if len(job_traces) > self._max_traces:
                    del job_traces[next(iter(job_traces))]
        return trace

    def _live_trace_of(self, job_id: int) -> Optional[_Trace]:
        """The trace ``job_id`` is bound to, if that trace is still retained."""
        trace = self._job_traces.get(job_id)
        if trace is None or self._traces.get(trace.trace_id) is not trace:
            return None
        return trace

    # -- requests ---------------------------------------------------------------------
    def begin_request(
        self, trace_id: Optional[str], op: Optional[str], gateway: bool = False
    ) -> Optional[_Request]:
        """Start timing one request: the gateway's (``gateway=True``,
        ``gateway.request``) or the router's (``router.<op>``).

        A router request inside an open gateway request of the same trace
        becomes that request's router part, so the two spans are stored as
        one record.  Returns ``None`` when tracing is disabled; the caller
        threads ``.trace_id`` (minted here when ``trace_id`` is ``None``)
        through to everything the request does.
        """
        if not self.enabled:
            return None
        if trace_id is None:
            trace_id = _trace_id(next(self._trace_numbers))
        request = _Request()
        outer = self._open.get(trace_id)
        if outer is None or not outer.gateway or gateway or outer.router is not None:
            request.block = next(self._blocks)
            request.outer = None
            if outer is None:
                self._open[trace_id] = request
        else:
            request.block = outer.block
            request.outer = outer
        request.trace_id = trace_id
        request.op = op
        request.gateway = gateway
        request.router = request.submit = request.trace = None
        request.start = self._clock.now
        request.t0 = time.perf_counter()
        return request

    def end_request(self, request: Optional[_Request], ok: bool) -> None:
        """Finish ``request`` (status ``ok`` or ``error``) and store its
        record — or, for a router part, hand its timing to the gateway's."""
        if request is None:
            return
        part = (request.start, self._clock.now, time.perf_counter() - request.t0,
                "ok" if ok else "error")
        trace_id = request.trace_id
        if self.stream_interest or self._span_subscribers:
            number = _BLOCK * request.block
            if request.gateway:
                span = _op_span(trace_id, number + 2, "gateway.request", request.op, *part)
            else:
                span = _op_span(trace_id, number + 1, "router." + request.op, request.op, *part)
            self._publish([span])
        outer = request.outer
        if outer is not None:
            outer.router = part
            outer.op = request.op
            return
        if self._open.get(trace_id) is request:
            del self._open[trace_id]
        if request.gateway:
            router, gateway = request.router or _NO_PART, part
        else:
            router, gateway = part, _NO_PART
        job_id, submit_start, submit_elapsed, status_after = request.submit or _NO_PART
        record = (
            _read_request, job_id, request.op, request.block,
            submit_start, submit_elapsed, status_after, *router, *gateway,
        )
        trace = request.trace
        if trace is None:
            trace = self._trace_for(trace_id)
        trace.append(record)

    # -- jobs -------------------------------------------------------------------------
    def begin_job_trace(
        self,
        job_id: int,
        trace_id: Optional[str],
        start: float,
        elapsed_s: float,
        status_after: object,
    ) -> Optional[str]:
        """Record a ``job.submit`` span and bind ``job_id`` to its trace.

        The job is bound here, before this returns, so its lifecycle can be
        recorded however soon it settles.  Inside an open request of the
        same trace the span joins that request's record, stored when the
        request ends; otherwise (a direct caller) it is a record of its own,
        on a trace minted here when ``trace_id`` is ``None``.  Returns the
        trace ID, or ``None`` when tracing is off.
        """
        if not self.enabled:
            return None
        request = None if trace_id is None else self._open.get(trace_id)
        if trace_id is None:
            trace_id = _trace_id(next(self._trace_numbers))
        trace = self._trace_for(trace_id, job_id)
        if request is not None and request.submit is None:
            block = request.block
            request.submit = (job_id, start, elapsed_s, status_after)
            request.trace = trace
        else:
            block = next(self._blocks)
            trace.append((
                _read_request, job_id, None, block, start, elapsed_s, status_after,
                *_NO_PART, *_NO_PART,
            ))
        if self.stream_interest or self._span_subscribers:
            self._publish([_submit_span(trace_id, block, job_id, start, elapsed_s, status_after)])
        return trace_id

    def record_lifecycles(self, rows: List[LifecycleRow]) -> None:
        """Record settled jobs' phase spans: each :data:`LifecycleRow` is
        kept as it is, as one record, in order.

        A row reads as spans of its job's bound trace, hanging off the
        job's submit span; a job with no bound trace when its trace is read
        (tracing was off at submit, or the binding was dropped) reads as
        none.
        """
        if not self.enabled:
            return
        job_traces = self._job_traces
        # Only a bound job's row can ever be read: a binding is made at
        # submit and never after.
        self._settled.extend(row for row in rows if row[1] in job_traces)
        if self.stream_interest or self._span_subscribers:
            for row in rows:
                trace = job_traces.get(row[1])
                if trace is not None:
                    self._publish(row[0](trace, row))

    def trace_id_for_job(self, job_id: int) -> Optional[str]:
        trace = self._live_trace_of(job_id)
        return trace.trace_id if trace is not None else None

    # -- retrieval --------------------------------------------------------------------
    def trace(self, trace_id: str) -> List[Span]:
        """The spans of one trace, built from its records: its requests' in
        recording order, then its jobs' lifecycles in the order they
        settled."""
        with self._lock:
            trace = self._traces.get(trace_id)
            if trace is None:
                return []
            records = list(trace)
        # A tuple copy of the deque is taken in one C call, so a dispatch
        # pass extending it meanwhile cannot break the scan.
        job_traces = self._job_traces
        records += [row for row in tuple(self._settled) if job_traces.get(row[1]) is trace]
        spans: List[Span] = []
        for record in records:
            spans.extend(record[0](trace, record))
        return spans

    @property
    def max_traces(self) -> int:
        return self._max_traces

    def trace_ids(self) -> List[str]:
        """Retained trace IDs, oldest first."""
        return list(self._traces)
