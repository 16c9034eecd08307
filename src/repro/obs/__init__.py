"""``repro.obs`` — in-process telemetry for the BatteryLab platform.

One :class:`Observability` object per access server bundles the two halves
of the telemetry layer:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  bounded-bucket histograms with labeled families, scrape-time collect
  hooks and Prometheus-style text exposition (``cli metrics``).
* :class:`~repro.obs.trace.Tracer` — trace/span IDs minted at the API
  boundary and propagated through router → server → executor; it keeps
  one compact record per request and per job, builds spans from them when
  read, and publishes them on the event bus as ``trace.span`` records
  while a subscriber listens (streamable via ``events.subscribe``).

Telemetry is **default-on**; :meth:`Observability.disable` short-circuits
every mutation for overhead measurement (``bench_obs_overhead.py``) and
for callers that want a dark platform.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.logsetup import (
    LOG_FORMAT,
    TraceIdFilter,
    component_logger,
    configure_logging,
    log_slow_op,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    render_snapshot,
)
from repro.obs.trace import SPAN_TOPIC, Span, Tracer
from repro.simulation.clock import SimClock
from repro.simulation.events import EventBus

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "LOG_FORMAT",
    "SPAN_TOPIC",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Observability",
    "Span",
    "TraceIdFilter",
    "Tracer",
    "component_logger",
    "configure_logging",
    "log_slow_op",
    "render_snapshot",
]

#: Default latency above which an API operation logs a warning; override per
#: platform via ``Observability.slow_op_threshold_s``.
DEFAULT_SLOW_OP_THRESHOLD_S = 0.25


class Observability:
    """Registry + tracer pair shared by every layer of one platform."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        bus: Optional[EventBus] = None,
        enabled: bool = True,
        max_traces: int = 512,
        slow_op_threshold_s: float = DEFAULT_SLOW_OP_THRESHOLD_S,
    ) -> None:
        self.registry = MetricsRegistry(clock=clock, enabled=enabled)
        self.tracer = Tracer(clock=clock, bus=bus, max_traces=max_traces, enabled=enabled)
        self.slow_op_threshold_s = slow_op_threshold_s

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def enable(self) -> None:
        self.registry.enable()
        self.tracer.enabled = True

    def disable(self) -> None:
        self.registry.disable()
        self.tracer.enabled = False
