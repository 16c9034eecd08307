"""Lock-cheap in-process metrics: counters, gauges and bounded-bucket histograms.

The platform's hot paths — the gateway selector loop, the dispatch tick,
the wave executor — run at tens of thousands of operations per second, so
the registry is built around three rules:

* **Children are cheap.**  A :class:`Counter`/:class:`Gauge`/:class:`Histogram`
  child is a slotted object whose mutation is a GIL-atomic ``list.append``
  into a pending mailbox — no lock on the write path, because even an
  uncontended acquire opens a GIL handoff window on multi-threaded hot
  loops.  Reads fold the mailbox under the per-child lock, so exposed
  values are exact once writers quiesce.  Label resolution
  (:meth:`MetricFamily.labels`) is a dict hit and is expected to be done
  **once**, outside the loop.
- **Reads are scrape-time.**  Expensive values (queue depths per constraint
  bucket, orphan counts, snapshot age) are not maintained inline; they are
  filled in by collect hooks (:meth:`MetricsRegistry.add_collect_hook`)
  that run only when somebody renders or snapshots the registry.
* **Disable is honest.**  ``registry.enabled = False`` short-circuits every
  mutation with a single attribute check, so the telemetry-off arm of
  ``benchmarks/bench_obs_overhead.py`` measures the real residual cost of
  default-on instrumentation.

Timestamps are *simulated* time when the registry has a
:class:`~repro.simulation.clock.SimClock` (so metric ages line up with
journal and bus records); durations observed into histograms are real
``time.perf_counter()`` seconds, because wall latency is what the operator
is debugging.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.simulation.clock import SimClock

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "merge_snapshots",
    "render_snapshot",
]

#: Default histogram bounds (seconds), tuned for the latencies this platform
#: actually exhibits: sub-millisecond in-process API calls up through
#: multi-second device payload runs.  The overflow (+Inf) bucket is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

LabelValues = Tuple[str, ...]


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(value)


#: Writers fold their pending mailbox once it reaches this depth, bounding
#: memory between scrapes (8 bytes/event) at a once-per-thousands lock cost.
_FOLD_LIMIT = 8192


class Counter:
    """Monotonically increasing count; one child per label combination.

    Mutation is a GIL-atomic ``list.append`` into a pending mailbox, not a
    locked read-modify-write: on multi-threaded hot paths (gateway loop +
    dispatch thread) even an *uncontended* lock acquire opens a GIL handoff
    window that costs several times the arithmetic it guards.  Reads fold
    the mailbox under the lock, so values are exact once writers quiesce —
    and writers only quiesce-read their own children at scrape time.
    """

    __slots__ = ("_registry", "_lock", "labelvalues", "_value", "_pending")

    def __init__(self, registry: "MetricsRegistry", labelvalues: LabelValues) -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self.labelvalues = labelvalues
        self._value = 0.0
        self._pending: List[float] = []

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative, got {amount!r}")
        pending = self._pending
        pending.append(amount)
        if len(pending) >= _FOLD_LIMIT:
            self._fold()

    def _fold(self) -> None:
        # Folds serialize on the lock; writers only append.  The slice copy
        # and slice delete are each a single C operation, and appends that
        # race in after the copy land at indices >= taken, which the delete
        # leaves in place — no increment is ever lost.
        with self._lock:
            pending = self._pending
            taken = len(pending)
            if not taken:
                return
            batch = pending[:taken]
            del pending[:taken]
            self._value += sum(batch)

    @property
    def value(self) -> float:
        self._fold()
        return self._value


class Gauge:
    """A value that can go up and down (or be computed at scrape time)."""

    __slots__ = ("_registry", "_lock", "labelvalues", "value")

    def __init__(self, registry: "MetricsRegistry", labelvalues: LabelValues) -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self.labelvalues = labelvalues
        self.value = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Bounded-bucket histogram with ``le`` (less-or-equal) semantics.

    ``observe(v)`` lands in the first bucket whose upper bound is ``>= v``;
    values above every bound land in the implicit overflow (+Inf) bucket,
    so an observation is never dropped and memory stays fixed at
    ``len(bounds) + 1`` integers regardless of the value distribution.
    """

    __slots__ = (
        "_registry",
        "_lock",
        "labelvalues",
        "bounds",
        "_counts",
        "_sum",
        "_count",
        "_pending",
    )

    def __init__(
        self,
        registry: "MetricsRegistry",
        labelvalues: LabelValues,
        bounds: Tuple[float, ...],
    ) -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self.labelvalues = labelvalues
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._pending: List[float] = []

    def observe(self, value: float) -> None:
        # Same mailbox scheme as Counter.inc: appending is GIL-atomic and
        # lock-free; bucketing happens at fold (read) time.
        if not self._registry.enabled:
            return
        pending = self._pending
        pending.append(value)
        if len(pending) >= _FOLD_LIMIT:
            self._fold()

    def _fold(self) -> None:
        # Same snapshot-and-delete scheme as Counter._fold, then bucket the
        # batch at C speed: sort it and bisect each *bound* into the batch
        # (len(bounds) bisects total) instead of each value into the bounds.
        # A value lands in the first bucket whose bound is >= it, so bucket
        # i gains the values in (bounds[i-1], bounds[i]] — exactly the
        # elements bisect_right separates in the sorted batch.
        with self._lock:
            pending = self._pending
            taken = len(pending)
            if not taken:
                return
            batch = pending[:taken]
            del pending[:taken]
            batch.sort()
            counts = self._counts
            below_previous = 0
            for index, bound in enumerate(self.bounds):
                below = bisect_right(batch, bound)
                counts[index] += below - below_previous
                below_previous = below
            counts[-1] += taken - below_previous
            self._sum += sum(batch)
            self._count += taken

    @property
    def counts(self) -> List[int]:
        self._fold()
        return self._counts

    @property
    def sum(self) -> float:
        self._fold()
        return self._sum

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    def cumulative_counts(self) -> List[int]:
        """Per-bound cumulative counts (Prometheus ``_bucket`` semantics),
        overflow included as the final entry (== ``count``)."""
        cumulative: List[int] = []
        running = 0
        for bucket in self.counts:
            running += bucket
            cumulative.append(running)
        return cumulative


class MetricFamily:
    """All children of one named metric, keyed by label values."""

    __slots__ = ("name", "help", "kind", "labelnames", "bounds", "_registry", "_children", "_lock")

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        kind: str,
        labelnames: Tuple[str, ...],
        bounds: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self.bounds = bounds
        self._registry = registry
        self._children: Dict[LabelValues, object] = {}
        self._lock = threading.Lock()

    def labels(self, *labelvalues: str, **labelkv: str):
        """Resolve (creating on first use) the child for one label combination.

        Accepts positional values in declaration order or keyword form;
        hot loops should call this once and keep the child.
        """
        if labelkv:
            if labelvalues:
                raise ValueError("pass label values positionally or by keyword, not both")
            try:
                labelvalues = tuple(str(labelkv[name]) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"metric {self.name!r} missing label {exc.args[0]!r}") from None
            if len(labelkv) != len(self.labelnames):
                raise ValueError(
                    f"metric {self.name!r} takes labels {self.labelnames}, got {sorted(labelkv)}"
                )
        else:
            labelvalues = tuple(str(value) for value in labelvalues)
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.labelnames)} label(s), "
                f"got {len(labelvalues)}"
            )
        child = self._children.get(labelvalues)
        if child is None:
            with self._lock:
                child = self._children.get(labelvalues)
                if child is None:
                    child = self._make_child(labelvalues)
                    self._children[labelvalues] = child
        return child

    def _make_child(self, labelvalues: LabelValues):
        if self.kind == "counter":
            return Counter(self._registry, labelvalues)
        if self.kind == "gauge":
            return Gauge(self._registry, labelvalues)
        return Histogram(self._registry, labelvalues, self.bounds or DEFAULT_LATENCY_BUCKETS)

    def children(self) -> List[object]:
        return [self._children[key] for key in sorted(self._children)]

    # Unlabeled families proxy mutation straight through to their single child.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)


class MetricsRegistry:
    """Named registry of metric families with Prometheus-style exposition.

    Parameters
    ----------
    clock:
        Optional :class:`~repro.simulation.clock.SimClock`; when present,
        snapshots and renders are stamped with simulated time so telemetry
        lines up with journal and bus records.
    enabled:
        Initial on/off state.  Disabling short-circuits every mutation with
        one attribute check; families and children stay registered so the
        registry can be re-enabled without losing its shape.
    """

    def __init__(self, clock: Optional[SimClock] = None, enabled: bool = True) -> None:
        self._clock = clock
        self.enabled = enabled
        self._families: Dict[str, MetricFamily] = {}
        self._collect_hooks: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    # -- declaration ----------------------------------------------------------------
    def counter(self, name: str, help_text: str = "", labelnames: Iterable[str] = ()) -> MetricFamily:
        return self._family(name, help_text, "counter", tuple(labelnames))

    def gauge(self, name: str, help_text: str = "", labelnames: Iterable[str] = ()) -> MetricFamily:
        return self._family(name, help_text, "gauge", tuple(labelnames))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(hi <= lo for lo, hi in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        return self._family(name, help_text, "histogram", tuple(labelnames), bounds)

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Tuple[str, ...],
        bounds: Optional[Tuple[float, ...]] = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.labelnames}"
                    )
                return family
            family = MetricFamily(self, name, help_text, kind, labelnames, bounds)
            self._families[name] = family
            return family

    def family(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def add_collect_hook(self, hook: Callable[[], None]) -> None:
        """Register a hook run before every render/snapshot to fill
        scrape-time gauges (queue depths, orphan counts, snapshot age)."""
        self._collect_hooks.append(hook)

    # -- enable / disable -----------------------------------------------------------
    def disable(self) -> None:
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    # -- exposition -----------------------------------------------------------------
    @property
    def timestamp(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def collect(self) -> None:
        for hook in self._collect_hooks:
            hook()

    def render_text(self) -> str:
        """Prometheus text exposition format (one TYPE block per family)."""
        return render_snapshot(self.snapshot())

    def snapshot(self) -> Dict[str, object]:
        """Primitive-typed snapshot consumed by the ``obs.metrics`` DTOs
        and by :func:`render_snapshot` (the CLI's text exposition)."""
        self.collect()
        counters: List[Dict[str, object]] = []
        gauges: List[Dict[str, object]] = []
        histograms: List[Dict[str, object]] = []
        for name in sorted(self._families):
            family = self._families[name]
            children = family.children()
            if not children and not family.labelnames:
                # Materialise the single child of an untouched unlabeled
                # family so declared metrics show up at zero.
                children = [family.labels()]
            for child in children:
                labels = dict(zip(family.labelnames, child.labelvalues))
                if family.kind == "histogram":
                    histograms.append(
                        {
                            "name": name,
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "bounds": list(child.bounds),
                            "counts": list(child.counts),
                        }
                    )
                elif family.kind == "counter":
                    counters.append({"name": name, "labels": labels, "value": child.value})
                else:
                    gauges.append({"name": name, "labels": labels, "value": child.value})
        return {
            "generated_at": self.timestamp,
            "enabled": self.enabled,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def merge_snapshots(
    shard_snapshots: Dict[str, Dict[str, object]],
    extra: Optional[Dict[str, object]] = None,
    label: str = "shard",
) -> Dict[str, object]:
    """Merge per-shard :meth:`MetricsRegistry.snapshot` dicts into one view.

    Each shard's samples keep their identity: every sample gains a
    ``label`` (default ``"shard"``) entry carrying the shard id, so two
    shards' ``jobs_submitted_total`` stay distinct series rather than
    being summed into an unattributable blob — federation surfaces, it
    does not launder.  ``extra`` (the router's own registry snapshot, no
    shard label) is appended last.  Output ordering is deterministic:
    family name, then shard id, then the shard's own child order — so the
    merged ``obs.metrics`` response is byte-stable across calls.
    """
    merged: Dict[str, List[Dict[str, object]]] = {
        "counters": [],
        "gauges": [],
        "histograms": [],
    }
    generated_at = 0.0
    enabled = False
    sources = [
        (shard_id, shard_snapshots[shard_id]) for shard_id in sorted(shard_snapshots)
    ]
    if extra is not None:
        sources.append((None, extra))
    for kind in ("counters", "gauges", "histograms"):
        samples: List[Tuple[str, Dict[str, object]]] = []
        for shard_id, snapshot in sources:
            for sample in snapshot.get(kind) or []:
                labels = dict(sample.get("labels") or {})
                if shard_id is not None:
                    labels[label] = shard_id
                stamped = dict(sample)
                stamped["labels"] = labels
                samples.append((str(stamped.get("name", "")), stamped))
        # Stable sort on family name alone: within one family, samples stay
        # in source order (shards sorted by id, each shard's own child
        # order), which is the deterministic grouping the docstring promises.
        samples.sort(key=lambda item: item[0])
        merged[kind] = [sample for _, sample in samples]
    for _, snapshot in sources:
        generated_at = max(generated_at, float(snapshot.get("generated_at") or 0.0))
        enabled = enabled or bool(snapshot.get("enabled"))
    return {
        "generated_at": generated_at,
        "enabled": enabled,
        "counters": merged["counters"],
        "gauges": merged["gauges"],
        "histograms": merged["histograms"],
    }


def _labels_dict_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = ", ".join(f'{name}="{_escape_label(str(value))}"' for name, value in labels.items())
    return "{" + parts + "}"


def render_snapshot(snapshot: Dict[str, object]) -> str:
    """Prometheus text exposition of a :meth:`MetricsRegistry.snapshot`.

    Works off the primitive snapshot shape rather than live registry
    objects, so the CLI renders identical text whether it reads a local
    registry or an ``obs.metrics`` response from a remote gateway.
    """
    lines: List[str] = []
    seen_types: set = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for sample in snapshot.get("counters", []):
        type_line(sample["name"], "counter")
        labels = _labels_dict_text(sample.get("labels") or {})
        lines.append(f"{sample['name']}{labels} {_format_value(sample['value'])}")
    for sample in snapshot.get("gauges", []):
        type_line(sample["name"], "gauge")
        labels = _labels_dict_text(sample.get("labels") or {})
        lines.append(f"{sample['name']}{labels} {_format_value(sample['value'])}")
    for sample in snapshot.get("histograms", []):
        name = sample["name"]
        type_line(name, "histogram")
        labels = _labels_dict_text(sample.get("labels") or {})
        bounds = list(sample.get("bounds") or ()) + [float("inf")]
        running = 0
        for bound, bucket in zip(bounds, sample.get("counts") or ()):
            running += bucket
            extra = f'le="{_format_value(bound)}"'
            merged = labels[:-1] + ", " + extra + "}" if labels else "{" + extra + "}"
            lines.append(f"{name}_bucket{merged} {running}")
        lines.append(f"{name}_sum{labels} {_format_value(sample['sum'])}")
        lines.append(f"{name}_count{labels} {sample['count']}")
    return "\n".join(lines) + "\n"
