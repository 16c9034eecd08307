"""The analytics engine: one reducer pipeline, two record sources.

:class:`AnalyticsEngine` owns the reducers and exposes the two consumer
surfaces the platform-operations story needs:

* :meth:`report` — the materialised operations report (per-owner
  utilisation and credit burn, queue-wait / run-time percentiles,
  per-device occupancy and failure rate, reservation bookings) as a plain
  JSON-stable dict;
* :meth:`timeseries` — fleet throughput over time at any bucket size no
  finer than the fold resolution.

Feed it either way — both through the *same* ``fold()``:

* cold: ``AnalyticsEngine.from_backend(state_dir)`` replays a persistence
  snapshot + journal (see
  :class:`~repro.analytics.records.JournalReplaySource`);
* hot: :meth:`AccessServer.enable_analytics()
  <repro.accessserver.server.AccessServer.enable_analytics>` attaches a
  :class:`~repro.analytics.records.LiveBusTap`, seeding from the attached
  persistence backend first so a recovered server's report includes its
  pre-crash history.

Determinism contract: the report dict has sorted keys/rows and rounded
floats, and :func:`report_json` is the canonical byte form — the golden
test replays a committed fixture journal and asserts those bytes, and the
live-vs-replay equivalence test asserts both sources fold to the same
report for one workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from repro.accessserver.persistence import StorageBackend
from repro.analytics.records import (
    KIND_RESERVATION_CANCELLED,
    KIND_RESERVATION_CREATED,
    JournalReplaySource,
    OpsRecord,
    RecordSource,
)
from repro.analytics.reducers import (
    CreditReducer,
    JobLifecycleReducer,
    ReservationReducer,
    ThroughputReducer,
    round6,
)


def report_json(report: Dict[str, object]) -> str:
    """The canonical byte form of a report (golden-test stable)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


class AnalyticsEngine:
    """Folds canonical operations records into materialised views.

    Parameters
    ----------
    bucket_s:
        Fold resolution of the throughput timeseries; ``timeseries()`` can
        re-bucket to any coarser size but never finer.
    """

    def __init__(self, bucket_s: float = 60.0) -> None:
        self._lifecycle = JobLifecycleReducer()
        self._credits = CreditReducer()
        self._reservations = ReservationReducer()
        self._throughput = ThroughputReducer(base_bucket_s=bucket_s)
        self._records_folded = 0
        self._first_ts: Optional[float] = None
        self._last_ts: Optional[float] = None

    #: Kinds excluded from the observation-window watermarks: a booking
    #: describes *future* device time (and a snapshot retains only its
    #: start), so letting it stretch first_ts/last_ts would skew every
    #: occupancy denominator — and diverge replay from live after
    #: compaction.  The window spans job and credit *activity* only.
    _WINDOW_EXEMPT = (KIND_RESERVATION_CREATED, KIND_RESERVATION_CANCELLED)

    # -- folding ------------------------------------------------------------
    def fold(self, record: OpsRecord) -> None:
        """Apply one canonical record to every reducer (O(1))."""
        self._records_folded += 1
        if record.kind not in self._WINDOW_EXEMPT:
            if self._first_ts is None or record.ts < self._first_ts:
                self._first_ts = record.ts
            if self._last_ts is None or record.ts > self._last_ts:
                self._last_ts = record.ts
        self._lifecycle.fold(record)
        self._credits.fold(record)
        self._reservations.fold(record)
        self._throughput.fold(record)

    def fold_source(self, source: Union[RecordSource, Iterable[OpsRecord]]) -> int:
        """Fold every record a source yields; returns how many were folded."""
        records = source.records() if isinstance(source, RecordSource) else source
        count = 0
        for record in records:
            self.fold(record)
            count += 1
        return count

    @classmethod
    def from_backend(
        cls,
        backend: Union[StorageBackend, str, Path],
        bucket_s: float = 60.0,
    ) -> "AnalyticsEngine":
        """Cold replay: build an engine from a journal/snapshot backend."""
        engine = cls(bucket_s=bucket_s)
        engine.fold_source(JournalReplaySource(backend))
        return engine

    # -- introspection ------------------------------------------------------
    @property
    def records_folded(self) -> int:
        return self._records_folded

    def tracked_job_ids(self):
        """Ids of the jobs the lifecycle fold holds a timeline for."""
        return self._lifecycle.job_ids()

    @property
    def window(self) -> Dict[str, Optional[float]]:
        return {
            "first_ts": round6(self._first_ts) if self._first_ts is not None else None,
            "last_ts": round6(self._last_ts) if self._last_ts is not None else None,
        }

    # -- views --------------------------------------------------------------
    def report(self, include_throughput: bool = True) -> Dict[str, object]:
        """The full operations report as a JSON-stable dict.

        ``include_throughput=False`` skips materialising the timeseries —
        for consumers (the ``analytics.report`` API view) that serve it
        through the dedicated ``analytics.timeseries`` operation instead.
        """
        first = self._first_ts if self._first_ts is not None else 0.0
        last = self._last_ts if self._last_ts is not None else 0.0
        window_s = max(0.0, last - first)
        # The owners table is the union of job activity and credit
        # activity: a contributor institution earning credits without
        # submitting jobs still appears, so fleet-wide credit movement
        # reconciles against the report.
        rows = {str(row["owner"]): dict(row) for row in self._lifecycle.owner_rows()}
        for account in self._credits.accounts():
            rows.setdefault(
                account,
                {
                    "owner": account,
                    "submitted": 0,
                    "completed": 0,
                    "failed": 0,
                    "cancelled": 0,
                    "rejected": 0,
                    "device_seconds": 0.0,
                    "queue_wait_s": 0.0,
                },
            )
        owners = []
        for owner in sorted(rows):
            row = rows[owner]
            row["credits_burned_device_hours"] = round6(self._credits.burned(owner))
            row["credits_granted_device_hours"] = round6(self._credits.granted(owner))
            owners.append(row)
        report: Dict[str, object] = {
            "records_folded": self._records_folded,
            "window": self.window,
            "jobs": self._lifecycle.job_counts(),
            "owners": owners,
            "queue_wait": self._lifecycle.wait_distribution(),
            "run_time": self._lifecycle.run_distribution(),
            "devices": self._lifecycle.device_rows(window_s),
            "reservations": self._reservations.view(),
        }
        if include_throughput:
            report["throughput"] = self._throughput.timeseries()
        return report

    def report_json(self) -> str:
        return report_json(self.report())

    def timeseries(self, bucket_s: Optional[float] = None) -> Dict[str, object]:
        """Fleet throughput re-bucketed to ``bucket_s`` (fold resolution default)."""
        return self._throughput.timeseries(bucket_s)
