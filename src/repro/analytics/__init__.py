"""Journal-backed event sourcing for platform operations analytics.

BatteryLab is a *shared* measurement platform, which makes operations
questions — who uses the fleet, how long do jobs wait, which devices are
hot or flaky — first-class concerns.  This package folds the records the
platform already produces — the write-ahead journal's, from
:mod:`repro.accessserver.persistence` — into materialised operational
views:

* :class:`~repro.analytics.engine.AnalyticsEngine` — the reducer
  pipeline; ``report()`` and ``timeseries()`` are the consumer surface.
* :class:`~repro.analytics.records.JournalReplaySource` — the cold source,
  a replay of a state directory.  Live, the access server hands the engine
  each record as it journals it (``AccessServer.record``).  Both read the
  records through :func:`~repro.analytics.records.normalize_journal_record`,
  so live and replayed reports are identical for the same workload.

Exposed end to end: API v2 operations ``analytics.report`` /
``analytics.timeseries`` (:mod:`repro.api`), the CLI ``report``
subcommand, and ``examples/operations_report.py``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analytics.engine import AnalyticsEngine, report_json
    from repro.analytics.records import (
        JournalReplaySource,
        OpsRecord,
        RecordSource,
        normalize_journal_record,
        synthesize_snapshot_records,
    )
    from repro.analytics.reducers import (
        CreditReducer,
        JobLifecycleReducer,
        ReservationReducer,
        ThroughputReducer,
        distribution_view,
        percentile,
    )

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "engine": ("AnalyticsEngine", "report_json"),
        "records": (
            "JournalReplaySource",
            "OpsRecord",
            "RecordSource",
            "normalize_journal_record",
            "synthesize_snapshot_records",
        ),
        "reducers": (
            "CreditReducer",
            "JobLifecycleReducer",
            "ReservationReducer",
            "ThroughputReducer",
            "distribution_view",
            "percentile",
        ),
    },
)
