"""Analysis helpers.

Small, dependency-light utilities used by the experiment drivers and the
benchmark harness to turn raw traces and sample series into the statistics
and tables the paper reports: empirical CDFs (Figures 2, 4 and 5), summary
statistics with mean/median/std/error bars (Figures 3 and 6), battery
discharge aggregation, and plain-text table rendering for EXPERIMENTS.md
and the benchmark output.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.cdf import EmpiricalCdf, empirical_cdf
    from repro.analysis.stats import SeriesSummary, summarize
    from repro.analysis.tables import format_table, rows_to_markdown

# ``cdf`` and ``stats`` load numpy; ``tables`` — all that ``repro report
# --gateway`` needs to print one — is plain string formatting.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cdf": ("EmpiricalCdf", "empirical_cdf"),
        "stats": ("SeriesSummary", "summarize"),
        "tables": ("format_table", "rows_to_markdown"),
    },
)
