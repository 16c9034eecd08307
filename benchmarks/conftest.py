"""Shared helpers for the ``bench_*.py`` scripts.

Under pytest-benchmark a script runs its measurement exactly once
(``rounds=1``); the interesting output is the table of measured rows, which
is printed and attached to the benchmark's ``extra_info`` so it is visible
in the saved benchmark JSON as well as with ``pytest -s``.  Run as plain
scripts, the benches write their ``BENCH_*.json`` at the repository root.
The paper's own figures and tables are pinned in
``tests/test_experiments.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.analysis.tables import format_table


def run_once(benchmark, func: Callable, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def report(benchmark, title: str, rows: List[Dict[str, object]]) -> None:
    """Print a reproduced table and attach it to the benchmark record."""
    table = format_table(rows, title=title)
    print()
    print(table)
    benchmark.extra_info["title"] = title
    benchmark.extra_info["rows"] = rows
