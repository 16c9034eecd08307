"""Import footprint of the edge entry points beside the full platform.

Prints a markdown table (modules loaded, max RSS, import time), one fresh
interpreter per row.  The table is the trend to read per PR; the gate is
``tests/test_import_boundaries.py``.

A second table prices what the long-lived server keeps per retained job:
heap (tracemalloc) and RSS growth over 12,000 in-process noop jobs, each in
its own interpreter; its gate is ``tests/test_memory_footprint.py``.

A third table prices the same job at rest: journal bytes written and
snapshot bytes retained per settled noop job (one uncompacted run, then one
checkpoint) — the numbers ``tests/test_record_elision.py`` budgets and
``BENCH_journal_replay.json`` trends.

A fourth table records the size of the code itself: python lines under
``src/``, ``tests/`` and ``benchmarks/``, and every ``src/`` file over 1,000
lines.  A trend, not a gate — it is the number ROADMAP.md otherwise
re-derives by hand at each re-anchor.

    PYTHONPATH=src python benchmarks/footprint.py
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZE_TREES = ("src", "tests", "benchmarks")
LARGE_FILE_LINES = 1_000

IMPORTS = (
    "repro.cli",
    "repro.agent.daemon",
    "repro.api.client, repro.api.gateway",
    "repro.core.platform",  # the reference: what a server needs anyway
)
PROBE = """\
import resource, sys, time
started = time.perf_counter()
import {modules}
ms = (time.perf_counter() - started) * 1000.0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(f"| `{modules}` | {{len(sys.modules)}} | {{rss_mb:.1f}} | {{ms:.0f}} |")
"""
RETAINED_JOBS = 12_000
PROBE_PRELUDE = """\
import gc, sys, tempfile, tracemalloc
from repro.core.platform import build_default_platform

def submit(jobs):
    for start in range(0, jobs, 20):
        pipe = client.pipeline()
        for index in range(start, start + 20):
            pipe.submit_job(f"job-{{index}}", "noop")
        pipe.flush()
        if (start + 20) % 100 == 0:
            platform.run_queue()
    platform.run_queue()
"""
RETAINED_PROBE = PROBE_PRELUDE + """
def rss_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * 4096

with tempfile.TemporaryDirectory() as state_dir:
    platform = build_default_platform(seed=7, browsers=("chrome",), state_dir=state_dir)
    client = platform.client()
    submit(20)
    gc.collect()
    if {trace}:
        tracemalloc.start()
        measure = lambda: tracemalloc.get_traced_memory()[0]
    else:
        measure = rss_bytes
    before = measure()
    submit({jobs})
    gc.collect()
    print(round((measure() - before) / {jobs}))
"""
STATE_PROBE = PROBE_PRELUDE + """
with tempfile.TemporaryDirectory() as state_dir:
    platform = build_default_platform(seed=7, browsers=("chrome",), persistence=False)
    manager = platform.access_server.enable_persistence(state_dir, snapshot_every=10**9)
    backend = manager.backend
    client = platform.client()
    empty_snapshot = backend.snapshot_path.stat().st_size
    submit({jobs})
    backend.sync()
    journal = backend.journal_path.stat().st_size
    manager.checkpoint()
    snapshot = backend.snapshot_path.stat().st_size - empty_snapshot
    print(round(journal / {jobs}), round(snapshot / {jobs}))
"""


def run_probe(source: str) -> str:
    probe = subprocess.run(
        [sys.executable, "-c", source], check=True, capture_output=True, text=True
    )
    return probe.stdout


def retained_job_bytes(trace: bool) -> int:
    return int(run_probe(RETAINED_PROBE.format(trace=trace, jobs=RETAINED_JOBS)))


def python_lines(tree: str) -> dict:
    """``{path relative to the repo: lines}`` of every ``.py`` under ``tree``."""
    lines = {}
    for directory, _subdirs, names in os.walk(os.path.join(ROOT, tree)):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, "rb") as source:
                    lines[os.path.relpath(path, ROOT)] = sum(1 for _ in source)
    return lines


def main() -> None:
    print("| import | modules | max RSS (MB) | import (ms) |")
    print("|---|---:|---:|---:|")
    for modules in IMPORTS:
        print(run_probe(PROBE.format(modules=modules)), end="")
    print()
    print("| per retained job | heap, tracemalloc (B) | RSS growth (B) |")
    print("|---|---:|---:|")
    print(
        f"| {RETAINED_JOBS:,} in-process noop jobs "
        f"| {retained_job_bytes(trace=True):,} | {retained_job_bytes(trace=False):,} |"
    )
    print()
    journal, snapshot = run_probe(STATE_PROBE.format(jobs=RETAINED_JOBS)).split()
    print("| per settled job, at rest | journal written (B) | snapshot retained (B) |")
    print("|---|---:|---:|")
    print(f"| {RETAINED_JOBS:,} in-process noop jobs | {int(journal):,} | {int(snapshot):,} |")
    print()
    print("| code size | python files | lines |")
    print("|---|---:|---:|")
    trees = {tree: python_lines(tree) for tree in SIZE_TREES}
    for tree, lines in trees.items():
        print(f"| `{tree}/` | {len(lines):,} | {sum(lines.values()):,} |")
    for path, count in sorted(trees["src"].items(), key=lambda item: -item[1]):
        if count > LARGE_FILE_LINES:
            print(f"| `{path}` | | {count:,} |")


if __name__ == "__main__":
    main()
