"""Import footprint of the edge entry points beside the full platform.

Prints a markdown table (modules loaded, max RSS, import time), one fresh
interpreter per row; one row also runs the agent's first ``noop`` job, which
is what the vantage point's Pi holds in steady state.  The table is the
trend to read per PR; the gate is ``tests/test_import_boundaries.py``.

A second table prices what the long-lived server keeps per retained job:
heap (tracemalloc) and RSS growth over 3,000 and over 12,000 in-process noop
jobs after a warm-up that fills the bounded stores, each in its own
interpreter.  The two rows agree when the server holds only per-job state;
a bounded window that fills between them reads as less per job in the
second.  Its gate is ``tests/test_memory_footprint.py``, whose probe counts
from a 20-job warm-up and so also prices the trace store's fill.

A third table prices the same job at rest: journal bytes written and
snapshot bytes retained per settled noop job (one uncompacted run, then one
checkpoint) — the numbers ``tests/test_record_elision.py`` budgets and
``BENCH_journal_replay.json`` trends.

A fourth table records the size of the code itself: python lines under
``src/``, ``tests/`` and ``benchmarks/``, and every ``src/`` file over 1,000
lines.  A trend, not a gate — it is the number ROADMAP.md otherwise
re-derives by hand at each re-anchor.

``--uncalled`` prints a census instead: every function defined under
``src/repro`` that no tier-1 test calls.  The tier-1 suite runs in one child
interpreter under a ``sys.setprofile`` / ``threading.setprofile`` hook that
records each code object entered; an AST walk of ``src/repro`` lists the
defined functions, and a function is called when a recorded code object
starts on its first line.  Code reached only inside a process a test
spawns (``serve``, ``agent``) counts as uncalled.  The suite runs without
``-x``, so one failing test does not cut the census short; it is a trend,
not a gate.

    PYTHONPATH=src python benchmarks/footprint.py
    PYTHONPATH=src python benchmarks/footprint.py --uncalled
"""

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZE_TREES = ("src", "tests", "benchmarks")
LARGE_FILE_LINES = 1_000

#: What the Pi holds once it has worked: the payload lookup loads more.
FIRST_NOOP_JOB = (
    "from repro.agent.connectors import ConnectorContext, FakeConnector\n"
    "FakeConnector().run(ConnectorContext(1, 'job', 'owner', 'noop', 'node1', 'node1-dev00'))"
)
#: ``(modules, then)``: import the modules, run ``then``, measure.
IMPORTS = (
    ("repro.cli", ""),
    ("repro.agent.daemon", ""),
    ("repro.agent.daemon", FIRST_NOOP_JOB),
    ("repro.api.client, repro.api.gateway", ""),
    ("repro.core.platform", ""),  # the reference: what a server needs anyway
)
PROBE = """\
import resource, sys, time
started = time.perf_counter()
import {modules}
{then}
ms = (time.perf_counter() - started) * 1000.0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(f"| {label} | {{len(sys.modules)}} | {{rss_mb:.1f}} | {{ms:.0f}} |")
"""
RETAINED_JOBS = (3_000, 12_000)
#: Jobs run before measuring: past the trace store's 512 traces, so each
#: bounded store is full at ``before`` and adds nothing per job after it.
#: Tracing starts ahead of them, so what a full store evicts is subtracted;
#: each reading follows a scrape, so no metric holds unfolded values.
WARM_UP_JOBS = 1_000
STATE_JOBS = 12_000
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
    if {trace}:
        tracemalloc.start()
        measure = lambda: tracemalloc.get_traced_memory()[0]
    else:
        measure = rss_bytes

    def reading():
        platform.access_server.obs.registry.snapshot()  # folds every metric's mailbox
        gc.collect()
        return measure()

    submit({warm_up})
    before = reading()
    submit({jobs})
    print(round((reading() - before) / {jobs}))
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


#: Runs tier-1 under the profile hook; writes the entered code objects'
#: ``[file, first line]`` to ``argv[1]`` and exits with pytest's status.
CENSUS_PROBE = """\
import json, os, sys, threading
codes = {}

def entered(frame, event, arg):
    if event == "call":
        code = frame.f_code
        codes[id(code)] = code

sys.setprofile(entered)
threading.setprofile(entered)
import pytest
status = pytest.main(["-q", "-p", "no:cacheprovider"])
sys.setprofile(None)
threading.setprofile(None)
called = {(os.path.abspath(c.co_filename), c.co_firstlineno) for c in codes.values()}
with open(sys.argv[1], "w") as out:
    json.dump(sorted(called), out)
sys.exit(int(status))
"""


def run_probe(source: str) -> str:
    probe = subprocess.run(
        [sys.executable, "-c", source], check=True, capture_output=True, text=True
    )
    return probe.stdout


def retained_job_bytes(jobs: int, trace: bool) -> int:
    return int(
        run_probe(RETAINED_PROBE.format(trace=trace, jobs=jobs, warm_up=WARM_UP_JOBS))
    )


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


def defined_functions(tree: str):
    """``(path, first line, qualified name, lines)`` of every function
    under ``tree``; the first line is the first decorator's, as in
    ``co_firstlineno``."""

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                name = prefix + child.name
                yield path, first, name, child.end_lineno - first + 1
                yield from walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, path, prefix + child.name + ".")
            else:
                yield from walk(child, path, prefix)

    for path in sorted(python_lines(tree)):
        with open(os.path.join(ROOT, path), encoding="utf-8") as source:
            yield from walk(ast.parse(source.read()), path, "")


def uncalled() -> None:
    """Print the functions under ``src/repro`` no tier-1 test calls."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "called.json")
        suite = subprocess.run(
            [sys.executable, "-c", CENSUS_PROBE, out],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        if not os.path.exists(out):
            sys.stderr.write(suite.stdout[-2000:] + suite.stderr[-2000:])
            raise SystemExit("the tier-1 suite ended before the census was written")
        with open(out) as called_file:
            called = {
                (os.path.relpath(path, ROOT), line)
                for path, line in json.load(called_file)
            }
    missed = [
        function
        for function in defined_functions(os.path.join("src", "repro"))
        if function[:2] not in called
    ]
    report = suite.stdout.strip().splitlines()
    print(f"tier-1 under the profile hook: {report[-1]}; "
          f"census {time.perf_counter() - started:.0f} s wall")
    for line in report:
        if line.startswith(("FAILED ", "ERROR ")):
            print(f"- {line}")
    print()
    print("| uncalled by tier-1 | functions | lines |")
    print("|---|---:|---:|")
    print(f"| `src/repro/` | {len(missed):,} | {sum(f[3] for f in missed):,} |")
    print()
    print("| function | defined at | lines |")
    print("|---|---|---:|")
    for path, line, name, lines in missed:
        print(f"| `{name}` | `{path}:{line}` | {lines} |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--uncalled",
        action="store_true",
        help="run tier-1 under a profile hook and list the src/repro "
        "functions no test calls (several minutes)",
    )
    if parser.parse_args().uncalled:
        uncalled()
        return
    print("| import | modules | max RSS (MB) | import (ms) |")
    print("|---|---:|---:|---:|")
    for modules, then in IMPORTS:
        label = f"`{modules}`" + (" after a `fake` connector's first `noop` job" * bool(then))
        print(run_probe(PROBE.format(modules=modules, then=then, label=label)), end="")
    print()
    print("| per retained job | heap, tracemalloc (B) | RSS growth (B) |")
    print("|---|---:|---:|")
    for jobs in RETAINED_JOBS:
        print(
            f"| {jobs:,} in-process noop jobs "
            f"| {retained_job_bytes(jobs, trace=True):,} "
            f"| {retained_job_bytes(jobs, trace=False):,} |"
        )
    print()
    journal, snapshot = run_probe(STATE_PROBE.format(jobs=STATE_JOBS)).split()
    print("| per settled job, at rest | journal written (B) | snapshot retained (B) |")
    print("|---|---:|---:|")
    print(f"| {STATE_JOBS:,} in-process noop jobs | {int(journal):,} | {int(snapshot):,} |")
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
