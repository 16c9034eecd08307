"""Smoke test of the end-to-end benchmark, and unit tests of its helpers.

The smoke runs drive the real ``repro serve`` / ``federate`` / ``agent``
processes at 1/20 size; like the TLS gateway tests they need the
``openssl`` binary to mint the certificate and are skipped without it.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import e2e_stats  # noqa: E402
from e2e_procs import Sandbox, cpu_plan, misplaced_threads  # noqa: E402
from e2e_trace import Span, SpanIndex  # noqa: E402
from e2e_workloads import WORKLOADS  # noqa: E402

from repro.accessserver.certificates import openssl_available  # noqa: E402

needs_openssl = pytest.mark.skipif(
    not openssl_available(), reason="the openssl binary is required to mint TLS material"
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_benchmark(*arguments: str) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "5", *arguments],
        cwd=CHECKOUT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


# -- helpers ---------------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    assert e2e_stats.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert e2e_stats.percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert e2e_stats.percentile([10.0], 99) == 10.0
    assert e2e_stats.percentile(list(range(101)), 90) == 90.0
    assert e2e_stats.percentile([1.0, 2.0], 0) == 1.0
    assert e2e_stats.percentile([1.0, 2.0], 100) == 2.0
    with pytest.raises(ValueError):
        e2e_stats.percentile([], 50)
    with pytest.raises(ValueError):
        e2e_stats.percentile([1.0], 101)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    assert e2e_stats.self_time(0.0, 10.0, []) == 10.0
    assert e2e_stats.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # overlapping children cover 1..5 once; a child past the parent is clipped
    assert e2e_stats.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0)]) == 5.0
    assert e2e_stats.self_time(0.0, 10.0, [(-5.0, 20.0)]) == 0.0
    assert e2e_stats.self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0


def test_span_index_self_time_uses_parent_links():
    spans = [
        Span(1, "api.router.handle", 0.0, 1.0, 0, 7),
        Span(2, "accessserver.server.submit_job", 0.2, 0.7, 1, 7),
        Span(3, "accessserver.persistence.append", 0.3, 0.4, 2, 7),
    ]
    index = SpanIndex(spans)
    assert index.self_time(spans[0]) == pytest.approx(0.5)
    assert index.self_time(spans[1]) == pytest.approx(0.4)
    assert [s.sid for s in index.tops_overlapping(7, 0.5, 0.6)] == [1]
    assert index.ancestor_named(spans[2], "api.router.")


def test_proc_stat_cpu_survives_spaces_and_parentheses_in_the_command():
    stat = (
        "4242 (python3 (repro) serve) S 1 4242 4242 0 -1 4194304 100 0 0 0 "
        "250 50 3 4 20 0 7 0 100 1000 200 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
    )
    assert e2e_stats.parse_proc_stat_cpu_s(stat, 100) == pytest.approx(3.0)
    assert e2e_stats.process_cpu_s(os.getpid()) >= 0.0


def test_proc_status_reads_the_high_water_mark():
    status = "Name:\tpython3\nVmPeak:\t  999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 4096 kB\n"
    assert e2e_stats.parse_proc_status_kb(status, "VmHWM") == 51200
    assert e2e_stats.process_peak_rss_mb(os.getpid()) > 1.0
    with pytest.raises(KeyError):
        e2e_stats.parse_proc_status_kb(status, "VmSwap")


def test_scaling_keeps_connections_batches_and_lanes_in_equal_shares():
    for workload in WORKLOADS.values():
        small = workload.scaled(1 / 20)
        assert small.jobs >= 1
        assert small.jobs % (workload.connections * max(1, workload.batch)) == 0
        assert small.preload % 4 == 0
        assert small.deadman_s == workload.deadman_s
        assert workload.scaled(1.0) == workload
        assert workload.scaled(4.0).deadman_s == 4 * workload.deadman_s


def test_cpu_plan_separates_platform_and_load_generator():
    assert cpu_plan({3, 1, 2}) == {"platform": {1}, "loadgen": {2}}
    assert cpu_plan({5}) == {"platform": None, "loadgen": None}


def test_misplaced_threads_reads_the_affinity_back_from_the_kernel():
    own = os.sched_getaffinity(0)
    assert misplaced_threads(os.getpid(), own) == []
    assert os.getpid() in misplaced_threads(os.getpid(), own | {max(own) + 1})


def test_sandbox_plans_before_pinning_itself_and_restores_the_affinity(tmp_path):
    """A second run in one invocation must still see both CPUs (it once did not)."""
    before = os.sched_getaffinity(0)
    for _ in range(2):
        with Sandbox(CHECKOUT, str(tmp_path / "work")) as sandbox:
            assert sandbox.cpus == cpu_plan(before)
            assert os.sched_getaffinity(0) == (sandbox.cpus["loadgen"] or before)
        assert os.sched_getaffinity(0) == before
    assert not (tmp_path / "work").exists()


# -- the manifest and the command's output -----------------------------------------


def test_manifest_names_units_and_limits(manifest):
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in manifest["workloads"]]:
        assert NAME.match(name), name
    for metric in manifest["end_to_end"]:
        # The contract's ceiling.  ISSUE.md asked for 0.15; README.md, *Noise
        # rules*, has the A/A numbers that made three bounds larger.
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def check_result(result: dict, expected: list) -> None:
    # ``correct`` includes: every thread of every child is confined to the
    # CPU the plan gave it (``e2e_procs.misplaced_threads``).
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(reported["value"]), metric["name"]


@needs_openssl
def test_smoke_end_to_end_metrics_match_the_manifest(manifest):
    results = run_benchmark()["workloads"]
    assert list(results) == list(WORKLOADS)
    for result in results.values():
        check_result(result, manifest["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())


@needs_openssl
def test_smoke_traced_run_reports_every_layer_and_attributes_the_path(manifest):
    results = run_benchmark("--trace", "1")["workloads"]
    for name, result in results.items():
        check_result(result, manifest["per_layer"])
        values = {metric: entry["value"] for metric, entry in result["metrics"].items()}
        assert values["client.ops_failed"] == 0
        assert values["trace.unattributed_share"] <= 0.10, name
        assert values["cli.serve.ticks"] > 0
    agent = results["agent_pull"]["metrics"]
    assert agent["accessserver.agents.claims"]["value"] == agent["accessserver.agents.reports"]["value"] > 0
    assert agent["agent.outbox.appends_per_job"]["value"] >= 6
    assert results["fed_reads"]["metrics"]["federation.router.fanout_mean"]["value"] == 4
    assert results["interactive"]["metrics"]["agent.daemon.cycle_ms_p50"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only the benchmark's own files it must fail fast."""
    import shutil

    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "interactive",
         "--seed", "1", "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
