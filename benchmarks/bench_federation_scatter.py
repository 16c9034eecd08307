"""Federation scatter-gather benchmark: router cost at 1, 2, and 4 shards.

Measures the two hot paths the federation router adds in front of a
fleet of access servers:

* **scatter reads** — ``fleet.list`` fans out to every attached shard
  and folds the responses into one globally ordered view, so its cost
  grows with shard count;
* **routed submits** — ``job.submit`` hashes to exactly one shard's
  lane regardless of fleet size, so its throughput should stay roughly
  flat as shards are added;
* **paged job lists** — a ``job.list`` page of 20 over ~300 jobs per
  shard (the shape of the e2e ``fed_reads`` scan).  Each shard leg
  returns only its first ``offset + limit`` jobs, so a page should cost
  its page, not every job a shard holds.

A federation of one is the control: the router passes single-lane
requests through verbatim, so the 1-shard columns price the pure
indirection overhead against a standalone server.

Results land in ``BENCH_federation_scatter.json`` at the repository
root; CI trend-gates the wall-clock rates (50% bands, like the other
requests/s benchmarks) and the three 4-shard-vs-1-shard retention ratios
(20% bands), and this script enforces absolute sanity floors when run
standalone.  Run with
``PYTHONPATH=src python benchmarks/bench_federation_scatter.py`` or under
pytest-benchmark via
``PYTHONPATH=src python -m pytest benchmarks/bench_federation_scatter.py -q``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.api.client import BatteryLabClient, InProcessTransport
from repro.api.schemas import API_VERSION_V2
from repro.federation import FederationRouter, build_federation_shards

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_federation_scatter.json"

SHARD_COUNTS = (1, 2, 4)
SCATTER_READS = 300
ROUTED_SUBMITS = 200
JOBS_PER_SHARD = 300
JOB_PAGE_LIMIT = 20
JOB_PAGES = 300
JOB_PAGE_ROUNDS = 10

#: Absolute sanity floors — an in-process router slower than this is a
#: code regression, not hardware variance.
MIN_SCATTER_READS_PER_S = 50.0
MIN_ROUTED_SUBMITS_PER_S = 50.0
MIN_JOB_LIST_PAGES_PER_S = 50.0


def _bench_one(shard_count: int) -> Tuple[Dict[str, object], BatteryLabClient]:
    shards = build_federation_shards(shard_count, analytics=False)
    router = FederationRouter(shards)
    client = BatteryLabClient(
        InProcessTransport(router),
        "admin",
        "admin-token",
        version=API_VERSION_V2,
    )
    client.login()

    # Warm both paths once so first-touch costs stay out of the timing.
    client.fleet()
    client.submit_job("warmup", "noop", vantage_point="shard-0-node1")

    started = time.perf_counter()
    for _ in range(SCATTER_READS):
        client.fleet()
    scatter_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for index in range(ROUTED_SUBMITS):
        client.submit_job(
            f"routed-{index}",
            "noop",
            vantage_point=f"shard-{index % shard_count}-node1",
        )
    submit_seconds = time.perf_counter() - started

    # Every submission must be visible in the merged global job list.
    page = client.job_page(offset=0, limit=1)
    assert page.total == ROUTED_SUBMITS + 1, page.total

    # Top every shard up to JOBS_PER_SHARD jobs for the paged job lists.
    for index in range(page.total, JOBS_PER_SHARD * shard_count):
        client.submit_job(
            f"listed-{index}",
            "noop",
            vantage_point=f"shard-{index % shard_count}-node1",
        )
    client.job_page(limit=JOB_PAGE_LIMIT)

    row = {
        "shards": shard_count,
        "scatter_reads": SCATTER_READS,
        "scatter_reads_per_s": round(SCATTER_READS / scatter_seconds, 1),
        "routed_submits": ROUTED_SUBMITS,
        "routed_submits_per_s": round(ROUTED_SUBMITS / submit_seconds, 1),
        "job_list_pages": JOB_PAGES,
    }
    return row, client


def _job_list_pages_per_s(clients: Dict[int, BatteryLabClient]) -> Dict[int, float]:
    """Pages/s per shard count: best of JOB_PAGE_ROUNDS rounds, the rounds of
    every federation interleaved, so that a slow spell of the host hits each
    count alike instead of swinging the retention ratio."""
    round_pages = JOB_PAGES // JOB_PAGE_ROUNDS
    best = {count: float("inf") for count in clients}
    for _ in range(JOB_PAGE_ROUNDS):
        for count, client in clients.items():
            started = time.perf_counter()
            for _ in range(round_pages):
                page = client.job_page(limit=JOB_PAGE_LIMIT)
            best[count] = min(best[count], time.perf_counter() - started)
            assert page.total == JOBS_PER_SHARD * count, page.total
            assert len(page.jobs) == JOB_PAGE_LIMIT, len(page.jobs)
    return {count: round(round_pages / seconds, 1) for count, seconds in best.items()}


def run_federation_scatter_benchmark() -> Dict[str, object]:
    rows: List[Dict[str, object]] = []
    clients: Dict[int, BatteryLabClient] = {}
    for count in SHARD_COUNTS:
        row, clients[count] = _bench_one(count)
        rows.append(row)
    pages_per_s = _job_list_pages_per_s(clients)
    result: Dict[str, object] = {"benchmark": "federation_scatter", "rows": rows}
    for row in rows:
        row["job_list_pages_per_s"] = pages_per_s[row["shards"]]
        suffix = f"{row['shards']}shard"
        result[f"scatter_reads_per_s_{suffix}"] = row["scatter_reads_per_s"]
        result[f"routed_submits_per_s_{suffix}"] = row["routed_submits_per_s"]
        result[f"job_list_pages_per_s_{suffix}"] = row["job_list_pages_per_s"]
    # Normalized shape checks: how much of the single-shard rate survives
    # at 4 shards.  Scatter pays the fan-out; routing should not; a paged
    # job list pays the fan-out of its page, not of the shards' job counts.
    result["scatter_retention_4v1"] = round(
        result["scatter_reads_per_s_4shard"] / result["scatter_reads_per_s_1shard"],
        4,
    )
    result["routed_retention_4v1"] = round(
        result["routed_submits_per_s_4shard"]
        / result["routed_submits_per_s_1shard"],
        4,
    )
    result["job_list_retention_4v1"] = round(
        result["job_list_pages_per_s_4shard"]
        / result["job_list_pages_per_s_1shard"],
        4,
    )
    result["min_scatter_reads_per_s"] = MIN_SCATTER_READS_PER_S
    result["min_routed_submits_per_s"] = MIN_ROUTED_SUBMITS_PER_S
    result["min_job_list_pages_per_s"] = MIN_JOB_LIST_PAGES_PER_S
    return result


def write_result(result: Dict[str, object]) -> None:
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")


def _enforce_floors(result: Dict[str, object]) -> None:
    for count in SHARD_COUNTS:
        reads = result[f"scatter_reads_per_s_{count}shard"]
        submits = result[f"routed_submits_per_s_{count}shard"]
        pages = result[f"job_list_pages_per_s_{count}shard"]
        if reads < MIN_SCATTER_READS_PER_S:
            raise SystemExit(
                f"{count}-shard scatter sustained {reads} reads/s; "
                f"floor is {MIN_SCATTER_READS_PER_S}"
            )
        if submits < MIN_ROUTED_SUBMITS_PER_S:
            raise SystemExit(
                f"{count}-shard routing sustained {submits} submits/s; "
                f"floor is {MIN_ROUTED_SUBMITS_PER_S}"
            )
        if pages < MIN_JOB_LIST_PAGES_PER_S:
            raise SystemExit(
                f"{count}-shard job.list sustained {pages} pages/s; "
                f"floor is {MIN_JOB_LIST_PAGES_PER_S}"
            )


def test_federation_scatter(benchmark):
    from conftest import report, run_once

    result = run_once(benchmark, run_federation_scatter_benchmark)
    write_result(result)
    report(benchmark, "Federation — scatter-gather vs routed throughput", result["rows"])
    for count in SHARD_COUNTS:
        assert result[f"scatter_reads_per_s_{count}shard"] >= MIN_SCATTER_READS_PER_S
        assert result[f"routed_submits_per_s_{count}shard"] >= MIN_ROUTED_SUBMITS_PER_S
        assert result[f"job_list_pages_per_s_{count}shard"] >= MIN_JOB_LIST_PAGES_PER_S


if __name__ == "__main__":
    outcome = run_federation_scatter_benchmark()
    write_result(outcome)
    print(json.dumps(outcome, indent=2))
    _enforce_floors(outcome)
