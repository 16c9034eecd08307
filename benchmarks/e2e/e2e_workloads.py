"""The load generator: four workloads driven through the public SDK.

Every request goes through :class:`repro.api.client.BatteryLabClient` over
:class:`repro.api.gateway.JsonLinesTransport` with TLS, from at most two
threads.  Operation counts are fixed per workload (scaled only by
``--seconds``), so state size, checkpoint count and byte counts are the
same run to run; ``--seed`` picks job names, priorities and the order of
the fleet-wide read kinds within a round.

Each latency sample is ``perf_counter`` around one SDK call
(:meth:`Recorder.call`).  A request that raises is counted in
``failed`` against ``attempted`` and the round it belonged to is abandoned.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.api.errors import ApiError

#: Latency classes that become end-to-end metrics (one cost mode each).
SAMPLE_CLASSES = ("settle", "submit", "read", "fleet", "scan", "report")

#: The cheap / O(jobs) / analytics fleet-wide reads, and the class of each.
FLEET_WIDE = (
    ("server_status", "fleet"),
    ("fleet", "fleet"),
    ("job_page", "scan"),
    ("analytics_report", "report"),
)

#: ``job.list`` page size of the scan read.
SCAN_LIMIT = 20

#: Lanes of the federation workload (``repro federate --shards 4``).
FED_SHARDS = 4

#: A watch whose ``end`` frame is this late counts as lost.
WATCH_TIMEOUT_S = 60.0


class OpFailed(Exception):
    """One SDK call failed; already counted in the recorder."""


@dataclass
class Recorder:
    """Samples and counts of one load-generator thread."""

    tracer: Optional[object] = None
    samples: Dict[str, List[float]] = field(
        default_factory=lambda: {name: [] for name in SAMPLE_CLASSES}
    )
    attempted: int = 0
    failed: int = 0
    requests_done: int = 0
    errors: List[str] = field(default_factory=list)
    #: (job id whose ``end`` frame closed the sample, submit sent, end received, jobs)
    settles: List[Tuple[int, float, float, int]] = field(default_factory=list)
    job_ids: List[int] = field(default_factory=list)

    def call(self, cls: Optional[str], fn: Callable, *args, requests: int = 1, **kwargs):
        """Time one SDK call; count it, and file the sample under ``cls``."""
        self.attempted += requests
        tracer = self.tracer
        token = tracer.begin("api.client." + fn.__name__) if tracer else None
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except ApiError as exc:
            self.failed += requests
            self.errors.append(f"{fn.__name__}: [{exc.code}] {exc.message}")
            raise OpFailed(fn.__name__) from exc
        finally:
            ended = time.perf_counter()
            if token is not None:
                tracer.end(token)
        self.requests_done += requests
        if cls is not None:
            self.samples[cls].append((ended - started) / requests)
        if token is not None and cls == "submit":
            # Lets the traced run find the client span of a job's submit.
            last = result[-1] if isinstance(result, list) else result
            token.attrs["job"] = last.job_id
        return result

    def wait_end(self, watch) -> float:
        """Consume a ``job.watch`` stream to its ``end`` frame; returns when.

        Not an API request (frames are pushed), but a stream that never
        ends is a failed operation like any other.
        """
        self.attempted += 1
        tracer = self.tracer
        token = tracer.begin("api.client.watch_wait") if tracer else None
        try:
            final = watch.wait()
        except ApiError as exc:
            self.failed += 1
            self.errors.append(f"watch.wait: [{exc.code}] {exc.message}")
            raise OpFailed("watch.wait") from exc
        finally:
            ended = time.perf_counter()
            if token is not None:
                tracer.end(token)
        if final.status != "completed":
            self.failed += 1
            self.errors.append(f"job {final.job_id} ended {final.status}")
            raise OpFailed("watch.wait")
        return ended

    def settled(self, job_id: int, sent: float, ended: float, jobs: int = 1) -> None:
        self.settles.append((job_id, sent, ended, jobs))
        self.samples["settle"].append(ended - sent)


def fleet_wide_rounds(rng: random.Random) -> Iterator[Tuple[str, str]]:
    """The four fleet-wide reads forever, reshuffled every round of four."""
    kinds = list(FLEET_WIDE)
    while True:
        rng.shuffle(kinds)
        yield from kinds


def fleet_wide_read(rec: Recorder, client, kind: Tuple[str, str]) -> None:
    method, cls = kind
    if method == "job_page":
        rec.call(cls, client.job_page, limit=SCAN_LIMIT, offset=0)
    else:
        rec.call(cls, getattr(client, method))


def job_name(workload: str, rng: random.Random, index: int) -> str:
    return f"{workload}-{rng.getrandbits(32):08x}-{index:06d}"


def priority(rng: random.Random) -> float:
    return float(rng.randrange(4))


# -- the four loops ---------------------------------------------------------------


def interactive_round(client, rec: Recorder, rng, kinds, index: int, reads: int) -> None:
    """submit → watch → status + fleet-wide reads while pending → end → results."""
    sent = time.perf_counter()
    view = rec.call(
        "submit", client.submit_job, job_name("interactive", rng, index), "noop",
        priority=priority(rng),
    )
    rec.job_ids.append(view.job_id)
    watch = rec.call(None, client.watch_job, view.job_id, timeout_s=WATCH_TIMEOUT_S)
    # Reads go between watch-open and ``end`` so they never shift this
    # client's phase against the server's dispatch tick.
    rec.call("read", client.job_status, view.job_id)
    for _ in range(reads):
        fleet_wide_read(rec, client, next(kinds))
    ended = rec.wait_end(watch)
    rec.settled(view.job_id, sent, ended)
    rec.call("read", client.job_results, view.job_id)


def agent_round(client, rec: Recorder, rng, kinds, index: int, reads: int) -> None:
    """submit (execution=agent) → watch → end → results, status, fleet-wide reads."""
    sent = time.perf_counter()
    view = rec.call(
        "submit", client.submit_job, job_name("agent_pull", rng, index), "noop",
        priority=priority(rng), execution="agent", connector="fake",
    )
    rec.job_ids.append(view.job_id)
    watch = rec.call(None, client.watch_job, view.job_id, timeout_s=WATCH_TIMEOUT_S)
    ended = rec.wait_end(watch)
    rec.settled(view.job_id, sent, ended)
    rec.call("read", client.job_results, view.job_id)
    rec.call("read", client.job_status, view.job_id)
    for _ in range(reads):
        fleet_wide_read(rec, client, next(kinds))


def fed_round(client, rec: Recorder, rng, index: int, lanes: List[List[int]]) -> None:
    """One routed submit + watch, twelve reads, then the ``end`` frame."""
    lane = index % FED_SHARDS
    sent = time.perf_counter()
    view = rec.call(
        "submit", client.submit_job, job_name("fed_reads", rng, index), "noop",
        priority=priority(rng), vantage_point=f"shard-{lane}-node1",
    )
    rec.job_ids.append(view.job_id)
    watch = rec.call(None, client.watch_job, view.job_id, timeout_s=WATCH_TIMEOUT_S)
    for shard, method in enumerate((client.job_status, client.job_results) * 2):
        rec.call("read", method, rng.choice(lanes[shard]))
    kinds = list(FLEET_WIDE) * 2
    rng.shuffle(kinds)
    for kind in kinds:
        fleet_wide_read(rec, client, kind)
    ended = rec.wait_end(watch)
    rec.settled(view.job_id, sent, ended)


def campaign_loop(
    client, rec: Recorder, rng, jobs: int, batch: int, window: int, reads: int
) -> None:
    """Pipelined submits in batches, a bounded number of jobs outstanding.

    The oldest batch's ``end`` frame is awaited before more is sent, which
    keeps submission phase-locked to settles.  FIFO dispatch onto the one
    device makes the ``end`` of a batch's last job the batch's settle time.
    """
    outstanding: deque = deque()  # (watch, last job id, flush started, jobs)
    in_flight = 0
    six = [("job_status", "read"), ("job_results", "read"), *FLEET_WIDE]
    read_order: List[Tuple[str, str]] = []

    def settle_oldest() -> None:
        nonlocal in_flight
        watch, last_id, started, count = outstanding.popleft()
        in_flight -= count
        ended = rec.wait_end(watch)
        rec.settled(last_id, started, ended, jobs=count)

    for first in range(0, jobs, batch):
        count = min(batch, jobs - first)
        try:
            while in_flight + count > window:
                settle_oldest()
            pipe = client.pipeline()
            for index in range(first, first + count):
                pipe.submit_job(job_name("campaign", rng, index), "noop", priority=priority(rng))
            started = time.perf_counter()
            views = rec.call("submit", pipe.flush, requests=count)
            rec.job_ids.extend(view.job_id for view in views)
            last_id = views[-1].job_id
            watch = rec.call(None, client.watch_job, last_id, timeout_s=WATCH_TIMEOUT_S)
            outstanding.append((watch, last_id, started, count))
            in_flight += count
            for _ in range(reads):
                if not read_order:
                    read_order = list(six)
                    rng.shuffle(read_order)
                method, cls = read_order.pop()
                if cls == "read":
                    rec.call(cls, getattr(client, method), views[0].job_id)
                else:
                    fleet_wide_read(rec, client, (method, cls))
        except OpFailed:
            continue
    while outstanding:
        try:
            settle_oldest()
        except OpFailed:
            continue


# -- workload table ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    platform: str  # "serve" or "federate"
    agent: bool
    connections: int
    #: Operation counts at ``--seconds`` = BENCHMARK.json ``run_seconds``.
    jobs: int
    preload: int = 0
    reads: int = 0
    batch: int = 0
    window: int = 0
    #: ``--duration-s`` of every child, a dead-man timer: above the 180 s a
    #: run at ``run_seconds`` may take.
    deadman_s: float = 240.0

    def scaled(self, factor: float) -> "Workload":
        """The same workload with its job counts multiplied by ``factor``.

        Counts stay whole multiples of what one round of every connection
        (and lane) submits, so threads and lanes keep equal shares.  A longer
        run gets a proportionally later dead-man timer.
        """

        def grow(count: int, granule: int) -> int:
            return max(1, round(count * factor / granule)) * granule if count else 0

        lanes = FED_SHARDS if self.platform == "federate" else 1
        granule = self.connections * max(1, self.batch) * lanes
        return replace(
            self, jobs=grow(self.jobs, granule), preload=grow(self.preload, lanes),
            deadman_s=self.deadman_s * max(1.0, factor),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "interactive",
            "the paper's remote experimenter: 2 closed-loop clients, every op a "
            "serial TLS round trip; client/gateway/router and the serve-loop tick "
            "do the work",
            platform="serve", agent=False, connections=2, jobs=500, reads=2,
        ),
        Workload(
            "campaign",
            "the bulk-study user: pipelined submits, 500 outstanding, reads beside "
            "writes; dispatch/executor/journal checkpoints/analytics fold do the work",
            platform="serve", agent=False, connections=1, jobs=12000, reads=2,
            batch=20, window=500,
        ),
        Workload(
            "agent_pull",
            "the vantage-point-pull plane: long-poll wake, claim, connector phases, "
            "fsync'd outbox, exactly-once report; push dispatch and the tick are "
            "bypassed",
            platform="serve", agent=True, connections=1, jobs=1000, reads=2,
        ),
        Workload(
            "fed_reads",
            "the read-heavy operator view through federation.router/merge over 4 "
            "shards: scatter cost on fleet/scan/report, passthrough reads as control",
            platform="federate", agent=False, connections=1, jobs=200, preload=1000,
        ),
    )
}


def run_thread_loop(
    workload: Workload, index: int, client, rec: Recorder, seed: int, lanes
) -> None:
    """The measured loop of connection ``index`` (called on its own thread)."""
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    share = workload.jobs // workload.connections
    if workload.name == "campaign":
        campaign_loop(
            client, rec, rng, share, workload.batch, workload.window, workload.reads
        )
        return
    kinds = fleet_wide_rounds(rng)
    for job in range(share):
        try:
            if workload.name == "interactive":
                interactive_round(client, rec, rng, kinds, job, workload.reads)
            elif workload.name == "agent_pull":
                agent_round(client, rec, rng, kinds, job, workload.reads)
            else:
                fed_round(client, rec, rng, job, lanes)
        except OpFailed:
            continue


def warm_up(workload: Workload, client, rec: Recorder, lanes) -> None:
    """One discarded round on a fresh connection (TLS, caches, first job)."""
    rng = random.Random(f"{workload.name}/warm-up")
    kinds = fleet_wide_rounds(rng)
    if workload.name == "campaign":
        campaign_loop(client, rec, rng, workload.batch, workload.batch, workload.batch, 6)
    elif workload.name == "interactive":
        interactive_round(client, rec, rng, kinds, 0, 4)
    elif workload.name == "agent_pull":
        agent_round(client, rec, rng, kinds, 0, 4)
    else:
        for index in range(FED_SHARDS):
            fed_round(client, rec, rng, index, lanes)


def preload(workload: Workload, client, rec: Recorder) -> List[List[int]]:
    """Settle ``workload.preload`` jobs spread over the lanes; ids per lane."""
    lanes: List[List[int]] = [[] for _ in range(FED_SHARDS)]
    if not workload.preload:
        return lanes
    rng = random.Random(f"{workload.name}/preload")
    per_lane = workload.preload // FED_SHARDS
    batch = 50
    for lane in range(FED_SHARDS):
        for first in range(0, per_lane, batch):
            pipe = client.pipeline()
            for index in range(first, min(per_lane, first + batch)):
                pipe.submit_job(
                    job_name("preload", rng, index), "noop",
                    vantage_point=f"shard-{lane}-node1",
                )
            count = len(pipe)
            views = rec.call(None, pipe.flush, requests=count)
            lanes[lane].extend(view.job_id for view in views)
            rec.job_ids.extend(view.job_id for view in views)
    # Each shard is FIFO onto one device: its last job ending means all did.
    for lane in range(FED_SHARDS):
        watch = rec.call(None, client.watch_job, lanes[lane][-1], timeout_s=WATCH_TIMEOUT_S)
        rec.wait_end(watch)
    return lanes


def measure(
    workload: Workload, clients: List, recorders: List[Recorder], seed: int, lanes,
    on_start: Callable[[], None], on_end: Callable[[], None],
) -> None:
    """Run every connection's loop on its own thread between two callbacks."""
    failures: List[BaseException] = []
    barrier = threading.Barrier(len(clients) + 1)

    def body(index: int) -> None:
        try:
            barrier.wait()
            run_thread_loop(workload, index, clients[index], recorders[index], seed, lanes)
        except BaseException as exc:  # re-raised on the main thread below
            failures.append(exc)

    threads = [
        threading.Thread(target=body, args=(index,), name=f"loadgen-{index}")
        for index in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    on_start()
    barrier.wait()
    for thread in threads:
        thread.join()
    on_end()
    if failures:
        raise failures[0]
