"""``cli._host_loop``: when it sleeps, how it paces simulated time, what it holds.

The loop is driven through the seam the e2e tracer uses — the ``time``
global of :mod:`repro.cli` — with fake platforms whose ``run_queue``
returns scripted batch sizes, so every case is exact and takes no wall
time.  One case at the end crosses a real socket.
"""

import threading

import pytest

from repro import cli
from repro.accessserver.server import DISPATCH_BATCH
from repro.api import ApiGateway, ApiRouter, BatteryLabClient
from repro.api.gateway import JsonLinesTransport
from repro.core.platform import build_default_platform

TICK_S = 0.05


class FakeTime:
    """Stands in for ``repro.cli.time``: a clock only the test moves."""

    def __init__(self, calls, between_passes=None):
        self.now = 0.0
        self.calls = calls
        self.sleeps = []
        self.between_passes = between_passes

    def monotonic(self):
        if self.between_passes is not None:
            self.between_passes()
        return self.now

    def sleep(self, seconds):
        self.calls.append(("time", "sleep", seconds))
        self.sleeps.append(seconds)
        self.now += seconds


class FakeGateway:
    address = ("127.0.0.1", 0)
    tls_enabled = False

    def __init__(self):
        self.router_lock = threading.Lock()
        self.stopped = False

    def stop(self):
        self.stopped = True


class FakePlatform:
    """Has ``queued`` jobs and runs a batch of them per ``run_queue`` call.

    A pass costs ``busy_s`` of the fake clock.  ``calls`` is shared with the
    clock and the other platforms of the loop, in order of occurrence:
    ``(name, "run_queue" | "run_for" | "sleep", value)``.
    """

    def __init__(self, name, clock, calls, queued=0, busy_s=0.0, gateway=None):
        self.name = name
        self.clock = clock
        self.calls = calls
        self.queued = queued
        self.busy_s = busy_s
        self.gateway = gateway
        self.context = self

    def run_queue(self):
        if self.gateway is not None:
            assert self.gateway.router_lock.locked()
        ran = min(self.queued, DISPATCH_BATCH)
        self.queued -= ran
        self.clock.now += self.busy_s
        self.calls.append((self.name, "run_queue", ran))
        return [None] * ran

    def run_for(self, step):
        self.calls.append((self.name, "run_for", step))


@pytest.fixture
def rig(monkeypatch):
    calls = []
    clock = FakeTime(calls)
    monkeypatch.setattr(cli, "time", clock)
    return clock, FakeGateway(), calls


def steps(calls, name="a"):
    return [value for who, what, value in calls if who == name and what == "run_for"]


def test_a_backlog_is_drained_in_consecutive_passes_without_sleeping(rig):
    clock, gateway, calls = rig
    platform = FakePlatform("a", clock, calls, queued=1000, busy_s=0.001)

    served = cli._host_loop(gateway, "test", lambda: (platform,), 0.1)

    # Ten full batches, the short pass that finds the queue empty, and only
    # then the first sleep.
    history = [what for _, what, _ in calls if what != "run_for"]
    assert history[:13] == ["run_queue"] * 11 + ["sleep", "run_queue"]
    assert served == 1000
    assert gateway.stopped


def test_an_idle_loop_ticks_every_50ms_and_advances_one_second_per_pass(rig):
    clock, gateway, calls = rig
    platform = FakePlatform("a", clock, calls)

    cli._host_loop(gateway, "test", lambda: (platform,), 1.0)

    assert clock.sleeps and set(clock.sleeps) == {TICK_S}
    assert len(clock.sleeps) in (20, 21)  # 1.0 / 0.05, give or take float sums
    assert steps(calls) == [1.0] * len(clock.sleeps)


def test_a_sustained_backlog_never_buys_more_than_20_simulated_seconds_a_second(rig):
    clock, gateway, calls = rig
    platform = FakePlatform("a", clock, calls, queued=10**9, busy_s=0.004)

    cli._host_loop(gateway, "test", lambda: (platform,), 2.0)

    assert clock.sleeps == []
    assert len(calls) > 2 * 400  # back-to-back 4 ms passes, not 54 ms ones
    assert set(steps(calls)) == {0.0, 1.0}
    clock_s = 0.0
    advanced = 0.0
    for index, (_, what, value) in enumerate(calls):
        # run_queue and run_for stay paired one to one, in that order.
        assert what == ("run_queue", "run_for")[index % 2]
        if what == "run_queue":
            clock_s += platform.busy_s
        else:
            advanced += value
            assert advanced <= 20 * clock_s + 1
    assert advanced >= 20 * 2.0 - 1  # and the backlog does not stall the clock


def test_the_lock_is_free_between_passes(monkeypatch):
    gateway, calls, order = FakeGateway(), [], []
    waiter_has_run = threading.Event()

    def waiter():
        with gateway.router_lock:
            order.append("waiter")
        waiter_has_run.set()

    def between_passes():
        # Reached with the lock released.  Once the first pass is over, the
        # next does not start until the thread it left blocked has had the
        # lock; were the lock held across passes, this wait would time out.
        if order == ["pass"]:
            assert waiter_has_run.wait(5.0)

    clock = FakeTime(calls, between_passes)
    monkeypatch.setattr(cli, "time", clock)
    platform = FakePlatform("a", clock, calls, queued=10**9, busy_s=0.01, gateway=gateway)
    run_queue = platform.run_queue
    blocked = threading.Thread(target=waiter)

    def first_pass_leaves_a_waiter_behind():
        if not order:
            blocked.start()  # under the lock: it cannot get in before the pass ends
        order.append("pass")
        return run_queue()

    platform.run_queue = first_pass_leaves_a_waiter_behind
    cli._host_loop(gateway, "test", lambda: (platform,), 0.05)
    blocked.join(5.0)

    assert not blocked.is_alive()
    assert order[:3] == ["pass", "waiter", "pass"]
    assert clock.sleeps == []


def test_a_perpetual_backlog_still_ends_at_duration(rig):
    clock, gateway, calls = rig
    platform = FakePlatform("a", clock, calls, queued=10**9, busy_s=0.01)

    served = cli._host_loop(gateway, "test", lambda: (platform,), 0.5)

    assert served == 50 * DISPATCH_BATCH  # 0.5 s of back-to-back 10 ms passes
    assert clock.now == pytest.approx(0.5)
    assert gateway.stopped


def test_every_platform_is_visited_every_pass_and_the_idle_one_keeps_its_clock(rig):
    clock, gateway, calls = rig
    busy = FakePlatform("a", clock, calls, queued=10**9, busy_s=0.005)
    idle = FakePlatform("b", clock, calls)

    cli._host_loop(gateway, "test", lambda: (busy, idle), 1.0)

    assert clock.sleeps == []  # one backlogged platform keeps the loop awake
    pattern = [("a", "run_queue"), ("a", "run_for"), ("b", "run_queue"), ("b", "run_for")]
    assert [(who, what) for who, what, _ in calls] == pattern * (len(calls) // 4)
    assert steps(calls, "b") == steps(calls, "a")
    assert steps(calls, "b")[0] == 1.0
    assert 19 <= sum(steps(calls, "b")) <= 21  # one simulated second per 50 ms


def test_an_interrupted_pass_releases_the_lock_and_stops_the_gateway(rig):
    clock, gateway, calls = rig
    platform = FakePlatform("a", clock, calls, queued=250, busy_s=0.001)
    run_queue = platform.run_queue

    def interrupted_on_the_third_pass():
        if platform.queued < 100:
            raise KeyboardInterrupt
        return run_queue()

    platform.run_queue = interrupted_on_the_third_pass
    served = cli._host_loop(gateway, "test", lambda: (platform,), None)

    assert served == 200
    assert not gateway.router_lock.locked()
    assert gateway.stopped


def test_serve_reports_its_dispatch_passes_on_the_way_out(tmp_path, capsys):
    assert cli.main(["--state-dir", str(tmp_path), "serve", "--duration-s", "0.12"]) == 0
    last_line = capsys.readouterr().out.splitlines()[-1]
    assert last_line.startswith("gateway stopped after executing 0 job(s) in 0 full, 0 partial and ")
    assert last_line.endswith(" empty dispatch pass(es)")


def test_a_second_connection_is_served_while_a_pipelined_backlog_drains():
    """Real sockets, real clock: a mutating request of another connection
    gets ``router_lock`` between the back-to-back passes of a deep queue."""
    platform = build_default_platform(seed=13, browsers=("chrome",))
    gateway = ApiGateway(ApiRouter(platform.access_server))
    host, port = gateway.start()
    done = threading.Event()

    def platforms():
        if done.is_set():
            raise KeyboardInterrupt  # the loop's only stop hook besides its deadline
        return (platform,)

    loop = threading.Thread(target=cli._host_loop, args=(gateway, "test", platforms, 120.0))
    loop.start()

    def connect():
        return BatteryLabClient(
            JsonLinesTransport(host, port, timeout_s=30.0), "experimenter", "experimenter-token"
        )

    try:
        with connect() as bulk, connect() as other:
            for first in range(0, 2000, 20):
                pipe = bulk.pipeline()
                for index in range(first, first + 20):
                    pipe.submit_job(f"bulk-{index}", "noop")
                last = pipe.flush()[-1]
                if first == 1000:
                    mine = other.submit_job("other", "noop")
            assert other.watch_job(mine.job_id, timeout_s=30.0).wait().status == "completed"
            assert bulk.watch_job(last.job_id, timeout_s=30.0).wait().status == "completed"
        counts = platform.access_server.dispatch_pass_counts()
        assert counts["full"] >= 1, counts  # the queue did outrun a batch
        with gateway.router_lock:  # the pass that pushed the last end frame is over
            jobs = platform.analytics.report()["jobs"]
        assert (jobs["submitted"], jobs["completed"]) == (2001, 2001)
    finally:
        done.set()
        loop.join(5.0)
    assert not loop.is_alive()
