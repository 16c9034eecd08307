"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import empirical_cdf
from repro.analysis.stats import summarize
from repro.accessserver.dns import DnsZone
from repro.accessserver.scheduler import JobScheduler, SchedulingError
from repro.accessserver.jobs import Job, JobConstraints, JobSpec
from repro.device.battery import Battery
from repro.network.link import NetworkLink
from repro.network.web import WebPage
from repro.powermonitor.traces import CurrentTrace
from repro.simulation.clock import SimClock
from repro.simulation.events import EventScheduler
from repro.simulation.random import SeededRandom, derive_seed


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------
current_lists = st.lists(
    st.floats(min_value=0.0, max_value=6000.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=200,
)


@given(currents=current_lists)
def test_trace_statistics_are_bounded_by_samples(currents):
    timestamps = np.arange(len(currents), dtype=float)
    trace = CurrentTrace(timestamps, currents)
    assert min(currents) - 1e-9 <= trace.median_current_ma() <= max(currents) + 1e-9
    assert min(currents) - 1e-9 <= trace.mean_current_ma() <= max(currents) + 1e-9
    assert trace.max_current_ma() == pytest.approx(max(currents))
    assert trace.discharge_mah() >= 0.0


@given(currents=current_lists)
def test_trace_discharge_bounded_by_max_current(currents):
    timestamps = np.arange(len(currents), dtype=float)
    trace = CurrentTrace(timestamps, currents)
    upper_bound = max(currents) * trace.duration_s / 3600.0
    assert trace.discharge_mah() <= upper_bound + 1e-9


@given(currents=current_lists, factor=st.integers(min_value=1, max_value=10))
def test_trace_downsample_preserves_bounds(currents, factor):
    timestamps = np.arange(len(currents), dtype=float)
    trace = CurrentTrace(timestamps, currents)
    down = trace.downsample(factor)
    assert len(down) <= len(trace)
    assert down.max_current_ma() <= trace.max_current_ma() + 1e-9


# ---------------------------------------------------------------------------
# CDFs and summaries
# ---------------------------------------------------------------------------
sample_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=300,
)


@given(samples=sample_lists)
def test_cdf_is_monotonic_and_normalised(samples):
    cdf = empirical_cdf(samples)
    assert np.all(np.diff(cdf.values) >= 0)
    assert np.all(np.diff(cdf.probabilities) >= -1e-12)
    assert cdf.probabilities[-1] == pytest.approx(1.0)
    assert cdf.evaluate(float("inf")) == 1.0


@given(samples=sample_lists, q=st.floats(min_value=0.0, max_value=1.0))
def test_cdf_quantile_within_sample_range(samples, q):
    cdf = empirical_cdf(samples)
    value = cdf.quantile(q)
    assert min(samples) - 1e-9 <= value <= max(samples) + 1e-9


@given(samples=sample_lists)
def test_summary_invariants(samples):
    summary = summarize(samples)
    # Allow a tiny floating-point tolerance relative to the sample magnitude.
    tolerance = 1e-9 * max(1.0, max(abs(s) for s in samples))
    assert summary.minimum - tolerance <= summary.median <= summary.maximum + tolerance
    assert summary.minimum - tolerance <= summary.mean <= summary.maximum + tolerance
    assert summary.std >= 0.0
    assert summary.count == len(samples)


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------
@given(
    capacity=st.floats(min_value=100.0, max_value=10000.0),
    draws=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2000.0),
            st.floats(min_value=0.0, max_value=3600.0),
        ),
        max_size=30,
    ),
)
def test_battery_charge_stays_within_bounds(capacity, draws):
    battery = Battery(capacity, 3.85)
    for current_ma, duration_s in draws:
        battery.drain(current_ma, duration_s)
    assert 0.0 <= battery.charge_mah <= capacity
    assert battery.total_discharged_mah >= 0.0
    assert battery.total_discharged_mah <= capacity + 1e-6


@given(
    charge_steps=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2000.0),
            st.floats(min_value=0.0, max_value=3600.0),
        ),
        max_size=30,
    )
)
def test_battery_charging_never_exceeds_capacity(charge_steps):
    battery = Battery(1000.0, 3.85, initial_level=0.2)
    for current_ma, duration_s in charge_steps:
        battery.charge(current_ma, duration_s)
    assert battery.charge_mah <= battery.capacity_mah + 1e-9


# ---------------------------------------------------------------------------
# Clock / scheduler
# ---------------------------------------------------------------------------
@given(deltas=st.lists(st.floats(min_value=0.0, max_value=1000.0), max_size=50))
def test_clock_is_monotonic(deltas):
    clock = SimClock()
    previous = clock.now
    for delta in deltas:
        clock.advance(delta)
        assert clock.now >= previous
        previous = clock.now


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
@settings(max_examples=50)
def test_events_fire_in_timestamp_order(delays):
    scheduler = EventScheduler()
    fired = []
    for delay in delays:
        scheduler.schedule_in(delay, lambda d=delay: fired.append(scheduler.now))
    scheduler.drain()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), name=st.text(min_size=1, max_size=20))
def test_derive_seed_is_stable_and_in_range(seed, name):
    first = derive_seed(seed, name)
    second = derive_seed(seed, name)
    assert first == second
    assert 0 <= first < 2**64


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    low=st.floats(min_value=-100.0, max_value=0.0),
    high=st.floats(min_value=0.1, max_value=100.0),
)
def test_clipped_normal_respects_bounds(seed, low, high):
    stream = SeededRandom(seed, "prop")
    value = stream.clipped_normal(0.0, 50.0, low=low, high=high)
    assert low <= value <= high


# ---------------------------------------------------------------------------
# Network link
# ---------------------------------------------------------------------------
@given(
    down=st.floats(min_value=0.1, max_value=1000.0),
    up=st.floats(min_value=0.1, max_value=1000.0),
    latency=st.floats(min_value=0.0, max_value=500.0),
    size=st.integers(min_value=0, max_value=50_000_000),
)
def test_download_time_monotonic_in_size(down, up, latency, size):
    link = NetworkLink(name="p", downlink_mbps=down, uplink_mbps=up, latency_ms=latency)
    small = link.download_time_s(size)
    large = link.download_time_s(size + 1_000_000)
    assert large >= small >= link.rtt_ms / 1000.0 - 1e-9


# ---------------------------------------------------------------------------
# Web pages
# ---------------------------------------------------------------------------
@given(
    base=st.integers(min_value=0, max_value=10_000_000),
    ads=st.integers(min_value=0, max_value=10_000_000),
    region=st.sampled_from(["GB", "US", "JP", "ZA", "HK", "BR", "XX"]),
)
def test_ad_blocking_never_increases_payload(base, ads, region):
    page = WebPage(url="https://x", base_bytes=base, ad_bytes=ads)
    blocked = page.payload_bytes(region=region, ads_blocked=True)
    unblocked = page.payload_bytes(region=region, ads_blocked=False)
    assert blocked <= unblocked
    assert blocked == base


# ---------------------------------------------------------------------------
# DNS zone
# ---------------------------------------------------------------------------
name_strategy = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12)


@given(names=st.lists(name_strategy, min_size=1, max_size=20, unique=True))
def test_dns_register_resolve_roundtrip(names):
    zone = DnsZone()
    for index, name in enumerate(names):
        zone.register(name, f"10.0.0.{index}")
    for index, name in enumerate(names):
        assert zone.resolve(name) == f"10.0.0.{index}"
    assert len(zone.records()) == len(names)


# ---------------------------------------------------------------------------
# Scheduler: one job at a time per device
# ---------------------------------------------------------------------------
@given(job_count=st.integers(min_value=1, max_value=15))
@settings(max_examples=30)
def test_scheduler_never_double_books_a_device(job_count):
    scheduler = JobScheduler()
    scheduler.slots.register("node1", "dev0")
    jobs = [
        scheduler.submit(
            Job(spec=JobSpec(name=f"job-{i}", owner="exp", run=lambda ctx: None,
                             constraints=JobConstraints())),
            now=0.0,
        )
        for i in range(job_count)
    ]
    completed = 0
    while True:
        batch = scheduler.dispatch_batch(now=float(completed), max_assignments=1)
        if not batch:
            break
        job = batch[0].job
        # While one job holds the device no other may be assigned to it.
        assert scheduler.dispatch_batch(now=float(completed)) == []
        job.mark_completed(float(completed) + 0.5, None)
        scheduler.release(job)
        completed += 1
    assert completed == job_count
