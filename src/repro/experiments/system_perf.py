"""System performance analysis (Section 4.2, "System Performance").

Beyond the CPU CDFs, the paper reports four controller-side figures for a
mirrored ~7-minute Chrome test:

* mirroring costs roughly an extra 50% of controller CPU on average;
* the memory impact is small (about +6%, staying under 20% of the Pi's 1 GB);
* the networking demand is about 32 MB of upload traffic per test (the
  scrcpy stream is capped at 1 Mbps, an upper bound of ~50 MB, and noVNC's
  compression brings it down);
* the click-to-pixel mirroring latency is 1.44 (±0.12) s over 40 trials
  measured while co-located with the vantage point (1 ms network RTT).

:func:`run_system_performance` regenerates all four from a monitored Chrome
run with and without mirroring plus a latency probe.  The measurement runs
are submitted as *platform jobs* through the Platform API v1 client SDK
(:mod:`repro.api`) — the experiment driver never touches
``AccessServer`` directly, exactly like a remote experimenter: submit,
dispatch, fetch the JSON results back over the API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.accessserver.payloads import register_payload, unregister_payload
from repro.analysis.stats import summarize
from repro.core.platform import build_default_platform
from repro.experiments.browser_study import run_browser_measurement
from repro.mirroring.latency import LatencySummary, MirroringLatencyProbe


@dataclass
class SystemPerformanceResult:
    """The Section 4.2 system-performance figures, reproduced."""

    browser: str
    test_duration_s: float
    controller_cpu_mean_plain: float
    controller_cpu_mean_mirroring: float
    memory_percent_plain: float
    memory_percent_mirroring: float
    upload_bytes: int
    latency: LatencySummary

    @property
    def cpu_extra_percent(self) -> float:
        """Extra average controller CPU caused by mirroring (percentage points)."""
        return self.controller_cpu_mean_mirroring - self.controller_cpu_mean_plain

    @property
    def memory_extra_percent(self) -> float:
        return self.memory_percent_mirroring - self.memory_percent_plain

    @property
    def upload_mb(self) -> float:
        return self.upload_bytes / 1e6

    def rows(self) -> List[dict]:
        return [
            {"metric": "controller CPU, no mirroring (%)", "value": round(self.controller_cpu_mean_plain, 1)},
            {"metric": "controller CPU, mirroring (%)", "value": round(self.controller_cpu_mean_mirroring, 1)},
            {"metric": "extra CPU from mirroring (pp)", "value": round(self.cpu_extra_percent, 1)},
            {"metric": "memory, no mirroring (%)", "value": round(self.memory_percent_plain, 1)},
            {"metric": "memory, mirroring (%)", "value": round(self.memory_percent_mirroring, 1)},
            {"metric": "extra memory from mirroring (pp)", "value": round(self.memory_extra_percent, 1)},
            {"metric": "upload traffic per test (MB)", "value": round(self.upload_mb, 1)},
            {"metric": "test duration (min)", "value": round(self.test_duration_s / 60.0, 1)},
            {"metric": "mirroring latency mean (s)", "value": round(self.latency.mean_s, 2)},
            {"metric": "mirroring latency std (s)", "value": round(self.latency.std_s, 2)},
        ]


def run_system_performance(
    browser: str = "chrome",
    dwell_s: float = 6.0,
    scrolls_per_page: int = 20,
    scroll_interval_s: float = 1.5,
    sample_rate_hz: float = 100.0,
    latency_trials: int = 40,
    network_rtt_ms: float = 1.0,
    seed: int = 7,
) -> SystemPerformanceResult:
    """Reproduce the Section 4.2 system-performance numbers.

    Each monitored browser run is submitted as a job through the Platform
    API v1 client; the payload returns the scalar figures as JSON, which is
    all a remote experimenter would get back over the wire.
    """
    measurements = {}
    for mirroring in (False, True):
        platform = build_default_platform(seed=seed, browsers=(browser,))
        handle = platform.vantage_point()
        client = platform.client()
        label = f"sysperf-{browser}{'+mirroring' if mirroring else ''}"

        def measure(ctx, platform=platform, handle=handle, mirroring=mirroring, label=label):
            result, _, _ = run_browser_measurement(
                platform,
                handle,
                browser,
                mirroring,
                dwell_s=dwell_s,
                scrolls_per_page=scrolls_per_page,
                scroll_interval_s=scroll_interval_s,
                sample_rate_hz=sample_rate_hz,
                label=label,
            )
            return {
                "controller_cpu_mean": summarize(result.controller_cpu_percent).mean,
                "memory_percent": result.controller_memory_percent,
                "upload_bytes": result.mirroring_upload_bytes,
                "duration_s": result.duration_s(),
            }

        # Register the payload under an explicit name and drop it after the
        # run: the closure captures the whole platform, and the catalogue is
        # process-global — leaving it registered would pin the platform in
        # memory for the process lifetime.
        payload_name = f"sysperf/{label}"
        register_payload(payload_name, measure)
        try:
            view = client.submit_job(label, payload_name)
            platform.run_queue()
            results = client.job_results(view.job_id)
        finally:
            unregister_payload(payload_name)
        if results.status != "completed":
            raise RuntimeError(
                f"system-performance job {label!r} did not complete: "
                f"{results.status} ({results.error})"
            )
        measurements[mirroring] = results.result
        latency_random = platform.context.random_stream("latency-probe")
    probe = MirroringLatencyProbe(latency_random, network_rtt_ms=network_rtt_ms)
    latency = probe.run(latency_trials)
    plain = measurements[False]
    mirrored = measurements[True]
    return SystemPerformanceResult(
        browser=browser,
        test_duration_s=mirrored["duration_s"],
        controller_cpu_mean_plain=plain["controller_cpu_mean"],
        controller_cpu_mean_mirroring=mirrored["controller_cpu_mean"],
        memory_percent_plain=plain["memory_percent"],
        memory_percent_mirroring=mirrored["memory_percent"],
        upload_bytes=mirrored["upload_bytes"],
        latency=latency,
    )
