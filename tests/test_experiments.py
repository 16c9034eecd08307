"""The paper's evaluation, reduced in scale: shape tests and the golden rows.

Each driver in ``repro.experiments`` runs once, in a module fixture, at the
scale in :data:`SCALES` and seed :data:`SEED`. The shape tests check the
paper's orderings and bands; :func:`test_rows_match_the_golden` compares
every row of Figures 2–6, Table 2 and Section 4.2 exactly against
``tests/data/paper_rows_seed17.json``. After a change that moves a figure
on purpose, rewrite the golden with::

    PYTHONPATH=src python tests/test_experiments.py

The ablations and the fleet run at the end are not paper rows; they keep
their shape tests only.
"""

import json
from pathlib import Path

import numpy
import pytest

from repro.accessserver.jobs import JobConstraints, JobSpec
from repro.automation.channels import AdbAutomation, BluetoothKeyboardAutomation
from repro.core.platform import add_vantage_point, build_default_platform
from repro.core.session import MeasurementSession
from repro.device.adb import AdbTransport
from repro.experiments.accuracy import run_accuracy_experiment
from repro.experiments.browser_study import run_browser_study
from repro.experiments.controller_load import run_controller_load_experiment
from repro.experiments.system_perf import run_system_performance
from repro.experiments.vpn_study import run_vpn_energy_study, run_vpn_speedtests
from repro.mirroring.session import MirroringSession
from repro.mirroring.source import ScrcpyClient
from repro.network.vpn import PROTONVPN_LOCATIONS
from repro.network.web import NEWS_SITES
from repro.workloads.video import VIDEO_PLAYER_PACKAGE

GOLDEN = Path(__file__).resolve().parent / "data" / "paper_rows_seed17.json"
SEED = 17

DRIVERS = {
    "accuracy": run_accuracy_experiment,
    "browser": run_browser_study,
    "controller_load": run_controller_load_experiment,
    "speedtests": run_vpn_speedtests,
    "vpn": run_vpn_energy_study,
    "system_perf": run_system_performance,
}

#: Keyword arguments of each driver, beside ``seed=SEED``.
SCALES = {
    "accuracy": {"duration_s": 40.0, "sample_rate_hz": 200.0},
    "browser": {
        "browsers": ("brave", "chrome", "edge", "firefox"),
        "repetitions": 2,
        "scrolls_per_page": 6,
        "scroll_interval_s": 1.5,
        "sites": None,
        "sample_rate_hz": 50.0,
    },
    "controller_load": {
        "browser": "chrome",
        "repetitions": 1,
        "scrolls_per_page": 6,
        "scroll_interval_s": 1.5,
        "sample_rate_hz": 50.0,
    },
    "speedtests": {"probes_per_location": 2},
    "vpn": {"repetitions": 1, "scrolls_per_page": 4, "sample_rate_hz": 50.0},
    "system_perf": {"scrolls_per_page": 6, "scroll_interval_s": 1.5, "sample_rate_hz": 50.0},
}


def run(name):
    return DRIVERS[name](seed=SEED, **SCALES[name])


def paper_rows(accuracy, browser, load, speedtests, vpn, perf):
    """Every row of the paper's evaluation, keyed by figure or table."""
    return {
        "figure2": accuracy.rows(),
        "figure3": browser.discharge_rows(),
        "figure4": browser.device_cpu_rows(),
        "figure5": load.rows(),
        "table2": speedtests,
        "figure6": vpn.rows(),
        "section4_2": perf.rows(),
    }


def _wire(value):
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def accuracy_study():
    return run("accuracy")


@pytest.fixture(scope="module")
def browser_study():
    return run("browser")


@pytest.fixture(scope="module")
def load():
    return run("controller_load")


@pytest.fixture(scope="module")
def speedtests():
    return run("speedtests")


@pytest.fixture(scope="module")
def vpn_study():
    return run("vpn")


@pytest.fixture(scope="module")
def perf():
    return run("system_perf")


def test_rows_match_the_golden(accuracy_study, browser_study, load, speedtests, vpn_study, perf):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert (golden["seed"], golden["scales"]) == (SEED, _wire(SCALES))
    rows = paper_rows(accuracy_study, browser_study, load, speedtests, vpn_study, perf)
    assert _wire(rows) == golden["rows"], (
        f"golden written under numpy {golden['numpy']}, this is {numpy.__version__}"
    )


class TestFigure2Accuracy:
    def test_four_scenarios_measured(self, accuracy_study):
        assert set(accuracy_study.results) == {
            "direct",
            "relay",
            "direct-mirroring",
            "relay-mirroring",
        }
        assert all(len(result.trace) > 0 for result in accuracy_study.results.values())

    def test_relay_overhead_negligible(self, accuracy_study):
        assert abs(accuracy_study.relay_overhead_ma()) < 5.0

    def test_mirroring_raises_median_current(self, accuracy_study):
        # Paper: median grows from ~160 mA to ~220 mA.
        for wiring in ("direct", "relay"):
            assert accuracy_study.scenario(wiring).median_current_ma() == pytest.approx(
                160.0, abs=25.0
            )
        assert accuracy_study.scenario("relay-mirroring").median_current_ma() == pytest.approx(
            220.0, abs=30.0
        )
        assert 40.0 < accuracy_study.mirroring_overhead_ma() < 90.0

    def test_rows_and_cdfs(self, accuracy_study):
        rows = accuracy_study.rows()
        assert len(rows) == 4
        cdfs = accuracy_study.cdfs()
        assert cdfs["direct"].median() < cdfs["direct-mirroring"].median()

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            run_accuracy_experiment(duration_s=0.0)


class TestFigures3And4BrowserStudy:
    def test_all_runs_present(self, browser_study):
        assert len(browser_study.runs) == 4 * 2 * 2  # browsers x mirroring x repetitions
        assert browser_study.browsers() == ["brave", "chrome", "edge", "firefox"]

    def test_brave_consumes_less_than_chrome(self, browser_study):
        assert browser_study.discharge_ranking(mirroring=False)[0] == "brave"
        assert browser_study.discharge_summary("brave", False).mean < browser_study.discharge_summary(
            "chrome", False
        ).mean

    def test_brave_consumes_least_and_firefox_most(self, browser_study):
        for mirroring in (False, True):
            assert browser_study.discharge_ranking(mirroring=mirroring) == [
                "brave",
                "chrome",
                "edge",
                "firefox",
            ]

    def test_mirroring_overhead_is_roughly_browser_independent(self, browser_study):
        overheads = [
            browser_study.mirroring_overhead_mah(browser) for browser in browser_study.browsers()
        ]
        assert all(overhead > 0 for overhead in overheads)
        assert (max(overheads) - min(overheads)) / max(overheads) < 0.3

    def test_device_cpu_medians_match_paper_shape(self, browser_study):
        brave = browser_study.device_cpu_cdf("brave", False).median()
        chrome = browser_study.device_cpu_cdf("chrome", False).median()
        assert brave < chrome
        assert brave == pytest.approx(12.0, abs=5.0)
        assert chrome == pytest.approx(20.0, abs=6.0)

    def test_mirroring_adds_about_five_percent_cpu(self, browser_study):
        for browser in ("brave", "chrome"):
            plain = browser_study.device_cpu_cdf(browser, False).median()
            mirrored = browser_study.device_cpu_cdf(browser, True).median()
            assert 2.0 < mirrored - plain < 10.0

    def test_rows(self, browser_study):
        assert len(browser_study.discharge_rows()) == 8
        assert len(browser_study.device_cpu_rows()) == 8

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            run_browser_study(repetitions=0)


class TestFigure5ControllerLoad:
    def test_plain_load_is_constant_around_25_percent(self, load):
        assert load.median(mirroring=False) == pytest.approx(25.0, abs=5.0)
        assert load.fraction_above(50.0, mirroring=False) < 0.05

    def test_mirroring_load_is_much_higher_with_a_tail(self, load):
        assert 55.0 < load.median(mirroring=True) < 90.0
        assert 0.02 < load.fraction_above(95.0, mirroring=True) < 0.30

    def test_rows(self, load):
        rows = load.rows()
        assert len(rows) == 2
        assert rows[1]["median_cpu_percent"] > rows[0]["median_cpu_percent"]

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            run_controller_load_experiment(repetitions=0)


class TestTable2AndFigure6:
    def test_speedtest_rows_match_table2(self, speedtests):
        assert len(speedtests) == 5
        by_location = {row["location"]: row for row in speedtests}
        for location in PROTONVPN_LOCATIONS.values():
            row = by_location[f"{location.country} / {location.city}"]
            assert row["download_mbps"] == pytest.approx(location.download_mbps, rel=0.15)
            assert row["upload_mbps"] == pytest.approx(location.upload_mbps, rel=0.15)
            assert row["latency_ms"] == pytest.approx(location.latency_ms, rel=0.2)
        # Table 2's order runs from the slowest node to the fastest.
        downloads = [row["download_mbps"] for row in speedtests]
        assert downloads[0] == min(downloads)
        assert downloads[-1] == max(downloads)

    def test_vpn_energy_study_shape(self, vpn_study):
        assert len(vpn_study.locations()) == 5
        assert len(vpn_study.rows()) == 10
        chrome = {
            location: vpn_study.discharge_summary(location, "chrome").mean
            for location in vpn_study.locations()
        }
        brave = {
            location: vpn_study.discharge_summary(location, "brave").mean
            for location in vpn_study.locations()
        }
        # Chrome's energy is minimised through the Japanese exit.
        assert chrome["japan"] == min(chrome.values())
        # Brave barely moves across locations, and beats Chrome at each.
        assert (max(brave.values()) - min(brave.values())) / max(brave.values()) < 0.1
        assert all(brave[location] < chrome[location] for location in chrome)
        drop = vpn_study.chrome_bandwidth_drop_japan()
        assert drop == pytest.approx(0.20, abs=0.08)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            run_vpn_speedtests(probes_per_location=0)
        with pytest.raises(ValueError):
            run_vpn_energy_study(repetitions=0)

    def test_all_table2_locations_have_profiles(self):
        assert len(PROTONVPN_LOCATIONS) == 5


class TestSystemPerformance:
    def test_mirroring_cpu_overhead(self, perf):
        assert perf.controller_cpu_mean_plain == pytest.approx(25.0, abs=5.0)
        assert 30.0 < perf.cpu_extra_percent < 65.0

    def test_memory_overhead_about_six_points(self, perf):
        assert perf.memory_extra_percent == pytest.approx(6.0, abs=2.0)
        assert perf.memory_percent_mirroring < 25.0

    def test_upload_traffic_scale(self, perf):
        # Scaled to the paper's ~7 minute test this lands in the tens of MB.
        per_seven_minutes = perf.upload_mb * (420.0 / perf.test_duration_s)
        assert 15.0 < per_seven_minutes < 60.0

    def test_latency_matches_paper(self, perf):
        assert perf.latency.mean_s == pytest.approx(1.44, abs=0.2)
        assert 0.03 < perf.latency.std_s < 0.3
        assert perf.latency.trials == 40

    def test_rows(self, perf):
        metrics = {row["metric"] for row in perf.rows()}
        assert "mirroring latency mean (s)" in metrics


def _playing_video(sample_rate_hz):
    """A fresh platform with the test video playing; returns (platform, controller, device)."""
    platform = build_default_platform(seed=SEED, browsers=())
    handle = platform.vantage_point()
    controller, device = handle.controller, handle.device()
    handle.monitor.set_sample_rate(sample_rate_hz)
    controller.execute_adb(
        device.serial,
        "shell am start -a android.intent.action.VIEW "
        f"-d file:///sdcard/Movies/test.mp4 -n {VIDEO_PLAYER_PACKAGE}/.Player",
    )
    platform.run_for(2.0)
    return platform, controller, device


class TestAblations:
    """Sampling rate, scrcpy bitrate and automation channel (Sections 3.2–3.3)."""

    def test_statistics_do_not_depend_on_the_sampling_rate(self):
        rates = (20.0, 50.0, 200.0, 1000.0, 5000.0)
        results = []
        for rate in rates:
            _, controller, device = _playing_video(rate)
            results.append(MeasurementSession(controller, device.serial).measure(10.0))
        medians = [result.median_current_ma() for result in results]
        discharges = [result.discharge_mah() for result in results]
        assert max(medians) - min(medians) < 0.05 * max(medians)
        assert max(discharges) - min(discharges) < 0.05 * max(discharges)
        assert len(results[-1].trace) > 100 * len(results[0].trace)

    def test_upload_grows_with_the_bitrate_cap_and_energy_overhead_stays(self):
        uploads, overheads = [], []
        for bitrate in (0.5, 1.0, 2.0, 4.0):
            platform, controller, device = _playing_video(200.0)
            plain = MeasurementSession(controller, device.serial).measure(20.0)
            mirror = MirroringSession(platform.context, ScrcpyClient(device, bitrate_mbps=bitrate))
            mirror.start()
            mirror.connect_viewer("experimenter")
            mirrored = MeasurementSession(controller, device.serial).measure(20.0)
            uploads.append(mirror.upload_bytes())
            overheads.append(mirrored.median_current_ma() - plain.median_current_ma())
        assert uploads == sorted(uploads)
        assert all(overhead > 20.0 for overhead in overheads)

    @staticmethod
    def _browse(channel_name):
        platform = build_default_platform(seed=SEED, browsers=("chrome",))
        handle = platform.vantage_point()
        controller, serial = handle.controller, handle.device().serial
        handle.monitor.set_sample_rate(100.0)
        if channel_name == "bluetooth":
            channel = BluetoothKeyboardAutomation(controller.keyboard, serial)
            channel.connect()
            # The keyboard cannot launch an app by package name: launch over
            # ADB before the measurement window opens (Section 3.3).
            controller.execute_adb(serial, "shell am start -n com.android.chrome/.Main")
            platform.run_for(3.0)
        else:
            transport = AdbTransport.USB if channel_name == "usb" else AdbTransport.WIFI
            channel = AdbAutomation(controller, serial, transport)
        session = MeasurementSession(controller, serial)
        session.start()
        if channel_name == "usb":
            controller.set_device_usb_power(serial, True)  # a naive USB automation
        for page in NEWS_SITES[:3]:
            channel.open_url("com.android.chrome", page.url)
            platform.run_for(4.0)
            for _ in range(4):
                channel.scroll_down()
                platform.run_for(1.5)
        return session.stop().median_current_ma()

    def test_powered_usb_masks_the_draw_that_wifi_and_bluetooth_agree_on(self):
        wifi, keyboard, usb = (self._browse(name) for name in ("wifi", "bluetooth", "usb"))
        assert abs(wifi - keyboard) / wifi < 0.15
        assert usb < 0.5 * wifi


def test_a_fleet_of_four_vantage_points_runs_a_mixed_batch():
    platform = build_default_platform(seed=SEED, browsers=("chrome",))
    for index in (2, 3, 4):
        add_vantage_point(platform, f"node{index}", f"Institution {index}", browsers=("chrome",))
    server = platform.access_server

    def measure(ctx):
        ctx.api.power_monitor()
        ctx.api.set_voltage(3.85)
        trace = ctx.api.measure(ctx.api.list_devices()[0], duration=5.0)
        ctx.api.power_monitor()
        return round(trace.median_current_ma(), 1)

    jobs = 12
    for index in range(jobs):
        # Every third job is pinned to a vantage point; each is pinned once.
        pinned = {"vantage_point": f"node{index % 4 + 1}"} if index % 3 == 0 else {}
        spec = JobSpec(
            name=f"fleet-{index}",
            owner="experimenter",
            run=measure,
            constraints=JobConstraints(**pinned),
        )
        server.submit_job(platform.experimenter, spec)
    executed = server.drain()
    assert [job.status.value for job in executed] == ["completed"] * jobs
    # Every job ran a real measurement on some device somewhere.
    assert platform.context.scheduler.dispatched > jobs * 50


if __name__ == "__main__":
    rows = paper_rows(*(run(name) for name in DRIVERS))
    golden = {"seed": SEED, "numpy": numpy.__version__, "scales": SCALES, "rows": rows}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
