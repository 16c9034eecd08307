"""Tests for measurement sessions and result containers."""

import pytest

from repro.core.results import MeasurementResult
from repro.core.session import MeasurementSession, SessionError
from repro.device.battery import BatteryConnection
from repro.powermonitor.traces import CurrentTrace
import numpy as np


@pytest.fixture
def controller(vantage_point):
    return vantage_point.controller


class TestMeasurementSession:
    def test_measure_produces_result(self, platform, controller, vantage_point):
        serial = controller.list_devices()[0]
        vantage_point.monitor.set_sample_rate(200.0)
        session = MeasurementSession(controller, serial, label="idle-run")
        result = session.measure(20.0)
        assert isinstance(result, MeasurementResult)
        assert result.label == "idle-run"
        assert result.duration_s() == pytest.approx(20.0, abs=1.0)
        assert result.median_current_ma() > 0
        assert len(result.device_cpu_percent) == pytest.approx(20, abs=2)
        assert len(result.controller_cpu_percent) == pytest.approx(20, abs=2)
        assert not result.mirroring_active

    def test_session_turns_monitor_on_if_needed(self, controller, vantage_point):
        serial = controller.list_devices()[0]
        assert not vantage_point.monitor.mains_on
        session = MeasurementSession(controller, serial)
        session.start()
        assert vantage_point.monitor.mains_on
        session.stop()

    def test_mirroring_session_collects_upload_bytes(self, platform, controller, vantage_point):
        serial = controller.list_devices()[0]
        device = vantage_point.device()
        device.packages.launch("com.android.chrome")
        vantage_point.monitor.set_sample_rate(100.0)
        session = MeasurementSession(controller, serial, mirroring=True)
        result = session.measure(30.0)
        assert result.mirroring_active
        assert result.mirroring_upload_bytes > 0
        assert not controller.mirroring_active(serial)

    def test_direct_wiring_skips_relay(self, controller, vantage_point):
        serial = controller.list_devices()[0]
        session = MeasurementSession(controller, serial, use_relay=False)
        session.start()
        assert not vantage_point.controller.relay.is_bypassed(serial)
        assert vantage_point.device().battery.connection is BatteryConnection.BYPASS
        session.stop()
        assert vantage_point.device().battery.connection is BatteryConnection.INTERNAL

    def test_usb_power_restored_after_measurement(self, controller, vantage_point):
        serial = controller.list_devices()[0]
        session = MeasurementSession(controller, serial)
        session.start()
        assert not vantage_point.device().usb_powered
        session.stop()
        assert vantage_point.device().usb_powered

    def test_failed_start_undoes_only_its_own_steps(self, platform, controller, vantage_point):
        """A second device's session cannot take the relay from a running
        one: its start raises, gives that device USB power back and stops
        its mirroring, and leaves the running session in bypass, sampling."""
        from repro.device.android import AndroidDevice
        from repro.device.profiles import SAMSUNG_J7_DUO
        from repro.vantagepoint.relay import RelayError

        measured = controller.list_devices()[0]
        vantage_point.monitor.set_sample_rate(20.0)
        running = MeasurementSession(controller, measured)
        running.start()
        controller.add_device(
            AndroidDevice(platform.context, serial="node1-dev01", profile=SAMSUNG_J7_DUO)
        )
        second = controller.device("node1-dev01")
        assert second.usb_powered
        with pytest.raises(RelayError):
            MeasurementSession(controller, "node1-dev01", mirroring=True).start()
        assert second.usb_powered
        assert not controller.mirroring_active("node1-dev01")
        assert controller.relay.is_bypassed(measured)
        assert vantage_point.monitor.sampling
        # A second session on the measured device itself fails to sample;
        # the bypass and the USB cut it found belong to the running session.
        with pytest.raises(RuntimeError):
            MeasurementSession(controller, measured).start()
        assert controller.relay.is_bypassed(measured)
        assert not controller.device(measured).usb_powered
        platform.run_for(2.0)
        assert len(running.stop().trace) > 0
        assert controller.device(measured).usb_powered

    def test_failed_start_leaves_the_state_it_found(self, platform, controller):
        """Mirroring that was already on and USB power that was already off
        are not this session's steps: a start that raises leaves them so."""
        from repro.device.android import AndroidDevice
        from repro.device.profiles import SAMSUNG_J7_DUO
        from repro.vantagepoint.relay import RelayError

        controller.add_device(
            AndroidDevice(platform.context, serial="node1-dev01", profile=SAMSUNG_J7_DUO)
        )
        measured, other = controller.list_devices()[0], "node1-dev01"
        controller.set_power_monitor(True)
        controller.set_voltage(3.85)
        controller.batt_switch(measured, bypass=True)
        controller.start_mirroring(other)
        controller.set_device_usb_power(other, False)
        with pytest.raises(RelayError):
            MeasurementSession(controller, other, mirroring=True).start()
        assert controller.mirroring_active(other)
        assert not controller.device(other).usb_powered
        assert not controller.relay.is_bypassed(other)
        assert controller.relay.is_bypassed(measured)

    def test_failed_direct_start_restores_the_battery(self, controller, vantage_point):
        """With the monitor already sampling, a directly wired session's
        start raises; the device gets its own battery and USB power back and
        the monitor carries no load for it."""
        serial = controller.list_devices()[0]
        monitor = vantage_point.monitor
        controller.set_power_monitor(True)
        controller.set_voltage(3.85)
        monitor.start_sampling(label="someone-else")
        with pytest.raises(RuntimeError):
            MeasurementSession(controller, serial, use_relay=False).start()
        device = controller.device(serial)
        assert device.battery.connection is BatteryConnection.INTERNAL
        assert device.usb_powered
        assert not monitor.load_attached
        assert monitor.sampling
        monitor.stop_sampling()

    def test_start_does_not_copy_the_cpu_history(self, platform, controller):
        """The counter snapshot reads two counts, not the whole CPU history,
        which gains a sample per simulated second on the controller and on
        every device."""
        import tracemalloc

        platform.run_for(6 * 3600.0)
        assert len(controller.cpu_samples) >= 21_600
        session = MeasurementSession(controller, controller.list_devices()[0])
        tracemalloc.start()
        try:
            session.start()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024, peak
        platform.run_for(3.0)
        result = session.stop()
        assert len(result.controller_cpu_percent) == 3
        assert len(result.device_cpu_percent) == 3

    def test_double_start_rejected(self, controller):
        serial = controller.list_devices()[0]
        session = MeasurementSession(controller, serial)
        session.start()
        with pytest.raises(SessionError):
            session.start()
        session.stop()

    def test_stop_without_start_rejected(self, controller):
        session = MeasurementSession(controller, controller.list_devices()[0])
        with pytest.raises(SessionError):
            session.stop()

    def test_context_manager(self, platform, controller):
        serial = controller.list_devices()[0]
        with MeasurementSession(controller, serial) as session:
            assert session.active
            platform.run_for(5.0)
        assert not session.active

    def test_invalid_duration(self, controller):
        session = MeasurementSession(controller, controller.list_devices()[0])
        with pytest.raises(ValueError):
            session.measure(0.0)

    def test_monitorless_controller_rejected(self, context):
        from repro.device.android import AndroidDevice
        from repro.vantagepoint.controller import VantagePointController

        controller = VantagePointController(context, hostname="nomon.batterylab.dev")
        device = AndroidDevice(context, serial="nomon-dev")
        controller.add_device(device, wire_relay=False)
        with pytest.raises(SessionError):
            MeasurementSession(controller, "nomon-dev").start()


class TestMeasurementResult:
    def make_result(self, label="x", level_ma=100.0, cpu=None):
        timestamps = np.linspace(0.0, 60.0, 601)
        trace = CurrentTrace(timestamps, np.full(601, level_ma), 3.85, label=label)
        return MeasurementResult(
            label=label,
            trace=trace,
            device_cpu_percent=cpu or [10.0, 20.0, 30.0],
            controller_cpu_percent=[25.0, 26.0],
        )

    def test_headline_numbers(self):
        result = self.make_result(level_ma=120.0)
        assert result.median_current_ma() == pytest.approx(120.0)
        assert result.mean_current_ma() == pytest.approx(120.0)
        assert result.discharge_mah() == pytest.approx(2.0, rel=0.01)
        assert result.duration_s() == pytest.approx(60.0)

    def test_cdfs_and_summaries(self):
        result = self.make_result()
        assert result.current_cdf().median() == pytest.approx(100.0)
        assert result.device_cpu_cdf().median() == pytest.approx(20.0)
        assert result.controller_cpu_summary().mean == pytest.approx(25.5)
        assert result.device_cpu_summary().count == 3

    def test_empty_cpu_series_summaries_are_none(self):
        result = MeasurementResult(label="empty", trace=CurrentTrace.empty())
        assert result.device_cpu_summary() is None
        assert result.controller_cpu_summary() is None

    def test_summary_row_keys(self):
        row = self.make_result().summary_row()
        assert row["label"] == "x"
        assert "median_ma" in row and "discharge_mah" in row
        assert row["device_cpu_median"] == 20.0
        assert row["controller_cpu_median"] == 25.5
