"""Tests for the Monsoon HVPM emulator and its PyMonsoon-style shim."""

import pytest

from repro.powermonitor.calibration import CalibrationError, calibrate_against_reference
from repro.powermonitor.monsoon import MonsoonError, MonsoonHVPM, MonsoonSafetyError
from repro.powermonitor.pymonsoon import HVPM


class TestPowerState:
    def test_starts_unpowered(self, context):
        unit = MonsoonHVPM(context)
        assert not unit.mains_on
        with pytest.raises(MonsoonError):
            unit.set_vout(3.85)

    def test_power_cycle_resets_trip(self, monitor):
        monitor._tripped = True
        monitor.power_off()
        monitor.power_on()
        assert not monitor.tripped

    def test_power_off_aborts_sampling(self, context, monitor):
        monitor.attach_load(lambda: 100.0)
        monitor.set_vout(3.85)
        monitor.start_sampling()
        context.run_for(1.0)
        monitor.power_off()
        assert not monitor.sampling
        assert monitor.last_trace() is not None
        assert monitor.vout_v == 0.0


class TestVoltageControl:
    def test_set_vout_within_range(self, monitor):
        monitor.set_vout(4.2)
        assert monitor.vout_enabled
        assert monitor.vout_v == 4.2

    @pytest.mark.parametrize("voltage", [0.5, 14.0, -1.0])
    def test_out_of_range_voltage_rejected(self, monitor, voltage):
        with pytest.raises(MonsoonSafetyError):
            monitor.set_vout(voltage)

    def test_zero_disables_output(self, monitor):
        monitor.set_vout(3.85)
        monitor.set_vout(0)
        assert not monitor.vout_enabled
        assert monitor.vout_v == 0.0


class TestSamplingAndLoad:
    def test_measure_for_returns_trace(self, context, monitor):
        monitor.attach_load(lambda: 150.0, label="fake-device")
        monitor.set_vout(3.85)
        trace = monitor.measure_for(10.0, label="video")
        assert trace.median_current_ma() == pytest.approx(150.0, rel=0.05)
        assert monitor.load_label == "fake-device"
        assert monitor.last_trace() is trace

    def test_sampling_requires_vout(self, monitor):
        with pytest.raises(MonsoonError):
            monitor.start_sampling()

    def test_no_load_reads_zero(self, context, monitor):
        monitor.set_vout(3.85)
        trace = monitor.measure_for(2.0)
        assert trace.max_current_ma() == 0.0

    def test_overcurrent_trips_output(self, context, monitor):
        monitor.attach_load(lambda: 7000.0)
        monitor.set_vout(3.85)
        monitor.start_sampling()
        context.run_for(1.0)
        monitor.stop_sampling()
        assert monitor.tripped
        assert not monitor.vout_enabled
        with pytest.raises(MonsoonSafetyError):
            monitor.set_vout(3.85)

    def test_detach_load(self, context, monitor):
        monitor.attach_load(lambda: 100.0)
        monitor.detach_load()
        assert not monitor.load_attached
        monitor.set_vout(3.85)
        assert monitor.measure_for(1.0).max_current_ma() == 0.0

    def test_status_dictionary(self, monitor):
        status = monitor.status()
        assert status["model"] == "Monsoon HVPM"
        assert status["mains_on"] is True
        assert status["sample_rate_hz"] == 5000.0

    def test_invalid_measure_duration(self, monitor):
        monitor.set_vout(3.85)
        with pytest.raises(ValueError):
            monitor.measure_for(0)

    def test_only_the_last_trace_is_kept(self, context, monitor):
        monitor.attach_load(lambda: 50.0)
        monitor.set_vout(3.85)
        monitor.measure_for(1.0)
        second = monitor.measure_for(1.0)
        assert monitor.last_trace() is second


class TestCalibration:
    def test_calibration_passes_for_accurate_monitor(self, monitor):
        record = calibrate_against_reference(monitor, reference_resistance_ohm=10.0)
        assert record.passed
        assert record.expected_current_ma == pytest.approx(400.0)
        assert record.gain_error_fraction < 0.05
        # Calibration must leave the monitor ready for real loads.
        assert not monitor.load_attached
        assert not monitor.vout_enabled

    def test_calibration_rejects_bad_inputs(self, monitor):
        with pytest.raises(ValueError):
            calibrate_against_reference(monitor, reference_resistance_ohm=0.0)
        with pytest.raises(ValueError):
            calibrate_against_reference(monitor, duration_s=0.0)

    def test_calibration_detects_gain_error(self, monitor, monkeypatch):
        original = monitor.attach_load

        def skewed_attach(source, label=""):
            original(lambda: source() * 1.2, label=label)

        monkeypatch.setattr(monitor, "attach_load", skewed_attach)
        with pytest.raises(CalibrationError):
            calibrate_against_reference(monitor, tolerance_fraction=0.05)


class TestPyMonsoonShim:
    def test_requires_power_and_connection(self, context):
        unit = MonsoonHVPM(context)
        shim = HVPM(unit)
        with pytest.raises(RuntimeError):
            shim.setup_usb()
        unit.power_on()
        shim.setup_usb()
        assert shim.connected
        shim.closeDevice()
        with pytest.raises(RuntimeError):
            shim.setVout(3.85)

    def test_sampling_via_shim(self, context, monitor):
        shim = HVPM(monitor)
        shim.setup_usb()
        monitor.attach_load(lambda: 120.0)
        shim.setVout(4.0)
        assert shim.getVout() == 4.0
        shim.startSampling(label="shim")
        context.run_for(2.0)
        timestamps, currents = shim.getSamples()
        assert len(timestamps) == len(currents) > 0
        trace = shim.stopSampling()
        assert trace.median_current_ma() == pytest.approx(120.0, rel=0.05)
        assert shim.lastTrace() is trace
