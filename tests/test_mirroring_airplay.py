"""Tests for the AirPlay mirroring pipeline (iOS devices)."""

import pytest

from repro.device.apps import InstalledApp
from repro.device.ios import IOSDevice
from repro.device.profiles import IPHONE_8
from repro.mirroring.airplay import AirPlayError, AirPlayReceiver
from repro.mirroring.session import MirroringSession


@pytest.fixture
def iphone(context) -> IOSDevice:
    device = IOSDevice(context, udid="airplay-iphone", profile=IPHONE_8)
    device.connect_wifi("batterylab")
    device.install_app(InstalledApp(package="com.apple.mobilesafari", label="Safari"))
    process = device.packages.launch("com.apple.mobilesafari")
    process.set_activity(cpu_percent=12.0, screen_fps=25.0)
    device.refresh_demands()
    return device


class TestAirPlaySession:
    def test_requires_ios_device(self, context, device):
        with pytest.raises(AirPlayError):
            AirPlayReceiver(device)

    def test_invalid_bitrate(self, context, iphone):
        with pytest.raises(ValueError):
            AirPlayReceiver(iphone, bitrate_mbps=0)

    def test_start_stop_toggles_device_mirroring(self, context, iphone):
        session = MirroringSession(context, AirPlayReceiver(iphone))
        session.start()
        assert session.active
        assert iphone.mirroring_active
        session.stop()
        assert not session.active
        assert not iphone.mirroring_active

    def test_mirroring_increases_device_current(self, context, iphone):
        before = iphone.instantaneous_current_ma(with_noise=False)
        session = MirroringSession(context, AirPlayReceiver(iphone))
        session.start()
        after = iphone.instantaneous_current_ma(with_noise=False)
        assert after > before + 20.0

    def test_accounting_and_viewers(self, context, iphone):
        session = MirroringSession(context, AirPlayReceiver(iphone))
        session.start()
        session.connect_viewer("alice")
        context.run_for(30.0)
        assert session.source.received_bytes > 0
        assert session.upload_bytes() > 0
        assert session.controller_cpu_percent() > 10.0
        assert session.controller_memory_mb() > 0
        status = session.status()
        assert status["device"] == "airplay-iphone"
        assert status["viewers"] == 1
        session.stop()
        assert session.controller_cpu_percent() == 0.0

    def test_double_start_is_idempotent(self, context, iphone):
        session = MirroringSession(context, AirPlayReceiver(iphone))
        session.start()
        session.start()
        session.stop()
        session.stop()
        assert not iphone.mirroring_active

    def test_input_still_goes_through_keyboard_not_gui(self, context, iphone):
        """AirPlay mirroring is view-only in BatteryLab; input uses the BT keyboard."""
        session = MirroringSession(context, AirPlayReceiver(iphone))
        session.start()
        viewer = session.connect_viewer("alice")
        # The GUI can still forward events, but the canonical iOS input path is
        # the Bluetooth keyboard; both end up at the foreground app.
        session.novnc.deliver_input(viewer.session_id, "keyevent KEYCODE_PAGE_DOWN")
        assert viewer.input_events == 1
