"""Tests for the iOS device model."""

import pytest

from repro.device.apps import InstalledApp
from repro.device.battery import BatteryConnection
from repro.device.ios import IOSDevice
from repro.device.profiles import IPHONE_8, SAMSUNG_J7_DUO
from repro.device.radio import RadioTechnology


@pytest.fixture
def iphone(context) -> IOSDevice:
    return IOSDevice(context, udid="ios-test", profile=IPHONE_8)


def test_rejects_android_profile(context):
    with pytest.raises(ValueError):
        IOSDevice(context, udid="x", profile=SAMSUNG_J7_DUO)


class TestIdentity:
    def test_serial_aliases_udid(self, iphone):
        assert iphone.serial == iphone.udid == "ios-test"

    def test_never_rooted(self, iphone):
        assert iphone.rooted is False

    def test_profile_does_not_support_adb_or_scrcpy(self, iphone):
        assert not iphone.profile.supports_adb()
        assert not iphone.profile.supports_scrcpy()


class TestPowerAndMirroring:
    def test_idle_current_positive(self, iphone):
        assert iphone.instantaneous_current_ma(with_noise=False) > 0

    def test_airplay_mirroring_adds_current(self, iphone):
        iphone.connect_wifi("batterylab")
        before = iphone.instantaneous_current_ma(with_noise=False)
        iphone.start_mirroring_server()
        after = iphone.instantaneous_current_ma(with_noise=False)
        assert iphone.mirroring_active
        assert after > before

    def test_stop_mirroring(self, iphone):
        iphone.start_mirroring_server()
        iphone.stop_mirroring_server()
        assert not iphone.mirroring_active
        assert iphone.cpu.demand("airplayd") == 0.0

    def test_invalid_airplay_bitrate(self, iphone):
        with pytest.raises(ValueError):
            iphone.start_mirroring_server(bitrate_mbps=0)

    def test_screen_follows_foreground_app(self, iphone):
        iphone.install_app(InstalledApp(package="com.apple.mobilesafari", label="Safari"))
        iphone.packages.launch("com.apple.mobilesafari")
        iphone.refresh_demands()
        assert iphone.screen.on

    def test_stopped_app_leaves_no_cpu_demand(self, iphone):
        idle_demand = iphone.cpu.total_demand()
        idle_current = iphone.instantaneous_current_ma(with_noise=False)
        assert (idle_demand, idle_current) == (2.0, 39.0)
        iphone.install_app(InstalledApp(package="com.apple.mobilesafari", label="Safari"))
        iphone.packages.launch("com.apple.mobilesafari").set_activity(cpu_percent=40.0)
        assert iphone.instantaneous_current_ma(with_noise=False) > idle_current
        iphone.packages.stop("com.apple.mobilesafari")
        assert iphone.instantaneous_current_ma(with_noise=False) == idle_current
        assert iphone.cpu.total_demand() == idle_demand

    def test_usb_power_masks_external_draw(self, iphone):
        iphone.connect_usb(powered=True)
        assert iphone.instantaneous_current_ma(with_noise=False) == 0.0

    def test_cannot_power_unconnected_usb(self, iphone):
        with pytest.raises(RuntimeError):
            iphone.set_usb_power(True)


class TestAccounting:
    def test_battery_drains_over_time(self, context, iphone):
        before = iphone.battery.charge_mah
        context.run_for(30.0)
        assert iphone.battery.charge_mah < before

    def test_bypass_accumulates_monitor_supply(self, context, iphone):
        iphone.battery.set_connection(BatteryConnection.BYPASS)
        context.run_for(30.0)
        assert iphone.bypass_supply_mah > 0

    def test_bluetooth_links(self, iphone):
        iphone.attach_bluetooth_link()
        assert iphone.bluetooth_links == 1
        iphone.detach_bluetooth_link()
        with pytest.raises(RuntimeError):
            iphone.detach_bluetooth_link()

    def test_summary(self, iphone):
        summary = iphone.summary()
        assert summary["udid"] == "ios-test"
        assert summary["mirroring"] is False

    def test_cellular_route(self, iphone):
        iphone.connect_cellular()
        assert iphone.radio.is_enabled(RadioTechnology.CELLULAR)
