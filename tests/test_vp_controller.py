"""Tests for the vantage point controller (Raspberry Pi)."""

import pytest

from repro.device.adb import AdbTransport
from repro.device.android import AndroidDevice
from repro.device.ios import IOSDevice
from repro.device.profiles import IPHONE_8, SAMSUNG_J7_DUO
from repro.network.ssh import SshKeyPair
from repro.simulation.random import SeededRandom
from repro.vantagepoint.controller import ControllerError


@pytest.fixture
def controller(vantage_point):
    return vantage_point.controller


class TestDeviceManagement:
    def test_list_devices(self, controller):
        assert controller.list_devices() == ["node1-dev00"]

    def test_add_device_wires_everything(self, platform, controller):
        device = AndroidDevice(platform.context, serial="extra-dev", profile=SAMSUNG_J7_DUO)
        controller.add_device(device)
        assert "extra-dev" in controller.list_devices()
        assert device.usb_connected
        assert controller.wifi_ap.is_associated("extra-dev")
        assert "extra-dev" in controller.keyboard.paired_serials()
        assert controller.relay.channel_for("extra-dev") is not None

    def test_duplicate_device_rejected(self, platform, controller, vantage_point):
        with pytest.raises(ControllerError):
            controller.add_device(vantage_point.device())

    def test_remove_device(self, platform, controller):
        device = AndroidDevice(platform.context, serial="temp-dev", profile=SAMSUNG_J7_DUO)
        controller.add_device(device, wire_relay=False)
        controller.remove_device("temp-dev")
        assert "temp-dev" not in controller.list_devices()
        assert not device.usb_connected

    def test_unknown_device_operations(self, controller):
        with pytest.raises(ControllerError):
            controller.device("missing")
        with pytest.raises(ControllerError):
            controller.execute_adb("missing", "get-state")
        with pytest.raises(ControllerError):
            controller.batt_switch("missing", True)

    def test_ios_device_has_no_adb_but_mirrors_via_airplay(self, platform, controller):
        from repro.mirroring.airplay import AirPlayReceiver

        iphone = IOSDevice(platform.context, udid="ios-dev", profile=IPHONE_8)
        controller.add_device(iphone, wire_relay=False)
        with pytest.raises(ControllerError):
            controller.adb_server("ios-dev")
        session = controller.start_mirroring("ios-dev")
        assert isinstance(session.source, AirPlayReceiver)
        assert iphone.mirroring_active
        controller.stop_mirroring("ios-dev")
        assert not iphone.mirroring_active

    def test_adb_roundtrip_over_wifi(self, controller):
        serial = controller.list_devices()[0]
        output = controller.execute_adb(serial, "shell dumpsys battery", AdbTransport.WIFI)
        assert "level" in output


class TestPowerAndRelay:
    def test_set_power_monitor_via_socket(self, controller):
        controller.set_power_monitor(True)
        assert controller.monitor.mains_on
        controller.set_power_monitor(False)
        assert not controller.monitor.mains_on

    def test_set_voltage(self, controller):
        controller.set_power_monitor(True)
        controller.set_voltage(3.85)
        assert controller.monitor.vout_v == 3.85

    def test_batt_switch_round_trip(self, controller):
        serial = controller.list_devices()[0]
        controller.set_power_monitor(True)
        controller.set_voltage(3.85)
        controller.batt_switch(serial, True)
        assert controller.relay.is_bypassed(serial)
        controller.batt_switch(serial, False)
        assert not controller.relay.is_bypassed(serial)

    def test_usb_power_control(self, controller, vantage_point):
        serial = controller.list_devices()[0]
        controller.set_device_usb_power(serial, False)
        assert not vantage_point.device().usb_powered


class TestMirroring:
    def test_start_and_stop(self, controller):
        serial = controller.list_devices()[0]
        session = controller.start_mirroring(serial)
        assert session.active
        assert controller.mirroring_active(serial)
        controller.stop_mirroring(serial)
        assert not controller.mirroring_active(serial)

    def test_start_twice_reuses_session(self, controller):
        serial = controller.list_devices()[0]
        first = controller.start_mirroring(serial)
        second = controller.start_mirroring(serial)
        assert first is second

    def test_memory_grows_with_mirroring(self, controller):
        serial = controller.list_devices()[0]
        before = controller.memory_utilisation_percent()
        controller.start_mirroring(serial)
        after = controller.memory_utilisation_percent()
        assert after - before == pytest.approx(6.0, abs=1.5)


class TestCpuAccounting:
    def test_idle_controller_load_is_low(self, platform, controller):
        platform.run_for(20.0)
        series = controller.cpu_utilisation_series()
        assert len(series) == 20
        assert max(series) < 15.0

    def test_monsoon_polling_load_about_25_percent(self, platform, controller, vantage_point):
        controller.set_power_monitor(True)
        controller.set_voltage(3.85)
        serial = controller.list_devices()[0]
        controller.batt_switch(serial, True)
        vantage_point.monitor.start_sampling()
        controller.reset_cpu_samples()
        platform.run_for(30.0)
        vantage_point.monitor.stop_sampling()
        series = controller.cpu_utilisation_series()
        median = sorted(series)[len(series) // 2]
        assert 20.0 < median < 30.0

    def test_series_from_an_index_is_the_tail_of_the_history(self, platform, controller):
        platform.run_for(8.0)
        assert controller.cpu_sample_count == len(controller.cpu_samples) == 8
        full = controller.cpu_utilisation_series()
        assert controller.cpu_utilisation_series(5) == full[5:]
        assert controller.cpu_utilisation_series(8) == []

    def test_reset_cpu_samples(self, platform, controller):
        platform.run_for(5.0)
        controller.reset_cpu_samples()
        assert controller.cpu_utilisation_series() == []


class TestCommandsAndStatus:
    def test_handle_status_and_list(self, controller):
        assert "node1-dev00" in controller.handle_command("list_devices")
        assert "node1.batterylab.dev" in controller.handle_command("status")

    def test_handle_power_monitor_command(self, controller):
        assert controller.handle_command("power_monitor on") == "power monitor on"
        assert controller.monitor.mains_on

    def test_handle_usb_power_command(self, controller, vantage_point):
        serial = controller.list_devices()[0]
        controller.handle_command(f"usb_power {serial} off")
        assert not vantage_point.device().usb_powered

    def test_handle_vpn_command(self, controller):
        assert "Bunkyo" in controller.handle_command("vpn connect japan")
        assert controller.vpn.connected
        controller.handle_command("vpn disconnect")
        assert not controller.vpn.connected

    def test_handle_factory_reset(self, controller, vantage_point):
        serial = controller.list_devices()[0]
        device = vantage_point.device()
        device.packages.launch("com.android.chrome")
        controller.handle_command(f"factory_reset {serial}")
        assert not device.packages.is_running("com.android.chrome")

    def test_bad_commands_raise(self, controller):
        for command in ("", "unknown", "power_monitor sideways", "usb_power x", "vpn fly"):
            with pytest.raises(ControllerError):
                controller.handle_command(command)

    def test_upload_accounting(self, controller):
        controller.account_job_upload(1000)
        assert controller.upload_bytes() >= 1000
        with pytest.raises(ValueError):
            controller.account_job_upload(-1)

    def test_authorize_access_server(self, controller):
        key = SshKeyPair.generate("test", SeededRandom(1, "ssh"))
        controller.authorize_access_server(key, "203.0.113.5")
        assert key.fingerprint in controller.ssh_server.authorized_fingerprints()
        assert "203.0.113.5" in controller.ssh_server.allowed_sources()

    def test_status_contents(self, controller):
        status = controller.status()
        assert status["model"] == "Raspberry Pi 3B+"
        assert status["devices"] == ["node1-dev00"]
