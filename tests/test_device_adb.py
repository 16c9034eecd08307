"""Tests for the ADB emulation (server, transports, command surface)."""

import pytest

from repro.device.adb import (
    AdbCommandError,
    AdbServer,
    AdbTransport,
    AdbTransportUnavailable,
)
from repro.device.android import AndroidDevice
from repro.device.apps import InstalledApp
from repro.device.profiles import SAMSUNG_J7_DUO
from repro.device.radio import RadioTechnology


@pytest.fixture
def adb(device) -> AdbServer:
    device.connect_wifi("batterylab")
    device.install_app(InstalledApp(package="com.android.chrome", label="Chrome"))
    return AdbServer(device)


class TestTransports:
    def test_wifi_available_when_associated(self, adb):
        assert adb.transport_available(AdbTransport.WIFI)

    def test_wifi_unavailable_without_association(self, context):
        device = AndroidDevice(context, serial="offline", profile=SAMSUNG_J7_DUO)
        server = AdbServer(device)
        assert not server.transport_available(AdbTransport.WIFI)

    def test_usb_requires_connected_and_powered_port(self, adb, device):
        assert not adb.transport_available(AdbTransport.USB)
        device.connect_usb(powered=True)
        assert adb.transport_available(AdbTransport.USB)
        device.set_usb_power(False)
        assert not adb.transport_available(AdbTransport.USB)

    def test_bluetooth_requires_root_and_link(self, context):
        unrooted = AndroidDevice(context, serial="plain", profile=SAMSUNG_J7_DUO)
        unrooted.attach_bluetooth_link()
        assert not AdbServer(unrooted).transport_available(AdbTransport.BLUETOOTH)
        rooted = AndroidDevice(context, serial="rooted", profile=SAMSUNG_J7_DUO, rooted=True)
        server = AdbServer(rooted)
        assert not server.transport_available(AdbTransport.BLUETOOTH)
        rooted.attach_bluetooth_link()
        assert server.transport_available(AdbTransport.BLUETOOTH)

    def test_connect_unavailable_transport_raises(self, adb):
        with pytest.raises(AdbTransportUnavailable):
            adb.connect(AdbTransport.USB)

    def test_tcpip_toggle_gates_wifi(self, adb):
        adb.set_tcpip_enabled(False)
        assert not adb.transport_available(AdbTransport.WIFI)

    def test_bluetooth_connection_holds_radio_link(self, context):
        rooted = AndroidDevice(context, serial="r2", profile=SAMSUNG_J7_DUO, rooted=True)
        rooted.attach_bluetooth_link()
        server = AdbServer(rooted)
        connection = server.connect(AdbTransport.BLUETOOTH)
        assert rooted.bluetooth_links == 2
        connection.close()
        assert rooted.bluetooth_links == 1


class TestShellCommands:
    def test_dumpsys_battery(self, adb):
        output = adb.execute("shell dumpsys battery", AdbTransport.WIFI)
        assert "level" in output and "voltage_mv" in output

    def test_dumpsys_netstats_prints_the_radio_counters(self, adb, device):
        device.radio.account_traffic(RadioTechnology.WIFI, rx_bytes=1500, tx_bytes=700)
        device.radio.account_traffic(RadioTechnology.CELLULAR, rx_bytes=40)
        output = adb.execute("shell dumpsys netstats", AdbTransport.WIFI)
        assert output.splitlines() == [
            "  cell_rx_bytes: 40",
            "  cell_tx_bytes: 0",
            "  wifi_rx_bytes: 1500",
            "  wifi_tx_bytes: 700",
        ]

    def test_dumpsys_unknown_service(self, adb):
        with pytest.raises(AdbCommandError):
            adb.execute("shell dumpsys nosuchservice", AdbTransport.WIFI)

    def test_pm_list_packages(self, adb):
        output = adb.execute("shell pm list packages", AdbTransport.WIFI)
        assert "package:com.android.chrome" in output

    def test_pm_clear_success_and_failure(self, adb):
        assert adb.execute("shell pm clear com.android.chrome", AdbTransport.WIFI) == "Success"
        with pytest.raises(AdbCommandError):
            adb.execute("shell pm clear com.missing", AdbTransport.WIFI)

    def test_am_start_launches_package(self, adb, device):
        adb.execute("shell am start -n com.android.chrome/.Main", AdbTransport.WIFI)
        assert device.packages.is_running("com.android.chrome")

    def test_am_start_with_intent_data(self, adb, device):
        adb.execute(
            "shell am start -a android.intent.action.VIEW -d https://example.com "
            "-n com.android.chrome/.Main",
            AdbTransport.WIFI,
        )
        assert device.packages.is_running("com.android.chrome")

    def test_am_start_requires_component(self, adb):
        with pytest.raises(AdbCommandError):
            adb.execute("shell am start -a android.intent.action.VIEW", AdbTransport.WIFI)

    def test_am_force_stop(self, adb, device):
        adb.execute("shell am start -n com.android.chrome/.Main", AdbTransport.WIFI)
        adb.execute("shell am force-stop com.android.chrome", AdbTransport.WIFI)
        assert not device.packages.is_running("com.android.chrome")

    def test_input_reaches_foreground_app(self, adb):
        adb.execute("shell am start -n com.android.chrome/.Main", AdbTransport.WIFI)
        adb.execute("shell input swipe 500 1500 500 300 400", AdbTransport.WIFI)
        assert any("input swipe" in line for line in adb.logcat_buffer)

    def test_settings_put_get(self, adb):
        adb.execute("shell settings put global stay_on_while_plugged_in 3", AdbTransport.WIFI)
        value = adb.execute("shell settings get global stay_on_while_plugged_in", AdbTransport.WIFI)
        assert value == "3"
        assert adb.execute("shell settings get global missing", AdbTransport.WIFI) == "null"

    def test_getprop_and_setprop(self, adb):
        assert adb.execute("shell getprop ro.product.model", AdbTransport.WIFI) == "Samsung J7 Duo"
        adb.execute("shell setprop debug.test 1", AdbTransport.WIFI)
        assert adb.execute("shell getprop debug.test", AdbTransport.WIFI) == "1"
        assert "ro.serialno" in adb.execute("shell getprop", AdbTransport.WIFI)

    def test_svc_wifi_toggle(self, adb, device):
        adb.execute("shell svc wifi disable", AdbTransport.WIFI)
        assert not device.radio.is_enabled("wifi")

    def test_unknown_shell_command(self, adb):
        with pytest.raises(AdbCommandError):
            adb.execute("shell frobnicate", AdbTransport.WIFI)

    def test_echo(self, adb):
        assert adb.execute("shell echo hello world", AdbTransport.WIFI) == "hello world"


class TestFilesAndLogs:
    def test_push_ls_rm(self, adb):
        adb.execute("push local.mp4 /sdcard/Movies/test.mp4", AdbTransport.WIFI)
        assert "/sdcard/Movies/test.mp4" in adb.execute("shell ls /sdcard", AdbTransport.WIFI)
        adb.execute("shell rm /sdcard/Movies/test.mp4", AdbTransport.WIFI)
        with pytest.raises(AdbCommandError):
            adb.execute("shell rm /sdcard/Movies/test.mp4", AdbTransport.WIFI)

    def test_pull_missing_file(self, adb):
        with pytest.raises(AdbCommandError):
            adb.execute("pull /sdcard/missing.bin", AdbTransport.WIFI)

    def test_write_and_read_file_helpers(self, adb):
        adb.write_file("/sdcard/test.bin", b"abc")
        assert adb.read_file("/sdcard/test.bin") == b"abc"

    def test_logcat_accumulates(self, adb):
        adb.log_to_logcat("hello from test")
        output = adb.execute("logcat -d", AdbTransport.WIFI)
        assert "hello from test" in output

    def test_history_records_commands(self, adb):
        adb.execute("get-state", AdbTransport.WIFI)
        assert adb.history[-1].command == "get-state"
        assert adb.history[-1].output == "device"

    def test_screencap_creates_file(self, adb):
        adb.execute("shell screencap /sdcard/screen.png", AdbTransport.WIFI)
        assert adb.read_file("/sdcard/screen.png") == b"<png>"


class TestConnectionObject:
    def test_shell_helper_and_context_manager(self, adb):
        with adb.connect(AdbTransport.WIFI) as connection:
            assert connection.transport is AdbTransport.WIFI
            assert "level" in connection.shell("dumpsys battery")
        assert not connection.open
        with pytest.raises(Exception):
            connection.execute("get-state")

    def test_root_requires_rooted_device(self, adb):
        with pytest.raises(AdbCommandError):
            adb.execute("root", AdbTransport.WIFI)

    def test_empty_command_rejected(self, adb):
        with pytest.raises(AdbCommandError):
            adb.execute("", AdbTransport.WIFI)
