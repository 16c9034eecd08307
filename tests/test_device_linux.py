"""Tests for the laptop / IoT device models (the paper's "more devices" future work)."""

import pytest

from repro.core.session import MeasurementSession
from repro.device.linux import (
    RASPBERRY_PI_ZERO_W,
    THINKPAD_X250,
    LinuxDevice,
    LinuxDeviceError,
)


@pytest.fixture
def laptop(context) -> LinuxDevice:
    return LinuxDevice(context, serial="laptop-01", profile=THINKPAD_X250)


@pytest.fixture
def iot_node(context) -> LinuxDevice:
    return LinuxDevice(context, serial="iot-01", profile=RASPBERRY_PI_ZERO_W)


class TestProfiles:
    def test_laptop_has_battery_and_display(self, laptop):
        assert laptop.profile.has_battery
        assert laptop.profile.has_display
        assert laptop.battery is not None
        assert laptop.display is not None
        assert laptop.kind == "laptop"

    def test_iot_node_is_mains_powered_without_battery(self, iot_node):
        assert not iot_node.profile.has_battery
        assert iot_node.battery is None
        assert iot_node.display is None
        assert iot_node.mains_powered
        with pytest.raises(LinuxDeviceError):
            iot_node.set_mains_powered(False)


    def test_no_cellular_modem_or_bluetooth_input(self, laptop):
        with pytest.raises(LinuxDeviceError):
            laptop.connect_cellular()
        with pytest.raises(LinuxDeviceError):
            laptop.attach_bluetooth_link()


class TestPowerModel:
    def test_idle_current_near_profile_floor(self, iot_node):
        current = iot_node.instantaneous_current_ma(with_noise=False)
        assert current == pytest.approx(
            RASPBERRY_PI_ZERO_W.idle_current_ma
            + iot_node.cpu.baseline_percent * RASPBERRY_PI_ZERO_W.cpu_current_ma_per_percent,
            rel=0.02,
        )

    def test_services_increase_current(self, laptop):
        laptop.install_service("video-transcode")
        before = laptop.instantaneous_current_ma(with_noise=False)
        laptop.start_service("video-transcode", cpu_percent=50.0)
        after = laptop.instantaneous_current_ma(with_noise=False)
        assert after - before == pytest.approx(
            50.0 * THINKPAD_X250.cpu_current_ma_per_percent, rel=0.05
        )
        laptop.stop_service("video-transcode")
        assert laptop.instantaneous_current_ma(with_noise=False) == pytest.approx(before, rel=0.05)

    def test_display_adds_current(self, laptop):
        before = laptop.instantaneous_current_ma(with_noise=False)
        laptop.run_command("display on")
        assert laptop.instantaneous_current_ma(with_noise=False) - before == pytest.approx(
            THINKPAD_X250.display_current_ma, rel=0.01
        )

    def test_wifi_traffic_adds_current(self, laptop):
        laptop.connect_wifi("batterylab")
        laptop.install_service("sync")
        laptop.start_service("sync", cpu_percent=5.0, network_mbps=10.0)
        breakdown_free = laptop.instantaneous_current_ma(with_noise=False)
        laptop.stop_service("sync")
        assert breakdown_free > laptop.instantaneous_current_ma(with_noise=False)

    def test_laptop_on_battery_drains(self, context, laptop):
        laptop.set_mains_powered(False)
        charge_before = laptop.battery.charge_mah
        context.run_for(60.0)
        assert laptop.battery.charge_mah < charge_before

    def test_laptop_on_mains_does_not_drain(self, context, laptop):
        laptop.set_mains_powered(True)
        charge_before = laptop.battery.charge_mah
        context.run_for(60.0)
        assert laptop.battery.charge_mah == charge_before


class TestCommands:
    def test_systemctl_roundtrip(self, laptop):
        laptop.install_service("nginx")
        assert "nginx" in laptop.run_command("systemctl list")
        assert laptop.run_command("systemctl start nginx 12 1.5") == "started nginx"
        assert laptop.services.is_running("nginx")
        assert laptop.run_command("systemctl stop nginx") == "stopped nginx"
        assert not laptop.services.is_running("nginx")

    def test_sensors_and_uptime(self, context, laptop):
        context.run_for(5.0)
        assert "mA" in laptop.run_command("sensors")
        assert "up" in laptop.run_command("uptime")

    def test_invalid_commands(self, laptop):
        with pytest.raises(LinuxDeviceError):
            laptop.run_command("")
        with pytest.raises(LinuxDeviceError):
            laptop.run_command("reboot --force")
        with pytest.raises(LinuxDeviceError):
            laptop.run_command("display sideways")

    def test_summary(self, laptop):
        summary = laptop.summary()
        assert summary["model"] == "ThinkPad X250"
        assert summary["battery_percent"] == 100.0


class TestVantagePointIntegration:
    def test_iot_node_measured_through_relay(self, platform, vantage_point):
        """A battery-less IoT node can join a vantage point and be measured."""
        controller = vantage_point.controller
        node = LinuxDevice(platform.context, serial="node1-iot00", profile=RASPBERRY_PI_ZERO_W)
        controller.add_device(node, pair_bluetooth=False, wire_relay=True)
        node.install_service("sensor-upload")
        node.start_service("sensor-upload", cpu_percent=20.0, network_mbps=0.5)
        vantage_point.monitor.set_sample_rate(200.0)
        # The Pi Zero is supplied at 5 V rather than a phone battery voltage.
        controller.set_power_monitor(True)
        controller.set_voltage(5.0)
        controller.batt_switch("node1-iot00", True)
        vantage_point.monitor.start_sampling(label="iot")
        platform.run_for(20.0)
        trace = vantage_point.monitor.stop_sampling()
        controller.batt_switch("node1-iot00", False)
        assert trace.median_current_ma() > RASPBERRY_PI_ZERO_W.idle_current_ma

    def test_laptop_measurement_session(self, platform, vantage_point):
        controller = vantage_point.controller
        laptop = LinuxDevice(platform.context, serial="node1-laptop00", profile=THINKPAD_X250)
        controller.add_device(laptop, pair_bluetooth=False, wire_relay=True)
        laptop.run_command("display on")
        vantage_point.monitor.set_sample_rate(100.0)
        controller.set_power_monitor(True)
        controller.set_voltage(THINKPAD_X250.supply_voltage_v)
        result = MeasurementSession(controller, "node1-laptop00", label="laptop-idle").measure(15.0)
        assert result.median_current_ma() > THINKPAD_X250.idle_current_ma
