"""Laptop and IoT device models.

The paper's conclusion notes that "while we focus on mobile devices there is
no fundamental constraint which would not allow BatteryLab to support
laptops or IoT devices".  This module adds those device classes so a vantage
point can host them alongside phones:

* :class:`LinuxDevice` — a generic Linux machine (laptop or single-board IoT
  node) with a battery (optional for mains-assisted IoT nodes), CPU, WiFi
  radio, an optional display panel and a set of *services* standing in for
  the app processes of a phone;
* automation happens over SSH-style service control rather than ADB — the
  :meth:`LinuxDevice.run_command` surface covers the handful of operations
  an experiment script needs (start/stop services, read sensors, power
  settings).

Power accounting is the shared :class:`~repro.device.base.DeviceUnderTest`
model: every component contributes a current at the device's supply voltage,
the monitor (or relay) samples the total, and a one-hertz tick drains the
battery or counts bypass charge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.device.apps import AppProcess, InstalledApp, PackageManager
from repro.device.base import DeviceUnderTest
from repro.device.battery import Battery
from repro.device.screen import Screen
from repro.simulation.entity import SimulationContext


@dataclass(frozen=True)
class LinuxDeviceProfile:
    """Hardware/power description of a Linux test device.

    ``battery_capacity_mah`` of zero means the device has no battery at all
    (a mains-powered IoT node): it can still be measured through the monitor
    but never runs from stored charge.
    """

    model: str
    kind: str  # "laptop" or "iot"
    cpu_cores: int
    battery_capacity_mah: float
    supply_voltage_v: float
    idle_current_ma: float
    cpu_current_ma_per_percent: float
    display_current_ma: float
    wifi_idle_current_ma: float
    wifi_active_current_ma_per_mbps: float
    usb_charge_current_ma: float
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def has_battery(self) -> bool:
        return self.battery_capacity_mah > 0

    @property
    def has_display(self) -> bool:
        return self.display_current_ma > 0


THINKPAD_X250 = LinuxDeviceProfile(
    model="ThinkPad X250",
    kind="laptop",
    cpu_cores=4,
    battery_capacity_mah=6200.0,
    supply_voltage_v=11.4,
    idle_current_ma=380.0,
    cpu_current_ma_per_percent=14.0,
    display_current_ma=260.0,
    wifi_idle_current_ma=12.0,
    wifi_active_current_ma_per_mbps=9.0,
    usb_charge_current_ma=0.0,
)
"""A laptop-class profile (battery measured at the pack's 11.4 V)."""


RASPBERRY_PI_ZERO_W = LinuxDeviceProfile(
    model="Raspberry Pi Zero W",
    kind="iot",
    cpu_cores=1,
    battery_capacity_mah=0.0,
    supply_voltage_v=5.0,
    idle_current_ma=120.0,
    cpu_current_ma_per_percent=1.6,
    display_current_ma=0.0,
    wifi_idle_current_ma=8.0,
    wifi_active_current_ma_per_mbps=20.0,
    usb_charge_current_ma=0.0,
)
"""A battery-less IoT node powered (and measured) through its 5 V supply."""


class LinuxDeviceError(RuntimeError):
    """Raised for unsupported operations (e.g. draining a battery-less node)."""


class LinuxDevice(DeviceUnderTest):
    """A laptop or IoT node attached to a BatteryLab vantage point.

    The device shares the attachment surface of every
    :class:`~repro.device.base.DeviceUnderTest` (``serial``,
    ``instantaneous_current_ma``, USB/WiFi hooks, a ``battery`` when one
    exists) so the relay circuit, USB hub and measurement sessions work
    unchanged; what differs is the automation surface (:meth:`run_command`,
    services), an operator-switched display, mains power, and the absence
    of ADB, mirroring, a cellular modem and Bluetooth input.
    """

    CURRENT_TERMS = ("idle", "cpu", "display", "wifi")
    NOISE_CLIP = (0.85, 1.15)

    def __init__(
        self,
        context: SimulationContext,
        serial: str,
        profile: LinuxDeviceProfile = THINKPAD_X250,
        accounting_period: float = 1.0,
    ) -> None:
        super().__init__(context, serial, profile, accounting_period)
        self._mains_powered = not profile.has_battery

    def _new_battery(self) -> Optional[Battery]:
        profile = self._profile
        if not profile.has_battery:
            return None
        return Battery(profile.battery_capacity_mah, profile.supply_voltage_v)

    @property
    def kind(self) -> str:
        return self._profile.kind

    @property
    def services(self) -> PackageManager:
        return self.packages

    @property
    def display(self) -> Optional[Screen]:
        return self.screen if self._profile.has_display else None

    def connect_cellular(self) -> None:
        raise LinuxDeviceError(f"{self._profile.model} has no cellular modem")

    def attach_bluetooth_link(self) -> None:
        raise LinuxDeviceError(f"{self._profile.model} has no Bluetooth input")

    # -- power sources ------------------------------------------------------------------------
    @property
    def mains_powered(self) -> bool:
        return self._mains_powered

    def set_mains_powered(self, powered: bool) -> None:
        """Plug/unplug a laptop's charger (IoT nodes are always mains powered)."""
        if not self._profile.has_battery and not powered:
            raise LinuxDeviceError(
                f"{self._profile.model} has no battery and cannot run unplugged"
            )
        self._mains_powered = bool(powered)

    def _run_on_battery(self, current_ma: float, period: float) -> None:
        if not self._mains_powered:
            super()._run_on_battery(current_ma, period)

    # -- services (the Linux analogue of app processes) ----------------------------------
    def install_service(self, name: str, description: str = "") -> None:
        self.services.install(InstalledApp(package=name, label=description or name, category="service"))

    def start_service(self, name: str, cpu_percent: float = 0.0, network_mbps: float = 0.0):
        process = self.services.launch(name)
        process.set_activity(cpu_percent=cpu_percent, network_mbps=network_mbps)
        return process

    def stop_service(self, name: str) -> None:
        self.services.stop(name, ignore_missing=True)

    def run_command(self, command: str) -> str:
        """Tiny SSH-style command surface used by automation scripts.

        Supported commands: ``uptime``, ``sensors``, ``systemctl list``,
        ``systemctl start <svc> [cpu] [mbps]``, ``systemctl stop <svc>``,
        ``display on|off``.
        """
        tokens = command.split()
        if not tokens:
            raise LinuxDeviceError("empty command")
        if tokens[0] == "uptime":
            return f"up {self.now:.0f} seconds, load {self.cpu.total_demand() / 100:.2f}"
        if tokens[0] == "sensors":
            return f"current: {self.instantaneous_current_ma(with_noise=False):.1f} mA"
        if tokens[0] == "display" and self.display is not None and len(tokens) == 2:
            if tokens[1] == "on":
                self.display.turn_on()
            elif tokens[1] == "off":
                self.display.turn_off()
            else:
                raise LinuxDeviceError("usage: display <on|off>")
            return ""
        if tokens[0] == "systemctl":
            if len(tokens) >= 2 and tokens[1] == "list":
                return "\n".join(self.services.installed_packages())
            if len(tokens) >= 3 and tokens[1] == "start":
                cpu = float(tokens[3]) if len(tokens) > 3 else 5.0
                mbps = float(tokens[4]) if len(tokens) > 4 else 0.0
                self.start_service(tokens[2], cpu_percent=cpu, network_mbps=mbps)
                return f"started {tokens[2]}"
            if len(tokens) >= 3 and tokens[1] == "stop":
                self.stop_service(tokens[2])
                return f"stopped {tokens[2]}"
        raise LinuxDeviceError(f"unsupported command {command!r}")

    # -- power model ------------------------------------------------------------------------
    def _follow_foreground(self, running: List[AppProcess]) -> None:
        """The display is switched by ``display on|off``, not by running services."""

    def _display_ma(self) -> float:
        return self._profile.display_current_ma if self.screen.on else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "serial": self._serial,
            "model": self._profile.model,
            "kind": self._profile.kind,
            "battery_percent": round(self.battery.level_percent, 1) if self.battery else None,
            "mains_powered": self._mains_powered,
            "services": self.services.installed_packages(),
        }
