"""The device under test: the power model every device class shares.

A phone, an iPhone, a laptop or an IoT node is, to BatteryLab, a set of
components whose states sum to one instantaneous current draw — the
quantity the (emulated) Monsoon samples — plus a one-hertz accounting tick
that drains the battery (or counts the charge the monitor supplies in
bypass) and records CPU utilisation samples, which is where the Figure 4
device-CPU CDFs come from.  :class:`DeviceUnderTest` holds that model once:
identity and USB power, the WiFi and cellular radios and Bluetooth links,
the fold from running packages to CPU, screen and radio demand, the
on-device mirroring server, the current sum and the accounting tick.  The
OS classes add only what is their own, as class attributes and overrides.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.device.apps import AppProcess, InstalledApp, PackageManager
from repro.device.battery import Battery, BatteryConnection
from repro.device.cpu import CpuModel
from repro.device.radio import NetworkInterfaceModel, RadioTechnology
from repro.device.screen import Screen
from repro.simulation.entity import Entity, SimulationContext
from repro.simulation.process import PeriodicProcess


class DeviceUnderTest(Entity):
    """A test device wired into a BatteryLab vantage point.

    Parameters
    ----------
    context:
        Shared simulation context.
    serial:
        Device identifier (ADB serial, iOS UDID or host name); also the entity name.
    profile:
        Hardware/power profile.
    accounting_period:
        Period, in seconds, of the battery-drain / CPU-sampling tick.
    """

    #: ``os_name`` the profile must carry (``None`` accepts any profile).
    PROFILE_OS: Optional[str] = None
    #: Components of the current draw, each read by ``_<name>_ma``, summed in this order.
    CURRENT_TERMS: Tuple[str, ...] = (
        "idle", "screen", "cpu", "hw_encoder", "wifi", "cellular", "bluetooth",
    )
    #: CPU-accounting name of the on-device mirroring server (``None``: no mirroring).
    MIRRORING_PROCESS: Optional[str] = None
    #: Mirroring-server CPU percent with a static screen, and per unit of screen activity.
    MIRRORING_CPU_PERCENT: Tuple[float, float] = (0.0, 0.0)
    #: Mirroring uplink as a share of the bitrate: its floor, and the offset added to
    #: screen activity (capped at the full bitrate).
    MIRRORING_STREAM_SHARE: Tuple[float, float] = (1.0, 1.0)
    #: Clip bounds (low, high) of the multiplicative measurement noise (sigma 2 %).
    NOISE_CLIP: Tuple[Optional[float], Optional[float]] = (0.8, None)

    rooted = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Resolved once per class: a reading runs on every monitor tick.
        cls._current_readers = tuple(
            (term, getattr(cls, f"_{term}_ma")) for term in cls.CURRENT_TERMS
        )

    def __init__(
        self,
        context: SimulationContext,
        serial: str,
        profile,
        accounting_period: float = 1.0,
    ) -> None:
        super().__init__(context, f"device:{serial}")
        if self.PROFILE_OS is not None and profile.os_name != self.PROFILE_OS:
            raise ValueError(
                f"{type(self).__name__} requires an {self.PROFILE_OS} profile, "
                f"got {profile.os_name!r}"
            )
        self._serial = serial
        self._profile = profile
        self.battery: Optional[Battery] = self._new_battery()
        self.cpu = CpuModel(profile.cpu_cores, self.random.child("cpu"))
        self.screen = Screen()
        self.radio = NetworkInterfaceModel()
        self.packages = PackageManager()
        self._bluetooth_links = 0
        self._usb_connected = False
        self._usb_powered = False
        self._mirroring_active = False
        self._mirroring_bitrate_mbps = 1.0
        self._bypass_supply_mah = 0.0
        self._accounting = PeriodicProcess(
            context.scheduler,
            accounting_period,
            self._accounting_tick,
            label=f"{self.name}:accounting",
        )
        self._accounting.start(initial_delay=accounting_period)

    def _new_battery(self) -> Optional[Battery]:
        return Battery(self._profile.battery_capacity_mah, self._profile.battery_voltage_v)

    # -- identity -------------------------------------------------------------
    @property
    def serial(self) -> str:
        return self._serial

    @property
    def profile(self):
        return self._profile

    # -- connectivity ---------------------------------------------------------
    def connect_usb(self, powered: bool = True) -> None:
        """Plug the device into the controller's USB hub."""
        self._usb_connected = True
        self._power_usb(powered)

    def disconnect_usb(self) -> None:
        self._usb_connected = False
        self._power_usb(False)

    def set_usb_power(self, powered: bool) -> None:
        """(De)activate USB port power (what ``uhubctl`` does on the controller)."""
        if not self._usb_connected and powered:
            raise RuntimeError("cannot power a USB port with no device attached")
        self._power_usb(powered)

    def _power_usb(self, powered: bool) -> None:
        self._usb_powered = bool(powered)
        if self._profile.usb_charge_current_ma > 0:
            self.battery.set_charging(self._usb_powered)

    @property
    def usb_connected(self) -> bool:
        return self._usb_connected

    @property
    def usb_powered(self) -> bool:
        return self._usb_powered

    def connect_wifi(self, ssid: str) -> None:
        self.radio.enable(RadioTechnology.WIFI, ssid=ssid)

    def disconnect_wifi(self) -> None:
        self.radio.disable(RadioTechnology.WIFI)

    def connect_cellular(self) -> None:
        self.radio.enable(RadioTechnology.CELLULAR)

    def disconnect_cellular(self) -> None:
        self.radio.disable(RadioTechnology.CELLULAR)

    def attach_bluetooth_link(self) -> None:
        self._bluetooth_links += 1

    def detach_bluetooth_link(self) -> None:
        if self._bluetooth_links == 0:
            raise RuntimeError("no Bluetooth link to detach")
        self._bluetooth_links -= 1

    @property
    def bluetooth_links(self) -> int:
        return self._bluetooth_links

    def install_app(self, app: InstalledApp) -> None:
        self.packages.install(app)

    # -- mirroring server -----------------------------------------------------
    def start_mirroring_server(self, bitrate_mbps: float = 1.0) -> None:
        """Start streaming the screen to the controller's mirroring pipeline."""
        if self.MIRRORING_PROCESS is None:
            raise RuntimeError(f"{self._profile.model} has no on-device mirroring server")
        if bitrate_mbps <= 0:
            raise ValueError(f"bitrate must be positive, got {bitrate_mbps!r}")
        self._mirroring_active = True
        self._mirroring_bitrate_mbps = float(bitrate_mbps)
        self.log(f"{self.MIRRORING_PROCESS} started", bitrate_mbps=bitrate_mbps)

    def stop_mirroring_server(self) -> None:
        self._mirroring_active = False
        self.cpu.clear_demand(self.MIRRORING_PROCESS)
        self.log(f"{self.MIRRORING_PROCESS} stopped")

    @property
    def mirroring_active(self) -> bool:
        return self._mirroring_active

    def mirroring_stream_mbps(self) -> float:
        """Uplink throughput of the mirroring stream right now.

        The encoder only ships frames when the screen content changes, so
        the effective bitrate scales with screen activity up to the cap.
        """
        if not self._mirroring_active:
            return 0.0
        floor, offset = self.MIRRORING_STREAM_SHARE
        activity = self.screen.activity_fraction()
        return self._mirroring_bitrate_mbps * max(floor, min(1.0, offset + activity))

    def _mirroring_cpu_percent(self) -> float:
        static, per_activity = self.MIRRORING_CPU_PERCENT
        return static + per_activity * self.screen.activity_fraction()

    # -- power model ----------------------------------------------------------
    def refresh_demands(self) -> None:
        """Fold running packages into the CPU, screen and radio models.

        Called before every current reading and accounting tick so that the
        power model always reflects the live workload state.
        """
        running = self.packages.running_processes()
        for process in running:
            self.cpu.set_demand(process.package, process.cpu_percent)
        for package in self.cpu.process_names:
            if package != self.MIRRORING_PROCESS and not self.packages.is_running(package):
                self.cpu.clear_demand(package)
        self._follow_foreground(running)
        # The mirroring server's demand depends on the freshly computed screen activity.
        if self._mirroring_active:
            self.cpu.set_demand(self.MIRRORING_PROCESS, self._mirroring_cpu_percent())
        # Radio throughput: foreground + background app traffic plus the
        # mirroring uplink, all carried over the default route.
        app_mbps = sum(process.network_mbps for process in running)
        stream_mbps = self.mirroring_stream_mbps()
        route = self.radio.default_route
        for technology in (RadioTechnology.WIFI, RadioTechnology.CELLULAR):
            if self.radio.is_enabled(technology):
                mbps = (app_mbps + stream_mbps) if technology is route else 0.0
                self.radio.set_throughput(technology, mbps)

    def _follow_foreground(self, running: List[AppProcess]) -> None:
        # Launching an app wakes the screen; with nothing in the foreground the
        # display times out, which is how automated tests run between workloads.
        screen_fps = 0.0
        has_foreground = False
        for process in running:
            if process.foreground:
                has_foreground = True
                screen_fps += process.screen_fps
        if has_foreground and not self.screen.on:
            self.screen.turn_on()
        elif not has_foreground and self.screen.on:
            self.screen.turn_off()
        if self.screen.on:
            self.screen.set_update_rate(screen_fps)

    def _idle_ma(self) -> float:
        return self._profile.idle_current_ma

    def _screen_ma(self) -> float:
        if not self.screen.on:
            return 0.0
        profile = self._profile
        screen = profile.screen_on_current_ma + profile.screen_brightness_coeff_ma * (
            self.screen.brightness - self.screen.reference_brightness
        )
        return max(screen, 0.0)

    def _cpu_ma(self) -> float:
        return self.cpu.total_demand() * self._profile.cpu_current_ma_per_percent

    def _hw_encoder_ma(self) -> float:
        return self._profile.hw_encoder_current_ma if self._mirroring_active else 0.0

    def _wifi_ma(self) -> float:
        if not self.radio.is_enabled(RadioTechnology.WIFI):
            return 0.0
        profile = self._profile
        return (
            profile.wifi_idle_current_ma
            + profile.wifi_active_current_ma_per_mbps * self.radio.throughput(RadioTechnology.WIFI)
        )

    def _cellular_ma(self) -> float:
        if not self.radio.is_enabled(RadioTechnology.CELLULAR):
            return 0.0
        profile = self._profile
        return (
            profile.cellular_idle_current_ma
            + profile.cellular_active_current_ma_per_mbps
            * self.radio.throughput(RadioTechnology.CELLULAR)
        )

    def _bluetooth_ma(self) -> float:
        return self._profile.bluetooth_active_current_ma * self._bluetooth_links

    def _currents(self) -> Tuple[Dict[str, float], float, float]:
        """Per-component currents, the USB offset and the total, in mA (no noise)."""
        self.refresh_demands()
        currents = {term: read(self) for term, read in self._current_readers}
        gross = 0.0
        for current in currents.values():  # strictly left to right, unlike sum()
            gross += current
        usb_offset = 0.0
        if self._usb_powered:
            # USB supplies the device (and charges the battery): the external
            # meter sees the draw collapse, which is exactly why the paper
            # avoids ADB-over-USB during measurements.
            usb_offset = -min(gross, self._profile.usb_charge_current_ma)
        return currents, usb_offset, max(gross + usb_offset, 0.0)

    def instantaneous_current_ma(self, with_noise: bool = True) -> float:
        """Current drawn from the supply (battery, monitor or mains) right now, in mA."""
        total = self._currents()[2]
        if with_noise and total > 0:
            total *= self.random.clipped_normal(1.0, 0.02, *self.NOISE_CLIP)
        return total

    # -- accounting -----------------------------------------------------------
    def _accounting_tick(self, timestamp: float) -> None:
        period = self._accounting.period
        current = self.instantaneous_current_ma(with_noise=True)
        connection = None if self.battery is None else self.battery.connection
        if connection is BatteryConnection.INTERNAL:
            self._run_on_battery(current, period)
        elif connection is BatteryConnection.BYPASS:
            self._bypass_supply_mah += current * period / 3600.0
        self.cpu.sample(timestamp)

    def _run_on_battery(self, current_ma: float, period: float) -> None:
        """Drain one tick's charge; a powered USB port puts half its current back."""
        charge_ma = self._profile.usb_charge_current_ma
        if self._usb_powered and charge_ma > 0:
            self.battery.charge(charge_ma * 0.5, period)
        self.battery.drain(current_ma, period)

    @property
    def bypass_supply_mah(self) -> float:
        """Charge supplied by the power monitor while in battery bypass."""
        return self._bypass_supply_mah

    def reset_bypass_supply(self) -> None:
        self._bypass_supply_mah = 0.0

    @property
    def accounting(self) -> PeriodicProcess:
        return self._accounting
