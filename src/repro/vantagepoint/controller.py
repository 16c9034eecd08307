"""Vantage point controller (Raspberry Pi).

The controller is "a Linux-based machine responsible for managing the
vantage point" (Section 3.2): it manages connectivity with the test devices
(USB, its own WiFi access point, Bluetooth), drives the relay circuit and
the power monitor, provides device mirroring, and is remotely reachable by
the access server over SSH.  The paper deploys a Raspberry Pi 3B+.

Besides the control plane, the controller model keeps the resource accounts
the paper's "System Performance" analysis needs: CPU samples (Figure 5 —
about 25% flat while only polling the Monsoon, ~75% median with mirroring),
memory utilisation (below 20% of the Pi's 1 GB, +6% with mirroring) and
upload traffic (about 32 MB for a ~7 minute mirrored test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.device.adb import AdbServer, AdbTransport
from repro.device.android import AndroidDevice
from repro.device.base import DeviceUnderTest
from repro.device.ios import IOSDevice
from repro.mirroring.scrcpy import ScrcpyClient
from repro.mirroring.session import MirroringSession
from repro.network.link import NetworkLink
from repro.network.path import NetworkPath
from repro.network.ssh import SshKeyPair, SshServer
from repro.network.vpn import VpnClient
from repro.powermonitor.monsoon import MonsoonHVPM
from repro.simulation.entity import Entity, SimulationContext
from repro.simulation.process import PeriodicProcess
from repro.vantagepoint.bluetooth import BluetoothHidKeyboard
from repro.vantagepoint.gpio import GpioInterface
from repro.vantagepoint.power_socket import MerossPowerSocket
from repro.vantagepoint.relay import RelayCircuit
from repro.vantagepoint.usb import UsbHub
from repro.vantagepoint.wifi_ap import WifiAccessPoint


class ControllerError(RuntimeError):
    """Raised for unknown devices or invalid controller operations."""


@dataclass(frozen=True)
class ControllerSpec:
    """Hardware description of the controller machine."""

    model: str
    cpu_cores: int
    memory_mb: int
    has_wifi: bool = True
    has_ethernet: bool = True
    gpio_pins: int = 40


RASPBERRY_PI_3B_PLUS = ControllerSpec(
    model="Raspberry Pi 3B+",
    cpu_cores=4,
    memory_mb=1024,
)
"""The controller used by the paper's first vantage point."""


@dataclass
class ControllerCpuSample:
    timestamp: float
    total_percent: float
    monsoon_percent: float
    mirroring_percent: float


class VantagePointController(Entity):
    """The Raspberry Pi managing one BatteryLab vantage point.

    Parameters
    ----------
    context:
        Simulation context.
    hostname:
        Public DNS name of the controller (``node1.batterylab.dev``).
    uplink:
        The vantage point's Internet uplink.
    spec:
        Controller hardware spec (defaults to the Raspberry Pi 3B+).
    home_region:
        Content region when no VPN tunnel is active.
    """

    #: CPU cost of pulling Monsoon readings at the highest frequency.
    MONSOON_POLL_CPU_PERCENT = 21.0
    #: Background load of Raspbian plus the BatteryLab software suite.
    BASE_CPU_PERCENT = 4.0
    #: Resident memory of the OS and BatteryLab suite, in MB.
    BASE_MEMORY_MB = 128.0

    def __init__(
        self,
        context: SimulationContext,
        hostname: str,
        uplink: Optional[NetworkLink] = None,
        spec: ControllerSpec = RASPBERRY_PI_3B_PLUS,
        home_region: str = "GB",
        ssid: str = "batterylab",
        cpu_sample_period: float = 1.0,
    ) -> None:
        super().__init__(context, f"controller:{hostname}")
        self._hostname = hostname
        self._spec = spec
        self._uplink = uplink or NetworkLink(
            name=f"{hostname}-uplink", downlink_mbps=95.0, uplink_mbps=40.0, latency_ms=6.0
        )
        self._home_region = home_region
        self.gpio = GpioInterface(spec.gpio_pins)
        self.usb_hub = UsbHub(port_count=4)
        self.wifi_ap = WifiAccessPoint(ssid=ssid)
        self.keyboard = BluetoothHidKeyboard(adapter_name=f"{hostname}-kbd")
        self.vpn = VpnClient()
        self.ssh_server = SshServer(
            host=hostname, port=2222, command_handler=self.handle_command, clock=lambda: self.now
        )
        self._monitor: Optional[MonsoonHVPM] = None
        self._power_socket: Optional[MerossPowerSocket] = None
        self.relay = RelayCircuit(self.gpio)
        self._devices: Dict[str, DeviceUnderTest] = {}
        self._adb_servers: Dict[str, AdbServer] = {}
        self._mirroring: Dict[str, MirroringSession] = {}
        self._cpu_samples: List[ControllerCpuSample] = []
        self._job_upload_bytes = 0
        self._cpu_process = PeriodicProcess(
            context.scheduler, cpu_sample_period, self._cpu_tick, label=f"{self.name}:cpu"
        )
        self._cpu_process.start(initial_delay=cpu_sample_period)

    # -- identity / attachments ------------------------------------------------------
    @property
    def hostname(self) -> str:
        return self._hostname

    @property
    def spec(self) -> ControllerSpec:
        return self._spec

    @property
    def uplink(self) -> NetworkLink:
        return self._uplink

    @property
    def monitor(self) -> Optional[MonsoonHVPM]:
        return self._monitor

    @property
    def power_socket(self) -> Optional[MerossPowerSocket]:
        return self._power_socket

    def attach_monitor(
        self, monitor: MonsoonHVPM, power_socket: Optional[MerossPowerSocket] = None
    ) -> None:
        """Wire a power monitor (and optionally its mains socket) into the vantage point."""
        self._monitor = monitor
        self.relay.set_monitor(monitor)
        if power_socket is not None:
            self._power_socket = power_socket
            power_socket.attach_appliance(monitor)

    def network_path(self) -> NetworkPath:
        """The current end-to-end path test-device traffic follows."""
        return NetworkPath(self._uplink, vpn=self.vpn, home_region=self._home_region)

    # -- device management --------------------------------------------------------------
    def add_device(
        self,
        device: DeviceUnderTest,
        usb_port: Optional[int] = None,
        pair_bluetooth: bool = True,
        wire_relay: bool = True,
    ) -> None:
        """Connect a test device: USB port, WiFi association, Bluetooth pairing, relay channel."""
        serial = device.serial
        if serial in self._devices:
            raise ControllerError(f"device {serial!r} is already managed by this controller")
        self._devices[serial] = device
        self.usb_hub.attach_device(device, usb_port)
        self.wifi_ap.associate(device)
        if pair_bluetooth:
            self.keyboard.pair(device)
        if wire_relay:
            self.relay.add_channel(device)
        if isinstance(device, AndroidDevice):
            self._adb_servers[serial] = AdbServer(device)
        self.log("device added", serial=serial, model=device.profile.model)

    def remove_device(self, serial: str) -> None:
        device = self._require_device(serial)
        if serial in self._mirroring and self._mirroring[serial].active:
            self._mirroring[serial].stop()
        self._mirroring.pop(serial, None)
        self.usb_hub.detach_device(serial)
        if self.wifi_ap.is_associated(serial):
            self.wifi_ap.disassociate(device)
        if serial in self.keyboard.paired_serials():
            self.keyboard.unpair(serial)
        self._adb_servers.pop(serial, None)
        del self._devices[serial]

    def _require_device(self, serial: str) -> DeviceUnderTest:
        try:
            return self._devices[serial]
        except KeyError:
            raise ControllerError(f"unknown device {serial!r}") from None

    def device(self, serial: str) -> DeviceUnderTest:
        return self._require_device(serial)

    def devices(self) -> List[DeviceUnderTest]:
        return [self._devices[serial] for serial in sorted(self._devices)]

    def list_devices(self) -> List[str]:
        """ADB-style identifiers of the test devices at this vantage point."""
        return sorted(self._devices)

    def adb_server(self, serial: str) -> AdbServer:
        self._require_device(serial)
        server = self._adb_servers.get(serial)
        if server is None:
            raise ControllerError(f"device {serial!r} does not support ADB")
        return server

    def adb_connect(self, serial: str, transport: AdbTransport = AdbTransport.WIFI):
        """Open an ADB connection to a device over the requested transport."""
        return self.adb_server(serial).connect(transport)

    def execute_adb(
        self, serial: str, command: str, transport: AdbTransport = AdbTransport.WIFI
    ) -> str:
        """Run a single ADB command against a device (the ``execute_adb`` API)."""
        return self.adb_server(serial).execute(command, transport)

    # -- USB power (uhubctl) ----------------------------------------------------------------
    def set_device_usb_power(self, serial: str, powered: bool) -> None:
        self._require_device(serial)
        self.usb_hub.set_device_power(serial, powered)

    # -- battery switching --------------------------------------------------------------------
    def batt_switch(self, serial: str, bypass: bool) -> None:
        """(De)activate battery bypass for one device via the relay circuit."""
        self._require_device(serial)
        if bypass:
            self.relay.engage_bypass(serial)
        else:
            self.relay.release_bypass(serial)

    # -- power monitor control -------------------------------------------------------------------
    def set_power_monitor(self, on: bool) -> None:
        """Toggle the Monsoon's mains power through the WiFi socket."""
        if self._power_socket is None:
            raise ControllerError("no WiFi power socket is attached to this vantage point")
        if on:
            self._power_socket.turn_on()
        else:
            self._power_socket.turn_off()

    def set_voltage(self, voltage_v: float) -> None:
        if self._monitor is None:
            raise ControllerError("no power monitor is attached to this vantage point")
        self._monitor.set_vout(voltage_v)

    # -- mirroring --------------------------------------------------------------------------------
    def start_mirroring(self, serial: str, bitrate_mbps: float = 1.0) -> MirroringSession:
        """Activate device mirroring: scrcpy for Android, AirPlay for iOS."""
        device = self._require_device(serial)
        session = self._mirroring.get(serial)
        if session is None or not session.active:
            if isinstance(device, AndroidDevice):
                source = ScrcpyClient(device, bitrate_mbps=bitrate_mbps)
            elif isinstance(device, IOSDevice):
                from repro.mirroring.airplay import AirPlayReceiver

                source = AirPlayReceiver(device, bitrate_mbps=max(bitrate_mbps, 1.5))
            else:
                raise ControllerError(
                    f"device {serial!r} does not support mirroring (no scrcpy or AirPlay path)"
                )
            session = MirroringSession(self.context, source, display=len(self._mirroring) + 1)
            self._mirroring[serial] = session
            session.start()
        return session

    def stop_mirroring(self, serial: str) -> None:
        session = self._mirroring.get(serial)
        if session is not None and session.active:
            session.stop()

    def mirroring_session(self, serial: str) -> Optional[MirroringSession]:
        return self._mirroring.get(serial)

    def mirroring_active(self, serial: str) -> bool:
        session = self._mirroring.get(serial)
        return session is not None and session.active

    # -- resource accounting ------------------------------------------------------------------------
    def _mirroring_cpu_percent(self) -> float:
        return sum(session.controller_cpu_percent() for session in self._mirroring.values())

    def _monsoon_cpu_percent(self) -> float:
        if self._monitor is not None and self._monitor.sampling:
            return self.MONSOON_POLL_CPU_PERCENT
        return 0.0

    def _cpu_tick(self, timestamp: float) -> None:
        monsoon = self._monsoon_cpu_percent()
        mirroring = self._mirroring_cpu_percent()
        vpn_overhead = 2.0 if self.vpn.connected else 0.0
        total = self.BASE_CPU_PERCENT + monsoon + mirroring + vpn_overhead
        total *= self.random.clipped_normal(1.0, 0.06, low=0.75, high=1.25)
        # Periodic keyframe (IDR) encodes and framebuffer resyncs briefly pin
        # the Pi: this is the >95% tail the paper observes in ~10% of samples.
        if mirroring > 0 and self.random.bernoulli(0.12):
            total += self.random.uniform(18.0, 40.0)
        total = min(total, 100.0)
        self._cpu_samples.append(
            ControllerCpuSample(
                timestamp=timestamp,
                total_percent=total,
                monsoon_percent=monsoon,
                mirroring_percent=mirroring,
            )
        )

    @property
    def cpu_samples(self) -> List[ControllerCpuSample]:
        return list(self._cpu_samples)

    @property
    def cpu_sample_count(self) -> int:
        """CPU samples taken so far, without copying them."""
        return len(self._cpu_samples)

    def cpu_utilisation_series(self, start: int = 0) -> List[float]:
        """Total CPU utilisation of each sample from index ``start`` on."""
        return [sample.total_percent for sample in self._cpu_samples[start:]]

    def latest_cpu_percent(self) -> float:
        """Most recent CPU utilisation sample, or 0.0 before the first one.

        O(1) — this sits on the dispatch hot path (the "low CPU utilization"
        job constraint is evaluated per tick).
        """
        return self._cpu_samples[-1].total_percent if self._cpu_samples else 0.0

    def reset_cpu_samples(self) -> None:
        self._cpu_samples.clear()

    def memory_used_mb(self) -> float:
        """Resident memory right now (OS + suite + mirroring pipelines + per-device agents)."""
        mirroring = sum(session.controller_memory_mb() for session in self._mirroring.values())
        per_device = 6.0 * len(self._devices)
        return self.BASE_MEMORY_MB + mirroring + per_device

    def memory_utilisation_percent(self) -> float:
        return 100.0 * self.memory_used_mb() / self._spec.memory_mb

    def account_job_upload(self, size_bytes: int) -> None:
        """Record bytes uploaded to the access server (job logs, traces)."""
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        self._job_upload_bytes += int(size_bytes)

    def upload_bytes(self) -> int:
        """Total upload traffic: mirroring streams plus job artefacts."""
        mirroring = sum(session.upload_bytes() for session in self._mirroring.values())
        return mirroring + self._job_upload_bytes

    # -- SSH command surface ------------------------------------------------------------------------
    def handle_command(self, command: str) -> str:
        """Execute a management command arriving over SSH from the access server.

        The command vocabulary mirrors the management jobs described in
        Section 3.1 (certificate deployment, power-monitor safety, factory
        reset) plus the basics the scheduler needs (status, device listing).
        """
        tokens = command.split()
        if not tokens:
            raise ControllerError("empty command")
        head = tokens[0]
        if head == "status":
            return str(self.status())
        if head == "list_devices":
            return "\n".join(self.list_devices())
        if head == "power_monitor":
            if len(tokens) != 2 or tokens[1] not in ("on", "off"):
                raise ControllerError("usage: power_monitor <on|off>")
            self.set_power_monitor(tokens[1] == "on")
            return f"power monitor {tokens[1]}"
        if head == "usb_power":
            if len(tokens) != 3 or tokens[2] not in ("on", "off"):
                raise ControllerError("usage: usb_power <serial> <on|off>")
            self.set_device_usb_power(tokens[1], tokens[2] == "on")
            return f"usb power {tokens[2]} for {tokens[1]}"
        if head == "factory_reset":
            if len(tokens) != 2:
                raise ControllerError("usage: factory_reset <serial>")
            return self.factory_reset(tokens[1])
        if head == "deploy_cert":
            return "certificate deployed"
        if head == "vpn":
            if len(tokens) == 2 and tokens[1] == "disconnect":
                self.vpn.disconnect()
                return "vpn disconnected"
            if len(tokens) == 3 and tokens[1] == "connect":
                location = self.vpn.connect(tokens[2])
                return f"vpn connected to {location.city}"
            raise ControllerError("usage: vpn <connect <location>|disconnect>")
        raise ControllerError(f"unknown command {head!r}")

    def factory_reset(self, serial: str) -> str:
        """Wipe a device back to a clean state (one of the maintenance jobs)."""
        device = self._require_device(serial)
        for package in list(device.packages.installed_packages()):
            device.packages.stop(package, ignore_missing=True)
            device.packages.clear_data(package)
        self.log("factory reset", serial=serial)
        return f"device {serial} reset"

    def authorize_access_server(self, key: SshKeyPair, source_address: str) -> None:
        """Grant the access server SSH access (pubkey + IP white-list, Section 3.4)."""
        self.ssh_server.authorize_key(key)
        self.ssh_server.allow_source(source_address)

    # -- status ----------------------------------------------------------------------------------------
    def status(self) -> dict:
        return {
            "hostname": self._hostname,
            "model": self._spec.model,
            "devices": self.list_devices(),
            "monitor": self._monitor.serial if self._monitor else None,
            "monitor_sampling": bool(self._monitor.sampling) if self._monitor else False,
            "mirroring": sorted(
                serial for serial, session in self._mirroring.items() if session.active
            ),
            "vpn": self.vpn.active_location.key if self.vpn.connected else None,
            "memory_percent": round(self.memory_utilisation_percent(), 1),
            "upload_bytes": self.upload_bytes(),
        }
