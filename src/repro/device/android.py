"""Android device model.

:class:`AndroidDevice` is the paper's test phone: the shared
:class:`~repro.device.base.DeviceUnderTest` power model plus what only
Android has — the hardware video decoder, the ``dumpsys`` / ``netstats``
status calls, a per-component :class:`CurrentBreakdown`, and the scrcpy
*server* process used by device mirroring.  Its cost model — a few percent
of CPU that grows with screen activity, the hardware H.264 encoder rail, and
the WiFi uplink used to ship encoded frames to the controller — is what
produces the mirroring overheads reported in Figures 2, 3 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.device.base import DeviceUnderTest
from repro.device.profiles import SAMSUNG_J7_DUO, DeviceHardwareProfile
from repro.device.radio import RadioTechnology
from repro.simulation.entity import SimulationContext

#: Name used for the scrcpy server process in CPU accounting.
SCRCPY_PROCESS = "com.genymobile.scrcpy"

#: Name used for the built-in media player process during the video workload.
MEDIA_PLAYER_PROCESS = "com.android.gallery3d:video"


@dataclass
class CurrentBreakdown:
    """Per-component decomposition of one instantaneous current reading (mA)."""

    idle: float
    screen: float
    cpu: float
    video_decoder: float
    hw_encoder: float
    wifi: float
    cellular: float
    bluetooth: float
    usb_charge_offset: float
    total: float


class AndroidDevice(DeviceUnderTest):
    """A simulated Android phone wired into a BatteryLab vantage point.

    Parameters
    ----------
    context:
        Shared simulation context.
    serial:
        ADB serial number; also the entity name.
    profile:
        Hardware/power profile.  Defaults to the paper's Samsung J7 Duo.
    accounting_period:
        Period, in seconds, of the battery-drain / CPU-sampling tick.
    """

    PROFILE_OS = "android"
    CURRENT_TERMS = (
        "idle", "screen", "cpu", "video_decoder", "hw_encoder", "wifi", "cellular", "bluetooth",
    )
    MIRRORING_PROCESS = SCRCPY_PROCESS
    MIRRORING_CPU_PERCENT = (3.5, 3.0)
    # Even a static screen generates keyframes at a low rate; with any
    # meaningful activity the encoder runs close to its configured cap,
    # which is what bounds the paper's ~32 MB upload per ~7 minute test.
    MIRRORING_STREAM_SHARE = (0.35, 0.55)

    def __init__(
        self,
        context: SimulationContext,
        serial: str,
        profile: DeviceHardwareProfile = SAMSUNG_J7_DUO,
        accounting_period: float = 1.0,
        rooted: bool = False,
    ) -> None:
        super().__init__(context, serial, profile, accounting_period)
        self._rooted = bool(rooted)
        self._video_decoder_active = False

    @property
    def rooted(self) -> bool:
        return self._rooted

    @property
    def os_version(self) -> str:
        return self._profile.os_version

    @property
    def api_level(self) -> int:
        return self._profile.api_level

    # -- workload hooks -------------------------------------------------------
    def set_video_decoder_active(self, active: bool) -> None:
        self._video_decoder_active = bool(active)

    @property
    def video_decoder_active(self) -> bool:
        return self._video_decoder_active

    def _video_decoder_ma(self) -> float:
        return self._profile.video_decoder_current_ma if self._video_decoder_active else 0.0

    # -- mirroring server -----------------------------------------------------
    def start_mirroring_server(self, bitrate_mbps: float = 1.0) -> None:
        """Start the on-device scrcpy server (requires API >= 21)."""
        if not self._profile.supports_scrcpy():
            raise RuntimeError(
                f"{self._profile.model} (API {self._profile.api_level}) does not support scrcpy"
            )
        super().start_mirroring_server(bitrate_mbps)

    # -- power model ----------------------------------------------------------
    def current_breakdown(self) -> CurrentBreakdown:
        """Instantaneous current decomposition, without measurement noise."""
        currents, usb_offset, total = self._currents()
        return CurrentBreakdown(**currents, usb_charge_offset=usb_offset, total=total)

    # -- dumpsys-style status -------------------------------------------------
    def dumpsys_battery(self) -> Dict[str, object]:
        status = self.battery.status()
        return {
            "level": round(status.level_percent, 1),
            "voltage_mv": int(status.voltage_v * 1000),
            "status": "charging" if status.charging else "discharging",
            "connection": status.connection.value,
            "capacity_mah": status.capacity_mah,
        }

    def dumpsys_cpuinfo(self) -> Dict[str, object]:
        sample = self.cpu.last_sample()
        per_process: Dict[str, float] = dict(sample.per_process_percent) if sample else {}
        total = sample.total_percent if sample else self.cpu.total_demand()
        return {"total_percent": round(total, 2), "per_process": per_process}

    def netstats(self) -> Dict[str, int]:
        wifi = self.radio.counters(RadioTechnology.WIFI)
        cell = self.radio.counters(RadioTechnology.CELLULAR)
        return {
            "wifi_rx_bytes": wifi.rx_bytes,
            "wifi_tx_bytes": wifi.tx_bytes,
            "cell_rx_bytes": cell.rx_bytes,
            "cell_tx_bytes": cell.tx_bytes,
        }

    def summary(self) -> Dict[str, object]:
        """Compact status dictionary used by the access server job logs."""
        return {
            "serial": self._serial,
            "model": self._profile.model,
            "os": f"{self._profile.os_name} {self._profile.os_version}",
            "api_level": self._profile.api_level,
            "battery_percent": round(self.battery.level_percent, 1),
            "battery_connection": self.battery.connection.value,
            "screen_on": self.screen.on,
            "mirroring": self._mirroring_active,
            "usb_powered": self._usb_powered,
            "wifi": self.radio.is_enabled(RadioTechnology.WIFI),
            "cellular": self.radio.is_enabled(RadioTechnology.CELLULAR),
        }
