"""Device hardware profiles.

A :class:`DeviceHardwareProfile` collects the per-component power
coefficients that turn activity (CPU utilisation, screen state, radio
throughput) into instantaneous current draw in milliamps at the battery
voltage.  The default profile is calibrated to the Samsung J7 Duo used by
the paper's first vantage point so that the evaluation's headline numbers
hold in shape:

* mp4 playback draws a median of roughly 160 mA without mirroring and
  roughly 220 mA with mirroring (Figure 2);
* browser workloads produce device CPU medians of roughly 12% (Brave) and
  20% (Chrome), and mirroring adds roughly 5% CPU (Figure 4);
* the mirroring overhead integrates to roughly +20 mAh over a browser run
  (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: scrcpy device mirroring needs Android API level 21 or higher.
SCRCPY_MIN_API_LEVEL = 21


@dataclass(frozen=True)
class DeviceHardwareProfile:
    """Static hardware description plus power coefficients for one device model.

    Attributes
    ----------
    model:
        Marketing name, e.g. ``"Samsung J7 Duo"``.
    os_name / os_version:
        Operating system family (``"android"`` or ``"ios"``) and version string.
    api_level:
        Android API level (mirroring via scrcpy requires API >= 21); ``0`` for iOS.
    battery_capacity_mah:
        Nominal battery capacity.
    battery_voltage_v:
        Nominal battery voltage; also the voltage the Monsoon is asked to supply.
    removable_battery:
        The paper recommends phones with removable batteries for easy bypass wiring.
    cpu_cores:
        Number of CPU cores (used by the CPU accounting model).
    idle_current_ma:
        Floor current with screen off and no workload.
    screen_on_current_ma:
        Extra current with the screen on at the reference brightness.
    screen_brightness_coeff_ma:
        Additional current per unit of brightness above the reference (0..1 scale).
    cpu_current_ma_per_percent:
        Extra current per percentage point of total CPU utilisation.
    video_decoder_current_ma:
        Extra current while the hardware video decoder is active.
    hw_encoder_current_ma:
        Extra current while the hardware H.264 encoder (scrcpy mirroring) is active.
    wifi_idle_current_ma / cellular_idle_current_ma:
        Radio baseline when associated but idle.
    wifi_active_current_ma_per_mbps / cellular_active_current_ma_per_mbps:
        Extra current per Mbps of radio traffic (tx+rx combined).
    usb_charge_current_ma:
        Charge current flowing *into* the device when USB power is connected;
        this is what "interferes with the power monitoring procedure" (§3.2).
    bluetooth_active_current_ma:
        Extra current while a Bluetooth link (HID keyboard / ADB-over-BT) is active.
    """

    model: str
    os_name: str
    os_version: str
    api_level: int
    battery_capacity_mah: float
    battery_voltage_v: float
    removable_battery: bool
    cpu_cores: int
    idle_current_ma: float
    screen_on_current_ma: float
    screen_brightness_coeff_ma: float
    cpu_current_ma_per_percent: float
    video_decoder_current_ma: float
    hw_encoder_current_ma: float
    wifi_idle_current_ma: float
    wifi_active_current_ma_per_mbps: float
    cellular_idle_current_ma: float
    cellular_active_current_ma_per_mbps: float
    usb_charge_current_ma: float
    bluetooth_active_current_ma: float
    extra: Dict[str, float] = field(default_factory=dict)

    def supports_scrcpy(self) -> bool:
        """Whether scrcpy can mirror this device (``SCRCPY_MIN_API_LEVEL``)."""
        return self.os_name == "android" and self.api_level >= SCRCPY_MIN_API_LEVEL

    def supports_adb(self) -> bool:
        return self.os_name == "android"


SAMSUNG_J7_DUO = DeviceHardwareProfile(
    model="Samsung J7 Duo",
    os_name="android",
    os_version="8.0",
    api_level=26,
    battery_capacity_mah=3000.0,
    battery_voltage_v=3.85,
    removable_battery=True,
    cpu_cores=8,
    idle_current_ma=42.0,
    screen_on_current_ma=72.0,
    screen_brightness_coeff_ma=55.0,
    cpu_current_ma_per_percent=2.4,
    video_decoder_current_ma=18.0,
    hw_encoder_current_ma=24.0,
    wifi_idle_current_ma=4.0,
    wifi_active_current_ma_per_mbps=26.0,
    cellular_idle_current_ma=8.0,
    cellular_active_current_ma_per_mbps=42.0,
    usb_charge_current_ma=480.0,
    bluetooth_active_current_ma=6.5,
)
"""The paper's test device (first vantage point, Imperial College London)."""


PIXEL_3A = DeviceHardwareProfile(
    model="Google Pixel 3a",
    os_name="android",
    os_version="10",
    api_level=29,
    battery_capacity_mah=3000.0,
    battery_voltage_v=3.85,
    removable_battery=False,
    cpu_cores=8,
    idle_current_ma=38.0,
    screen_on_current_ma=68.0,
    screen_brightness_coeff_ma=60.0,
    cpu_current_ma_per_percent=2.1,
    video_decoder_current_ma=15.0,
    hw_encoder_current_ma=20.0,
    wifi_idle_current_ma=3.5,
    wifi_active_current_ma_per_mbps=22.0,
    cellular_idle_current_ma=7.0,
    cellular_active_current_ma_per_mbps=38.0,
    usb_charge_current_ma=500.0,
    bluetooth_active_current_ma=6.0,
)
"""A second Android profile, used to exercise device heterogeneity in tests."""


IPHONE_8 = DeviceHardwareProfile(
    model="Apple iPhone 8",
    os_name="ios",
    os_version="13.3",
    api_level=0,
    battery_capacity_mah=1821.0,
    battery_voltage_v=3.82,
    removable_battery=False,
    cpu_cores=6,
    idle_current_ma=35.0,
    screen_on_current_ma=66.0,
    screen_brightness_coeff_ma=52.0,
    cpu_current_ma_per_percent=2.0,
    video_decoder_current_ma=14.0,
    hw_encoder_current_ma=22.0,
    wifi_idle_current_ma=3.0,
    wifi_active_current_ma_per_mbps=20.0,
    cellular_idle_current_ma=7.5,
    cellular_active_current_ma_per_mbps=40.0,
    usb_charge_current_ma=450.0,
    bluetooth_active_current_ma=5.5,
)
"""iOS profile: no ADB/scrcpy, automated via the Bluetooth keyboard channel."""


BUILTIN_PROFILES: Dict[str, DeviceHardwareProfile] = {
    profile.model: profile for profile in (SAMSUNG_J7_DUO, PIXEL_3A, IPHONE_8)
}
