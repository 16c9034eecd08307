"""iOS device model.

The paper focuses on Android but sketches iOS support: no ADB and no scrcpy,
so automation happens through the Bluetooth keyboard channel and mirroring
through AirPlay.  :class:`IOSDevice` runs the shared
:class:`~repro.device.base.DeviceUnderTest` power model with an AirPlay
sender as its mirroring server and deliberately has no ADB server and no
scrcpy support, so platform code has to take the OS-agnostic code paths
(exactly the constraint §3.3 describes).
"""

from __future__ import annotations

from typing import Dict

from repro.device.base import DeviceUnderTest
from repro.device.profiles import IPHONE_8, DeviceHardwareProfile
from repro.simulation.entity import SimulationContext


class IOSDevice(DeviceUnderTest):
    """A simulated iPhone/iPad attached to a vantage point.

    Compared to :class:`~repro.device.android.AndroidDevice` the iOS model:

    * has no ADB server — automation must use the Bluetooth keyboard channel
      or a pre-built XCTest bundle;
    * mirrors via AirPlay rather than scrcpy;
    * never exposes root.
    """

    PROFILE_OS = "ios"
    MIRRORING_PROCESS = "airplayd"
    MIRRORING_CPU_PERCENT = (4.0, 3.0)
    MIRRORING_STREAM_SHARE = (0.12, 0.25)

    def __init__(
        self,
        context: SimulationContext,
        udid: str,
        profile: DeviceHardwareProfile = IPHONE_8,
        accounting_period: float = 1.0,
    ) -> None:
        super().__init__(context, udid, profile, accounting_period)

    @property
    def udid(self) -> str:
        return self._serial

    def summary(self) -> Dict[str, object]:
        return {
            "udid": self._serial,
            "model": self._profile.model,
            "os": f"{self._profile.os_name} {self._profile.os_version}",
            "battery_percent": round(self.battery.level_percent, 1),
            "battery_connection": self.battery.connection.value,
            "screen_on": self.screen.on,
            "mirroring": self._mirroring_active,
        }
