"""Mobile device substrate.

BatteryLab measures real phones; this package replaces them with a
component-level device model whose instantaneous current draw is the sum of
per-component power models (screen, SoC/CPU, radio, video decoder, the
scrcpy mirroring server, and an idle floor).  The model exposes the same
control surfaces the real platform uses:

* an :class:`~repro.device.adb.AdbServer` speaking a simplified ADB protocol
  over USB, WiFi or Bluetooth transports,
* a battery that can be placed in *bypass* so a power monitor supplies the
  device instead (the relay experiment of Section 3.2/4.1),
* per-process CPU accounting so device-side CPU CDFs (Figure 4) can be
  reproduced,
* app/package management used by the browser-automation workloads.

The headline entry point is :class:`~repro.device.android.AndroidDevice`;
:class:`~repro.device.ios.IOSDevice` models the iOS support discussed in the
paper (no ADB, automation via Bluetooth keyboard only) and
:class:`~repro.device.linux.LinuxDevice` the laptops and IoT nodes of its
conclusion.  All three are a :class:`~repro.device.base.DeviceUnderTest`,
which holds the power model they share.
"""

from repro.device.adb import AdbCommandError, AdbConnection, AdbServer, AdbTransport
from repro.device.android import AndroidDevice
from repro.device.apps import AppProcess, InstalledApp, PackageManager
from repro.device.base import DeviceUnderTest
from repro.device.battery import Battery, BatteryConnection
from repro.device.cpu import CpuModel
from repro.device.ios import IOSDevice
from repro.device.linux import (
    LinuxDevice,
    LinuxDeviceProfile,
    RASPBERRY_PI_ZERO_W,
    THINKPAD_X250,
)
from repro.device.profiles import DeviceHardwareProfile, SAMSUNG_J7_DUO, PIXEL_3A, IPHONE_8
from repro.device.radio import NetworkInterfaceModel, RadioTechnology
from repro.device.screen import Screen

__all__ = [
    "AdbCommandError",
    "AdbConnection",
    "AdbServer",
    "AdbTransport",
    "AndroidDevice",
    "AppProcess",
    "InstalledApp",
    "PackageManager",
    "Battery",
    "BatteryConnection",
    "CpuModel",
    "DeviceUnderTest",
    "IOSDevice",
    "LinuxDevice",
    "LinuxDeviceProfile",
    "RASPBERRY_PI_ZERO_W",
    "THINKPAD_X250",
    "DeviceHardwareProfile",
    "SAMSUNG_J7_DUO",
    "PIXEL_3A",
    "IPHONE_8",
    "NetworkInterfaceModel",
    "RadioTechnology",
    "Screen",
]
