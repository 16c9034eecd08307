"""Frame sources: the controller's end of a device's mirror stream.

Android devices are mirrored through ``scrcpy``, which "runs atop of ADB": a
server on the device H.264-encodes the screen and a client on the
controller decodes it.  For iOS "no equivalent software exists, but a
similar functionality can be achieved combining AirPlay Screen Mirroring
with (virtual) keyboard keys" (Section 3.2).  Either way the device streams
its screen to a receiver on the controller, which feeds the same VNC/noVNC
chain.

:class:`FrameSource` is that receiver.  It starts and stops the device's
mirroring server, counts the frames and bytes of the device's own uplink
(:meth:`~repro.device.base.DeviceUnderTest.mirroring_stream_mbps`, the
stream its radio carries) and prices the decode on the controller, which
is the dominant part of the Figure 5 overhead.  :class:`ScrcpyClient` and
:class:`AirPlayReceiver` differ only in class attributes.  The paper pins
scrcpy's encoder to 1 Mbps, which bounds the stream at roughly 50 MB per
7-minute test before noVNC's own compression (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.device.android import AndroidDevice
from repro.device.ios import IOSDevice
from repro.device.profiles import SCRCPY_MIN_API_LEVEL


class FrameSourceError(RuntimeError):
    """Raised when a frame source cannot mirror its device."""


@dataclass
class StreamCounters:
    """Frames and bytes of one stream; its duration is the session's."""

    frames: int = 0
    bytes: int = 0


class FrameSource:
    """Controller-side receiver of one device's mirror stream.

    Parameters
    ----------
    device:
        The mirrored device; its mirroring server is started/stopped by this source.
    bitrate_mbps:
        Encoder cap of the stream (``None``: the source's default).
    """

    #: The device class this source mirrors.
    DEVICE_CLASS: type
    #: Stream bitrate when the caller names none, in Mbps.
    DEFAULT_BITRATE_MBPS: float
    #: Decode CPU percent with a static screen, and per unit of screen activity.
    DECODE_CPU_PERCENT: Tuple[float, float]
    #: Resident memory of the source, Xvnc and websockify, in MB.
    CONTROLLER_MEMORY_MB: float
    #: Lowest Android API level the on-device server runs on (``None``: any device).
    MIN_API_LEVEL: Optional[int] = None
    #: Frame-rate cap of the mirror stream.
    MAX_FPS = 30.0

    def __init__(self, device, bitrate_mbps: Optional[float] = None) -> None:
        if not isinstance(device, self.DEVICE_CLASS):
            raise FrameSourceError(
                f"{type(self).__name__} mirrors {self.DEVICE_CLASS.__name__}s, "
                f"not {device.serial!r} ({type(device).__name__})"
            )
        if bitrate_mbps is None:
            bitrate_mbps = self.DEFAULT_BITRATE_MBPS
        if bitrate_mbps <= 0:
            raise ValueError(f"bitrate must be positive, got {bitrate_mbps!r}")
        self.device = device
        self.bitrate_mbps = float(bitrate_mbps)
        self._running = False
        self.counters = StreamCounters()

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Start the device's mirroring server, then begin counting its stream."""
        if self._running:
            return
        if self.MIN_API_LEVEL is not None and self.device.api_level < self.MIN_API_LEVEL:
            raise FrameSourceError(
                f"device {self.device.serial!r} runs API {self.device.api_level}; "
                f"{type(self).__name__} requires API {self.MIN_API_LEVEL} or newer"
            )
        self.device.start_mirroring_server(bitrate_mbps=self.bitrate_mbps)
        self._running = True
        self.counters = StreamCounters()

    def stop(self) -> None:
        if self._running:
            self.device.stop_mirroring_server()
            self._running = False

    # -- streaming accounting ------------------------------------------------------
    def current_stream_mbps(self) -> float:
        """The device's mirroring uplink right now (the encoder keeps it under the cap)."""
        return self.device.mirroring_stream_mbps() if self._running else 0.0

    def current_fps(self) -> float:
        """Frames per second currently crossing the stream."""
        if not self._running:
            return 0.0
        return max(1.0, self.device.screen.activity_fraction() * self.MAX_FPS)

    def account_interval(self, duration_s: float) -> None:
        """Accumulate frame/byte counters for ``duration_s`` of streaming."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        if not self._running or duration_s == 0:
            return
        self.counters.frames += int(round(self.current_fps() * duration_s))
        self.counters.bytes += int(round(self.current_stream_mbps() * 1e6 / 8.0 * duration_s))

    # -- controller cost -------------------------------------------------------------
    def controller_cpu_percent(self) -> float:
        """CPU the decode/display pipeline costs the Raspberry Pi right now.

        Decoding is cheap when the screen is static and expensive when the
        content changes quickly; the coefficients are calibrated so a browser
        workload yields the ~75% median / >95% tail controller load the paper
        reports once the VNC and noVNC stages are added on top.
        """
        if not self._running:
            return 0.0
        static, per_activity = self.DECODE_CPU_PERCENT
        return static + per_activity * self.device.screen.activity_fraction()


class ScrcpyClient(FrameSource):
    """The scrcpy client: mirrors an Android device over ADB at 1 Mbps."""

    DEVICE_CLASS = AndroidDevice
    DEFAULT_BITRATE_MBPS = 1.0
    DECODE_CPU_PERCENT = (8.0, 22.0)
    CONTROLLER_MEMORY_MB = 58.0
    MIN_API_LEVEL = SCRCPY_MIN_API_LEVEL


class AirPlayReceiver(FrameSource):
    """The AirPlay receiver an iPhone streams its screen to, at 1.5 Mbps."""

    DEVICE_CLASS = IOSDevice
    DEFAULT_BITRATE_MBPS = 1.5
    DECODE_CPU_PERCENT = (10.0, 24.0)
    CONTROLLER_MEMORY_MB = 64.0
