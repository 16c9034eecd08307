"""AirPlay receiver: the iOS frame source of a mirroring session.

Android devices are mirrored through scrcpy, which "runs atop of ADB"; for
iOS "no equivalent software exists, but a similar functionality can be
achieved combining AirPlay Screen Mirroring with (virtual) keyboard keys"
(Section 3.2).  :class:`AirPlayReceiver` is the controller-side receiver
the iOS device streams its screen to; it offers the same interface as
:class:`~repro.mirroring.scrcpy.ScrcpyClient`, so a
:class:`~repro.mirroring.session.MirroringSession` feeds it into the same
VNC/noVNC chain used for Android — experimenters get the same browser GUI,
with input limited to the Bluetooth keyboard channel.
"""

from __future__ import annotations

from repro.device.ios import IOSDevice


class AirPlayError(RuntimeError):
    """Raised when a receiver is bound to an unsupported device."""


class AirPlayReceiver:
    """Controller-side AirPlay receiver bound to one iOS device.

    Parameters
    ----------
    device:
        The mirrored iOS device; its AirPlay sender is started/stopped by this receiver.
    bitrate_mbps:
        AirPlay stream bitrate (slightly higher than scrcpy's 1 Mbps default).
    max_fps:
        Frame-rate cap of the mirror stream.
    """

    #: Resident memory of the receiver, Xvnc and websockify, in MB.
    CONTROLLER_MEMORY_MB = 64.0

    def __init__(self, device: IOSDevice, bitrate_mbps: float = 1.5, max_fps: float = 30.0) -> None:
        if not isinstance(device, IOSDevice):
            raise AirPlayError("AirPlay mirroring only applies to iOS devices")
        if bitrate_mbps <= 0:
            raise ValueError("bitrate must be positive")
        self.device = device
        self.bitrate_mbps = float(bitrate_mbps)
        self._max_fps = max_fps
        self._running = False
        self.received_bytes = 0

    def start(self) -> None:
        self.device.start_mirroring_server(bitrate_mbps=self.bitrate_mbps)
        self._running = True

    def stop(self) -> None:
        self.device.stop_mirroring_server()
        self._running = False

    def current_stream_mbps(self) -> float:
        if not self._running:
            return 0.0
        activity = self.device.screen.activity_fraction()
        return self.bitrate_mbps * max(0.3, min(1.0, 0.5 + activity))

    def current_fps(self) -> float:
        if not self._running:
            return 0.0
        return max(1.0, self.device.screen.activity_fraction() * self._max_fps)

    def account_interval(self, duration_s: float) -> None:
        self.received_bytes += int(round(self.current_stream_mbps() * 1e6 / 8.0 * duration_s))

    def controller_cpu_percent(self) -> float:
        """Decode cost of a shairplay-style receiver."""
        if not self._running:
            return 0.0
        return 10.0 + 24.0 * self.device.screen.activity_fraction()

    def status_fields(self, duration_s: float) -> dict:
        return {"receiver_bytes": self.received_bytes}
