"""scrcpy client model (controller side).

``scrcpy`` mirrors an Android device by running a server on the device that
H.264-encodes the screen and streams it over ADB; a client on the controller
decodes and displays it.  The paper pins the encoder bitrate to 1 Mbps,
which bounds the stream at roughly 50 MB per 7-minute test before noVNC's
own compression (Section 4.2, "System Performance").

The client model tracks received frames/bytes (driven by the device's screen
activity) and reports the CPU it costs the controller, which is the dominant
part of the Figure 5 overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.android import AndroidDevice


class ScrcpyError(RuntimeError):
    """Raised when mirroring cannot be started (unsupported device, no ADB, ...)."""


@dataclass
class StreamCounters:
    frames: int = 0
    bytes: int = 0
    duration_s: float = 0.0

    def bitrate_mbps(self) -> float:
        if self.duration_s == 0:
            return 0.0
        return self.bytes * 8.0 / 1e6 / self.duration_s


class ScrcpyClient:
    """Controller-side scrcpy client bound to one Android device.

    Parameters
    ----------
    device:
        The mirrored device; its scrcpy server is started/stopped by this client.
    bitrate_mbps:
        H.264 encoder cap (the paper uses 1 Mbps).
    max_fps:
        Frame-rate cap of the mirror stream.
    """

    #: Resident memory of the client, Xvnc and websockify, in MB.
    CONTROLLER_MEMORY_MB = 58.0

    def __init__(
        self,
        device: AndroidDevice,
        bitrate_mbps: float = 1.0,
        max_fps: float = 30.0,
    ) -> None:
        if bitrate_mbps <= 0:
            raise ValueError(f"bitrate must be positive, got {bitrate_mbps!r}")
        if max_fps <= 0:
            raise ValueError(f"max_fps must be positive, got {max_fps!r}")
        self._device = device
        self._bitrate_mbps = float(bitrate_mbps)
        self._max_fps = float(max_fps)
        self._running = False
        self._counters = StreamCounters()

    @property
    def device(self) -> AndroidDevice:
        return self._device

    @property
    def running(self) -> bool:
        return self._running

    @property
    def bitrate_mbps(self) -> float:
        return self._bitrate_mbps

    @property
    def max_fps(self) -> float:
        return self._max_fps

    @property
    def counters(self) -> StreamCounters:
        return self._counters

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Push and start the scrcpy server on the device, then begin streaming."""
        if self._running:
            return
        if not self._device.profile.supports_scrcpy():
            raise ScrcpyError(
                f"device {self._device.serial!r} runs API {self._device.api_level}; "
                "scrcpy requires Android API 21 or newer"
            )
        self._device.start_mirroring_server(bitrate_mbps=self._bitrate_mbps)
        self._running = True
        self._counters = StreamCounters()

    def stop(self) -> StreamCounters:
        if not self._running:
            return self._counters
        self._device.stop_mirroring_server()
        self._running = False
        return self._counters

    # -- streaming accounting ------------------------------------------------------
    def current_stream_mbps(self) -> float:
        """Instantaneous stream bitrate, bounded by the configured cap."""
        if not self._running:
            return 0.0
        return min(self._device.mirroring_stream_mbps(), self._bitrate_mbps)

    def current_fps(self) -> float:
        """Frames per second currently crossing the stream."""
        if not self._running:
            return 0.0
        activity = self._device.screen.activity_fraction()
        return max(1.0, activity * self._max_fps)

    def account_interval(self, duration_s: float) -> None:
        """Accumulate frame/byte counters for ``duration_s`` of streaming."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        if not self._running or duration_s == 0:
            return
        self._counters.frames += int(round(self.current_fps() * duration_s))
        self._counters.bytes += int(round(self.current_stream_mbps() * 1e6 / 8.0 * duration_s))
        self._counters.duration_s += duration_s

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
        activity = self._device.screen.activity_fraction()
        return 8.0 + 22.0 * activity

    def status_fields(self, duration_s: float) -> dict:
        """This source's entries in the mirroring session's status."""
        return {"duration_s": duration_s, "stream_bytes": self._counters.bytes}
