"""noVNC gateway and GUI.

noVNC exposes the VNC session in a plain browser over HTTPS/WebSockets
(port 6081), "without no further software required at an experimenter or
tester" (Section 3.2).  BatteryLab wraps the default client with a GUI: an
interactive area mirroring the device plus a toolbar implementing a subset
of the BatteryLab API.  The experimenter can hide the toolbar before sharing
the page with a less experienced test participant.

The gateway model tracks connected viewer sessions, forwards their input
events to the device, re-compresses the mirror stream (which is why the
paper measures ~32 MB of upload for a ~7 minute test against scrcpy's
~50 MB upper bound), and reports its CPU cost on the controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


class NoVncError(RuntimeError):
    """Raised for viewer/session misuse (unknown session, gateway stopped, ...)."""


@dataclass
class GuiToolbar:
    """The toolbar overlay exposing a convenient subset of the BatteryLab API."""

    visible: bool = True
    buttons: List[str] = field(
        default_factory=lambda: [
            "list_devices",
            "device_mirroring",
            "power_monitor",
            "set_voltage",
            "start_monitor",
            "stop_monitor",
            "batt_switch",
        ]
    )

    def hide(self) -> None:
        self.visible = False

    def show(self) -> None:
        self.visible = True


@dataclass
class ViewerSession:
    """One browser tab connected to the noVNC page."""

    session_id: str
    user: str
    role: str
    toolbar_visible: bool
    input_events: int = 0


class NoVncGateway:
    """The websockified HTTPS front-end (port 6081) for one mirrored device."""

    #: Output bytes per input byte of the mirror stream; noVNC's extra
    #: compression is what brings the 1 Mbps stream down to ~32 MB per
    #: 7-minute test.
    COMPRESSION_RATIO = 0.72

    def __init__(self) -> None:
        self._running = False
        self._viewers: Dict[str, ViewerSession] = {}
        self._toolbar = GuiToolbar()
        self._upload_bytes = 0
        self._next_session = 1
        self._device = None

    @property
    def toolbar(self) -> GuiToolbar:
        return self._toolbar

    @property
    def upload_bytes(self) -> int:
        """Bytes uploaded to remote viewers so far."""
        return self._upload_bytes

    def start(self, device) -> None:
        self._running = True
        self._device = device
        self._upload_bytes = 0

    def stop(self) -> None:
        self._running = False
        self._viewers.clear()
        self._device = None

    # -- viewers ---------------------------------------------------------------
    def connect_viewer(self, user: str, role: str = "experimenter") -> ViewerSession:
        """Open a browser session against the GUI.

        Testers get the toolbar only if the experimenter left it visible.
        """
        if not self._running:
            raise NoVncError("noVNC gateway is not running")
        session_id = f"novnc-{self._next_session}"
        self._next_session += 1
        toolbar_visible = self._toolbar.visible or role == "experimenter"
        viewer = ViewerSession(
            session_id=session_id, user=user, role=role, toolbar_visible=toolbar_visible
        )
        self._viewers[session_id] = viewer
        return viewer

    def disconnect_viewer(self, session_id: str) -> None:
        if session_id not in self._viewers:
            raise NoVncError(f"unknown viewer session {session_id!r}")
        del self._viewers[session_id]

    def viewers(self) -> List[ViewerSession]:
        return [self._viewers[key] for key in sorted(self._viewers)]

    def viewer_count(self) -> int:
        return len(self._viewers)

    # -- interaction -----------------------------------------------------------
    def deliver_input(self, session_id: str, event: str) -> None:
        """Forward a mouse/keyboard event from a viewer to the mirrored device.

        This is the "hover the mouse in the interactive area and each action
        is executed on the physical device" path of the GUI.
        """
        if not self._running:
            raise NoVncError("noVNC gateway is not running")
        viewer = self._viewers.get(session_id)
        if viewer is None:
            raise NoVncError(f"unknown viewer session {session_id!r}")
        if self._device is None:
            raise NoVncError("no device is attached to the gateway")
        viewer.input_events += 1
        self._device.packages.deliver_input(event)

    # -- accounting ---------------------------------------------------------------
    def account_interval(self, duration_s: float, stream_mbps: float) -> None:
        """Accumulate upload traffic for ``duration_s`` of an active mirror stream."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        if not self._running or self.viewer_count() == 0:
            return
        compressed_mbps = stream_mbps * self.COMPRESSION_RATIO
        self._upload_bytes += int(round(compressed_mbps * 1e6 / 8.0 * duration_s))

    def controller_cpu_percent(self) -> float:
        """CPU cost of websockifying + compressing the stream."""
        if not self._running or self._device is None:
            return 0.0
        if self.viewer_count() == 0:
            return 0.0
        activity = self._device.screen.activity_fraction()
        return 6.0 + 12.0 * activity
