"""VNC server model (tigervnc on the controller).

The device mirror is displayed inside a VNC session on the controller, and
access is limited to that visual element (Section 3.2).  The model tracks
the session lifecycle, the framebuffer updates it inherits from the frame
source, and its CPU cost on the controller.
"""

from __future__ import annotations

from typing import Optional

from repro.mirroring.source import FrameSource


class VncServer:
    """A tigervnc session hosting one mirrored device."""

    def __init__(self, display: int = 1) -> None:
        if display <= 0:
            raise ValueError(f"display number must be positive, got {display!r}")
        self._display = display
        self._running = False
        self._source: Optional[FrameSource] = None

    @property
    def port(self) -> int:
        """VNC sessions listen on 5900 + display number."""
        return 5900 + self._display

    @property
    def framebuffer_updates(self) -> int:
        """One update per frame the source received since the session started."""
        return 0 if self._source is None else self._source.counters.frames

    def start(self, source: FrameSource) -> None:
        """Start the session with ``source`` as its framebuffer source."""
        self._source = source
        self._running = True

    def stop(self) -> None:
        self._running = False

    def controller_cpu_percent(self) -> float:
        """CPU cost of compositing framebuffer updates on the controller."""
        if not self._running:
            return 0.0
        activity = self._source.device.screen.activity_fraction()
        return 4.0 + 8.0 * activity
