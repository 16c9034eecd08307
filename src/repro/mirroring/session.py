"""Composed mirroring session.

A :class:`MirroringSession` is what the controller starts when the
``device_mirroring`` API is invoked: a *frame source* streaming the device
screen to the controller, the VNC session displaying it, and the noVNC
gateway publishing it to browsers.  The source is a
:class:`~repro.mirroring.source.FrameSource`: a
:class:`~repro.mirroring.source.ScrcpyClient` for Android or an
:class:`~repro.mirroring.source.AirPlayReceiver` for iOS.  The session
periodically accounts stream traffic and exposes the total controller CPU
overhead, which the controller folds into its own CPU samples (Figure 5)
and memory/network figures (Section 4.2).
"""

from __future__ import annotations

from typing import Optional

from repro.mirroring.novnc import NoVncGateway, ViewerSession
from repro.mirroring.source import FrameSource
from repro.mirroring.vnc import VncServer
from repro.simulation.entity import SimulationContext
from repro.simulation.process import PeriodicProcess


class MirroringSession:
    """Full mirroring pipeline (device -> frame source -> VNC -> noVNC -> browser).

    Parameters
    ----------
    context:
        Simulation context (for the periodic accounting tick).
    source:
        The frame source bound to the mirrored device (scrcpy or AirPlay).
    display:
        VNC display number on the controller.
    accounting_period:
        How often stream traffic counters are updated.
    """

    def __init__(
        self,
        context: SimulationContext,
        source: FrameSource,
        display: int = 1,
        accounting_period: float = 1.0,
    ) -> None:
        self._context = context
        self.source = source
        self.vnc = VncServer(display=display)
        self.novnc = NoVncGateway()
        self._active = False
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None
        self._accounting = PeriodicProcess(
            context.scheduler,
            accounting_period,
            self._account_tick,
            label=f"mirroring:{source.device.serial}",
        )

    @property
    def device(self):
        return self.source.device

    @property
    def active(self) -> bool:
        return self._active

    @property
    def duration_s(self) -> float:
        if self._started_at is None:
            return 0.0
        end = self._stopped_at if self._stopped_at is not None else self._context.now
        return end - self._started_at

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> None:
        if self._active:
            return
        self.source.start()
        self.vnc.start(self.source)
        self.novnc.start(self.device)
        self._active = True
        self._started_at = self._context.now
        self._stopped_at = None
        self._accounting.start(initial_delay=self._accounting.period)

    def stop(self) -> None:
        if not self._active:
            return
        self._accounting.stop()
        self.novnc.stop()
        self.vnc.stop()
        self.source.stop()
        self._active = False
        self._stopped_at = self._context.now

    def connect_viewer(self, user: str, role: str = "experimenter") -> ViewerSession:
        """Attach a browser viewer (experimenter or tester) to the session."""
        return self.novnc.connect_viewer(user, role)

    # -- accounting -------------------------------------------------------------------
    def _account_tick(self, timestamp: float) -> None:
        period = self._accounting.period
        self.source.account_interval(period)
        self.novnc.account_interval(period, self.source.current_stream_mbps())

    def controller_cpu_percent(self) -> float:
        """Total mirroring CPU overhead on the controller right now."""
        if not self._active:
            return 0.0
        return (
            self.source.controller_cpu_percent()
            + self.vnc.controller_cpu_percent()
            + self.novnc.controller_cpu_percent()
        )

    def controller_memory_mb(self) -> float:
        """Resident memory of the mirroring pipeline (source + Xvnc + websockify)."""
        if not self._active:
            return 0.0
        return self.source.CONTROLLER_MEMORY_MB + 4.0 * self.novnc.viewer_count()

    def upload_bytes(self) -> int:
        """Bytes shipped to remote viewers so far."""
        return self.novnc.upload_bytes

    def status(self) -> dict:
        return {
            "device": self.device.serial,
            "active": self._active,
            "bitrate_mbps": self.source.bitrate_mbps,
            "duration_s": round(self.duration_s, 1),
            "stream_bytes": self.source.counters.bytes,
            "upload_bytes": self.upload_bytes(),
            "viewers": self.novnc.viewer_count(),
        }
