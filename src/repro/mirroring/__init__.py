"""Device mirroring substrate.

BatteryLab gives experimenters and testers full remote control of a test
device through the browser (Section 3.2): the device screen is mirrored by
``scrcpy`` into a VNC session on the controller, which ``noVNC`` then
exposes over HTTPS with a small GUI toolbar.  Mirroring is also the single
largest source of measurement overhead the paper quantifies (Figures 2–5),
so this package models both the control plane and the cost:

* :class:`~repro.mirroring.scrcpy.ScrcpyClient` — controller-side client of
  the on-device scrcpy server; frame/byte accounting and CPU cost;
* :class:`~repro.mirroring.airplay.AirPlayReceiver` — the iOS counterpart:
  the AirPlay receiver an iPhone streams its screen to;
* :class:`~repro.mirroring.vnc.VncServer` — the tigervnc session the device
  is mirrored into;
* :class:`~repro.mirroring.novnc.NoVncGateway` — browser access, GUI toolbar
  configuration, and upload-traffic accounting (the ~32 MB per 7-minute test);
* :class:`~repro.mirroring.session.MirroringSession` — the composition the
  controller starts/stops per device, fed by either frame source;
* :class:`~repro.mirroring.latency.MirroringLatencyProbe` — the click-to-
  pixel responsiveness measurement (1.44 ± 0.12 s in the paper).
"""

from repro.mirroring.airplay import AirPlayReceiver
from repro.mirroring.latency import LatencyMeasurement, MirroringLatencyProbe
from repro.mirroring.novnc import GuiToolbar, NoVncGateway, ViewerSession
from repro.mirroring.scrcpy import ScrcpyClient
from repro.mirroring.session import MirroringSession
from repro.mirroring.vnc import VncServer

__all__ = [
    "AirPlayReceiver",
    "LatencyMeasurement",
    "MirroringLatencyProbe",
    "GuiToolbar",
    "NoVncGateway",
    "ViewerSession",
    "ScrcpyClient",
    "MirroringSession",
    "VncServer",
]
