"""The BatteryLab Python API (Table 1 of the paper).

"BatteryLab's Python API is available to provide user-friendly device
selection, interaction with the power meter, etc." (Section 3.1).  Table 1
lists its entry points; :class:`BatteryLabAPI` implements them one-for-one
against a vantage point controller:

==================  =====================================  =====================
API                 Description                            Parameters
==================  =====================================  =====================
``list_devices``    List ADB ids of test devices           —
``device_mirroring``Activate device mirroring              ``device_id``
``power_monitor``   Toggle Monsoon power state             —
``set_voltage``     Set target voltage                     ``voltage_val``
``start_monitor``   Start battery measurement              ``device_id, duration``
``stop_monitor``    Stop battery measurement               —
``batt_switch``     (De)activate battery                   ``device_id``
``execute_adb``     Execute ADB command                    ``device_id, command``
==================  =====================================  =====================
"""

from __future__ import annotations

import contextlib
from typing import List, Optional

from repro.core.session import MeasurementSession
from repro.device.adb import AdbTransport
from repro.mirroring.session import MirroringSession
from repro.powermonitor.traces import CurrentTrace
from repro.vantagepoint.controller import VantagePointController


class BatteryLabAPIError(RuntimeError):
    """Raised for invalid API usage (no monitor attached, no active measurement, ...)."""


class BatteryLabAPI:
    """Table 1 API bound to one vantage point; a measurement runs as a
    :class:`~repro.core.session.MeasurementSession`.

    Parameters
    ----------
    controller:
        The vantage point controller the API operates on.
    """

    def __init__(self, controller: VantagePointController) -> None:
        self._controller = controller
        self._voltage_v: Optional[float] = None
        self._session: Optional[MeasurementSession] = None
        self._mirroring_started: List[MirroringSession] = []

    @property
    def controller(self) -> VantagePointController:
        return self._controller

    @property
    def measuring(self) -> bool:
        return self._session is not None

    @property
    def active_measurement_device(self) -> Optional[str]:
        return self._session.device_id if self._session is not None else None

    # -- Table 1 entry points -------------------------------------------------------
    def list_devices(self) -> List[str]:
        """List ADB ids of the test devices at this vantage point."""
        return self._controller.list_devices()

    def device_mirroring(
        self, device_id: str, bitrate_mbps: Optional[float] = None
    ) -> MirroringSession:
        """Activate device mirroring for ``device_id`` and return the session.

        ``bitrate_mbps`` caps the stream; ``None`` takes the source's default
        (1 Mbps for scrcpy, 1.5 Mbps for AirPlay).
        """
        already_on = self._controller.mirroring_active(device_id)
        session = self._controller.start_mirroring(device_id, bitrate_mbps=bitrate_mbps)
        if not already_on:
            self._mirroring_started.append(session)
        return session

    def stop_device_mirroring(self, device_id: str) -> None:
        """Deactivate device mirroring (companion of :meth:`device_mirroring`)."""
        self._controller.stop_mirroring(device_id)

    def power_monitor(self) -> bool:
        """Toggle the Monsoon's mains power state; returns the new state."""
        socket = self._controller.power_socket
        if socket is None:
            raise BatteryLabAPIError("this vantage point has no WiFi power socket")
        return socket.toggle()

    def set_voltage(self, voltage_val: float) -> None:
        """Set the power monitor's target output voltage."""
        self._controller.set_voltage(voltage_val)
        self._voltage_v = voltage_val

    def start_monitor(self, device_id: str, duration: Optional[float] = None) -> None:
        """Start a battery measurement on ``device_id``: USB off, relay to battery
        bypass, sampling.  ``duration`` is informational: advance the simulation
        and call :meth:`stop_monitor`, or use :meth:`measure`.
        """
        session = self._provision(device_id)
        session.start()
        self._session = session

    def stop_monitor(self) -> CurrentTrace:
        """Stop the active battery measurement and return its trace.

        The device is returned to its own battery and USB power is restored,
        also when a power cut already ended the sampling (which then raises).
        """
        session, self._session = self._session, None
        if session is None:
            raise BatteryLabAPIError("no battery measurement is running")
        return session.stop().trace

    def batt_switch(self, device_id: str) -> bool:
        """Toggle a device between its own battery and the monitor ("battery bypass").

        Returns ``True`` when the device ends up in bypass.
        """
        bypassed = self._controller.relay.is_bypassed(device_id)
        self._controller.batt_switch(device_id, bypass=not bypassed)
        return not bypassed

    def execute_adb(
        self, device_id: str, command: str, transport: AdbTransport = AdbTransport.WIFI
    ) -> str:
        """Execute an ADB command on a device (logcat/dumpsys collection, setup, ...)."""
        return self._controller.execute_adb(device_id, command, transport)

    # -- convenience built on the Table 1 surface ----------------------------------------
    def measure(self, device_id: str, duration: float, label: str = "") -> CurrentTrace:
        """Run a complete measurement of ``duration`` simulated seconds."""
        self._session = self._provision(device_id)
        try:
            trace = self._session.measure(duration).trace
        finally:
            self._session = None
        return trace.with_label(label) if label else trace

    def close(self) -> None:
        """Stop the measurement and the mirroring sessions this API left running."""
        if self._session is not None:
            # Cleanup already ran if stopping raises (a power cut ended sampling).
            with contextlib.suppress(Exception):
                self.stop_monitor()
        for session in self._mirroring_started:
            if session.active:
                session.stop()

    def _provision(self, device_id: str) -> MeasurementSession:
        """Unlike a bare session, Table 1 needs mains on and restores the last voltage."""
        monitor = self._controller.monitor
        if monitor is None:
            raise BatteryLabAPIError("this vantage point has no power monitor attached")
        if self._session is not None:
            raise BatteryLabAPIError(
                f"a measurement on {self._session.device_id!r} is already running"
            )
        session = MeasurementSession(self._controller, device_id, label=f"measurement:{device_id}")
        if not monitor.mains_on:
            raise BatteryLabAPIError(
                "the power monitor has no mains power; call power_monitor() first"
            )
        if not monitor.vout_enabled and self._voltage_v:
            monitor.set_vout(self._voltage_v)
        return session
