"""Measurement sessions.

A :class:`MeasurementSession` wraps one monitored run from the experimenter's
point of view: make sure the Monsoon is powered and set to the right
voltage, cut USB power to the device (so the charge current cannot pollute
the reading), optionally start device mirroring with a remote viewer
attached, switch the device to battery bypass (through the relay circuit or
wired directly, the two accuracy scenarios of Section 4.1), sample for the
desired duration, and collect every signal the evaluation uses into a
:class:`~repro.core.results.MeasurementResult`.

It is the one measurement lifecycle — the Table 1 calls delegate to it —
and its cleanup is never skipped: it runs when the run or stopping raises,
and a start that raises undoes the steps it took, and only those.
"""

from __future__ import annotations

from typing import Optional

from repro.core.results import MeasurementResult
from repro.device.battery import BatteryConnection
from repro.device.radio import RadioTechnology
from repro.vantagepoint.controller import VantagePointController
from repro.vantagepoint.relay import connect_direct, disconnect_direct


class SessionError(RuntimeError):
    """Raised for invalid session state transitions."""


class MeasurementSession:
    """One monitored measurement run on one device.

    Parameters
    ----------
    controller:
        The vantage point controller.
    device_id:
        Serial of the test device.
    mirroring:
        Whether device mirroring should be active during the run.
    use_relay:
        ``True`` routes the device through the relay circuit (BatteryLab's
        normal operation); ``False`` wires it directly to the monitor (the
        paper's "direct" accuracy baseline).
    label:
        Label attached to the trace and the result.
    viewer_user:
        Name of the remote viewer attached to the mirroring session.
    """

    def __init__(
        self,
        controller: VantagePointController,
        device_id: str,
        mirroring: bool = False,
        use_relay: bool = True,
        label: str = "",
        viewer_user: str = "experimenter",
    ) -> None:
        self._controller = controller
        self._device_id = device_id
        self._mirroring = bool(mirroring)
        self._use_relay = bool(use_relay)
        self._label = label or device_id
        self._viewer_user = viewer_user
        self._active = False
        self._device = controller.device(device_id)
        self._mirroring_session = None
        self._start_device_cpu_index = 0
        self._start_controller_cpu_index = 0
        self._start_upload_bytes = 0
        self._start_rx = 0
        self._start_tx = 0

    @property
    def active(self) -> bool:
        return self._active

    @property
    def device_id(self) -> str:
        return self._device_id

    # -- lifecycle ----------------------------------------------------------------------
    def start(self) -> None:
        if self._active:
            raise SessionError("measurement session is already active")
        controller = self._controller
        monitor = controller.monitor
        if monitor is None:
            raise SessionError("this vantage point has no power monitor attached")
        if not monitor.mains_on:
            if controller.power_socket is None:
                raise SessionError("monitor is off and there is no power socket to turn it on")
            controller.set_power_monitor(True)
        if not monitor.vout_enabled:
            monitor.set_vout(self._device.profile.battery_voltage_v)
        # What the device was before this session touched it: if a later
        # step raises, only this session's own steps are undone, as another
        # session may own the device's bypass, mirroring or USB state.
        usb_was_on = self._device.usb_powered
        mirroring_was_on = controller.mirroring_active(self._device_id)
        bypass_was_on = (
            controller.relay.is_bypassed(self._device_id)
            if self._use_relay
            else self._device.battery.connection is BatteryConnection.BYPASS
        )
        engaged = False
        controller.set_device_usb_power(self._device_id, False)
        try:
            if self._mirroring:
                self._mirroring_session = controller.start_mirroring(self._device_id)
                self._mirroring_session.connect_viewer(self._viewer_user, role="experimenter")
            # Snapshot counters so the result only contains this run's samples.
            self._start_device_cpu_index = self._device.cpu.sample_count
            self._start_controller_cpu_index = controller.cpu_sample_count
            self._start_upload_bytes = (
                self._mirroring_session.upload_bytes() if self._mirroring_session else 0
            )
            counters = self._device.radio.counters(RadioTechnology.WIFI)
            self._start_rx = counters.rx_bytes
            self._start_tx = counters.tx_bytes
            if self._use_relay:
                controller.batt_switch(self._device_id, bypass=True)
            else:
                connect_direct(monitor, self._device)
            engaged = not bypass_was_on
            monitor.start_sampling(label=self._label)
        except BaseException:
            if engaged:
                self._release_bypass()
            if usb_was_on:
                controller.set_device_usb_power(self._device_id, True)
            if self._mirroring_session is not None and not mirroring_was_on:
                controller.stop_mirroring(self._device_id)
            self._mirroring_session = None
            raise
        self._active = True

    def stop(self) -> MeasurementResult:
        """Stop sampling and collect the result; cleanup runs even if stopping raises."""
        if not self._active:
            raise SessionError("measurement session is not active")
        self._active = False
        controller = self._controller
        try:
            trace = controller.monitor.stop_sampling()
            device_cpu = self._device.cpu.utilisation_series(self._start_device_cpu_index)
            controller_cpu = controller.cpu_utilisation_series(self._start_controller_cpu_index)
            upload_bytes = 0
            if self._mirroring_session is not None:
                upload_bytes = self._mirroring_session.upload_bytes() - self._start_upload_bytes
            memory_percent = controller.memory_utilisation_percent()
        finally:
            self._release_bypass()
            controller.set_device_usb_power(self._device_id, True)
            if self._mirroring_session is not None:
                controller.stop_mirroring(self._device_id)
                self._mirroring_session = None
        counters = self._device.radio.counters(RadioTechnology.WIFI)
        return MeasurementResult(
            label=self._label,
            trace=trace,
            device_cpu_percent=device_cpu,
            controller_cpu_percent=controller_cpu,
            mirroring_active=self._mirroring,
            mirroring_upload_bytes=upload_bytes,
            controller_memory_percent=memory_percent,
            device_rx_bytes=counters.rx_bytes - self._start_rx,
            device_tx_bytes=counters.tx_bytes - self._start_tx,
        )

    def _release_bypass(self) -> None:
        """Give the device its own battery back: release the relay channel or
        undo the direct wiring."""
        if self._use_relay:
            self._controller.batt_switch(self._device_id, bypass=False)
        else:
            disconnect_direct(self._controller.monitor, self._device)

    def measure(self, duration_s: float) -> MeasurementResult:
        """Start, advance simulated time by ``duration_s``, and stop."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        with self:
            self._controller.context.run_for(duration_s)
            return self.stop()

    def __enter__(self) -> "MeasurementSession":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._active:
            try:
                self.stop()
            except Exception:
                if exc_type is None:  # else the block's own error propagates
                    raise
