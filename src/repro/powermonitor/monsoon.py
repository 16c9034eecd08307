"""Monsoon HVPM emulator.

Models the Monsoon High Voltage Power Monitor used by the paper's vantage
point: 0.8–13.5 V output voltage, 6 A continuous current, 5 kHz sampling,
driven through a Python API.  The emulator reproduces the parts of the
hardware that BatteryLab's software interacts with:

* mains power state (the Meross WiFi socket turns the unit on/off for safety);
* ``Vout`` control with range checking;
* a load attachment point — the relay circuit connects a device's current
  draw function here when the device is in battery bypass;
* sampling start/stop returning :class:`~repro.powermonitor.traces.CurrentTrace`;
* an over-current interlock that trips the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.powermonitor.sampling import SamplingEngine
from repro.powermonitor.traces import CurrentTrace
from repro.simulation.entity import Entity, SimulationContext


class MonsoonError(RuntimeError):
    """Base class for monitor-level failures."""


class MonsoonSafetyError(MonsoonError):
    """Raised when an operation violates the unit's electrical limits."""


@dataclass(frozen=True)
class MonsoonSpec:
    """Electrical limits and sampling characteristics of a power monitor model."""

    model: str
    min_voltage_v: float
    max_voltage_v: float
    max_continuous_current_a: float
    sample_rate_hz: float
    serial_prefix: str = "HVPM"


MONSOON_HV_SPEC = MonsoonSpec(
    model="Monsoon HVPM",
    min_voltage_v=0.8,
    max_voltage_v=13.5,
    max_continuous_current_a=6.0,
    sample_rate_hz=5000.0,
)
"""The High Voltage Power Monitor the paper deploys (Section 3.2)."""


class MonsoonHVPM(Entity):
    """Emulated Monsoon power monitor.

    Parameters
    ----------
    context:
        Simulation context.
    name:
        Entity name (defaults to ``monsoon:<serial>``).
    spec:
        Electrical limits; defaults to the HVPM.
    tick_rate_hz:
        Simulation tick rate of the sampling engine (samples are still
        generated at ``spec.sample_rate_hz``).
    """

    def __init__(
        self,
        context: SimulationContext,
        serial: str = "HVPM-0001",
        spec: MonsoonSpec = MONSOON_HV_SPEC,
        tick_rate_hz: float = 20.0,
    ) -> None:
        super().__init__(context, f"monsoon:{serial}")
        self._serial = serial
        self._spec = spec
        self._mains_on = False
        self._vout_v = 0.0
        self._vout_enabled = False
        self._tripped = False
        self._load: Optional[Callable[[], float]] = None
        self._load_label = ""
        self._last_trace: Optional[CurrentTrace] = None
        self._engine = SamplingEngine(
            context,
            source=self._read_load_current,
            random=self.random.child("sampling"),
            sample_rate_hz=spec.sample_rate_hz,
            tick_rate_hz=tick_rate_hz,
        )
        self._engine.set_overcurrent_guard(
            spec.max_continuous_current_a * 1000.0, self._trip_overcurrent
        )

    # -- identity ---------------------------------------------------------------
    @property
    def serial(self) -> str:
        return self._serial

    @property
    def spec(self) -> MonsoonSpec:
        return self._spec

    # -- mains power (Meross socket) ---------------------------------------------
    @property
    def mains_on(self) -> bool:
        return self._mains_on

    def power_on(self) -> None:
        """Apply mains power (what the WiFi power socket does)."""
        self._mains_on = True
        self._tripped = False
        self.log("mains power on")

    def power_off(self) -> None:
        """Cut mains power.  Any active sampling is aborted and Vout collapses."""
        if self._engine.sampling:
            self._last_trace = self._engine.stop()
            self.log("sampling aborted by power-off", samples=len(self._last_trace))
        self._mains_on = False
        self._vout_enabled = False
        self._vout_v = 0.0
        self.log("mains power off")

    def _require_power(self) -> None:
        if not self._mains_on:
            raise MonsoonError(f"{self._spec.model} {self._serial} has no mains power")
        if self._tripped:
            raise MonsoonSafetyError(
                f"{self._spec.model} {self._serial} output is tripped; power-cycle to reset"
            )

    # -- voltage output -----------------------------------------------------------
    @property
    def vout_v(self) -> float:
        return self._vout_v if self._vout_enabled else 0.0

    @property
    def vout_enabled(self) -> bool:
        return self._vout_enabled

    @property
    def tripped(self) -> bool:
        return self._tripped

    def set_vout(self, voltage_v: float) -> None:
        """Set and enable the output voltage (``setVout`` in Monsoon's API).

        ``0`` disables the output; any other value must lie within the unit's
        supported range.
        """
        self._require_power()
        if voltage_v == 0:
            self._vout_enabled = False
            self._vout_v = 0.0
            self._engine.set_voltage(0.0)
            self.log("vout disabled")
            return
        if not self._spec.min_voltage_v <= voltage_v <= self._spec.max_voltage_v:
            raise MonsoonSafetyError(
                f"requested Vout {voltage_v} V outside supported range "
                f"[{self._spec.min_voltage_v}, {self._spec.max_voltage_v}] V"
            )
        self._vout_v = float(voltage_v)
        self._vout_enabled = True
        self._engine.set_voltage(self._vout_v)
        self.log("vout set", voltage_v=voltage_v)

    # -- load management ------------------------------------------------------------
    def attach_load(self, current_source: Callable[[], float], label: str = "") -> None:
        """Connect a load (a device in battery bypass) to the Vout terminals."""
        self._load = current_source
        self._load_label = label
        self.log("load attached", label=label)

    def detach_load(self) -> None:
        self._load = None
        self._load_label = ""
        self.log("load detached")

    @property
    def load_attached(self) -> bool:
        return self._load is not None

    @property
    def load_label(self) -> str:
        return self._load_label

    def _read_load_current(self) -> float:
        if not self._vout_enabled or self._load is None or self._tripped:
            return 0.0
        return max(float(self._load()), 0.0)

    def _trip_overcurrent(self, observed_ma: float) -> None:
        self._tripped = True
        self._vout_enabled = False
        self.log("overcurrent trip", observed_ma=observed_ma)

    # -- sampling ------------------------------------------------------------------
    @property
    def sampling(self) -> bool:
        return self._engine.sampling

    @property
    def sample_rate_hz(self) -> float:
        return self._engine.sample_rate_hz

    def set_sample_rate(self, sample_rate_hz: float) -> None:
        """Decimate the nominal 5 kHz rate (used by the sampling-rate ablation)."""
        self._engine.set_sample_rate(sample_rate_hz)

    def start_sampling(self, label: str = "") -> None:
        self._require_power()
        if not self._vout_enabled:
            raise MonsoonError("cannot start sampling with Vout disabled")
        self._engine.start(label=label)
        self.log("sampling started", label=label)

    def stop_sampling(self) -> CurrentTrace:
        trace = self._last_trace = self._engine.stop()
        self.log("sampling stopped", samples=len(trace), median_ma=trace.median_current_ma())
        return trace

    def peek_trace(self) -> CurrentTrace:
        return self._engine.peek()

    def last_trace(self) -> Optional[CurrentTrace]:
        """The trace of the last run, complete or cut short by a power-off."""
        return self._last_trace

    # -- convenience -----------------------------------------------------------------
    def measure_for(self, duration_s: float, label: str = "") -> CurrentTrace:
        """Start sampling, advance the simulation by ``duration_s``, stop, return the trace."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s!r}")
        self.start_sampling(label=label)
        self.context.run_for(duration_s)
        return self.stop_sampling()

    def status(self) -> dict:
        return {
            "serial": self._serial,
            "model": self._spec.model,
            "mains_on": self._mains_on,
            "vout_v": self.vout_v,
            "vout_enabled": self._vout_enabled,
            "tripped": self._tripped,
            "sampling": self.sampling,
            "load": self._load_label if self._load is not None else None,
            "sample_rate_hz": self.sample_rate_hz,
        }
