"""Device CPU accounting.

Figure 4 of the paper reports CDFs of device CPU utilisation per browser and
Figure 4/5 attribute the mirroring overhead to an extra ~5% CPU on the
device.  The :class:`CpuModel` tracks per-process demand contributions and
produces a noisy total utilisation sample each time it is read, mimicking
``dumpsys cpuinfo`` style sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.simulation.random import SeededRandom


@dataclass
class CpuSample:
    """One CPU utilisation observation."""

    timestamp: float
    total_percent: float
    per_process_percent: Dict[str, float]


class CpuModel:
    """Tracks CPU demand contributed by named processes.

    Each process registers a *demand* in percentage points of total CPU.
    Reading utilisation adds bounded multiplicative noise per process so the
    resulting distribution has realistic spread, while the median stays at
    the configured demand (which is what the paper's Figure 4 reports).
    """

    def __init__(
        self,
        cores: int,
        random: SeededRandom,
        baseline_percent: float = 2.0,
        noise_fraction: float = 0.18,
    ) -> None:
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores!r}")
        self._cores = int(cores)
        self._random = random
        self._baseline_percent = float(baseline_percent)
        self._noise_fraction = float(noise_fraction)
        self._demands: Dict[str, float] = {}
        self._samples: List[CpuSample] = []

    @property
    def cores(self) -> int:
        return self._cores

    @property
    def baseline_percent(self) -> float:
        return self._baseline_percent

    @property
    def process_names(self) -> List[str]:
        return sorted(self._demands)

    # -- demand management ----------------------------------------------------
    def set_demand(self, process: str, percent: float) -> None:
        """Set the CPU demand of ``process`` (0 removes it)."""
        if percent < 0:
            raise ValueError(f"CPU demand must be non-negative, got {percent!r}")
        if percent == 0:
            self._demands.pop(process, None)
        else:
            self._demands[process] = float(percent)

    def clear_demand(self, process: str) -> None:
        self._demands.pop(process, None)

    def demand(self, process: str) -> float:
        return self._demands.get(process, 0.0)

    def total_demand(self) -> float:
        """Sum of configured demands plus the OS baseline (no noise)."""
        return self._baseline_percent + sum(self._demands.values())

    # -- sampling -------------------------------------------------------------
    def sample(self, timestamp: float) -> CpuSample:
        """Draw one noisy utilisation observation and record it."""
        per_process: Dict[str, float] = {}
        total = self._baseline_percent * self._random.clipped_normal(1.0, 0.25, low=0.2)
        for process, demand in sorted(self._demands.items()):
            observed = demand * self._random.clipped_normal(
                1.0, self._noise_fraction, low=0.05
            )
            per_process[process] = observed
            total += observed
        total = min(total, 100.0)
        record = CpuSample(
            timestamp=timestamp, total_percent=total, per_process_percent=per_process
        )
        self._samples.append(record)
        return record

    @property
    def samples(self) -> List[CpuSample]:
        return list(self._samples)

    @property
    def sample_count(self) -> int:
        """Observations recorded so far, without copying them."""
        return len(self._samples)

    def utilisation_series(self, start: int = 0) -> List[float]:
        """Recorded total-utilisation observations from index ``start``, in time order."""
        return [sample.total_percent for sample in self._samples[start:]]

    def reset_samples(self) -> None:
        self._samples.clear()

    def last_sample(self) -> Optional[CpuSample]:
        return self._samples[-1] if self._samples else None
