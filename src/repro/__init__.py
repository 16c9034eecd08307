"""BatteryLab reproduction.

A faithful, fully software reimplementation of *BatteryLab, A Distributed
Power Monitoring Platform For Mobile Devices* (Varvello et al., HotNets
2019), including emulations of every hardware component the platform needs
(Monsoon power monitor, Android test devices, Raspberry Pi controller, relay
circuit switch, Meross power socket) so the paper's evaluation can be
regenerated end-to-end on a laptop.

Quickstart::

    from repro import build_default_platform

    platform = build_default_platform(seed=7)
    api = platform.api()                    # the Table 1 API
    device_id = api.list_devices()[0]
    api.power_monitor()                     # mains on via the WiFi socket
    api.set_voltage(3.85)
    trace = api.measure(device_id, duration=60, label="idle")
    print(trace.median_current_ma(), "mA")

See :mod:`repro.experiments` for the drivers that regenerate every figure
and table of the paper's evaluation section.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.api import BatteryLabAPI
    from repro.core.platform import BatteryLabPlatform, add_vantage_point, build_default_platform
    from repro.core.results import MeasurementResult
    from repro.core.session import MeasurementSession

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core.api": ("BatteryLabAPI",),
        "core.platform": (
            "BatteryLabPlatform",
            "add_vantage_point",
            "build_default_platform",
        ),
        "core.results": ("MeasurementResult",),
        "core.session": ("MeasurementSession",),
    },
)
__all__.append("__version__")
