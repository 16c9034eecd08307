"""Pins the power numbers of every device model, second by second.

One seeded, scripted 120-simulated-second session runs four devices on one
vantage point: the paper's Samsung J7 Duo, an iPhone 8, a ThinkPad X250 and
a Raspberry Pi Zero W. Each device goes through every step it supports: USB
power off and on, WiFi and cellular, a Bluetooth keyboard link, an app (or
service) launched, made busy and stopped, mirroring through
``controller.start_mirroring`` and battery bypass through
``controller.batt_switch`` with the monitor sampling it. Every simulated
second records, per device, the noisy current, the battery level, the
bypass charge, the last CPU sample and the mirroring session's status and
controller cost. The stdout of ``examples/heterogeneous_devices.py`` (seed
7) is pinned beside it. Both must match ``tests/data/device_power_golden.json``
exactly; after a change that moves them on purpose, rewrite the golden with::

    PYTHONPATH=src python tests/test_device_golden.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.platform import build_default_platform
from repro.device.apps import InstalledApp
from repro.device.ios import IOSDevice
from repro.device.linux import RASPBERRY_PI_ZERO_W, THINKPAD_X250, LinuxDevice
from repro.device.radio import RadioTechnology

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "device_power_golden.json"
EXAMPLE = ROOT / "examples" / "heterogeneous_devices.py"
SEED = 17
DURATION_S = 120

PHONE, IPHONE, LAPTOP, IOT = "node1-dev00", "node1-ios00", "node1-laptop00", "node1-iot00"
SAFARI = "com.apple.mobilesafari"


def _script(platform, controller, devices, traces):
    """Steps by simulated second; each runs before that second is simulated."""
    phone, iphone, laptop, iot = (devices[serial] for serial in (PHONE, IPHONE, LAPTOP, IOT))
    monitor = platform.vantage_point().monitor

    def bypass(serial, on):
        def step():
            if on:
                controller.batt_switch(serial, True)
                monitor.start_sampling(label=serial)
            else:
                trace = monitor.stop_sampling()
                traces[serial] = [len(trace), trace.median_current_ma()]
                controller.batt_switch(serial, False)

        return step

    def activity(packages, package, **demands):
        return lambda: packages.process(package).set_activity(**demands)

    return {
        1: [lambda: monitor.set_sample_rate(50.0), lambda: controller.set_power_monitor(True),
            lambda: controller.set_voltage(3.85)],
        2: [lambda: controller.set_device_usb_power(PHONE, False),
            lambda: controller.set_device_usb_power(IPHONE, False)],
        4: [lambda: controller.set_device_usb_power(LAPTOP, False),
            lambda: controller.set_device_usb_power(IOT, False)],
        5: [lambda: phone.packages.launch("com.android.chrome"),
            activity(phone.packages, "com.android.chrome", cpu_percent=23.3, network_mbps=1.7, screen_fps=24.0)],
        7: [lambda: iphone.packages.launch(SAFARI),
            activity(iphone.packages, SAFARI, cpu_percent=17.9, network_mbps=0.9, screen_fps=31.0)],
        9: [lambda: laptop.run_command("display on"),
            lambda: laptop.run_command("systemctl start transcode 33.3 2.7")],
        10: [phone.connect_cellular, iphone.connect_cellular],
        11: [lambda: iot.start_service("sensor-upload", cpu_percent=21.7, network_mbps=0.3)],
        14: [lambda: controller.keyboard.connect(PHONE)],
        20: [lambda: controller.start_mirroring(PHONE).connect_viewer("experimenter")],
        25: [lambda: controller.start_mirroring(IPHONE, bitrate_mbps=2.2).connect_viewer("tester", role="tester")],
        30: [activity(phone.packages, "com.android.chrome", cpu_percent=31.1, network_mbps=0.4, screen_fps=45.5),
             activity(iphone.packages, SAFARI, cpu_percent=8.1, screen_fps=57.0)],
        33: [lambda: laptop.set_mains_powered(False)],
        35: [lambda: phone.radio.set_default_route(RadioTechnology.CELLULAR),
             activity(laptop.services, "transcode", cpu_percent=71.9, network_mbps=0.2)],
        38: [lambda: laptop.run_command("display off"), iot.disconnect_wifi],
        40: [lambda: controller.keyboard.disconnect(),
             lambda: iphone.radio.set_default_route(RadioTechnology.CELLULAR)],
        42: [lambda: iot.connect_wifi("batterylab")],
        45: [bypass(PHONE, True)],
        50: [lambda: iphone.radio.set_default_route(RadioTechnology.WIFI),
             lambda: laptop.run_command("display on")],
        55: [bypass(PHONE, False)],
        58: [phone.disconnect_cellular, lambda: controller.set_device_usb_power(LAPTOP, True)],
        60: [bypass(IPHONE, True)],
        62: [lambda: iot.run_command("systemctl stop sensor-upload")],
        65: [lambda: controller.stop_mirroring(PHONE)],
        68: [lambda: laptop.run_command("systemctl stop transcode")],
        70: [bypass(IPHONE, False)],
        72: [lambda: laptop.set_mains_powered(True)],
        75: [lambda: phone.packages.stop("com.android.chrome"), bypass(LAPTOP, True)],
        78: [lambda: controller.set_device_usb_power(IOT, True)],
        80: [lambda: controller.keyboard.connect(IPHONE), lambda: controller.set_device_usb_power(PHONE, True)],
        85: [bypass(LAPTOP, False), lambda: controller.set_voltage(5.0)],
        88: [lambda: iot.start_service("sensor-upload", cpu_percent=44.4, network_mbps=1.3)],
        90: [bypass(IOT, True), lambda: iphone.packages.stop(SAFARI)],
        95: [lambda: controller.stop_mirroring(IPHONE)],
        100: [bypass(IOT, False), lambda: controller.keyboard.disconnect()],
        105: [lambda: controller.set_device_usb_power(IPHONE, True), lambda: iot.stop_service("sensor-upload")],
        110: [lambda: laptop.run_command("display off")],
    }


def _mirroring(controller, serial):
    session = controller.mirroring_session(serial)
    if session is None:
        return None
    return {
        "status": session.status(),
        "controller_cpu_percent": session.controller_cpu_percent(),
        "controller_memory_mb": session.controller_memory_mb(),
    }


def _row(controller, second, device):
    sample = device.cpu.last_sample()
    return {
        "t": second,
        "device": device.serial,
        "current_ma": device.instantaneous_current_ma(with_noise=True),
        "battery_percent": device.battery.level_percent if device.battery is not None else None,
        "bypass_supply_mah": device.bypass_supply_mah,
        "cpu": None if sample is None else [sample.timestamp, sample.total_percent, sample.per_process_percent],
        "mirroring": _mirroring(controller, device.serial),
    }


def device_session():
    """Run the scripted session; return the per-second rows and the bypass traces."""
    platform = build_default_platform(seed=SEED, browsers=("chrome",))
    controller = platform.vantage_point().controller
    context = platform.context
    iphone = IOSDevice(context, udid=IPHONE)
    controller.add_device(iphone)
    iphone.install_app(InstalledApp(package=SAFARI, label="Safari"))
    laptop = LinuxDevice(context, serial=LAPTOP, profile=THINKPAD_X250)
    controller.add_device(laptop, pair_bluetooth=False)
    laptop.install_service("transcode")
    iot = LinuxDevice(context, serial=IOT, profile=RASPBERRY_PI_ZERO_W)
    controller.add_device(iot, pair_bluetooth=False)
    iot.install_service("sensor-upload")
    devices = {serial: controller.device(serial) for serial in (PHONE, IPHONE, LAPTOP, IOT)}
    traces = {}
    script = _script(platform, controller, devices, traces)
    rows = []
    for second in range(DURATION_S):
        for step in script.get(second, ()):
            step()
        platform.run_for(1.0)
        rows.extend(_row(controller, second + 1, device) for device in devices.values())
    return {"rows": rows, "bypass_traces": traces}


def example_stdout():
    # A fresh interpreter, as ``python examples/heterogeneous_devices.py`` runs.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(EXAMPLE)], env=env, check=True, capture_output=True, text=True
    )
    return run.stdout.splitlines()


def golden_record():
    # A JSON round trip turns tuples into lists, as they read back from the file.
    record = {"seed": SEED, **device_session(), "heterogeneous_devices_stdout": example_stdout()}
    return json.loads(json.dumps(record))


def test_device_numbers_match_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    record = golden_record()
    assert record["heterogeneous_devices_stdout"] == golden["heterogeneous_devices_stdout"]
    assert record["bypass_traces"] == golden["bypass_traces"]
    assert len(record["rows"]) == len(golden["rows"]) == 4 * DURATION_S
    for row, expected in zip(record["rows"], golden["rows"]):
        assert row == expected, f"t={expected['t']} {expected['device']}"


if __name__ == "__main__":
    record = golden_record()
    lines = ",\n".join(json.dumps(row, sort_keys=True) for row in record.pop("rows"))
    head = json.dumps(record, indent=1, sort_keys=True)
    # One row per line, so a moved number shows as one changed line; head[:-2]
    # drops the closing "\n}" to append the rows to the same object.
    GOLDEN.write_text(head[:-2] + ',\n "rows": [\n' + lines + "\n ]\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
