"""The measuring examples run end to end, as ``python examples/<name>.py`` would."""

import json
import runpy
from pathlib import Path

from repro.core.platform import build_default_platform

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"
DEVICE_GOLDEN = ROOT / "tests" / "data" / "device_power_golden.json"


def test_measuring_examples_run(capsys):
    for name in ("quickstart.py", "heterogeneous_devices.py", "usability_testing.py"):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
        output = capsys.readouterr().out
        assert output.strip(), f"{name} printed nothing"
        if name == "quickstart.py":
            assert "finished completed" in output.strip().splitlines()[-1]


def test_example_job_ids_start_at_one_on_every_platform(capsys):
    """Each access server numbers its own jobs: a platform built earlier in
    the same interpreter does not move the example's census job off #1."""
    earlier = build_default_platform(seed=3, browsers=("chrome",)).client()
    assert earlier.submit_job("earlier", "noop").job_id == 1
    runpy.run_path(str(EXAMPLES / "heterogeneous_devices.py"), run_name="__main__")
    golden = json.loads(DEVICE_GOLDEN.read_text(encoding="utf-8"))
    assert capsys.readouterr().out.splitlines() == golden["heterogeneous_devices_stdout"]
