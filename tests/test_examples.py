"""The measuring examples run end to end, as ``python examples/<name>.py`` would."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_measuring_examples_run(capsys):
    for name in ("quickstart.py", "heterogeneous_devices.py", "usability_testing.py"):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
        output = capsys.readouterr().out
        assert output.strip(), f"{name} printed nothing"
        if name == "quickstart.py":
            assert "finished completed" in output.strip().splitlines()[-1]
