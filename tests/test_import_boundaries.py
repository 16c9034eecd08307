"""Import layering: an edge process loads the edge, not the platform.

``repro agent`` runs on the vantage point's Raspberry Pi and the
``--gateway`` subcommands on an experimenter's laptop; neither may drag in
the emulated platform or numpy on import (DESIGN.md, "Import layering").
Each entry point is imported in a fresh interpreter so this process's own
imports cannot mask a leak.
"""

import fnmatch
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

from repro.accessserver.dispatch import DispatchEngine
from repro.accessserver.policies import policy_names
from repro.cli import build_parser

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: What no edge entry point may load (fnmatch patterns over ``sys.modules``).
FORBIDDEN = (
    "numpy*",
    "repro.core*",
    "repro.device*",
    "repro.network*",
    "repro.powermonitor*",
    "repro.vantagepoint*",
    "repro.mirroring*",
    "repro.experiments*",
    "repro.analysis*",
    "repro.workloads*",
    "repro.automation*",
    "repro.accessserver.server",
    "repro.simulation.random",
    "repro.chaos.soak",
)
MAX_MODULES = 200

ENTRY_POINTS = {
    "agent.daemon": "import repro.agent.daemon",
    "api.client+gateway": "import repro.api.client, repro.api.gateway",
    "accessserver.certificates": "import repro.accessserver.certificates",
    "cli": (
        "import repro.cli\n"
        "repro.cli.build_parser()\n"
        "try:\n"
        "    repro.cli.main(['agent', '--help'])\n"
        "except SystemExit:\n"
        "    pass"
    ),
}

LAZY_PACKAGES = (
    "repro",
    "repro.api",
    "repro.accessserver",
    "repro.simulation",
    "repro.chaos",
    "repro.agent",
    "repro.analysis",
    "repro.federation",
    "repro.analytics",
)


def loaded_modules(statements: str) -> list:
    """``sys.modules`` of a fresh interpreter after running ``statements``."""
    script = statements + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_edge_entry_point_loads_only_the_edge(entry):
    modules = loaded_modules(ENTRY_POINTS[entry])
    leaked = [
        name
        for name in modules
        if any(fnmatch.fnmatchcase(name, pattern) for pattern in FORBIDDEN)
    ]
    assert leaked == []
    assert len(modules) < MAX_MODULES


def test_printing_a_table_does_not_load_numpy():
    """``repro report --gateway`` / ``jobs --gateway`` print tables on an
    operator's laptop or the Pi; ``repro.analysis.tables`` is plain string
    formatting and must not pay for its numpy-backed siblings."""
    modules = loaded_modules(
        "import repro.analysis.tables\n"
        "import repro.cli\n"
        "try:\n"
        "    repro.cli.main(['report', '--help'])\n"
        "except SystemExit:\n"
        "    pass"
    )
    assert "repro.analysis.tables" in modules
    assert [name for name in modules if fnmatch.fnmatchcase(name, "numpy*")] == []


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_package_exports_are_the_leaf_objects(package_name):
    package = importlib.import_module(package_name)
    # ``repro`` re-exports from ``repro.core``; the rest from their own leaves.
    home = importlib.import_module(
        "repro.core" if package_name == "repro" else package_name
    )
    leaves = [
        vars(importlib.import_module(f"{home.__name__}.{info.name}"))
        for info in pkgutil.iter_modules(home.__path__)
    ]
    assert set(package.__all__) <= set(dir(package))
    star = {}
    exec(f"from {package_name} import *", star)
    for name in package.__all__:
        value = getattr(package, name)
        assert star[name] is value
        if name != "__version__":
            assert any(leaf.get(name) is value for leaf in leaves), name
    with pytest.raises(AttributeError):
        package.no_such_name


def test_cli_choices_come_from_the_leaves():
    actions = {action.dest: action for action in build_parser()._actions}
    assert list(actions["scheduling_policy"].choices) == list(policy_names())
    assert list(actions["reservation_admission"].choices) == list(
        DispatchEngine.ADMISSION_MODES
    )

