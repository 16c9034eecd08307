"""Import footprint of the edge entry points beside the full platform.

Prints a markdown table (modules loaded, max RSS, import time), one fresh
interpreter per row.  The table is the trend to read per PR; the gate is
``tests/test_import_boundaries.py``.

    PYTHONPATH=src python benchmarks/footprint.py
"""

import subprocess
import sys

IMPORTS = (
    "repro.cli",
    "repro.agent.daemon",
    "repro.api.client, repro.api.gateway",
    "repro.core.platform",  # the reference: what a server needs anyway
)
PROBE = """\
import resource, sys, time
started = time.perf_counter()
import {modules}
ms = (time.perf_counter() - started) * 1000.0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(f"| `{modules}` | {{len(sys.modules)}} | {{rss_mb:.1f}} | {{ms:.0f}} |")
"""


def main() -> None:
    print("| import | modules | max RSS (MB) | import (ms) |")
    print("|---|---:|---:|---:|")
    for modules in IMPORTS:
        probe = subprocess.run(
            [sys.executable, "-c", PROBE.format(modules=modules)],
            check=True,
            capture_output=True,
            text=True,
        )
        print(probe.stdout, end="")


if __name__ == "__main__":
    main()
