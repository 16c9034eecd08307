"""What an idle host loop costs: CPU-seconds per wall-second of ``serve`` and ``federate``.

Each row starts the real CLI in a fresh interpreter with no client and no
queued work, waits for its ``serving ...`` line, and reads the process's
CPU time (``/proc/<pid>/stat``) then and once more just before the
``--duration-s`` deadline.  The difference over the wall time between the
two reads is the idle loop alone — start-up and shutdown are left out.
Prints a markdown table.  With ``--max-share S`` it exits 1 when any row
costs more than ``S`` of a core, which catches a pass loop that stopped
sleeping.

    PYTHONPATH=src python benchmarks/idle_cost.py --duration-s 3 --max-share 0.25
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROWS = (
    ("serve", ["serve"]),
    ("federate --shards 4", ["federate", "--shards", "4"]),
)


def cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` so far (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of stat(5) (utime, stime); the split drops the first two.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def idle_share(args, duration_s: float) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"  # the ``serving`` line must arrive when printed
    # A margin past the window, so the second read lands before shutdown.
    command = [sys.executable, "-m", "repro.cli", *args, "--duration-s", str(duration_s + 1.0)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    try:
        for line in process.stdout:
            if line.startswith("serving "):
                break
        else:
            raise SystemExit(f"{' '.join(args)}: exited before serving")
        cpu0, wall0 = cpu_seconds(process.pid), time.monotonic()
        time.sleep(duration_s)
        cpu1, wall1 = cpu_seconds(process.pid), time.monotonic()
        process.stdout.read()
    finally:
        process.wait()
    return (cpu1 - cpu0) / (wall1 - wall0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration-s", type=float, default=5.0, help="idle window per row")
    parser.add_argument("--max-share", type=float, default=None, help="fail above this share of a core")
    options = parser.parse_args(argv)

    print("| idle host loop | CPU-s per wall-s |")
    print("|---|---:|")
    over = []
    for name, args in ROWS:
        share = idle_share(args, options.duration_s)
        print(f"| `repro {name}` ({options.duration_s:g} s) | {share:.3f} |")
        if options.max_share is not None and share > options.max_share:
            over.append(name)
    if over:
        print(f"idle loop above {options.max_share} of a core: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
