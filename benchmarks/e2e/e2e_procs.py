"""The real ``repro`` programs as child processes, and their clean-up.

Every platform process is ``python -m repro.cli ...`` in its own process
group, started on port 0 with ``--duration-s`` as a dead-man timer, so a
harness that dies without running its clean-up still cannot leave a
``repro serve`` behind.  A :class:`Sandbox` owns every process and every
scratch directory of one run, decides which CPU each process is pinned to,
and releases all of it on any exit path.
"""

from __future__ import annotations

import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Set

from e2e_stats import process_cpu_s, process_peak_rss_mb

#: The CLI's "serving ... on host:port (tls); ^C to stop" line.
SERVING_LINE = r"serving .* on ([0-9.]+):(\d+) \((tls|plaintext)\)"
_SERVING = re.compile(SERVING_LINE.encode("ascii"))

#: How long a child gets to print its first line / to exit after SIGINT.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


class ProcessError(RuntimeError):
    """A platform process did not start, or died while it was needed."""


def cpu_plan(allowed: Set[int]) -> Dict[str, Optional[Set[int]]]:
    """Which of the ``allowed`` CPUs the platform and the load generator get.

    On this box an unpinned CPU-bound loop varies by tens of percent from
    second to second because the scheduler keeps co-locating and migrating
    the few busy processes; pinned, it repeats within a percent.  The
    platform gets the first allowed CPU, the load generator (and the agent,
    which works while the load generator waits) the second.  With a single
    CPU nothing is pinned.
    """
    if len(allowed) < 2:
        return {"platform": None, "loadgen": None}
    first, second = sorted(allowed)[:2]
    return {"platform": {first}, "loadgen": {second}}


def misplaced_threads(pid: int, cpus: Set[int]) -> List[int]:
    """Threads of process ``pid`` that the kernel may run outside ``cpus``."""
    found = []
    for tid in map(int, os.listdir(f"/proc/{pid}/task")):
        try:
            if os.sched_getaffinity(tid) != cpus:
                found.append(tid)
        except ProcessLookupError:  # the thread ended since the listing
            continue
    return found


class PlatformProcess:
    """One ``python -m repro.cli`` child in its own process group."""

    def __init__(
        self,
        args: List[str],
        env: Dict[str, str],
        stderr_path: str,
        cpus: Optional[Set[int]] = None,
    ) -> None:
        self.args = args
        self._stderr = open(stderr_path, "ab")
        self._proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", *args],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            stdin=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
        )
        self.pid = self._proc.pid
        self.port: Optional[int] = None
        self.cpus = cpus
        if cpus:
            # Before the interpreter has started a thread: all of them inherit it.
            os.sched_setaffinity(self.pid, cpus)

    def wait_serving(self, timeout_s: float = START_TIMEOUT_S) -> int:
        """Block until the child prints its address; returns the port."""
        deadline = time.monotonic() + timeout_s
        fd = self._proc.stdout.fileno()
        seen = b""
        while True:
            match = _SERVING.search(seen)
            if match:
                self.port = int(match.group(2))
                return self.port
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProcessError(f"{self.args}: no serving line within {timeout_s}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ProcessError(
                    f"{self.args}: exited with {self._proc.wait()} before serving"
                )
            seen += chunk

    def alive(self) -> bool:
        return self._proc.poll() is None

    def misplaced_threads(self) -> List[int]:
        return misplaced_threads(self.pid, self.cpus) if self.cpus else []

    def cpu_s(self) -> float:
        return process_cpu_s(self.pid)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.pid)

    def stop(self, graceful: bool = True) -> None:
        """SIGINT the group (the CLI's clean ^C path), then SIGKILL it."""
        if self._proc.poll() is None and graceful:
            self._signal(signal.SIGINT)
            try:
                self._proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        # The group may hold stragglers even after the leader exited.
        self._signal(signal.SIGKILL)
        self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()
        self._stderr.close()

    def _signal(self, signum: int) -> None:
        try:
            os.killpg(self.pid, signum)
        except (ProcessLookupError, PermissionError):
            pass


class Sandbox:
    """Owns the scratch directory, the CPU plan and every child of one run.

    Use as a context manager.  Entering pins the calling process to the
    load generator's CPU; the plan is made from the affinity found *before*
    that, so children can still be put on the other CPU.  ``close`` kills
    every process group still alive, removes the scratch tree and restores
    the caller's affinity, whatever happened in between.  SIGTERM is turned
    into ``SystemExit`` so the same path runs then too.
    """

    def __init__(self, checkout: str, work_dir: str) -> None:
        os.makedirs(work_dir, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=work_dir)
        self._base = work_dir
        self._processes: List[PlatformProcess] = []
        self._dirs = 0
        self._affinity = os.sched_getaffinity(0)
        self.cpus = cpu_plan(self._affinity)
        self.env = dict(os.environ)
        src = os.path.join(checkout, "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        # Same dict and set iteration order in every launch of the platform.
        self.env["PYTHONHASHSEED"] = "0"
        self._old_sigterm = None

    def __enter__(self) -> "Sandbox":
        def _terminate(_signum, _frame):
            raise SystemExit(143)

        self._old_sigterm = signal.signal(signal.SIGTERM, _terminate)
        if self.cpus["loadgen"]:
            os.sched_setaffinity(0, self.cpus["loadgen"])
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def new_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.root, f"{self._dirs:03d}-{label}")
        os.makedirs(path)
        return path

    def copy_dir(self, source: str, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.root, f"{self._dirs:03d}-{label}")
        shutil.copytree(source, path)
        return path

    def spawn(self, args: List[str], role: str) -> PlatformProcess:
        """Start ``repro.cli args`` on the CPU of ``role`` (a ``cpu_plan`` key)."""
        process = PlatformProcess(
            args, self.env, os.path.join(self.root, "children.stderr"), self.cpus[role]
        )
        self._processes.append(process)
        return process

    def stop(self, process: PlatformProcess, graceful: bool = True) -> None:
        process.stop(graceful=graceful)
        if process in self._processes:
            self._processes.remove(process)

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            with open(os.path.join(self.root, "children.stderr"), "rb") as handle:
                return handle.read()[-limit:].decode("utf-8", "replace")
        except OSError:
            return ""

    def close(self) -> None:
        for process in list(self._processes):
            process.stop(graceful=False)
        self._processes.clear()
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(self._base)  # only when no other invocation is using it
        except OSError:
            pass
        os.sched_setaffinity(0, self._affinity)
        if self._old_sigterm is not None:
            signal.signal(signal.SIGTERM, self._old_sigterm)
            self._old_sigterm = None
