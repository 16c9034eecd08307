"""One JSONL append log under both of the platform's journals.

The access server's ``journal.jsonl`` (``FileBackend``) and each agent's
outbox (``Outbox``) are the same file discipline, kept once here: a held
append handle that the owner takes with its first write (or with
:meth:`AppendLog.open`); every line flushed as it is written and fsync'd
when the owner asks (:meth:`AppendLog.sync`) — each owner sets its own
cadence; and every line written through a
:class:`~repro.chaos.faults.CrashPlan`, so ``plan_crash(at_write, mode)``
kills the owner before, after or halfway through (``torn``) a chosen line,
or cuts its power there (``power-loss``).

Two contracts, because two failures differ in what they keep:

* **kill -9** keeps every line written: a flushed line is in the kernel's
  page cache, which outlives the process.  **Only the last line can be
  torn**: every write ends with a newline, so a crash mid-write leaves at
  most the last line unterminated.  Readers drop it; the owner truncates it
  away when it takes the handle, so the file only ever holds whole lines.
* **power loss** keeps what was fsync'd: the file reopens at
  ``synced_size`` as of the last :meth:`~AppendLog.sync` (or open, or
  truncate), and :meth:`~AppendLog.lose_unsynced` is how a planned
  ``power-loss`` crash puts it there.  How much that rewinds is the owner's
  durability decision.

A reader (:meth:`AppendLog.lines`) never takes the handle and writes
nothing.  The log knows lines, not records: each owner keeps its own
encoding and its own policy for a bad line mid-file.

Lines are ASCII (JSON with ``ensure_ascii``), so a line's length is its
size in bytes.  Standard library only: the agent imports this on the
vantage point's Pi.  ``os.fsync`` is looked up at call time, so tests and
the e2e tracer can wrap it.
"""

from __future__ import annotations

import os
from typing import Iterator, Union

from repro.chaos.faults import CrashPlan

__all__ = ["AppendLog", "LogOwner"]

#: Bytes read at a time when looking back for the last whole line.
_TAIL_BYTES = 4096


def _whole_lines_end(path: str, size: int) -> int:
    """Offset just past the last newline in the file's first ``size`` bytes."""
    with open(path, "rb") as reader:
        while size > 0:
            start = max(0, size - _TAIL_BYTES)
            reader.seek(start)
            newline = reader.read(size - start).rfind(b"\n")
            if newline >= 0:
                return start + newline + 1
            size = start
    return 0


class AppendLog:
    """An append-only file of newline-terminated lines; ``size_bytes``,
    ``synced_size`` (the bytes a power loss keeps), ``fsyncs`` and
    ``torn_tails_dropped`` are kept current as plain attributes."""

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        self.path = os.fspath(path)
        self.crash_plan = CrashPlan(self.lose_unsynced)
        self.fsyncs = 0
        self.torn_tails_dropped = 0
        self._handle = None
        self.size_bytes = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        self.synced_size = self.size_bytes

    def open(self) -> None:
        """Take the append handle (owner only), creating the file and
        healing a torn tail; :class:`OSError` if it cannot be appended to."""
        if self._handle is not None:
            return
        self._handle = open(self.path, "a", encoding="utf-8")
        size = os.fstat(self._handle.fileno()).st_size
        whole = _whole_lines_end(self.path, size)
        if whole < size:
            os.ftruncate(self._handle.fileno(), whole)
        self.size_bytes = self.synced_size = whole

    # -- writing --------------------------------------------------------------
    def append(self, line: str, label: str = "append") -> None:
        """Write ``line`` and a newline through the crash plan (``label``
        names the write in a planned crash's message)."""
        self.crash_plan.intercept(
            label,
            lambda: self._write(line + "\n"),
            lambda: self._write(line[: max(1, len(line) // 2)]),
        )

    def _write(self, text: str) -> None:
        if self._handle is None:
            self.open()
        self._handle.write(text)
        self._handle.flush()
        self.size_bytes += len(text)

    def sync(self) -> None:
        """fsync the lines written since the last sync, if any."""
        if self.synced_size != self.size_bytes:
            os.fsync(self._handle.fileno())
            self.fsyncs += 1
            self.synced_size = self.size_bytes

    def lose_unsynced(self) -> None:
        """Cut the file back to ``synced_size``: what a power loss leaves."""
        if self._handle is not None:
            os.ftruncate(self._handle.fileno(), self.synced_size)
        self.size_bytes = self.synced_size

    def truncate(self) -> None:
        """Empty the file; the next line is its first."""
        if self._handle is None:
            self.open()
        os.ftruncate(self._handle.fileno(), 0)
        self.size_bytes = self.synced_size = 0

    def close(self) -> None:
        """Sync and release the handle; a later write takes it again."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    # -- reading --------------------------------------------------------------
    def lines(self) -> Iterator[str]:
        """Every whole line on disk, oldest first, without its newline; a
        torn last line is dropped (and counted).  Writes nothing."""
        try:
            handle = open(self.path, "r", encoding="utf-8", newline="\n")
        except FileNotFoundError:
            return
        with handle:
            for line in handle:
                if not line.endswith("\n"):
                    self.torn_tails_dropped += 1
                    return
                yield line[:-1]


class LogOwner:
    """The crash-plan surface of an :class:`AppendLog`'s owner (``self._log``)."""

    _log: AppendLog

    @property
    def crash_plan(self) -> CrashPlan:
        return self._log.crash_plan

    @property
    def writes(self) -> int:
        """Writes so far: ``plan_crash(writes + n)`` targets the ``n``-th from now."""
        return self._log.crash_plan.writes

    def plan_crash(self, at_write: int, mode: str = "after") -> None:
        """Simulate ``kill -9`` at the ``at_write``-th write (0-based), in a
        :data:`~repro.chaos.faults.CRASH_MODES` mode: ``torn`` writes half
        the line with no newline — the on-disk shape of a crash mid-``write(2)``;
        ``power-loss`` writes the line, then drops every unsynced byte."""
        self._log.crash_plan.arm(at_write, mode)
