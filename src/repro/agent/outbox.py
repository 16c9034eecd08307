"""The daemon's journal-backed outbox: crash-safe exactly-once uploads.

Every step of a claimed job's life on the agent side is appended to one
JSONL file *before* the daemon acts on it — claim, each finished phase, the
computed result, the server's upload ack.  After a ``kill -9`` at any
offset, replaying the file tells a fresh daemon exactly where to resume:

* ``claim`` without ``result`` — re-run the phases that have no ``phase``
  record yet (finished phases are **never** re-executed);
* ``result`` without ``uploaded`` — upload again; the server's settled-
  lease memory answers ``duplicate`` if the first upload actually landed,
  which is what makes the retry exactly-once rather than at-least-once;
* ``uploaded`` / ``discarded`` — nothing to do.

The file costs what is live.  It is opened once and replayed once, at
construction; after that the per-lease fold is kept in memory by
:meth:`Outbox.append`, so :meth:`~Outbox.lease_states` and
:meth:`~Outbox.pending` read no file.  When an ``uploaded`` / ``discarded``
record leaves the file at or over :data:`COMPACT_BYTES` (also checked once
at open), the file is atomically replaced by the records of the leases
still pending — normally none.  A settled lease is dropped whole: its
``uploaded`` / ``discarded`` record was durable, so no replay would have
touched it again.

The reader is torn-tail tolerant: a crash mid-append leaves a partial last
line, which is ignored (its operation simply never happened).  Tests drive
the crash points deterministically through ``plan_crash``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List

from repro._atomicfile import replace_file, write_synced
from repro.chaos.faults import CrashPlan, SimulatedCrash
from repro.obs import component_logger

__all__ = ["COMPACT_BYTES", "Outbox", "SimulatedCrash", "fold_records"]

#: File size at which a settling record triggers compaction (≈ 88 noop jobs).
COMPACT_BYTES = 64 * 1024

#: The record kinds that settle a lease; only they can trigger compaction.
_SETTLING_KINDS = ("uploaded", "discarded")


def _is_pending(state: Dict[str, object]) -> bool:
    return (
        state["claim"] is not None
        and not state["uploaded"]
        and not state["discarded"]
    )


def _apply(states: Dict[str, Dict[str, object]], record: Dict[str, object]) -> int:
    """Fold one record into ``states``; returns the change in pending leases."""
    lease_id = record.get("lease_id")
    if not isinstance(lease_id, str):
        return 0
    state = states.get(lease_id)
    if state is None:
        state = states[lease_id] = {
            "claim": None,
            "phases": [],
            "result": None,
            "uploaded": False,
            "discarded": False,
        }
    was_pending = _is_pending(state)
    kind = record["kind"]
    if kind == "claim":
        state["claim"] = record
    elif kind == "phase":
        state["phases"].append(record)
    elif kind == "result":
        state["result"] = record
    elif kind == "uploaded":
        state["uploaded"] = True
    elif kind == "discarded":
        state["discarded"] = True
    return _is_pending(state) - was_pending


def fold_records(
    records: Iterable[Dict[str, object]]
) -> Dict[str, Dict[str, object]]:
    """Per-lease resume state of ``records`` — what :meth:`Outbox.lease_states`
    must equal for the file they were read from."""
    states: Dict[str, Dict[str, object]] = {}
    for record in records:
        _apply(states, record)
    return states


class Outbox:
    """Append-only JSONL journal of one agent's claimed work.

    Raises :class:`OSError` when ``path`` cannot be opened for appending —
    before any lease is claimed against it.  A path has one owner at a
    time: opening it removes the ``<path>.tmp`` a crash inside a compaction
    left behind.

    ``size_bytes`` (the file), ``pending_count`` (leases with unfinished
    work) and ``compactions`` (made by this instance) are plain attributes,
    kept current where the work happens.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._tmp_path = f"{path}.tmp"
        self._crash = CrashPlan()
        self._log = component_logger("repro.agent.outbox")
        self._states: Dict[str, Dict[str, object]] = {}
        self.compactions = 0
        self.pending_count = 0
        try:
            os.unlink(self._tmp_path)
        except FileNotFoundError:
            pass
        self._handle = open(path, "a", encoding="utf-8")
        self.size_bytes = os.fstat(self._handle.fileno()).st_size
        self._heal_torn_tail()
        for record in self.records():
            self.pending_count += _apply(self._states, record)
        if self.size_bytes >= COMPACT_BYTES:
            self._compact()

    def _heal_torn_tail(self) -> None:
        """Terminate a torn last line so new appends start on a fresh line.

        A crash mid-append leaves a partial line with no newline; without
        this, the restarted daemon's first append would concatenate onto
        the fragment and corrupt its own record.  The fragment itself
        stays ignored by :meth:`records` (it parses as garbage).
        """
        if not self.size_bytes:
            return
        with open(self.path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
        if last != b"\n":
            self._write("\n")

    def close(self) -> None:
        """Release the file handle; the daemon's owner calls this on exit."""
        self._handle.close()

    @property
    def writes(self) -> int:
        """Writes made through this outbox instance: appends, plus one per
        compaction an append triggered (crash-plan offsets are relative to
        its construction, so ``plan_crash(writes + n)`` targets the ``n``-th
        write from now)."""
        return self._crash.writes

    # -- fault injection ------------------------------------------------------
    def plan_crash(self, at_write: int, mode: str = "after") -> None:
        """Simulate ``kill -9`` at the ``at_write``-th write (0-based).

        Delegates to the platform-wide crash planner
        (:class:`repro.chaos.faults.CrashPlan`), so the outbox speaks the
        same fault vocabulary as the server journal.  ``mode``, for an
        append:

        * ``"before"`` — crash without writing anything;
        * ``"after"``  — write the full record, then crash (the ack/record
          is durable but the daemon never saw it succeed);
        * ``"torn"``   — write half the line with no newline, then crash
          (exercises the reader's torn-tail tolerance).

        A compaction is the write right after the append that triggered it:
        ``"before"`` crashes with the file untouched, ``"torn"`` with the
        temporary file written but not renamed, ``"after"`` with the rename
        done and nothing after it.
        """
        self._crash.arm(at_write, mode)

    # -- writing --------------------------------------------------------------
    def _write(self, text: str) -> None:
        self._handle.write(text)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.size_bytes += len(text)  # json.dumps output is ASCII

    def append(self, kind: str, **data: object) -> Dict[str, object]:
        record = {"kind": kind, **data}
        line = json.dumps(record, sort_keys=True)
        self._crash.intercept(
            kind,
            lambda: self._write(line + "\n"),
            lambda: self._write(line[: max(1, len(line) // 2)]),
        )
        # Fold what a replay would read, not what the caller passed (JSON
        # turns tuples into lists and every key into a string).
        self.pending_count += _apply(self._states, json.loads(line))
        if kind in _SETTLING_KINDS and self.size_bytes >= COMPACT_BYTES:
            self._crash.intercept(
                "compact",
                self._compact,
                lambda: write_synced(self._tmp_path, self._pending_lines()),
            )
        return record

    def _pending_states(self) -> Dict[str, Dict[str, object]]:
        return {
            lease_id: state
            for lease_id, state in self._states.items()
            if _is_pending(state)
        }

    def _pending_lines(self) -> List[str]:
        """The file a compaction leaves: pending leases' records, in order."""
        return [
            json.dumps(record, sort_keys=True) + "\n"
            for state in self._pending_states().values()
            for record in (state["claim"], *state["phases"], state["result"])
            if record is not None
        ]

    def _compact(self) -> None:
        """Replace the file by the pending leases' records; forget the rest."""
        before = self.size_bytes
        self.size_bytes = replace_file(
            self.path, self._pending_lines(), self._tmp_path
        )
        # The old handle still points at the file the rename just unlinked.
        self._handle.close()
        self._handle = open(self.path, "a", encoding="utf-8")
        leases = len(self._states)
        self._states = self._pending_states()
        self.compactions += 1
        self._log.info(
            "outbox %s compacted: %d -> %d bytes, %d lease(s) dropped, %d kept",
            self.path,
            before,
            self.size_bytes,
            leases - len(self._states),
            len(self._states),
        )

    # -- reading --------------------------------------------------------------
    def records(self) -> List[Dict[str, object]]:
        """Every durable record on disk, oldest first; a torn tail is dropped.

        The one method that reads the file after construction — for tests
        and forensics; the daemon resumes from the in-memory fold.
        """
        if not os.path.exists(self.path):
            return []
        records: List[Dict[str, object]] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    # Torn line from a crash mid-append: the operation it
                    # described never completed.  Skip it — after a restart
                    # heals the tail, valid records continue on the next
                    # line.
                    continue
                if isinstance(record, dict) and "kind" in record:
                    records.append(record)
        return records

    def lease_states(self) -> Dict[str, Dict[str, object]]:
        """Per-lease resume state of every lease the file still holds.

        Returns ``lease_id -> {"claim": record, "phases": [phase records],
        "result": record | None, "uploaded": bool, "discarded": bool}`` —
        a copy of the in-memory fold, which equals a fresh replay of the
        file.  Settled leases stay until the next compaction drops them.
        """
        return {
            lease_id: {**state, "phases": list(state["phases"])}
            for lease_id, state in self._states.items()
        }

    def pending(self) -> List[str]:
        """Lease ids with unfinished work, in first-seen order."""
        return list(self._pending_states())
