"""Where the journal and snapshots live, and the one snapshot encoder."""

from __future__ import annotations

import abc
import json
from array import array
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Union

from repro._appendlog import AppendLog, LogOwner
from repro._atomicfile import replace_file
from repro.accessserver.persistence.codec import PersistenceError, _encode


class Splice(NamedTuple):
    """``length`` bytes at ``offset`` of the snapshot being replaced: a run
    of ``jobs`` entries the new snapshot keeps byte for byte."""

    offset: int
    length: int


class SnapshotJobs(list):
    """A snapshot's ``jobs`` entries — records, record text or
    :class:`Splice` runs — that notes where its entries land.

    :func:`encode_snapshot` fills ``starts`` (the byte offset of each entry
    in the document, in order) and ``size`` (the document's length) as it
    streams, so whoever built the list learns the new layout from the list
    itself once the backend's ``write_snapshot`` returns.
    """

    __slots__ = ("starts", "size")

    def __init__(self) -> None:
        super().__init__()
        self.starts = array("q")
        self.size = 0


def encode_snapshot(snapshot: Dict[str, object]) -> Iterator[Union[str, Splice]]:
    """Stream a snapshot document as compact JSON text, piece by piece.

    The pieces concatenate to exactly
    ``json.dumps(snapshot, separators=(",", ":"))`` once every
    :class:`Splice` is replaced by the bytes it names in the snapshot the
    backend holds.  Entries of ``jobs`` that are already text are passed
    through verbatim; everything else is encoded here, one top-level value
    or one job at a time, so neither the whole job tree nor the whole
    document ever exists in memory.  The single encode path behind every
    backend's ``write_snapshot``.
    """
    jobs = snapshot.get("jobs")
    placed = jobs if isinstance(jobs, SnapshotJobs) else None
    if placed is not None:
        del placed.starts[:]
    size = 0
    opener = "{"
    for key, value in snapshot.items():
        head = opener + _encode(key) + ":"
        opener = ","
        if key != "jobs":
            piece = head + _encode(value)
            size += len(piece)
            yield piece
            continue
        separator = head + "["
        for record in value:
            size += len(separator)
            yield separator
            separator = ","
            if placed is not None:
                placed.starts.append(size)
            if isinstance(record, Splice):
                size += record.length
                yield record
            else:
                piece = record if isinstance(record, str) else _encode(record)
                size += len(piece)
                yield piece
        piece = "]" if separator == "," else separator + "]"
        size += len(piece)
        yield piece
    piece = "{}" if opener == "{" else "}"
    if placed is not None:
        placed.size = size + len(piece)
    yield piece


class StorageBackend(abc.ABC):
    """Where the journal and snapshots physically live.

    Implementations must make :meth:`append` durable-in-order (an append is
    never visible after a later one is lost) and :meth:`write_snapshot`
    atomic (a crash mid-snapshot leaves the previous snapshot intact).
    """

    @abc.abstractmethod
    def append(self, record: Dict[str, object]) -> None:
        """Append one journal record."""

    @abc.abstractmethod
    def sync(self) -> None:
        """Force any batched appends to stable storage."""

    @abc.abstractmethod
    def read_journal(self) -> List[Dict[str, object]]:
        """All journal records since the last reset, in append order."""

    @abc.abstractmethod
    def reset_journal(self) -> None:
        """Truncate the journal (called right after a snapshot commits)."""

    @abc.abstractmethod
    def write_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Atomically replace the snapshot with :func:`encode_snapshot`'s
        pieces, each :class:`Splice` resolved against the snapshot replaced."""

    @abc.abstractmethod
    def read_snapshot_text(self) -> Optional[str]:
        """The latest snapshot as written, or ``None`` when none was ever written."""

    def read_snapshot(self) -> Optional[Dict[str, object]]:
        """The latest snapshot, or ``None`` when none was ever written."""
        text = self.read_snapshot_text()
        return None if text is None else json.loads(text)

    def has_state(self) -> bool:
        """Whether recovery has anything to replay."""
        return self.read_snapshot() is not None or bool(self.read_journal())

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any held resources (file handles)."""


class InMemoryBackend(StorageBackend):
    """Journal and snapshot in process memory — for tests and benchmarks.

    Records are round-tripped through ``json`` so anything that would not
    survive the :class:`FileBackend` fails here too.
    """

    def __init__(self) -> None:
        self.journal: List[str] = []
        self.snapshot: Optional[str] = None
        self.appended = 0
        self.snapshot_bytes = 0

    def append(self, record: Dict[str, object]) -> None:
        self.journal.append(_encode(record))
        self.appended += 1

    def sync(self) -> None:
        pass  # every append is already where a reader finds it

    def read_journal(self) -> List[Dict[str, object]]:
        return [json.loads(line) for line in self.journal]

    def reset_journal(self) -> None:
        self.journal.clear()

    def write_snapshot(self, snapshot: Dict[str, object]) -> None:
        previous = self.snapshot
        self.snapshot = "".join(
            piece if isinstance(piece, str)
            else previous[piece.offset : piece.offset + piece.length]
            for piece in encode_snapshot(snapshot)
        )
        self.snapshot_bytes = len(self.snapshot)

    def read_snapshot_text(self) -> Optional[str]:
        return self.snapshot


class FileBackend(LogOwner, StorageBackend):
    """JSONL journal + JSON snapshot under one state directory.

    The journal is an :class:`~repro._appendlog.AppendLog` whose fsync
    cadence this backend sets: ``plan_crash`` / ``writes`` crash-kill the
    server at a chosen journal append (only appends count, not truncations
    or snapshots).

    Parameters
    ----------
    state_dir:
        Directory holding ``journal.jsonl`` and ``snapshot.json``; created
        on demand.  Opening it writes nothing (a cold reader may be looking
        at a live server's directory): the owner's first append heals a torn
        journal tail, its first snapshot overwrites a stale ``.tmp``.
    fsync_every:
        ``fsync`` the journal after this many appends (1 = synchronous
        durability for every record; larger values batch the syncs, trading
        the tail of the journal on power loss for throughput).  Appends are
        always *flushed* to the OS, so an application crash alone loses
        nothing.  The one place the journal's cadence is set: a server
        handed a directory path journals at the default.
    """

    JOURNAL_NAME = "journal.jsonl"
    SNAPSHOT_NAME = "snapshot.json"

    def __init__(self, state_dir: Union[str, Path], fsync_every: int = 32) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.state_dir / self.JOURNAL_NAME
        self.snapshot_path = self.state_dir / self.SNAPSHOT_NAME
        if fsync_every < 1:
            raise ValueError("fsync_every must be at least 1")
        self.fsync_every = fsync_every
        self._log = AppendLog(self.journal_path)
        self._unsynced = 0
        self.appended = 0
        self.snapshot_bytes = 0

    @property
    def fsyncs(self) -> int:
        return self._log.fsyncs

    @property
    def torn_records_dropped(self) -> int:
        return self._log.torn_tails_dropped

    def append(self, record: Dict[str, object]) -> None:
        self._log.append(_encode(record), record.get("kind", "record"))
        self.appended += 1
        self._unsynced += 1
        if self._unsynced >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        self._log.sync()
        self._unsynced = 0

    def read_journal(self) -> List[Dict[str, object]]:
        # The log drops a torn last line; any other bad line is corruption.
        records: List[Dict[str, object]] = []
        for number, line in enumerate(self._log.lines(), 1):
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                raise PersistenceError(
                    f"corrupt journal record at {self.journal_path}:{number}"
                ) from None
        return records

    def reset_journal(self) -> None:
        self._log.truncate()
        self._unsynced = 0

    def write_snapshot(self, snapshot: Dict[str, object]) -> None:
        # Durable through the directory fsync before this returns: the
        # journal truncation that follows a checkpoint must not outlive the
        # snapshot it was folded into.  A splice is a byte range of the file
        # being replaced, which replace_file copies in the kernel.
        self.snapshot_bytes = replace_file(self.snapshot_path, encode_snapshot(snapshot))

    def read_snapshot_text(self) -> Optional[str]:
        if not self.snapshot_path.exists():
            return None
        return self.snapshot_path.read_text(encoding="utf-8")

    def read_snapshot(self) -> Optional[Dict[str, object]]:
        try:
            return super().read_snapshot()
        except json.JSONDecodeError as exc:
            raise PersistenceError(f"corrupt snapshot {self.snapshot_path}: {exc}") from exc

    def has_state(self) -> bool:
        return self.snapshot_path.exists() or (
            self.journal_path.exists() and self.journal_path.stat().st_size > 0
        )

    def close(self) -> None:
        self._log.close()
        self._unsynced = 0
