"""The splice index: where settled jobs' records lie in the current snapshot."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, NamedTuple, Tuple

from repro.accessserver.persistence.backends import SnapshotJobs, Splice


class _Run:
    """Settled jobs' records lying back to back in the current snapshot.

    Record ``i`` is job ``ids[i]`` (ascending); it starts ``offsets[i]``
    bytes past ``start``, one comma after the end of record ``i - 1``, and
    its retention lapses at ``expires[i]``; the last record ends at
    ``start + end``.  24 bytes a record.  A checkpoint that carries the run
    into the next snapshot moves ``start`` and nothing else; one that drops
    a record inside it, or puts one between two of its records, cuts it
    into :meth:`part`\\ s.
    """

    __slots__ = ("start", "end", "ids", "offsets", "expires", "lapses_at")

    def __init__(self, start: int) -> None:
        self.start = start
        self.end = 0
        self.ids = array("q")
        self.offsets = array("q")
        self.expires = array("d")
        self.lapses_at = float("inf")

    def add(self, job_id: int, begin: int, length: int, expires: float) -> None:
        """Append the record of ``length`` bytes at absolute offset ``begin``."""
        self.ids.append(job_id)
        self.offsets.append(begin - self.start)
        self.expires.append(expires)
        self.end = begin + length - self.start
        self.lapses_at = min(self.lapses_at, expires)

    def splice(self) -> Splice:
        begin = self.start + self.offsets[0]
        return Splice(begin, self.start + self.end - begin)

    def records(self) -> Iterator[Tuple[int, int, int]]:
        """``(job_id, begin, end)`` of each record, as absolute offsets."""
        for index, job_id in enumerate(self.ids):
            yield job_id, self.start + self.offsets[index], self.start + self._end_of(index)

    def _end_of(self, index: int) -> int:
        if index + 1 < len(self.ids):
            return self.offsets[index + 1] - 1
        return self.end

    def part(self, lo: int, hi: int) -> "_Run":
        """Records ``lo:hi`` as a run of their own, where they lie now."""
        run = _Run(self.start)
        run.ids = self.ids[lo:hi]
        run.offsets = self.offsets[lo:hi]
        run.expires = self.expires[lo:hi]
        run.end = self._end_of(hi - 1)
        run.lapses_at = min(run.expires)
        return run


def _cut(runs: List[_Run], changed: List[int], now: float) -> List[_Run]:
    """``runs`` without the records of ``changed`` jobs or lapsed
    retention, cut wherever a changed job falls between two records.

    ``changed`` is ascending.  Runs with nothing to cut come back as they
    are.
    """
    firsts = [run.ids[0] for run in runs]  # for bisection
    cuts: Dict[int, Dict[int, bool]] = {}  # run -> {record: dropped (else: cut before)}
    for job_id in changed:
        at = bisect_right(firsts, job_id) - 1
        if at < 0 or job_id > runs[at].ids[-1]:
            continue
        ids = runs[at].ids
        index = bisect_left(ids, job_id)
        cut = cuts.setdefault(at, {})
        cut[index] = cut.get(index, False) or ids[index] == job_id
    for at, run in enumerate(runs):
        if now > run.lapses_at:
            cut = cuts.setdefault(at, {})
            for index, expires in enumerate(run.expires):
                if now > expires:
                    cut[index] = True
    if not cuts:
        return runs
    kept: List[_Run] = []
    for at, run in enumerate(runs):
        cut = cuts.get(at)
        if cut is None:
            kept.append(run)
            continue
        lo = 0
        for index in sorted(cut):
            if index > lo:
                kept.append(run.part(lo, index))
            lo = index + 1 if cut[index] else index
        if lo < len(run.ids):
            kept.append(run.part(lo, len(run.ids)))
    return kept


def _place(entries: SnapshotJobs, notes: List[object], run: _Run) -> int:
    """Add ``run``'s splice to ``entries``, coalesced with the splice before
    it when their bytes are adjacent in the old snapshot too; returns the
    bytes it adds to the snapshot."""
    splice = run.splice()
    if entries and type(entries[-1]) is Splice:
        previous = entries[-1]
        if previous.offset + previous.length + 1 == splice.offset:
            entries[-1] = Splice(previous.offset, splice.offset + splice.length - previous.offset)
            notes[-1].append(run)
            return splice.length + 1  # the comma between them too
    entries.append(splice)
    notes.append([run])
    return splice.length


class _Plan(NamedTuple):
    """A checkpoint's ``jobs`` entries and what ``PersistenceManager._adopt``
    needs to index them once written."""

    entries: SnapshotJobs
    #: Per entry: the runs a splice carries, ``(job id, retention end)`` of
    #: a newly settled record, or ``None`` for a live one.
    notes: List[object]
    live: List[int]  # ids of the jobs written as live
    encoded: int  # records encoded by this checkpoint
    reused: int  # records spliced from the previous snapshot
    spliced_bytes: int
