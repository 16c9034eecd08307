"""The one append log under both journals: a kill -9 at every write.

``repro._appendlog.AppendLog`` is the file discipline of the server journal
(``FileBackend``) and the agent outbox (``Outbox``).  Its matrix: for each
sync cadence, each write offset and each crash mode, a reopened log reads
exactly the durable prefix — every line written for a ``kill -9``, every
line synced for a power loss — its next append lands on a fresh line, and
its size count is the file's size.
"""

import json
import os

import pytest

from repro._appendlog import AppendLog
from repro.agent.outbox import Outbox
from repro.chaos.faults import CRASH_MODES, SimulatedCrash

LINES = [json.dumps({"n": n, "pad": "x" * (7 * n)}, sort_keys=True) for n in range(5)]


def durable_prefix(at_write, mode, sync_every):
    if mode == "power-loss":
        return LINES[: at_write // sync_every * sync_every]
    return LINES[: at_write + (mode == "after")]


def on_disk(path):
    """The file's bytes; a crash before the first write leaves no file."""
    return path.read_bytes() if path.exists() else b""


@pytest.mark.parametrize("sync_every", [1, 32])
@pytest.mark.parametrize("at_write", range(len(LINES)))
@pytest.mark.parametrize("mode", CRASH_MODES)
def test_a_reopened_log_is_its_durable_prefix(tmp_path, sync_every, at_write, mode):
    path = tmp_path / "log.jsonl"
    log = AppendLog(path)
    log.crash_plan.arm(at_write, mode)
    with pytest.raises(SimulatedCrash):
        for number, line in enumerate(LINES, 1):
            log.append(line, "record")
            if number % sync_every == 0:
                log.sync()
    crashed = on_disk(path)
    assert log.size_bytes == len(crashed)
    assert crashed.endswith(b"\n") != (mode == "torn") or crashed == b""

    reopened = AppendLog(path)
    durable = durable_prefix(at_write, mode, sync_every)
    assert list(reopened.lines()) == durable
    assert reopened.torn_tails_dropped == (mode == "torn")
    assert reopened.size_bytes == reopened.synced_size == len(crashed)
    assert on_disk(path) == crashed  # reading wrote nothing

    reopened.append("next")
    assert list(reopened.lines()) == durable + ["next"]
    assert path.read_text(encoding="utf-8") == "".join(
        line + "\n" for line in durable + ["next"]
    )
    assert reopened.size_bytes == os.path.getsize(path)
    reopened.close()


def test_a_log_fsyncs_only_when_its_owner_asks(tmp_path, monkeypatch):
    synced = []
    monkeypatch.setattr(os, "fsync", synced.append)
    log = AppendLog(tmp_path / "log.jsonl")
    for line in LINES:
        log.append(line)
    assert synced == [] and log.fsyncs == 0 and log.synced_size == 0
    log.sync()
    assert len(synced) == log.fsyncs == 1
    assert log.synced_size == log.size_bytes
    log.sync()
    log.close()
    assert log.fsyncs == 1  # nothing left to sync


def test_truncate_empties_the_file_and_appends_go_on(tmp_path):
    path = tmp_path / "log.jsonl"
    log = AppendLog(path)
    log.append(LINES[0])
    log.truncate()
    assert path.read_bytes() == b"" and log.size_bytes == log.synced_size == 0
    log.append(LINES[1])
    assert list(AppendLog(path).lines()) == [LINES[1]]
    assert log.size_bytes == os.path.getsize(path)


def test_a_reader_takes_no_handle_and_creates_nothing(tmp_path):
    path = tmp_path / "never-written.jsonl"
    log = AppendLog(path)
    assert list(log.lines()) == [] and log.size_bytes == 0
    assert not path.exists()
    log.open()  # the owner's open creates it
    assert path.exists() and path.read_bytes() == b""


def test_open_fails_up_front_where_the_file_cannot_be(tmp_path):
    with pytest.raises(OSError):
        AppendLog(tmp_path / "no-such-dir" / "log.jsonl").open()


def test_a_torn_tail_longer_than_a_read_is_healed_whole(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(LINES[0] + "\n" + "y" * 10_000, encoding="utf-8")
    log = AppendLog(path)
    log.append(LINES[1])
    assert path.read_text(encoding="utf-8") == LINES[0] + "\n" + LINES[1] + "\n"
    path.write_text("z" * 10_000, encoding="utf-8")  # torn with no line before it
    log = AppendLog(path)
    log.append(LINES[2])
    assert path.read_text(encoding="utf-8") == LINES[2] + "\n"


def test_an_outbox_an_older_build_healed_still_opens(tmp_path):
    """Older builds terminated a torn fragment instead of truncating it: the
    outbox skips such a line, where the server journal would refuse it."""
    claim = {"kind": "claim", "lease_id": "lease-1", "job_id": 7}
    result = {"kind": "result", "lease_id": "lease-1", "status": "completed"}
    path = tmp_path / "o.jsonl"
    path.write_text(
        json.dumps(claim, sort_keys=True) + "\n"
        + '{"kind": "phase", "lea\n'
        + json.dumps(result, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    outbox = Outbox(str(path))
    assert outbox.records() == [claim, result]
    assert outbox.pending() == ["lease-1"]
    assert outbox.size_bytes == os.path.getsize(path)
