"""Checkpoints splice settled records from the snapshot they replace.

A checkpoint encodes the jobs that can have changed — those it wrote as
live last time and those journaled since — and copies every other settled
record byte for byte out of the previous snapshot, by the offsets the
manager's splice index keeps.  The file must still be exactly what a
cache-free encode writes; the index must point at each job's own record;
a crash anywhere around a spliced write must recover to the same state; and
a checkpoint that fails must fail nobody's request.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import stat
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_accessserver_persistence import CheckedBackend, fresh_encode
from test_host_loop import FakeGateway, FakeTime

from repro import _atomicfile, cli
from repro.accessserver import persistence
from repro.accessserver.jobs import JobConstraints, JobSpec, JobStatus
from repro.accessserver.payloads import noop_payload, register_payload, unregister_payload
from repro.accessserver.persistence import FileBackend, InMemoryBackend
from repro.accessserver.persistence import manager as persistence_manager
from repro.api import ApiError
from repro.api.errors import InternalApiError
from repro.chaos.faults import SimulatedCrash
from repro.core.platform import build_default_platform


@register_payload("splice-chatty")
def chatty_payload(ctx):
    ctx.log("working")
    return {"device": ctx.device_serial}


@register_payload("splice-fails")
def failing_payload(ctx):
    raise RuntimeError("no battery")


PUSH_PAYLOADS = ("noop", "splice-chatty", "splice-fails")
SHORT_RETENTION_DAYS = 1.0


def counter(server, name, source=None) -> float:
    for row in server.obs.registry.snapshot()["counters"]:
        if row["name"] == name and row["labels"].get("source") == source:
            return row["value"]
    return 0.0


def assert_index_points_at_own_records(manager) -> None:
    snapshot = manager.backend.read_snapshot()
    written = {job["job_id"]: job for job in snapshot["jobs"]}
    records = manager.settled_records()
    assert list(records) == manager.settled_job_ids
    for job_id, text in records.items():
        assert json.loads(text) == written[job_id]
        assert JobStatus(written[job_id]["status"]) in persistence.TERMINAL_STATUSES


class Rig:
    """A durable server driven through the client, recoverable in place."""

    def __init__(self, kind: str, state_dir: str) -> None:
        self.kind = kind
        self.state_dir = state_dir
        self.memory = InMemoryBackend() if kind == "memory" else None
        self.jobs = []
        self.leases = []
        self.checked = 0
        self._boot(recover=False)

    def _boot(self, recover: bool) -> None:
        self.platform = build_default_platform(
            seed=11, browsers=("chrome",), device_count=2, persistence=False
        )
        self.server = server = self.platform.access_server
        inner = self.memory if self.memory is not None else FileBackend(self.state_dir)
        self.backend = CheckedBackend(inner, server)
        self.manager = server.enable_persistence(
            self.backend, recover=recover, snapshot_every=7
        )
        self.client = self.platform.client()
        self.admin = self.platform.client(username="admin")
        if not recover:
            self.client.agent_register("edge-1", connectors=["fake"])

    def apply(self, op) -> None:
        name, arg = op
        try:
            getattr(self, "_" + name)(arg)
        except ApiError:
            pass
        assert_index_points_at_own_records(self.manager)

    def _job(self, index):
        return self.jobs[index % len(self.jobs)] if self.jobs else 0

    def _submit(self, index) -> None:
        view = self.client.submit_job(
            f"push-{len(self.jobs)}",
            PUSH_PAYLOADS[index % len(PUSH_PAYLOADS)],
            log_retention_days=SHORT_RETENTION_DAYS if index % 2 else 7.0,
        )
        self.jobs.append(view.job_id)

    def _submit_agent(self, _arg) -> None:
        view = self.client.submit_job(
            f"pull-{len(self.jobs)}", "noop", execution="agent", connector="fake"
        )
        self.jobs.append(view.job_id)

    def _submit_pipeline(self, index) -> None:
        view = self.client.submit_job(
            f"pipeline-{len(self.jobs)}", "noop", is_pipeline_change=True,
            log_retention_days=SHORT_RETENTION_DAYS if index % 2 else 7.0,
        )
        self.jobs.append(view.job_id)

    def _submit_temporary(self, _arg) -> None:
        register_payload("splice-temporary", lambda ctx: "temporary")
        view = self.client.submit_job(f"temp-{len(self.jobs)}", "splice-temporary")
        self.jobs.append(view.job_id)

    def _unregister(self, _arg) -> None:
        unregister_payload("splice-temporary")

    def _run(self, max_jobs) -> None:
        self.server.run_pending_jobs(max_jobs=max_jobs)

    def _claim(self, ttl_s) -> None:
        offers = self.client.agent_poll("edge-1").offers
        if offers:
            lease = self.client.agent_claim("edge-1", offers[0].job_id, ttl_s=ttl_s)
            self.leases.append(lease.lease_id)

    def _report(self, index) -> None:
        if self.leases:
            lease_id = self.leases[index % len(self.leases)]
            self.client.agent_report(lease_id, "edge-1", "completed", result={"n": index})

    def _cancel(self, index) -> None:
        self.client.cancel_job(self._job(index))

    def _approve(self, index) -> None:
        self.admin.approve_job(self._job(index))

    def _reject(self, index) -> None:
        self.admin.reject_job(self._job(index), reason="not this week")

    def _advance(self, seconds) -> None:
        self.platform.context.clock.advance(float(seconds))
        self.server.agents.expire_leases()

    def _checkpoint(self, _arg) -> None:
        self.manager.checkpoint()

    def _recover(self, _arg) -> None:
        self.checked += self.backend.checked
        self.manager.close()
        self.leases = []
        self._boot(recover=True)


OPS = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 5)),
    st.tuples(st.just("submit_agent"), st.just(0)),
    st.tuples(st.just("submit_pipeline"), st.integers(0, 1)),
    st.tuples(st.just("submit_temporary"), st.just(0)),
    st.tuples(st.just("unregister"), st.just(0)),
    st.tuples(st.just("run"), st.integers(1, 6)),
    st.tuples(st.just("claim"), st.sampled_from([5, 30])),
    st.tuples(st.just("report"), st.integers(0, 30)),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("approve"), st.integers(0, 30)),
    st.tuples(st.just("reject"), st.integers(0, 30)),
    st.tuples(st.just("advance"), st.sampled_from([10, 40, 1.5 * 86_400])),
    st.tuples(st.just("checkpoint"), st.just(0)),
    st.tuples(st.just("recover"), st.just(0)),
)

#: Settled records on both sides of a long-running agent job, short and
#: long retention interleaved, then the agent job settles after higher ids
#: and the short-retention records lapse out of the middle of runs.
INTERLEAVED = [
    ("submit", 0), ("submit", 1), ("submit_agent", 0), ("claim", 600),
    ("submit", 2), ("submit", 3), ("submit", 4), ("submit", 5), ("run", 10),
    ("checkpoint", 0), ("submit", 1), ("run", 1), ("checkpoint", 0),
    ("report", 0), ("checkpoint", 0),
    ("advance", 1.5 * 86_400), ("checkpoint", 0), ("submit", 0), ("run", 1),
    ("checkpoint", 0), ("recover", 0), ("checkpoint", 0),
]


class TestDifferential:
    @pytest.mark.parametrize("kind", ["file", "memory"])
    def test_interleaved_settles_lapses_and_a_late_long_job(self, kind, tmp_path):
        rig = Rig(kind, str(tmp_path))
        for op in INTERLEAVED:
            rig.apply(op)
        assert rig.checked + rig.backend.checked >= 6
        statuses = {job.status for job in rig.server.scheduler.jobs()}
        assert statuses == {JobStatus.COMPLETED, JobStatus.FAILED}

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["file", "memory"]), ops=st.lists(OPS, max_size=40))
    def test_any_history_writes_a_cache_free_encode(self, kind, ops):
        with tempfile.TemporaryDirectory() as state_dir:
            rig = Rig(kind, state_dir)
            for op in INTERLEAVED[:9] + ops:
                rig.apply(op)
            rig.apply(("checkpoint", 0))
            unregister_payload("splice-temporary")

    def test_a_steady_checkpoint_splices_and_says_so(self, tmp_path):
        rig = Rig("file", str(tmp_path))
        for op in INTERLEAVED[:10]:
            rig.apply(op)
        server = rig.server

        def written():
            return {
                (name, source): counter(server, name, source)
                for name in ("journal_snapshot_bytes_total", "journal_snapshot_jobs_total")
                for source in ("encoded", "spliced", "reused")
            }

        before = written()
        rig.apply(("checkpoint", 0))
        delta = {key: value - before[key] for key, value in written().items()}
        size = os.path.getsize(tmp_path / "snapshot.json")
        assert delta[("journal_snapshot_bytes_total", "spliced")] > size / 2
        assert (
            delta[("journal_snapshot_bytes_total", "spliced")]
            + delta[("journal_snapshot_bytes_total", "encoded")]
        ) == size
        assert delta[("journal_snapshot_jobs_total", "reused")] == 6
        assert delta[("journal_snapshot_jobs_total", "encoded")] == 1  # the agent job
        text = server.obs.registry.render_text()
        assert 'journal_snapshot_bytes_total{source="spliced"}' in text


class TestEncodeOnlyWhatChanged:
    def test_a_steady_checkpoint_never_walks_the_job_table(self, monkeypatch):
        platform = build_default_platform(
            seed=11, browsers=("chrome",), device_count=3, persistence=False
        )
        server = platform.access_server
        backend = InMemoryBackend()
        manager = server.enable_persistence(backend, snapshot_every=10**9)

        def submit(count, vantage_point=None):
            for index in range(count):
                server.submit_job(
                    platform.experimenter,
                    JobSpec(
                        name=f"job-{index}", owner="experimenter", run=noop_payload,
                        constraints=JobConstraints(vantage_point=vantage_point),
                    ),
                )

        submit(300)
        while server.run_pending_jobs(max_jobs=1000):
            pass
        submit(7, vantage_point="node99")  # never dispatchable
        manager.checkpoint()
        submit(10)
        assert len(server.run_pending_jobs(max_jobs=100)) == 10
        calls = []
        real = persistence.serialize_job

        def counting(job, queue_seq=None):
            calls.append(job.job_id)
            return real(job, queue_seq=queue_seq)

        def poisoned(*_args, **_kwargs):
            raise AssertionError("a steady checkpoint walked scheduler.jobs()")

        with monkeypatch.context() as patch:
            patch.setattr(persistence_manager, "serialize_job", counting)
            patch.setattr(server.scheduler, "jobs", poisoned)
            manager.checkpoint()
        assert len(calls) == 7 + 10
        assert backend.snapshot == fresh_encode(server)
        assert len(manager.settled_job_ids) == 310


def spliced_state(state_dir):
    """A durable server whose next checkpoint splices: settled records in
    the index, more jobs settled and queued since."""
    platform = build_default_platform(
        seed=11, browsers=("chrome",), device_count=2, persistence=False
    )
    server = platform.access_server
    server.enable_persistence(FileBackend(state_dir), snapshot_every=10**9)
    client = platform.client()
    for index in range(12):
        client.submit_job(f"early-{index}", PUSH_PAYLOADS[index % 3])
    platform.run_queue()
    server.persistence.checkpoint()
    for index in range(5):
        client.submit_job(f"late-{index}", "splice-chatty")
    server.run_pending_jobs(max_jobs=3)
    client.submit_job("stuck", "noop", vantage_point="node99")
    assert server.persistence.settled_job_ids
    return platform


def observe(state_dir) -> str:
    """Recover ``state_dir`` into a fresh server; the snapshot it writes."""
    platform = build_default_platform(
        seed=11, browsers=("chrome",), device_count=2, persistence=False
    )
    platform.access_server.enable_persistence(FileBackend(state_dir))
    platform.access_server.persistence.close()
    return (state_dir / "snapshot.json").read_text(encoding="utf-8")


def _crash_before(real):
    def write(path, chunks, source=None):
        raise SimulatedCrash("kill -9 before the tmp file")

    return write


def _crash_torn(real):
    def write(path, chunks, source=None):
        size = real(path, chunks, source)
        os.truncate(path, size // 2)
        raise SimulatedCrash("kill -9 with the tmp file half written")

    return write


class TestCrashAroundASplicedCheckpoint:
    @pytest.mark.parametrize("point", ["none", "before", "torn", "after-rename"])
    def test_every_crash_point_recovers_to_the_same_state(self, point, tmp_path, monkeypatch):
        state_dir = tmp_path / "state"
        server = spliced_state(state_dir).access_server
        server.persistence.backend.sync()
        shutil.copytree(state_dir, tmp_path / "untouched")
        before = (state_dir / "snapshot.json").read_bytes()
        with monkeypatch.context() as patch:
            if point == "after-rename":
                real_replace = os.replace

                def replace(src, dst):
                    real_replace(src, dst)
                    raise SimulatedCrash("kill -9 after the rename")

                patch.setattr(os, "replace", replace)
            elif point != "none":
                crash = _crash_before if point == "before" else _crash_torn
                patch.setattr(_atomicfile, "write_synced", crash(_atomicfile.write_synced))
            try:
                server.persistence.checkpoint()
            except SimulatedCrash:
                assert point != "none"
        renamed = (state_dir / "snapshot.json").read_bytes() != before
        assert renamed == (point in ("none", "after-rename"))
        assert observe(state_dir) == observe(tmp_path / "untouched")
        assert not (state_dir / "snapshot.json.tmp").exists()


def failing_snapshot_writes(monkeypatch, failures):
    """The next ``failures`` snapshot writes hit a full disk after the tmp
    file was written; returns the list of attempts."""
    attempts = []
    real = _atomicfile.write_synced

    def write(path, chunks, source=None):
        size = real(path, chunks, source)
        attempts.append(path)
        if len(attempts) <= failures:
            raise OSError(errno.ENOSPC, "No space left on device")
        return size

    monkeypatch.setattr(_atomicfile, "write_synced", write)
    return attempts


class TestAFailedCheckpointFailsNoRequest:
    def test_every_submit_answers_ok_and_recovery_sees_every_job(
        self, tmp_path, monkeypatch, caplog
    ):
        platform = build_default_platform(
            seed=11, browsers=("chrome",), device_count=2, persistence=False
        )
        server = platform.access_server
        manager = server.enable_persistence(FileBackend(tmp_path), snapshot_every=5)
        client = platform.client()
        attempts = failing_snapshot_writes(monkeypatch, failures=2)
        with caplog.at_level("ERROR", logger="repro.accessserver.persistence"):
            ids = [client.submit_job(f"job-{index}", "noop").job_id for index in range(16)]
        # Due at 5 records (fails), then a full interval later each time.
        assert len(attempts) == 3
        assert counter(server, "journal_checkpoint_failures_total") == 2
        assert manager.snapshots_written == 2  # attach + the third attempt
        assert "ENOSPC" in caplog.text
        assert not (tmp_path / "snapshot.json.tmp").exists()
        rebuilt = build_default_platform(
            seed=11, browsers=("chrome",), device_count=2, state_dir=str(tmp_path)
        )
        assert sorted(job.job_id for job in rebuilt.access_server.scheduler.jobs()) == ids

    def test_an_explicit_checkpoint_raises_and_the_retry_encodes_everything(
        self, tmp_path, monkeypatch
    ):
        platform = spliced_state(tmp_path)
        server = platform.access_server
        manager = server.persistence
        before = (tmp_path / "snapshot.json").read_bytes()
        with monkeypatch.context() as patch:
            failing_snapshot_writes(patch, failures=1)
            with pytest.raises(OSError):
                manager.checkpoint()
        assert (tmp_path / "snapshot.json").read_bytes() == before
        assert not (tmp_path / "snapshot.json.tmp").exists()
        assert manager.settled_job_ids == []
        encoded = counter(server, "journal_snapshot_jobs_total", "encoded")
        manager.checkpoint()
        assert (tmp_path / "snapshot.json").read_text(encoding="utf-8") == fresh_encode(server)
        retained = len(list(server.scheduler.jobs()))
        assert counter(server, "journal_snapshot_jobs_total", "encoded") - encoded == retained
        assert_index_points_at_own_records(manager)

    def test_a_failure_after_the_rename_leaves_no_stale_offsets(self, tmp_path, monkeypatch):
        # The directory fsync fails once the new snapshot is renamed into
        # place: offsets into the old file must not be spliced out of it.
        platform = spliced_state(tmp_path)
        server = platform.access_server
        manager = server.persistence
        # An idempotency record sits before "jobs": every record moves.
        platform.client().submit_job("keyed", "noop", idempotency_key="key-1")
        before = (tmp_path / "snapshot.json").read_bytes()
        real_fsync = os.fsync

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(errno.EIO, "Input/output error")
            real_fsync(fd)

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", fsync)
            with pytest.raises(OSError):
                manager.checkpoint()
        assert (tmp_path / "snapshot.json").read_bytes() != before  # renamed
        assert counter(server, "journal_checkpoint_failures_total") == 1
        platform.client().submit_job("after", "noop")
        server.run_pending_jobs(max_jobs=10)
        manager.checkpoint()
        assert (tmp_path / "snapshot.json").read_text(encoding="utf-8") == fresh_encode(server)
        assert_index_points_at_own_records(manager)
        manager.checkpoint()  # and the index it adopted splices correctly
        assert (tmp_path / "snapshot.json").read_text(encoding="utf-8") == fresh_encode(server)

    def test_a_failing_journal_fsync_still_fails_its_request(self, tmp_path, monkeypatch):
        platform = build_default_platform(
            seed=11, browsers=("chrome",), device_count=2, persistence=False
        )
        server = platform.access_server
        server.enable_persistence(FileBackend(tmp_path, fsync_every=10**9), snapshot_every=5)
        client = platform.client()
        attempts = failing_snapshot_writes(monkeypatch, failures=0)

        def fsync(_fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "fsync", fsync)
        answered = 0
        with pytest.raises(InternalApiError):
            for index in range(10):
                client.submit_job(f"job-{index}", "noop")
                answered += 1
        assert answered < 5  # the request whose record made a checkpoint due
        assert attempts == []  # the snapshot was never started
        assert counter(server, "journal_checkpoint_failures_total") == 0

    def test_a_pass_whose_checkpoint_fails_settles_its_wave_and_the_loop_serves_on(
        self, tmp_path, monkeypatch
    ):
        platform = build_default_platform(
            seed=11, browsers=("chrome",), device_count=2, persistence=False
        )
        server = platform.access_server
        server.enable_persistence(FileBackend(tmp_path), snapshot_every=40)
        client = platform.client()
        ids = [client.submit_job(f"job-{index}", "noop").job_id for index in range(30)]
        attempts = failing_snapshot_writes(monkeypatch, failures=10**9)
        clock = FakeTime(calls=[])
        monkeypatch.setattr(cli, "time", clock)
        gateway = FakeGateway()

        served = cli._host_loop(gateway, "test", lambda: (platform,), 0.5)

        assert served == 30 and gateway.stopped
        assert len(clock.sleeps) >= 9  # the loop kept ticking to its deadline
        assert attempts and counter(server, "journal_checkpoint_failures_total") == len(attempts)
        for job_id in ids:
            assert server.scheduler.job(job_id).status is JobStatus.COMPLETED
            assert not server.scheduler.is_executing(job_id)
        monkeypatch.undo()  # the disk has room again
        server.persistence.checkpoint()
        rebuilt = build_default_platform(
            seed=11, browsers=("chrome",), device_count=2, state_dir=str(tmp_path)
        )
        statuses = {job.job_id: job.status for job in rebuilt.access_server.scheduler.jobs()}
        assert statuses == {job_id: JobStatus.COMPLETED for job_id in ids}


class TestKernelCopy:
    @pytest.mark.parametrize("kernel", ["copy_file_range", "pread"])
    def test_ranges_of_the_replaced_file_are_copied(self, kernel, tmp_path, monkeypatch):
        if kernel == "pread":
            monkeypatch.delattr(os, "copy_file_range", raising=False)
        path = tmp_path / "state.json"
        path.write_text("0123456789" * 10_000, encoding="utf-8")
        size = _atomicfile.replace_file(path, ["<", (5, 20), ",", (99_990, 10), ">"])
        assert path.read_text(encoding="utf-8") == "<56789012345678901234,0123456789>"
        assert size == 33

    def test_an_unsupported_kernel_copy_falls_back(self, tmp_path, monkeypatch):
        def unsupported(*_args):
            raise OSError(errno.EXDEV, "cross-device")

        monkeypatch.setattr(os, "copy_file_range", unsupported, raising=False)
        path = tmp_path / "state.json"
        path.write_text("abcdef", encoding="utf-8")
        _atomicfile.replace_file(path, [(2, 3), "!"])
        assert path.read_text(encoding="utf-8") == "cde!"
