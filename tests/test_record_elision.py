"""A record says what the job chose: the one elision rule, pinned.

Every per-job record the access server persists (``job.submitted``'s job,
``job.finished``, a snapshot's ``jobs`` entry) writes a key only when its
value differs from the default of the dataclass field it round-trips to.
These tests hold the rule from both sides: what the writers leave out, and
that every reader — recovery and the analytics normaliser — reads an absent
key as that default.  The defaults are therefore *part of the on-disk
format*; they are spelled out here as literals on purpose, so changing one
in ``jobs.py`` (which would silently change what every elided record
already on disk means) fails a test.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accessserver.jobs import Job, JobConstraints, JobSpec, JobStatus
from repro.accessserver.persistence import codec, recovery
from repro.accessserver.persistence import (
    CONSTRAINT_DEFAULTS,
    JOB_DEFAULTS,
    SPEC_DEFAULTS,
    FileBackend,
    InMemoryBackend,
    PersistenceError,
    materialize_job,
    recover_into,
    serialize_job,
)
from repro.accessserver.payloads import noop_payload, unregister_payload
from repro.analytics.records import _job_submitted_data
from repro.core.platform import build_default_platform

FIXTURE = Path(__file__).parent / "data" / "state_format1_full"

# -- format 1's defaults, as literals -----------------------------------------

FORMAT1_CONSTRAINT_DEFAULTS = {
    "vantage_point": None,
    "device_serial": None,
    "connectivity": None,
    "require_low_controller_cpu": False,
    "max_controller_cpu_percent": 50.0,
    "device_count": 1,
    "connector": None,
}
FORMAT1_SPEC_DEFAULTS = {
    "description": "",
    "priority": 0.0,
    "timeout_s": 3600.0,
    "is_pipeline_change": False,
    "log_retention_days": 7.0,
    "execution": "push",
}
FORMAT1_JOB_DEFAULTS = {
    "started_at": None,
    "finished_at": None,
    "assigned_vantage_point": None,
    "assigned_device": None,
    "result": None,
    "error": None,
    "log_lines": [],
    "queue_seq": None,
}
IDENTITY_KEYS = {"job_id", "spec", "status", "submitted_at"}
SPEC_IDENTITY_KEYS = {"name", "owner", "payload"}


def elided(full: dict) -> dict:
    """The elided form of a spelled-out format-1 job record (test oracle)."""

    def drop(record, defaults):
        return {k: v for k, v in record.items() if k not in defaults or v != defaults[k]}

    spec = drop(full["spec"], FORMAT1_SPEC_DEFAULTS)
    spec["constraints"] = drop(spec.get("constraints", {}), FORMAT1_CONSTRAINT_DEFAULTS)
    if not spec["constraints"]:
        del spec["constraints"]
    return {**drop(full, FORMAT1_JOB_DEFAULTS), "spec": spec}


def through_json(record: dict) -> dict:
    return json.loads(codec._encode(record))


def test_the_defaults_on_disk_are_the_dataclass_defaults():
    assert CONSTRAINT_DEFAULTS == FORMAT1_CONSTRAINT_DEFAULTS
    assert SPEC_DEFAULTS == FORMAT1_SPEC_DEFAULTS
    state = {k: v for k, v in FORMAT1_JOB_DEFAULTS.items() if k not in ("log_lines", "queue_seq")}
    assert {name: JOB_DEFAULTS[name] for name in state} == state
    assert JOB_DEFAULTS["status"] is JobStatus.QUEUED and JOB_DEFAULTS["submitted_at"] == 0.0
    assert codec.FORMAT_VERSION == 1


# -- (i) what the writers leave out -------------------------------------------


def test_an_all_default_job_serialises_to_its_identity():
    job = Job(spec=JobSpec(name="n", owner="o", run=noop_payload), job_id=41)
    record = serialize_job(job)
    assert record == {
        "job_id": 41,
        "spec": {"name": "n", "owner": "o", "payload": "noop"},
        "status": "queued",
        "submitted_at": 0.0,
    }
    assert codec._encode(record) == (
        '{"job_id":41,"spec":{"name":"n","owner":"o","payload":"noop"},'
        '"status":"queued","submitted_at":0.0}'
    )
    assert serialize_job(job, queue_seq=3) == {**record, "queue_seq": 3}


def test_a_settled_noop_job_adds_only_where_and_when_it_ran():
    backend = InMemoryBackend()
    platform = build_default_platform(seed=7, browsers=("chrome",), persistence=False)
    platform.access_server.enable_persistence(backend, snapshot_every=10**9)
    view = platform.client().submit_job("n", "noop")
    platform.run_queue()
    job = platform.access_server.scheduler.job(view.job_id)
    record = serialize_job(job)
    assert set(record) == IDENTITY_KEYS | {
        "started_at",
        "finished_at",
        "assigned_vantage_point",
        "assigned_device",
    }
    assert set(record["spec"]) == SPEC_IDENTITY_KEYS

    by_kind = {rec["kind"]: rec["data"] for rec in backend.read_journal()}
    assert by_kind["job.submitted"] == {
        "job": {
            "job_id": job.job_id,
            "spec": {"name": "n", "owner": "experimenter", "payload": "noop"},
            "status": "queued",
            "submitted_at": job.submitted_at,
        }
    }
    assert by_kind["job.finished"] == {
        "job_id": job.job_id,
        "status": "completed",
        "finished_at": job.finished_at,
    }


def test_a_finished_record_that_omits_a_key_means_its_default_not_unchanged():
    state = recovery._ReplayState()
    row = serialize_job(Job(spec=JobSpec(name="n", owner="o", run=noop_payload), job_id=9))
    state.apply({"seq": 1, "kind": "job.submitted", "data": {"job": {**row, "log_lines": ["old"]}}})
    state.apply(
        {"seq": 2, "kind": "job.finished", "data": {"job_id": 9, "status": "completed", "finished_at": 2.0}}
    )
    job, _ = materialize_job(state.jobs[9])
    assert list(job.log_lines) == [] and job.result is None and job.error is None
    assert (job.status, job.finished_at) == (JobStatus.COMPLETED, 2.0)


# -- (ii) round trip ----------------------------------------------------------


def _chosen_or_default(default, chosen):
    return st.one_of(st.just(default), chosen)


_times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
_names = st.text(min_size=1, max_size=12)
_results = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.floats(allow_nan=False, allow_infinity=False), max_size=3),
)

_constraints = st.builds(
    JobConstraints,
    vantage_point=_chosen_or_default(None, _names),
    device_serial=_chosen_or_default(None, _names),
    connectivity=_chosen_or_default(None, st.sampled_from(["wifi", "cellular"])),
    require_low_controller_cpu=st.booleans(),
    max_controller_cpu_percent=_chosen_or_default(50.0, st.floats(0.0, 100.0)),
    device_count=_chosen_or_default(1, st.integers(2, 8)),
    connector=_chosen_or_default(None, st.sampled_from(["fake", "multi"])),
)
_specs = st.builds(
    JobSpec,
    name=_names,
    owner=_names,
    run=st.just(noop_payload),
    description=_chosen_or_default("", st.text(max_size=20)),
    constraints=_constraints,
    priority=_chosen_or_default(0.0, st.floats(-10.0, 10.0)),
    timeout_s=_chosen_or_default(3600.0, st.floats(1.0, 1e6)),
    is_pipeline_change=st.booleans(),
    log_retention_days=_chosen_or_default(7.0, st.floats(0.1, 365.0)),
    execution=st.sampled_from(["push", "agent"]),
)
# RUNNING is left out: it materialises as QUEUED by design (the execution
# died with the process), which tests/test_accessserver_persistence.py covers.
_jobs = st.builds(
    Job,
    spec=_specs,
    job_id=st.integers(1, 10**6),
    status=st.sampled_from([s for s in JobStatus if s is not JobStatus.RUNNING]),
    submitted_at=_times,
    started_at=_chosen_or_default(None, _times),
    finished_at=_chosen_or_default(None, _times),
    assigned_vantage_point=_chosen_or_default(None, _names),
    assigned_device=_chosen_or_default(None, _names),
    result=_results,
    error=_chosen_or_default(None, st.text(max_size=20)),
)


@settings(max_examples=200, deadline=None)
@given(job=_jobs, lines=st.lists(st.text(max_size=10), max_size=3))
def test_any_subset_of_chosen_fields_round_trips_field_for_field(job, lines):
    for line in lines:
        job.log(line)
    record = through_json(serialize_job(job))
    restored, was_in_flight = materialize_job(record)
    assert not was_in_flight
    assert restored == job  # dataclass equality: every field, spec and constraints included
    # ... and nothing at its default was written.
    spec = record["spec"]
    for holder, defaults in (
        (record, FORMAT1_JOB_DEFAULTS),
        (spec, {**FORMAT1_SPEC_DEFAULTS, "constraints": {}}),
        (spec.get("constraints", {}), FORMAT1_CONSTRAINT_DEFAULTS),
    ):
        assert all(holder[key] != default for key, default in defaults.items() if key in holder)


# -- (iii) every defaulted field has a tolerant reader ------------------------

#: A non-default value for every defaulted field of the three dataclasses.  A
#: field added later must be listed here, and then has to survive the round
#: trip below with and without its key.
NON_DEFAULT = {
    JobConstraints: {
        "vantage_point": "node7",
        "device_serial": "node7-dev01",
        "connectivity": "cellular",
        "require_low_controller_cpu": True,
        "max_controller_cpu_percent": 12.5,
        "device_count": 3,
        "connector": "multi",
    },
    JobSpec: {
        "description": "d",
        "priority": 2.0,
        "timeout_s": 99.0,
        "is_pipeline_change": True,
        "log_retention_days": 1.0,
        "execution": "agent",
    },
    Job: {
        "status": JobStatus.FAILED,
        "submitted_at": 5.0,
        "started_at": 6.0,
        "finished_at": 7.0,
        "assigned_vantage_point": "node7",
        "assigned_device": "node7-dev01",
        "result": {"x": 1},
        "error": "boom",
        "_log_lines": ["a line"],
    },
}
#: Fields a record never carries (rebuilt on first use after recovery).
NOT_PERSISTED = {(Job, "_workspace")}


def _defaulted_fields():
    for cls in (JobConstraints, JobSpec, Job):
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING and (cls, f.name) not in NOT_PERSISTED:
                yield pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")


def _job_with_everything_chosen() -> Job:
    constraints = JobConstraints(**NON_DEFAULT[JobConstraints])
    spec = JobSpec(name="n", owner="o", run=noop_payload, constraints=constraints, **NON_DEFAULT[JobSpec])
    return Job(spec=spec, job_id=77, **NON_DEFAULT[Job])


def _holder(record: dict, cls) -> dict:
    return {Job: record, JobSpec: record["spec"], JobConstraints: record["spec"]["constraints"]}[cls]


def test_every_chosen_field_is_written():
    record = through_json(serialize_job(_job_with_everything_chosen(), queue_seq=4))
    assert set(record) == IDENTITY_KEYS | set(FORMAT1_JOB_DEFAULTS)
    assert set(record["spec"]) == SPEC_IDENTITY_KEYS | set(SPEC_DEFAULTS) | {"constraints"}
    assert set(record["spec"]["constraints"]) == set(CONSTRAINT_DEFAULTS)
    assert materialize_job(record)[0] == _job_with_everything_chosen()


@pytest.mark.parametrize("cls, name", _defaulted_fields())
def test_a_reader_takes_an_absent_key_as_the_fields_default(cls, name):
    job = _job_with_everything_chosen()
    record = through_json(serialize_job(job))
    del _holder(record, cls)[name.lstrip("_")]
    restored, _ = materialize_job(record)

    default = next(f.default for f in dataclasses.fields(cls) if f.name == name)
    if cls is JobConstraints:  # frozen: derive, don't mutate
        job.spec.constraints = dataclasses.replace(job.spec.constraints, **{name: default})
    else:
        setattr({Job: job, JobSpec: job.spec}[cls], name, default)
    assert restored == job

    # The analytics normaliser reads the same row to the same values.
    explicit = through_json(serialize_job(job))
    key = name.lstrip("_")
    if cls is not JobConstraints and key != "log_lines":
        _holder(explicit, cls)[key] = getattr(default, "value", default)
    assert _job_submitted_data(record) == _job_submitted_data(explicit)


def test_a_record_without_constraints_means_default_constraints():
    record = through_json(serialize_job(_job_with_everything_chosen()))
    del record["spec"]["constraints"]
    assert materialize_job(record)[0].spec.constraints == JobConstraints()


# -- (iv) a state directory the parent commit wrote ---------------------------


def _load_generator():
    spec = importlib.util.spec_from_file_location("state_format1_full", FIXTURE / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fixture_payloads():
    generator = _load_generator()
    generator.register_fixture_payloads()
    yield generator
    unregister_payload("fixture-measure")
    unregister_payload("fixture-fail")


def test_the_fixture_spells_every_key_out():
    snapshot = json.loads((FIXTURE / "snapshot.json").read_text())
    journal = [json.loads(line) for line in (FIXTURE / "journal.jsonl").read_text().splitlines()]
    rows = snapshot["jobs"] + [r["data"]["job"] for r in journal if r["kind"] == "job.submitted"]
    assert len(rows) == 15
    for row in rows:
        assert set(row) == IDENTITY_KEYS | set(FORMAT1_JOB_DEFAULTS)
        assert set(FORMAT1_SPEC_DEFAULTS) - {"execution"} <= set(row["spec"])
    statuses = {row["status"] for row in snapshot["jobs"]}
    assert statuses == {"completed", "failed", "cancelled", "pending_approval", "queued"}
    assert {r["kind"] for r in journal} >= {
        "job.submitted", "job.assigned", "job.finished", "job.approved", "job.cancelled",
        "reservation.created", "reservation.cancelled", "credit.txn", "agent.registered",
    }


def test_a_parent_written_state_dir_recovers_and_checkpoints_elided(tmp_path, fixture_payloads):
    for name in ("snapshot.json", "journal.jsonl"):
        shutil.copy(FIXTURE / name, tmp_path / name)
    expected = json.loads((FIXTURE / "expected.json").read_text())
    observed = json.loads(json.dumps(fixture_payloads.observe(tmp_path)))

    full_rows = expected.pop("snapshot_jobs")
    rows = observed.pop("snapshot_jobs")
    assert observed == expected  # job.list, queue order, credits, analytics report, ...
    assert observed["requeued_in_flight"] == 2 and observed["pending_approval"] == [5]
    # The first checkpoint under this build is the elided form of the same state.
    assert rows == [elided(row) for row in full_rows]
    assert len(json.dumps(rows)) < 0.5 * len(json.dumps(full_rows))


def _top_level_values(text: str) -> dict:
    """The raw text of each top-level value of a compact JSON object."""
    decoder = json.JSONDecoder()
    values, at = {}, 1
    while text[at] != "}":
        key, at = decoder.raw_decode(text, at)
        _, end = decoder.raw_decode(text, at + 1)  # past the ':'
        values[key] = text[at + 1 : end]
        at = end + (text[end] == ",")
    return values


def _non_job_lines(journal: Path) -> list:
    return [
        line
        for line in journal.read_text().splitlines()
        if not json.loads(line)["kind"].startswith("job.")
    ]


def test_the_records_beside_the_jobs_are_the_fixtures_bytes(tmp_path, fixture_payloads):
    """Elision changed only the job records, so everything else the fixture's
    session writes today is the fixture byte for byte.  Reservations and
    credit transactions are written as ``asdict`` of their dataclass: this
    pins their key order, which parsed-JSON comparisons cannot see."""
    fixture_payloads.write_state(tmp_path)
    assert _non_job_lines(tmp_path / "journal.jsonl") == _non_job_lines(FIXTURE / "journal.jsonl")
    written = _top_level_values((tmp_path / "snapshot.json").read_text())
    committed = _top_level_values((FIXTURE / "snapshot.json").read_text())
    for key in ("users", "vantage_points", "reservations", "credit"):
        assert written[key] == committed[key], key


# -- (v) the byte budget ------------------------------------------------------


def test_a_settled_noop_job_stays_within_its_byte_budget(tmp_path):
    jobs = 100
    platform = build_default_platform(seed=7, browsers=("chrome",), state_dir=str(tmp_path))
    backend = platform.access_server.persistence.backend
    empty_snapshot = backend.snapshot_path.stat().st_size
    client = platform.client()
    for index in range(jobs):
        client.submit_job(f"job-{index}", "noop")
    platform.run_queue()
    backend.sync()
    journal_per_job = backend.journal_path.stat().st_size / jobs
    platform.access_server.persistence.checkpoint()
    snapshot_per_job = (backend.snapshot_path.stat().st_size - empty_snapshot) / jobs
    assert backend.appended == 3 * jobs  # submitted, assigned, finished
    assert journal_per_job <= 480, f"{journal_per_job:.0f} B of journal per job"
    assert snapshot_per_job <= 270, f"{snapshot_per_job:.0f} B of snapshot per job"


# -- a foreign key in a persisted record --------------------------------------


def _state_with_a_queued_job(state_dir: Path) -> None:
    platform = build_default_platform(seed=7, browsers=("chrome",), state_dir=str(state_dir))
    platform.client().submit_job("pinned", "noop", vantage_point="nowhere")
    platform.access_server.persistence.backend.sync()


def _recover(state_dir: Path):
    fresh = build_default_platform(seed=7, browsers=("chrome",), persistence=False)
    return recover_into(fresh.access_server, FileBackend(state_dir))


def test_a_foreign_constraint_in_the_journal_is_a_persistence_error(tmp_path):
    _state_with_a_queued_job(tmp_path)
    journal = tmp_path / "journal.jsonl"
    assert '"constraints":{"vantage_point":"nowhere"}' in journal.read_text()
    journal.write_text(
        journal.read_text().replace('"vantage_point":"nowhere"', '"vantage_point":"nowhere","gpu":"a100"')
    )
    with pytest.raises(PersistenceError) as error:
        _recover(tmp_path)
    message = str(error.value)
    assert "'gpu'" in message and "journal.jsonl" in message
    job_id = json.loads(journal.read_text().splitlines()[-1])["data"]["job"]["job_id"]
    assert f"job {job_id}" in message


def test_a_foreign_constraint_in_the_snapshot_is_a_persistence_error(tmp_path):
    _state_with_a_queued_job(tmp_path)
    fresh = build_default_platform(seed=7, browsers=("chrome",), state_dir=str(tmp_path))
    fresh.access_server.persistence.close()  # folded into the snapshot by the boot checkpoint
    snapshot = tmp_path / "snapshot.json"
    assert '"vantage_point":"nowhere"' in snapshot.read_text()
    snapshot.write_text(
        snapshot.read_text().replace('"vantage_point":"nowhere"', '"vantage_point":"nowhere","gpu":"a100"')
    )
    with pytest.raises(PersistenceError) as error:
        _recover(tmp_path)
    assert "'gpu'" in str(error.value) and "snapshot.json" in str(error.value)


# -- _json_safe ----------------------------------------------------------------


def test_json_safe_probes_only_containers(monkeypatch):
    probes = []
    real = json.dumps
    monkeypatch.setattr(codec.json, "dumps", lambda value: probes.append(value) or real(value))
    for scalar in (None, True, 3, 2.5, "text"):
        assert codec._json_safe(scalar) is scalar
    assert probes == []
    assert codec._json_safe({"a": [1, 2]}) == {"a": [1, 2]}
    assert probes == [{"a": [1, 2]}]
    assert codec._json_safe({"a": object}) == {"__repr__": repr({"a": object})}
    assert codec._json_safe(object)["__repr__"] == repr(object)
