"""What a persisted record says, written once: the package's leaf.

The format version, the elide-at-default per-job codec and the shapes of
the other records the server journals and a snapshot holds; readers take
them back through the same tables.  Imports no sibling module.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from operator import attrgetter
from typing import Callable, Dict, Optional, Tuple

from repro.accessserver.jobs import (
    Job,
    JobConstraints,
    JobSpec,
    JobStatus,
    job_constraints,
)
from repro.accessserver.payloads import get_payload, payload_name

FORMAT_VERSION = 1

#: The keywords of ``Accounts.enable_credit_system``, in the order a
#: ``credit.enabled`` record and a snapshot's ``credit`` value spell them.
CREDIT_CONFIG = (
    "contribution_multiplier",
    "initial_grant_device_hours",
    "minimum_reservation_hours",
)


class PersistenceError(RuntimeError):
    """Raised for journal/snapshot corruption or misuse of the subsystem."""


def resolve_payload(name: Optional[str]) -> Callable:
    """Look up a registered payload; unknown names get a failing stand-in."""
    payload = get_payload(name)
    if payload is not None:
        return payload

    def _unrecoverable(ctx):
        raise PersistenceError(
            f"job payload {name!r} was not registered with register_payload() "
            "before recovery; re-register the payload catalogue at boot"
        )

    return _unrecoverable


#: Compact JSON text of one value — what every journal line and every piece
#: of a snapshot is made of.  ASCII (``ensure_ascii``), so its length is
#: its size in bytes.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _json_safe(value: object) -> object:
    """Pass JSON-serialisable values through; degrade the rest to a repr.

    ``None`` and scalars are what nearly every job returns and need no
    probe; only a container is test-encoded, because only a container can
    hide something the encoder would choke on.
    """
    if value is None or isinstance(value, (str, int, float)):
        return value
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return {"__repr__": repr(value)}


# -- the per-job record codec -------------------------------------------------
#
# One rule for every per-job record (``job.submitted``'s job, ``job.finished``,
# a snapshot's ``jobs`` entry): a field is written only when it differs from
# the default its dataclass declares.  What has no default (``job_id``,
# ``spec.name`` / ``owner`` / ``payload``) and the two fields a record is
# identified by (``status``, ``submitted_at``) always stay.  Absent therefore
# means *the default*, never "unchanged", and the readers below build their
# dataclasses from the keys a record has — the dataclass supplies the rest,
# so no default is spelled out on either side.


def _field_defaults(cls) -> Dict[str, object]:
    """``{field: default}`` for the fields of ``cls`` declared with one."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


CONSTRAINT_DEFAULTS = _field_defaults(JobConstraints)
SPEC_DEFAULTS = _field_defaults(JobSpec)
JOB_DEFAULTS = _field_defaults(Job)


def _elider(defaults: Dict[str, object]) -> Callable[[object], Dict[str, object]]:
    """The rule, bound to one field table: ``chosen(obj)`` is ``{field: value}``
    for the fields of ``obj`` that are not at their default."""
    names = tuple(defaults)
    at_default = tuple(defaults.values())
    read = attrgetter(*names)

    def chosen(obj: object) -> Dict[str, object]:
        values = read(obj)
        if values == at_default:  # the common case: nothing was chosen
            return {}
        return {
            name: value
            for name, value, default in zip(names, values, at_default)
            if value != default
        }

    return chosen


_chosen_constraints = _elider(CONSTRAINT_DEFAULTS)
_chosen_spec = _elider(SPEC_DEFAULTS)
#: The :class:`Job` fields a record carries beside its identity.
_chosen_state = _elider(
    {
        name: JOB_DEFAULTS[name]
        for name in (
            "started_at",
            "finished_at",
            "assigned_vantage_point",
            "assigned_device",
            "result",
            "error",
            "_log_lines",
        )
    }
)
#: What a ``job.finished`` record says about the job beyond its new status.
_JOB_FINISHED_KEYS = ("finished_at", "result", "error", "log_lines")
#: Assignment state that dies with the process that held it.
_IN_FLIGHT_FIELDS = ("started_at", "assigned_vantage_point", "assigned_device")


def _spelled_out(data: Dict[str, object], defaults: Dict[str, object]) -> Dict[str, object]:
    """The defaulted fields a persisted record spells out, as constructor
    keywords — the dataclass fills in whatever the record left out."""
    return {name: data[name] for name in defaults if name in data}


def serialize_spec(spec: JobSpec) -> Dict[str, object]:
    record: Dict[str, object] = {
        "name": spec.name,
        "owner": spec.owner,
        "payload": payload_name(spec.run),
        **_chosen_spec(spec),
    }
    constraints = _chosen_constraints(spec.constraints)
    if constraints:
        record["constraints"] = constraints
    return record


def deserialize_spec(data: Dict[str, object]) -> JobSpec:
    return JobSpec(
        name=data["name"],
        owner=data["owner"],
        run=resolve_payload(data.get("payload")),
        constraints=job_constraints(**data.get("constraints", {})),
        **_spelled_out(data, SPEC_DEFAULTS),
    )


def _job_state(job: Job) -> Dict[str, object]:
    """What ``job`` chose beyond its identity, in record form: a result the
    encoder can take, and the log under its public name."""
    state = _chosen_state(job)
    if "result" in state:
        state["result"] = _json_safe(state["result"])
    if "_log_lines" in state:
        state["log_lines"] = list(state.pop("_log_lines"))
    return state


def serialize_job(job: Job, queue_seq: Optional[int] = None) -> Dict[str, object]:
    record = {
        "job_id": job.job_id,
        "spec": serialize_spec(job.spec),
        "status": job.status.value,
        "submitted_at": job.submitted_at,
        **_job_state(job),
    }
    if queue_seq is not None:  # a snapshot's note on a queued job, not a field
        record["queue_seq"] = queue_seq
    return record


def job_submitted(job: Job, idempotency_key: Optional[str] = None) -> Dict[str, object]:
    """A ``job.submitted`` record's data: the job's row, and the key a
    retried submission is matched by, if it has one."""
    data: Dict[str, object] = {"job": serialize_job(job)}
    if idempotency_key is not None:
        data["idempotency_key"] = idempotency_key
    return data


def job_finished(job: Job) -> Dict[str, object]:
    """A ``job.finished`` record's data: the terminal status and what the
    run left on the job."""
    state = _job_state(job)
    return {
        "job_id": job.job_id,
        "status": job.status.value,
        **{key: state[key] for key in _JOB_FINISHED_KEYS if key in state},
    }


def _check_job_record(job: Dict[str, object], source: object) -> None:
    """Refuse a job record carrying a constraint this build does not know.

    The keys become :class:`JobConstraints` keywords; a foreign one (state
    written by a newer build) would otherwise abort recovery with a bare
    ``TypeError`` naming neither the job nor the file.
    """
    foreign = job.get("spec", {}).get("constraints", {}).keys() - CONSTRAINT_DEFAULTS.keys()
    if foreign:
        raise PersistenceError(
            f"{source}: job {job.get('job_id')} carries unknown constraint "
            f"{', '.join(map(repr, sorted(foreign)))} "
            f"(this build knows {', '.join(CONSTRAINT_DEFAULTS)})"
        )


def materialize_job(data: Dict[str, object]) -> Tuple[Job, bool]:
    """Rebuild a :class:`Job` from its journaled form.

    Returns ``(job, was_in_flight)``: a job that was RUNNING when the state
    was captured comes back QUEUED (its execution died with the old
    process) with its assignment cleared, flagged so recovery can report it.
    """
    state = _spelled_out(data, JOB_DEFAULTS)
    status = JobStatus(state.pop("status", JOB_DEFAULTS["status"]))
    was_in_flight = status is JobStatus.RUNNING
    if was_in_flight:
        status = JobStatus.QUEUED
        for name in _IN_FLIGHT_FIELDS:
            state.pop(name, None)
    job = Job(spec=deserialize_spec(data["spec"]), job_id=data["job_id"], status=status, **state)
    for line in data.get("log_lines", ()):
        job.log(line)
    return job, was_in_flight


# -- the other records ----------------------------------------------------------
#
# A reservation is ``dataclasses.asdict`` of its ``SessionReservation`` and a
# credit transaction that of its ``CreditTransaction`` with the kind's value,
# so their key order is the dataclass's field order.


def serialize_user(user) -> Dict[str, object]:
    """Journal form of one account — the token *hash*, never the plaintext.
    Its keys are ``UserRegistry.restore_user``'s keywords."""
    return {
        "username": user.username,
        "role": user.role.value,
        "token_hash": user.token_hash,
        "email": user.email,
        "enabled": user.enabled,
    }


def serialize_vantage_point(record) -> Dict[str, object]:
    """Journal form of one registered vantage point (``VantagePointRecord``)."""
    return {
        "name": record.name,
        "institution": record.institution,
        "dns_name": record.dns_name,
        "devices": list(record.controller.list_devices()),
    }
