"""Writes this fixture.  Run it on the commit whose format you want frozen.

The committed ``snapshot.json`` / ``journal.jsonl`` / ``expected.json`` were
written by the last commit whose writers spelled every key out (19676c5,
before records elided defaults)::

    PYTHONPATH=src python tests/data/state_format1_full/generate.py OUT_DIR

``snapshot.json`` is a checkpoint taken mid-session and ``journal.jsonl``
the tail written after it, ending in a crash (no close, no final
checkpoint).  Between them they hold a job in every state the server can
leave behind: settled (completed with a result and log lines, failed with
an error), cancelled, rejected, pending approval, queued, queued and
undispatchable, agent-execution (queued, and leased at the crash), running
on a push slot at the crash, pinned to a reserved device — plus an
idempotency key, reservations (one cancelled) and credit traffic.

``expected.json`` is what the *same commit* recovers from the two files:
its ``job.list``, queue order, credit balances, analytics report and the
``jobs`` of its first checkpoint after recovery.
``tests/test_record_elision.py`` holds later commits to it.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from repro.accessserver.jobs import JobConstraints, JobSpec
from repro.accessserver.persistence import noop_payload, register_payload
from repro.core.platform import build_default_platform

PLATFORM = dict(seed=7, browsers=("chrome",), device_count=3)


def measure_payload(ctx):
    ctx.log("measuring")
    ctx.log("done")
    return {"median_ma": 212.5, "samples": [1, 2, 3], "ok": True}


def failing_payload(ctx):
    ctx.log("about to fail")
    raise RuntimeError("monsoon unplugged")


def register_fixture_payloads():
    register_payload("fixture-measure", measure_payload)
    register_payload("fixture-fail", failing_payload)


def spec(name, run=noop_payload, owner="experimenter", constraints=None, **fields):
    return JobSpec(
        name=name, owner=owner, run=run, constraints=constraints or JobConstraints(), **fields
    )


def write_state(state_dir: Path) -> None:
    platform = build_default_platform(state_dir=str(state_dir), **PLATFORM)
    server = platform.access_server
    admin, user = platform.admin, platform.experimenter
    server.enable_credit_system(initial_grant_device_hours=500.0)
    server.grant_credits(admin, "experimenter", 25.0, note="fixture grant")
    submit = server.submit_job

    # -- what the snapshot holds ------------------------------------------------
    submit(user, spec("settled-noop"))
    submit(user, spec("settled-measure", run=measure_payload, description="a real result"))
    submit(user, spec("settled-fail", run=failing_payload, timeout_s=120.0))
    server.run_pending_jobs(max_jobs=10)
    platform.context.run_for(30.0)
    cancelled = submit(user, spec("cancelled-queued", constraints=JobConstraints("nowhere")))
    server.scheduler.cancel(cancelled.job_id)
    submit(user, spec("pending-approval", is_pipeline_change=True))
    rejected = submit(user, spec("rejected-change", is_pipeline_change=True))
    server.reject_job(admin, rejected, reason="not this week")
    submit(
        user,
        spec(
            "queued-custom",
            description="every field chosen",
            priority=3.0,
            timeout_s=900.0,
            log_retention_days=2.5,
            constraints=JobConstraints(
                vantage_point="node9",
                device_serial="node9-dev00",
                connectivity="wifi",
                require_low_controller_cpu=True,
                max_controller_cpu_percent=35.0,
            ),
        ),
        idempotency_key="fixture-key-1",
    )
    submit(user, spec("agent-queued", execution="agent"))
    submit(
        user,
        spec(
            "agent-fanout",
            execution="agent",
            constraints=JobConstraints(device_count=2, connector="multi"),
        ),
    )
    reserved = server.reserve_session(user, "node1", "node1-dev02", start_s=5000.0, duration_s=600.0)
    server.reserve_session(admin, "node1", "node1-dev01", start_s=9000.0, duration_s=300.0)
    submit(user, spec("on-reserved-device", constraints=JobConstraints(device_serial="node1-dev02")))
    to_cancel_later = submit(user, spec("cancelled-after-snapshot", constraints=JobConstraints("nowhere")))
    server.persistence.checkpoint()

    # -- the journal tail -------------------------------------------------------
    platform.context.run_for(10.0)
    server.run_pending_jobs(max_jobs=1)  # on-reserved-device settles in the tail
    submit(user, spec("tail-measure", run=measure_payload, priority=1.0))
    server.run_pending_jobs(max_jobs=1)
    change = submit(user, spec("approved-change", is_pipeline_change=True))
    server.approve_job(admin, change)
    server.scheduler.cancel(to_cancel_later.job_id)
    server.scheduler.cancel_reservation(reserved.reservation_id)
    server.reserve_session(user, "node1", "node1-dev00", start_s=20000.0, duration_s=120.0)
    server.grant_credits(admin, "experimenter", 1.5, note="tail grant")
    submit(user, spec("tail-queued", timeout_s=60.0), idempotency_key="fixture-key-2")
    submit(user, spec("tail-unroutable", constraints=JobConstraints("nowhere")))
    server.register_agent(user, "fixture-agent", connectors=["fake", "multi"])
    fanout = next(job for job in server.scheduler.jobs() if job.spec.name == "agent-fanout")
    server.agent_claim(user, "fixture-agent", fanout.job_id, ttl_s=60.0)  # leased at the crash
    in_flight = server.scheduler.dispatch_batch(server.context.now)  # running at the crash
    assert in_flight, "the fixture needs a push job in flight"
    server.persistence.backend.sync()  # the crash: no close, no final checkpoint


def observe(state_dir: Path) -> dict:
    """What recovering ``state_dir`` yields, as plain JSON."""
    platform = build_default_platform(state_dir=str(state_dir), **PLATFORM)
    server = platform.access_server
    report = server.persistence.last_recovery
    ledger = server.credit_policy.ledger
    snapshot = server.persistence.backend.read_snapshot()
    return {
        "job_list": [view.to_wire() for view in platform.client("admin").list_jobs()],
        "queue_order": [job.job_id for job in server.scheduler.engine.queue.jobs()],
        "pending_approval": [job.job_id for job in server.pending_approval()],
        "requeued_in_flight": report.jobs_requeued_in_flight,
        "orphaned_jobs": report.orphaned_jobs,
        "credits": {
            account.owner: [account.balance_device_hours, len(account.transactions)]
            for account in ledger.accounts()
        },
        "reservations": [r.reservation_id for r in server.scheduler.reservations()],
        "idempotency": [list(record) for record in server.idempotency_records()],
        "analytics_report": server.analytics.report(include_throughput=False),
        "snapshot_jobs": snapshot["jobs"],
    }


def main(out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    register_fixture_payloads()
    with tempfile.TemporaryDirectory() as scratch:
        state = Path(scratch) / "state"
        write_state(state)
        for name in ("snapshot.json", "journal.jsonl"):
            shutil.copy(state / name, out / name)
        recovered = Path(scratch) / "recovered"
        shutil.copytree(state, recovered)
        expected = observe(recovered)
    (out / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
