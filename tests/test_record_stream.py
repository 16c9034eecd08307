"""One record per mutation: what the journal and the event bus say, pinned.

The access server builds each mutation's journal record once and hands it
to the journal and to the live analytics fold; it publishes the bus topics
beside it for ``events.subscribe`` and ``job.watch`` streams.  These tests
pin both halves:

* the journal's ``(kind, ts, data)`` sequence and every bus ``(topic,
  payload)`` outside ``trace.`` for a mixed workload (``run_mixed_workload``
  plus an agent claim and report, and a lapsed lease) equal a committed
  golden, so journal bytes and the streams' wire contract stay as they are;
* the bus is an output only: publishing on it journals nothing and folds
  nothing into the operations report.

``python tests/test_record_stream.py`` rewrites the golden after a
deliberate change to a record or topic; read the diff before committing.
"""

import json
import os

from test_analytics import run_mixed_workload

from repro.accessserver.persistence import InMemoryBackend
from repro.analytics import report_json
from repro.core.platform import build_default_platform

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "record_stream_golden.json")


def record_streams():
    """Run the workload; return ``{"journal": [[kind, ts, data], ...],
    "bus": [[topic, payload], ...]}``."""
    platform = build_default_platform(seed=23, browsers=("chrome",))
    server = platform.access_server
    # A lane of its own, so job ids do not depend on what ran before.
    server.configure_shard("golden")
    backend = InMemoryBackend()
    server.enable_persistence(backend, snapshot_every=10**9)
    bus = []

    def keep(event):
        if not event.topic.startswith("trace."):
            bus.append([event.topic, dict(event.payload)])

    server.events.subscribe(None, keep)
    run_mixed_workload(platform)
    client = platform.client()
    client.agent_register("edge-1", connectors=["fake"])
    kept = client.submit_job("pulled", "noop", execution="agent", connector="fake")
    lapsed = client.submit_job("lapsed", "noop", execution="agent", connector="fake")
    platform.context.run_for(5.0)
    lease = client.agent_claim("edge-1", kept.job_id, ttl_s=30.0)
    platform.context.run_for(3.0)
    client.agent_report(lease.lease_id, "edge-1", "completed", result={"ok": True})
    client.agent_claim("edge-1", lapsed.job_id, ttl_s=10.0)
    platform.context.run_for(11.0)
    assert server.agents.expire_leases() == 1
    streams = {
        "journal": [
            [record["kind"], record["ts"], record["data"]] for record in backend.read_journal()
        ],
        "bus": bus,
    }
    # A JSON round trip, so the comparison sees what the golden file holds.
    return json.loads(json.dumps(streams))


def test_journal_and_bus_streams_match_the_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    streams = record_streams()
    assert streams["journal"] == golden["journal"]
    assert streams["bus"] == golden["bus"]


def test_the_bus_is_not_an_input():
    """Records published on the bus by anyone but the server's own
    mutations reach neither the journal nor the live report."""
    platform = build_default_platform(seed=23, browsers=("chrome",))
    server = platform.access_server
    server.enable_persistence(InMemoryBackend(), snapshot_every=10**9)
    client = platform.client()
    job = client.submit_job("real", "noop")
    platform.run_queue()
    sequence = server.persistence.sequence
    report = report_json(server.analytics.report())
    server.events.publish(
        "dispatch.assigned",
        job_id=99999,
        job="ghost",
        owner="experimenter",
        vantage_point="node1",
        device_serial="node1-dev00",
        policy="fifo",
    )
    server.events.publish(
        "job.finished", job_id=job.job_id, status="failed", finished_at=1.0
    )
    server.events.publish(
        "credit.txn",
        timestamp=1.0,
        account="experimenter",
        kind="usage",
        amount_device_hours=-3.0,
        note="forged",
    )
    assert server.persistence.sequence == sequence
    assert report_json(server.analytics.report()) == report


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(record_streams(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
