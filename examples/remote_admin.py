#!/usr/bin/env python3
"""Fully-remote platform administration over the TLS gateway (API v2).

BatteryLab is an *operated* platform: administrators approve member
pipelines and new vantage points, and the paper mandates HTTPS-only
access.  This example runs the entire operator workflow with nothing but a
:class:`~repro.api.client.BatteryLabClient` talking to a TLS
:class:`~repro.api.gateway.ApiGateway` socket — no in-process Python access
to the access server at all:

1. serve the Platform API over TLS (self-signed wildcard material for
   ``*.batterylab.dev``, minted on demand),
2. ``auth.login`` — exchange the admin credentials for a short-lived
   bearer session token (credentials travel exactly once),
3. ``vantage-point.register`` — admit a new member node over the wire,
4. ``user.create`` + ``credits.grant`` — onboard an experimenter and fund
   their account,
5. approve the experimenter's pending pipeline-change job
   (``approvals.list`` / ``job.approve``),
6. ``job.watch`` — stream the job's ``dispatch.*`` events until the
   terminal frame arrives; no ``job.status`` polling loop anywhere,
7. ``auth.logout``.

Run it with ``python examples/remote_admin.py``.
"""

import tempfile
import threading
import time

from repro import build_default_platform
from repro.accessserver.certificates import (
    client_tls_context,
    ensure_tls_material,
    openssl_available,
)
from repro.api import BatteryLabClient, JsonLinesTransport


def main() -> None:
    platform = build_default_platform(seed=7, browsers=("chrome",))
    platform.access_server.accounts.enable_credit_system()

    # -- 1. the server side: a TLS gateway plus a thread driving the
    # simulation (executing whatever the remote clients enqueue).
    cert_dir = tempfile.mkdtemp(prefix="batterylab-tls-")
    if not openssl_available():
        raise SystemExit("this example needs the 'openssl' binary to mint TLS material")
    gateway = platform.serve_gateway(tls_cert_dir=cert_dir, assume_https=False)
    host, port = gateway.address
    print(f"TLS gateway listening on {host}:{port} (cert dir: {cert_dir})")

    stop_driving = threading.Event()

    def drive_simulation() -> None:
        while not stop_driving.is_set():
            # The router lock serializes this loop with in-flight gateway
            # requests — the simulation behind the server is single-threaded.
            with gateway.router_lock:
                platform.run_queue()
                platform.context.run_for(1.0)
            time.sleep(0.02)

    driver = threading.Thread(target=drive_simulation, daemon=True)
    driver.start()

    # -- 2. the remote administrator: only a client and the wildcard cert.
    tls = client_tls_context(ensure_tls_material(cert_dir))
    admin = BatteryLabClient(
        JsonLinesTransport(host, port, timeout_s=30.0, tls_context=tls),
        "admin",
        "admin-token",
    )
    session = admin.login(ttl_s=900.0)
    print(f"logged in as {session.username} ({session.role}); "
          f"session expires at t={session.expires_at:.0f}s")

    # -- 3. admit a new member vantage point entirely over the wire.
    vp = admin.register_vantage_point(
        "node2",
        "Example University",
        contact_email="ops@example-university.example",
        device_count=1,
        device_profile="google-pixel-3a",
    )
    print(f"registered {vp.name} ({vp.dns_name}) with {[d.serial for d in vp.devices]}")

    # -- 4. onboard a remote experimenter and fund their account.
    admin.create_user("alice", "experimenter", "alice-token", email="alice@example.org")
    balance = admin.grant_credits("alice", 10.0, note="onboarding grant")
    print(f"alice funded with {balance.balance_device_hours:.1f} device-hours")

    # -- 5. the experimenter submits a pipeline change; the admin approves
    # it from the approvals queue.  ("noop" is a server-side payload name —
    # payload code never crosses the wire.)
    alice = BatteryLabClient(
        JsonLinesTransport(host, port, timeout_s=30.0, tls_context=tls),
        "alice",
        "alice-token",
    )
    alice.login()
    job = alice.submit_job(
        "pipeline-update",
        "noop",
        is_pipeline_change=True,
        idempotency_key="pipeline-update-2026-07",
    )
    pending = admin.approvals()
    print(f"pending approvals: {[view.job_id for view in pending]}")

    # Subscribe *before* approving so no event can slip past the watch.
    watch = alice.watch_job(job.job_id, timeout_s=30.0)
    approved = admin.approve_job(job.job_id)
    print(f"job {approved.job_id} approved -> {approved.status}")

    # -- 6. stream dispatch events until the terminal frame; the simulation
    # thread executes the job concurrently.
    for frame in watch:
        label = frame.topic if frame.topic else "end"
        print(f"  [job.watch] seq={frame.seq} {label}")
    print(f"job finished: {watch.final.status} on {watch.final.vantage_point}")

    # -- 7. clean teardown.
    print(f"admin logout: {admin.logout()}")
    alice.close()
    admin.close()
    stop_driving.set()
    driver.join(timeout=5.0)
    gateway.stop()
    print("done — the whole workflow ran over the TLS wire")


if __name__ == "__main__":
    main()
