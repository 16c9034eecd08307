#!/usr/bin/env python3
"""How to join BatteryLab: provisioning a new vantage point (Section 3.4).

A member institution assembles the recommended hardware (Raspberry Pi
controller, Monsoon power monitor, relay circuit, a phone), opens the
required ports (2222/8080/6081), and registers with the access server.  The
access server runs the join procedure: DNS registration under
``batterylab.dev``, controller image flashing, SSH public-key authorisation
with IP white-listing, wildcard-certificate deployment, and a check that at
least one Android device is connected.

This example adds a second vantage point ("node2", hosted by an example
university with a Pixel 3a behind a slower uplink) to the default platform
and then schedules a job on it through the shared access server.

Run it with ``python examples/join_vantage_point.py``.
"""

from repro import build_default_platform
from repro.core.platform import add_vantage_point
from repro.device.profiles import PIXEL_3A
from repro.network.link import NetworkLink


def main() -> None:
    platform = build_default_platform(seed=7)
    server = platform.access_server

    print("Registered vantage points before joining:", [r.name for r in server.accounts.vantage_points()])

    handle = add_vantage_point(
        platform,
        node_identifier="node2",
        institution="Example University",
        device_profiles=[PIXEL_3A],
        browsers=("brave", "chrome"),
        uplink=NetworkLink(name="node2-uplink", downlink_mbps=25.0, uplink_mbps=8.0, latency_ms=18.0),
        home_region="US",
    )

    report = handle.record.report
    print(f"\nJoin procedure for {report.dns_name} (image {report.image_version}):")
    for step in report.steps:
        status = "ok" if step.passed else "FAILED"
        print(f"  [{status:6}] {step.name}: {step.detail}")

    print("\nRegistered vantage points after joining:", [r.name for r in server.accounts.vantage_points()])
    print("DNS record:", server.dns.resolve("node2"))

    # The new node is immediately visible and schedulable through Platform
    # API v1 — jobs are submitted and inspected via the client SDK only.
    client = platform.client()
    fleet = client.fleet()
    print("Fleet over the API:", {vp.name: [d.serial for d in vp.devices] for vp in fleet.vantage_points})

    def inventory(ctx):
        return {serial: ctx.api.controller.device(serial).summary() for serial in ctx.api.list_devices()}

    view = client.submit_job("node2-inventory", inventory, vantage_point="node2")
    watch = client.watch_job(view.job_id)  # API v2: stream instead of polling
    platform.run_queue()
    final = watch.wait()
    results = client.job_results(view.job_id)
    print(f"\nInventory job #{view.job_id} ({final.status}) result:")
    for serial, summary in results.result.items():
        print(f"  {serial}: {summary['model']} ({summary['os']}), battery {summary['battery_percent']}%")

    # An administrator can also admit a member *entirely over the wire* —
    # no in-process add_vantage_point call — via API v2's
    # vantage-point.register (see examples/remote_admin.py for the full
    # remote-operations workflow):
    admin = platform.client(username="admin")
    remote_vp = admin.register_vantage_point(
        "node3", "Remote Example Labs", device_count=1, device_profile="google-pixel-3a"
    )
    print(f"\nremotely registered {remote_vp.name} ({remote_vp.dns_name}) "
          f"with devices {[d.serial for d in remote_vp.devices]}")


if __name__ == "__main__":
    main()
