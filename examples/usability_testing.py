#!/usr/bin/env python3
"""Usability testing with human testers over device mirroring.

BatteryLab's GUI lets experimenters hand full remote control of a test
device to recruited testers (volunteers or paid crowd workers), while the
power monitor keeps recording.  Mirroring cannot be turned off in this mode,
so its constant overhead (~20 mAh per run in the paper) has to be accounted
for — this example measures exactly that.

The flow below:

1. an experimenter reserves an interactive time slot on the device,
2. a paid tester is recruited via Mechanical Turk and gets a share URL with
   the API toolbar hidden,
3. the tester's clicks travel through noVNC to the device while the Monsoon
   records the current,
4. the script reports the discharge, the mirroring upload traffic and the
   session cost.

Run it with ``python examples/usability_testing.py``.
"""

from repro import build_default_platform
from repro.accessserver.testers import RecruitmentChannel
from repro.core.session import MeasurementSession
from repro.mirroring.latency import MirroringLatencyProbe


def main() -> None:
    platform = build_default_platform(seed=7)
    server = platform.access_server
    handle = platform.vantage_point()
    controller = handle.controller
    device = handle.device()

    # 1. Reserve a 15-minute interactive slot — through the Platform API v1
    # client, the same call a remote experimenter would make.
    client = platform.client()
    reservation = client.reserve_session(
        "node1", device.serial, start_s=platform.context.now, duration_s=900.0
    )
    print(f"reservation #{reservation.reservation_id} for {reservation.duration_s/60:.0f} minutes")

    # 2. Recruit a paid tester and share the mirrored device (toolbar hidden).
    tester = server.accounts.testers.recruit("mturk-worker-42", RecruitmentChannel.MECHANICAL_TURK, hourly_rate_usd=15.0)
    tester_session = server.accounts.share_with_tester(
        platform.experimenter, tester.tester_id, "node1", device.serial, duration_s=900.0
    )
    print(f"share URL for the tester: {tester_session.share_url} (toolbar hidden: {not tester_session.toolbar_visible})")

    # 3. Start the measurement and let the tester interact with a shopping-style app.
    handle.monitor.set_sample_rate(200.0)
    mirroring = controller.mirroring_session(device.serial)
    viewer = mirroring.novnc.viewers()[0]
    device.packages.launch("com.android.chrome")

    session = MeasurementSession(controller, device.serial, mirroring=True, label="usability-test")
    session.start()
    for minute in range(5):
        for _ in range(6):
            mirroring.novnc.deliver_input(viewer.session_id, "keyevent KEYCODE_PAGE_DOWN")
            tester_session.record_action("scroll")
            platform.run_for(8.0)
        platform.run_for(12.0)
    result = session.stop()
    tester_session.close()

    # 4. Report.
    print(f"\n5-minute usability session on {device.profile.model}:")
    print(f"  battery discharge:        {result.discharge_mah():.1f} mAh")
    print(f"  median current:           {result.median_current_ma():.0f} mA")
    print(f"  mirroring upload traffic: {result.mirroring_upload_bytes / 1e6:.1f} MB")
    print(f"  controller memory usage:  {result.controller_memory_percent:.1f}%")
    print(f"  tester actions recorded:  {len(tester_session.actions)}")
    print(f"  session cost:             ${tester_session.cost_usd():.2f}")

    probe = MirroringLatencyProbe(platform.context.random_stream("latency"), network_rtt_ms=1.0)
    summary = probe.run(40)
    print(f"  click-to-pixel latency:   {summary.mean_s:.2f} ± {summary.std_s:.2f} s (40 trials)")


if __name__ == "__main__":
    main()
